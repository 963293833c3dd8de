"""Bad input raises one typed error, ConfigError, in the code that reads it."""
import pytest

import slipball
from slipball import cli, family, oracle, sphcalc, verify
from slipball.errors import ConfigError, SlipballError
from slipball.verify import GridSpec

COARSE = (GridSpec(n_r=8, n_theta=8, n_phi=8), GridSpec(n_theta=32, n_phi=64, boundary_only=True))

# Each public call that reads bad input, and its message.
BAD_INPUT = {
    "grid count": (lambda: GridSpec(n_r=4), "n_r must be at least 8"),
    "oracle step": (lambda: oracle.FDConfig(step=1.0), "step 1.0 outside [1e-8, 1e-2]"),
    "family label": (lambda: family.family_by_label("nope"), "unknown family label 'nope'"),
    "point": (lambda: sphcalc.SphPoint(-1, 0, 0), "negative radius r=-1.0"),
    "sweep eps set": (lambda: verify.scaling_sweep(family.default_field(), [1e-2] * 4, COARSE[1]),
                      "degenerate fit: all eps values identical"),
    "profile support": (lambda: family.RadialProfile(lambda r, k: (r,), 2.0, "x"),
                        "support_inner must lie in (0, 1)"),
    "partial coordinate": (lambda: oracle.fd_partial(lambda r, t, p: r, 0.5, 1.0, 1.0, "q"),
                           "unknown coordinate 'q'"),
    "witness grid": (lambda: family.find_witnesses(family.default_field(), 7, 7),
                     "n_theta must be at least 8"),
    "lattice kind": (lambda: GridSpec().lattice(boundary_only=True),
                     "this check needs a boundary grid (boundary_only=True), "
                     "got boundary_only=False"),
    "non-finite result": (lambda: verify.run_full_verification(
        family.family_by_label("perturbed:8.98e307"), *COARSE),
        "check divergence_free gives a non-finite norm_sup (nan)"),
}


@pytest.mark.parametrize("call, message", BAD_INPUT.values(), ids=BAD_INPUT)
def test_bad_input_raises_one_typed_error(call, message):
    with pytest.raises(ConfigError) as exc:
        call()
    assert str(exc.value) == message
    assert isinstance(exc.value, SlipballError) and isinstance(exc.value, ValueError)


def test_the_package_exports_the_error():
    assert slipball.ConfigError is ConfigError and not hasattr(slipball, "NoWitness")


def test_cli_converts_no_other_error(monkeypatch):
    # a plain ValueError is a programming error: main lets it through
    def broken_run(*args, **kwargs):
        raise ValueError("not bad input")

    monkeypatch.setattr(verify, "run_full_verification", broken_run)
    with pytest.raises(ValueError, match="not bad input"):
        cli.main(["verify", "--grid-nr", "8", "--grid-ntheta", "8", "--grid-nphi", "8"])
