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
    # one bad node per public oracle entry (see test_oracle_entries_refuse_nodes_as_sphpoint)
    "fd_partial node": (lambda: oracle.fd_partial(lambda r, t, p: r, -1.0, 1.0, 1.0, "r"),
                        "negative radius r=-1.0"),
    "fd_curl_spherical node": (lambda: oracle.fd_curl_spherical(
        lambda r, t, p: (r, t, p), 0.5, 1.0, float("inf")), "non-finite coordinate phi=inf"),
    "fd_boundary_radial_derivative node": (lambda: oracle.fd_boundary_radial_derivative(
        lambda r, t, p: r, 4.0, 1.0), "colatitude out of range theta=4.0"),
    "cartesian_jacobian_grid node": (lambda: oracle.cartesian_jacobian_grid(
        lambda r, t, p: (r, t, p), 0.5, -0.5, 1.0), "colatitude out of range theta=-0.5"),
    "cartesian_stencil_fits node": (lambda: oracle.cartesian_stencil_fits(
        float("nan"), 1.0, 1.0, 1e-6), "non-finite coordinate r=nan"),
    "witness grid": (lambda: family.find_witnesses(family.default_field(), 7, 7),
                     "n_theta must be at least 8"),
    "lattice kind": (lambda: GridSpec().lattice(boundary_only=True),
                     "this check needs a boundary grid (boundary_only=True), "
                     "got boundary_only=False"),
    "non-finite result": (lambda: verify.run_full_verification(
        family.family_by_label("perturbed:8.98e307"), *COARSE),
        "check slip_omega_cross_n gives a non-finite norm_sup (inf)"),
    # a Python int too large for a float, named by its field and never printed
    # (the repr of an int of 5000 digits raises on Python 3.11+)
    "grid margin too large": (lambda: GridSpec(margin_r=10**400),
                              "margin_r holds an integer too large for a float"),
    "oracle step too large": (lambda: oracle.FDConfig(step=10**400),
                              "step holds an integer too large for a float"),
    "point too large": (lambda: sphcalc.SphPoint(10**5000, 1, 1),
                        "coordinate r holds an integer too large for a float"),
    "evaluator node too large": (lambda: family.default_field().u_components(0.5, 10**400, 1.0),
                                 "coordinate theta holds an integer too large for a float"),
    "sphere node too large": (lambda: family.default_field().boundary_curl_theta(1.0, 10**400),
                              "coordinate phi holds an integer too large for a float"),
    "perturbation size too large": (lambda: family.perturbed_profile(10**400),
                                    "perturbation size holds an integer too large for a float"),
    "sweep eps too large": (lambda: verify.scaling_sweep(family.default_field(),
                                                         [10**400, 1e-2, 1e-3, 1e-4]),
                            "perturbation size holds an integer too large for a float"),
}


@pytest.mark.parametrize("call, message", BAD_INPUT.values(), ids=BAD_INPUT)
def test_bad_input_raises_one_typed_error(call, message):
    with pytest.raises(ConfigError) as exc:
        call()
    assert str(exc.value) == message
    assert isinstance(exc.value, SlipballError) and isinstance(exc.value, ValueError)


@pytest.mark.parametrize("entry, node", [
    ("fd_partial node", (-1.0, 1.0, 1.0)),
    ("fd_curl_spherical node", (0.5, 1.0, float("inf"))),
    ("fd_boundary_radial_derivative node", (1.0, 4.0, 1.0)),
    ("cartesian_jacobian_grid node", (0.5, -0.5, 1.0)),
    ("cartesian_stencil_fits node", (float("nan"), 1.0, 1.0)),
])
def test_oracle_entries_refuse_nodes_as_sphpoint(entry, node):
    # every oracle takes its nodes through the one node entry that SphPoint
    # takes, so both refuse a node with one message
    with pytest.raises(ConfigError) as exc:
        sphcalc.SphPoint(*node)
    assert str(exc.value) == BAD_INPUT[entry][1]


def test_the_package_exports_the_error():
    assert slipball.ConfigError is ConfigError and not hasattr(slipball, "NoWitness")


def test_cli_converts_no_other_error(monkeypatch):
    # a plain ValueError is a programming error: main lets it through
    def broken_run(*args, **kwargs):
        raise ValueError("not bad input")

    monkeypatch.setattr(verify, "run_full_verification", broken_run)
    with pytest.raises(ValueError, match="not bad input"):
        cli.main(["verify", "--grid-nr", "8", "--grid-ntheta", "8", "--grid-nphi", "8"])
