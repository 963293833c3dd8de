"""The error budget of the default FD oracle: one central difference at
step 1e-6, no Richardson.

(a) The error curve.  A central difference errs by truncation, which
grows as step^2, and by rounding, which grows as 1e-16 / step.  Measured
with numpy 2.4.6, plain central differences, the default family:

    step    Cartesian |div u| sup    worst oracle_agreement_curl
            (shipped interior grid)  (seeds 0-299, 50 nodes each)
    1e-5    1.169e-6                 2.138e-5
    5e-6    2.928e-7                 5.345e-6
    2e-6    4.955e-8                 8.551e-7
    1e-6    3.278e-8                 2.135e-7
    5e-7    5.895e-8                 6.615e-8
    1e-7    2.937e-7                 2.298e-7

The divergence bottoms out at the default step 1e-6, 30x under TOL_FD.
Above about 5e-6 a plain difference fails TOL_FD (1e-5 does, and so
does 1e-4 at 1.17e-4), so those steps need Richardson.  The agreement
bottoms out a little lower, at 5e-7, but the default is still about 470x
under TOL_ORACLE_AGREEMENT.  The pins allow 25%, because the small-step
values are rounding noise and move with the platform's libm.

The Cartesian divergence is that of the oracle at every node of the
shipped lattice, passed as its axes, the reference this curve is measured
on; the agreement check gates the trace of the same oracle's Jacobian at
its AGREEMENT_POINTS seeded nodes.

(b) The detection floor.  The test adds a known divergence
delta * b(r) e_r to u, with b a smooth bump supported in (0.3, 0.9).
div(b e_r) = b' + 2 b / r in closed form, so delta sets the true sup of
|div| at the agreement check's nodes.  The default oracle must read more
than TOL_FD at twice TOL_FD and less at half TOL_FD, so halving the
oracle's work still leaves it able to tell the two apart at TOL_FD.

(c) The divergence check itself.  Its sup, |u - u_FD| over the largest
|u|, reads 1.48e-10 for default, h1zero and perturbed:1e-3 on the shipped
grid, about 680x under TOL_POTENTIAL_REL, and the Cartesian gate of the
agreement check 6.3e-9 at the seed's 50 nodes, 160x under TOL_FD.  The
same radial field, scaled to twice and to half TOL_POTENTIAL_REL relative
to the largest |u|, must read above and below it, since the check compares
u_r with 0; at half, the Cartesian gate still fails the run, and the
agreement row, whose curl sup meets its tolerance, names that gate in
details.failed_gate.
"""
import numpy as np
import pytest

from slipball import family as fam
from slipball import oracle, verify
from tests_support import cartesian_curl, cartesian_divergence

DEFAULT = fam.family_by_label("default")
SHIPPED = verify.GridSpec()
SEEDS = range(300)

# step: (divergence_free sup, worst oracle_agreement_curl), as in the docstring
CURVE = {1e-5: (1.169e-6, 2.138e-5), 5e-6: (2.928e-7, 5.345e-6),
         2e-6: (4.955e-8, 8.551e-7), 1e-6: (3.278e-8, 2.135e-7),
         5e-7: (5.895e-8, 6.615e-8), 1e-7: (2.937e-7, 2.298e-7)}


def worst_agreement(cfg):
    """The largest oracle_agreement_curl sup over SEEDS, from one oracle call
    on the agreement nodes of every seed."""
    nodes = [np.concatenate(c)
             for c in zip(*(verify._agreement_nodes(seed, cfg.step) for seed in SEEDS))]
    closed = DEFAULT.omega_components(*nodes)
    fd = cartesian_curl(DEFAULT.u_components, *nodes, cfg)
    return max(float(np.max(np.abs(a - b))) for a, b in zip(closed, fd))


def lattice_divergence_sup(field, cfg, grid=SHIPPED):
    """sup |div u| of the Cartesian oracle on the grid's lattice axes."""
    return float(np.max(np.abs(
        cartesian_divergence(field.u_components, *grid.lattice().axes, cfg))))


@pytest.fixture(scope="module")
def curve():
    return {step: (lattice_divergence_sup(DEFAULT, oracle.FDConfig(step, False)),
                   worst_agreement(oracle.FDConfig(step, False)))
            for step in CURVE}


@pytest.mark.parametrize("step", CURVE)
def test_error_curve_is_pinned(curve, step):
    assert curve[step] == pytest.approx(CURVE[step], rel=0.25)


def test_default_step_is_the_bottom_of_the_divergence_curve(curve):
    cfg = oracle.FDConfig()
    assert (cfg.step, cfg.richardson) == (1e-6, False)
    div, agreement = curve[cfg.step]
    assert div == min(d for d, _ in curve.values())
    assert div <= verify.TOL_FD / 20.0
    assert agreement <= verify.TOL_ORACLE_AGREEMENT / 20.0


def test_plain_difference_fails_above_5e_6(curve):
    assert curve[1e-5][0] > verify.TOL_FD
    assert lattice_divergence_sup(DEFAULT, oracle.FDConfig(1e-4, False)) > verify.TOL_FD
    assert lattice_divergence_sup(DEFAULT, oracle.FDConfig(1e-4, True)) <= verify.TOL_FD


def bump(r):
    """b(r) = exp(-1 / (1 - s^2)), s = (r - 0.6) / 0.3, and b'(r); both 0
    off (0.3, 0.9)."""
    s = (r - 0.6) / 0.3
    inside = np.abs(s) < 1.0
    q = np.where(inside, 1.0 - s * s, 1.0)
    b = np.where(inside, np.exp(-1.0 / q), 0.0)
    return b, b * (-2.0 * s / (q * q)) / 0.3


class WithRadialSource(fam.CounterexampleField):
    """The default family plus delta * b(r) e_r in u_components."""

    def __init__(self, delta):
        super().__init__(DEFAULT.profile, DEFAULT.angular, label="radial-source")
        self.delta = delta

    def u_components(self, r, theta, phi):
        u_r, u_theta, u_phi = super().u_components(r, theta, phi)
        return u_r + self.delta * bump(r)[0], u_theta, u_phi


@pytest.mark.parametrize("ratio, passes", [(2.0, False), (0.5, True)])
def test_divergence_of_size_tol_fd_is_detected(ratio, passes):
    r = verify._agreement_nodes(verify.DEFAULT_SEED, oracle.FDConfig().step)[0]
    b, db = bump(r)
    # sup |div| of delta * b e_r at the agreement nodes, in closed form
    delta = ratio * verify.TOL_FD / np.max(np.abs(db + 2.0 * b / r))
    res = verify.check_oracle_agreement(WithRadialSource(delta))
    sup = res.details["cartesian_divergence_sup"]
    assert (sup <= verify.TOL_FD) is passes
    assert res.passed is passes
    assert sup == pytest.approx(ratio * verify.TOL_FD, abs=0.05 * verify.TOL_FD)


@pytest.mark.parametrize("label", ["default", "h1zero", "perturbed:1e-3"])
@pytest.mark.parametrize("grid", [SHIPPED, verify.GridSpec(n_r=8, n_theta=8, n_phi=8)],
                         ids=["shipped", "coarse"])
def test_divergence_check_reads_its_floor(label, grid):
    field = fam.family_by_label(label)
    res = verify.check_divergence_free(field, grid)
    assert res.passed
    assert res.norm_sup == pytest.approx(1.45e-10, rel=0.25)
    assert res.norm_sup <= verify.TOL_POTENTIAL_REL / 500.0
    cartesian = verify.check_oracle_agreement(field).details["cartesian_divergence_sup"]
    assert cartesian <= verify.TOL_FD / 100.0


@pytest.mark.parametrize("ratio, passes", [(2.0, False), (0.5, True)])
def test_radial_field_of_size_tol_potential_is_detected(ratio, passes):
    u_sup = verify.check_divergence_free(DEFAULT, SHIPPED).details["u_sup"]
    r = SHIPPED.lattice().axes[0].ravel()
    # a source whose largest |u_r| on the grid is ratio * TOL_POTENTIAL_REL * u_sup;
    # too small to move the largest |u|, which lies where u_r is 0
    delta = ratio * verify.TOL_POTENTIAL_REL * u_sup / np.max(bump(r)[0])
    res = verify.check_divergence_free(WithRadialSource(delta), SHIPPED)
    assert res.details["u_sup"] == u_sup
    assert res.norm_sup == pytest.approx(ratio * verify.TOL_POTENTIAL_REL, rel=1e-6)
    assert res.passed is passes
    # the Cartesian gate of the agreement check reads this steep source on
    # its own, above TOL_FD, while the curl of f(r) e_r adds nothing
    agreement = verify.check_oracle_agreement(WithRadialSource(delta))
    assert agreement.details["cartesian_divergence_sup"] > verify.TOL_FD
    assert agreement.norm_sup <= verify.TOL_ORACLE_AGREEMENT
    assert not agreement.passed
    assert not verify.run_full_verification(WithRadialSource(delta), SHIPPED).overall_pass


def test_a_failed_cartesian_gate_is_named():
    # the radial source at half TOL_POTENTIAL_REL: the agreement row's curl
    # sup meets its tolerance, and only failed_gate says why the row fails
    u_sup = verify.check_divergence_free(DEFAULT, SHIPPED).details["u_sup"]
    delta = 0.5 * verify.TOL_POTENTIAL_REL * u_sup / np.max(bump(SHIPPED.lattice().axes[0])[0])
    res = verify.check_oracle_agreement(WithRadialSource(delta))
    div = res.details["cartesian_divergence_sup"]
    assert res.norm_sup <= verify.TOL_ORACLE_AGREEMENT and not res.passed
    assert div == pytest.approx(3.7e-6, rel=0.05)
    assert res.details["failed_gate"] == {"name": "cartesian_divergence_sup", "value": div,
                                          "tolerance": verify.TOL_FD}
    # a row whose gate holds gains no key
    assert "failed_gate" not in verify.check_oracle_agreement(DEFAULT).details
