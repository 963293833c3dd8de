"""The error budget of the default FD oracle: one central difference at
step 1e-6, no Richardson.

(a) The error curve.  A central difference errs by truncation, which
grows as step^2, and by rounding, which grows as 1e-16 / step.  Measured
with numpy 2.4.6, plain central differences, the default family:

    step    divergence_free sup      worst oracle_agreement_curl
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

(b) The detection floor.  The test adds a known divergence
delta * b(r) e_r to u, with b a smooth bump supported in (0.3, 0.9).
div(b e_r) = b' + 2 b / r in closed form, so delta sets the true sup of
|div| on the grid.  The default oracle must fail the check at twice
TOL_FD and pass it at half TOL_FD, so halving the oracle's work still
leaves it able to tell the two apart at TOL_FD.
"""
import numpy as np
import pytest

from slipball import family as fam
from slipball import oracle, verify

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
    fd = oracle.cartesian_curl_grid(DEFAULT.u_components, *nodes, cfg)
    return max(float(np.max(np.abs(a - b))) for a, b in zip(closed, fd))


@pytest.fixture(scope="module")
def curve():
    return {step: (verify.check_divergence_free(DEFAULT, SHIPPED,
                                                oracle.FDConfig(step, False)).norm_sup,
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
    assert not verify.check_divergence_free(DEFAULT, SHIPPED, oracle.FDConfig(1e-4, False)).passed
    assert verify.check_divergence_free(DEFAULT, SHIPPED, oracle.FDConfig(1e-4, True)).passed


def bump(r):
    """b(r) = exp(-1 / (1 - s^2)), s = (r - 0.6) / 0.3, and b'(r); both 0
    off (0.3, 0.9)."""
    s = (r - 0.6) / 0.3
    inside = np.abs(s) < 1.0
    q = np.where(inside, 1.0 - s * s, 1.0)
    b = np.where(inside, np.exp(-1.0 / q), 0.0)
    return b, b * (-2.0 * s / (q * q)) / 0.3


class WithRadialSource:
    """The default family plus delta * b(r) e_r, which the check sees
    through u_components and support_mask alone."""

    def __init__(self, delta):
        self.delta = delta

    def u_components(self, r, theta, phi):
        u_r, u_theta, u_phi = DEFAULT.u_components(r, theta, phi)
        return u_r + self.delta * bump(r)[0], u_theta, u_phi

    def support_mask(self, r, theta, pad=0.0):
        return np.ones(np.broadcast_shapes(np.shape(r), np.shape(theta)), dtype=bool)


@pytest.mark.parametrize("ratio, passes", [(2.0, False), (0.5, True)])
def test_divergence_of_size_tol_fd_is_detected(ratio, passes):
    r = SHIPPED.lattice().axes[0].ravel()
    b, db = bump(r)
    # sup |div| of delta * b e_r on the grid, in closed form
    delta = ratio * verify.TOL_FD / np.max(np.abs(db + 2.0 * b / r))
    res = verify.check_divergence_free(WithRadialSource(delta), SHIPPED)
    assert res.passed is passes
    assert res.norm_sup == pytest.approx(ratio * verify.TOL_FD, abs=0.05 * verify.TOL_FD)
