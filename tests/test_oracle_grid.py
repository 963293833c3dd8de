"""Array spherical oracle: bit-identical to a per-node loop over one-point stencils.

The reference implementations below evaluate each stencil one point at a
time, through SphPoint.  The array oracle does the same float arithmetic
node by node, so every comparison is exact (np.array_equal), not a
tolerance.
"""
import math

import numpy as np
import pytest

from slipball import family as fam
from slipball import cli, kernels, oracle, verify
from slipball.errors import StencilOutOfDomain
from slipball.oracle import FDConfig
from slipball.sphcalc import SphPoint
from slipball.verify import GridSpec
from tests_support import cartesian_curl, cartesian_divergence

PI = math.pi
CONFIGS = [FDConfig(1e-4, True), FDConfig(1e-3, False), FDConfig(1e-2, True)]
SMALL_BOUNDARY = GridSpec(n_theta=48, n_phi=96, boundary_only=True)

# interior and r = 1 nodes in one call, phi on both sides of the wrap, and
# nodes outside the support (r <= 0.25, theta inside the pole margin)
R = np.array([1.0, 0.7, 1.0, 0.55, 0.9, 0.2, 1.0, 0.4, 1.0])
THETA = np.array([1.1, 0.9, 2.0, 1.3, 0.3, 1.2, 2.9, 1.6, PI / 2])
PHI = np.array([0.0, 2 * PI - 1e-6, 2 * PI - 1e-12, 0.0, 3.0, 5.5, 1e-5, 4.0, PI / 4])


# -- reference: the one-point stencils --------------------------------------

def _ref_richardson(d_at, step, enabled):
    if not enabled:
        return d_at(step)
    return (4.0 * d_at(step / 2.0) - d_at(step)) / 3.0


def ref_fd_partial(f, p, coordinate, cfg):
    s = cfg.step
    if coordinate == "r":
        if abs(p.r - 1.0) <= 1e-12:
            def d_at(h):
                return (3.0 * f(p)
                        - 4.0 * f(SphPoint(p.r - h, p.theta, p.phi))
                        + f(SphPoint(p.r - 2.0 * h, p.theta, p.phi))) / (2.0 * h)
            return _ref_richardson(d_at, s, cfg.richardson)

        def d_at(h):
            return (f(SphPoint(p.r + h, p.theta, p.phi))
                    - f(SphPoint(p.r - h, p.theta, p.phi))) / (2.0 * h)
        return _ref_richardson(d_at, s, cfg.richardson)
    if coordinate == "theta":
        def d_at(h):
            return (f(SphPoint(p.r, p.theta + h, p.phi))
                    - f(SphPoint(p.r, p.theta - h, p.phi))) / (2.0 * h)
        return _ref_richardson(d_at, s, cfg.richardson)

    def d_at(h):
        return (f(SphPoint(p.r, p.theta, p.phi + h))
                - f(SphPoint(p.r, p.theta, p.phi - h))) / (2.0 * h)
    return _ref_richardson(d_at, s, cfg.richardson)


def ref_fd_curl_spherical(field, p, cfg):
    """field(q) is the tuple (v_r, v_theta, v_phi) at the point q."""
    st = math.sin(p.theta)
    d_upsin_dt = ref_fd_partial(lambda q: field(q)[2] * math.sin(q.theta), p, "theta", cfg)
    d_ut_dp = ref_fd_partial(lambda q: field(q)[1], p, "phi", cfg)
    d_ur_dp = ref_fd_partial(lambda q: field(q)[0], p, "phi", cfg)
    d_rup_dr = ref_fd_partial(lambda q: q.r * field(q)[2], p, "r", cfg)
    d_rut_dr = ref_fd_partial(lambda q: q.r * field(q)[1], p, "r", cfg)
    d_ur_dt = ref_fd_partial(lambda q: field(q)[0], p, "theta", cfg)
    return ((d_upsin_dt - d_ut_dp) / (p.r * st),
            (d_ur_dp / st - d_rup_dr) / p.r,
            (d_rut_dr - d_ur_dt) / p.r)


def ref_fd_boundary_radial_derivative(f, theta, phi, cfg):
    def rf(rr):
        return rr * f(SphPoint(rr, theta, phi))

    def d_at(h):
        return (3.0 * rf(1.0) - 4.0 * rf(1.0 - h) + rf(1.0 - 2.0 * h)) / (2.0 * h)

    return _ref_richardson(d_at, cfg.step, cfg.richardson)


def v_theta_point(field):
    return lambda q: field.v_components(q.r, q.theta, q.phi)[1]


def v_theta_grid(field):
    return lambda r, t, p: field.v_components(r, t, p)[1]


def points():
    return [SphPoint(*t) for t in zip(R, THETA, PHI)]


# -- grid against the per-node loops ----------------------------------------

@pytest.mark.parametrize("cfg", CONFIGS)
@pytest.mark.parametrize("coordinate", ["r", "theta", "phi"])
def test_fd_partial_grid_matches_point_loop(default_field, coordinate, cfg):
    got = oracle.fd_partial(v_theta_grid(default_field), R, THETA, PHI, coordinate, cfg)
    f = v_theta_point(default_field)
    ref = np.array([ref_fd_partial(f, p, coordinate, cfg) for p in points()])
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("cfg", CONFIGS)
def test_fd_partial_grid_stacked_fields(default_field, cfg):
    # a tuple-valued fn gives one derivative per field, from one call per offset
    got = oracle.fd_partial(default_field.u_components, R, THETA, PHI, "r", cfg)
    assert got.shape == (3, R.size)
    for k in range(3):
        one = oracle.fd_partial(lambda r, t, p: default_field.u_components(r, t, p)[k],
                                R, THETA, PHI, "r", cfg)
        assert np.array_equal(got[k], one)


@pytest.mark.parametrize("cfg", CONFIGS)
def test_fd_curl_spherical_grid_matches_point_loop(default_field, cfg):
    got = oracle.fd_curl_spherical(default_field.u_components, R, THETA, PHI, cfg)
    u = lambda q: default_field.u_components(q.r, q.theta, q.phi)
    ref = [ref_fd_curl_spherical(u, p, cfg) for p in points()]
    for k in range(3):
        assert np.array_equal(got[k], [c[k] for c in ref])


@pytest.mark.parametrize("cfg", CONFIGS)
def test_fd_boundary_radial_derivative_grid_matches_point_loop(default_field, cfg):
    got = oracle.fd_boundary_radial_derivative(v_theta_grid(default_field), THETA, PHI, cfg)
    f = v_theta_point(default_field)
    ref = [ref_fd_boundary_radial_derivative(f, t, p, cfg) for t, p in zip(THETA, PHI)]
    assert np.array_equal(got, ref)


def test_one_call_takes_every_stencil_offset(default_field):
    calls = []

    def fn(r, t, p):
        calls.append(r.shape)
        return default_field.u_components(r, t, p)

    oracle.fd_curl_spherical(fn, R, THETA, PHI, FDConfig())
    # theta and phi: 2 offsets; r with edge nodes: 3 offsets; all in one call
    assert calls == [(7 * R.size,)]
    # Richardson evaluates each at 2 steps, in the same one call
    oracle.fd_curl_spherical(fn, R, THETA, PHI, FDConfig(1e-4, True))
    assert calls == [(7 * R.size,), (14 * R.size,)]
    # a partial alone: one call holding its offsets
    oracle.fd_partial(fn, R, THETA, PHI, "r", FDConfig(1e-4, True))
    assert calls[2:] == [(6 * R.size,)]


def ref_cartesian_jacobian(components_fn, r, theta, phi, cfg):
    """The Jacobian as the oracle built it before it filled one array: a
    3x3 list of lists, one field call per shifted point set."""
    x, y, z = kernels.sph_to_cart(*np.broadcast_arrays(r, theta, phi))

    def field_at(xx, yy, zz):
        rho = np.sqrt(xx * xx + yy * yy)
        rr, tt, pp = kernels.cart_to_sph(xx, yy, zz)
        return kernels.vec_sph_to_cart_at(xx, yy, zz, rr, rho, *components_fn(rr, tt, pp))

    def column(j, h):
        plus, minus = [x, y, z], [x, y, z]
        plus[j] = plus[j] + h
        minus[j] = minus[j] - h
        wp, wm = field_at(*plus), field_at(*minus)
        return [(wp[i] - wm[i]) / (2.0 * h) for i in range(3)]

    jac = [[None] * 3 for _ in range(3)]
    for j in range(3):
        if cfg.richardson:
            c1, c2 = column(j, cfg.step), column(j, cfg.step / 2.0)
            col = [(4.0 * c2[i] - c1[i]) / 3.0 for i in range(3)]
        else:
            col = column(j, cfg.step)
        for i in range(3):
            jac[i][j] = col[i]
    return jac


def jacobian_nodes(kind, step):
    """The agreement nodes of the default seed, or a (6, 5) broadcast of
    radii against angles, half of it off the support."""
    if kind == "seeded":
        return verify._agreement_nodes(verify.DEFAULT_SEED, step)
    rng = np.random.default_rng(7)
    return (rng.uniform(0.1, 0.9, (6, 1)), rng.uniform(0.3, PI - 0.3, 5),
            rng.uniform(0.0, 2 * PI, 5))


@pytest.mark.parametrize("cfg", [FDConfig(), *CONFIGS[:2]],
                         ids=["default", "1e-4-richardson", "1e-3-plain"])
@pytest.mark.parametrize("nodes", ["broadcast", "seeded"])
def test_cartesian_jacobian_matches_the_list_of_lists_code(default_field, cfg, nodes):
    r, theta, phi = jacobian_nodes(nodes, cfg.step)
    got = oracle.cartesian_jacobian_grid(default_field.u_components, r, theta, phi, cfg)
    want = ref_cartesian_jacobian(default_field.u_components, r, theta, phi, cfg)
    for i in range(3):
        for j in range(3):
            assert np.array_equal(got[i][j], want[i][j])
            assert np.array_equal(np.signbit(got[i][j]), np.signbit(want[i][j]))
    # the divergence is the trace and the curl the antisymmetric part
    div = cartesian_divergence(default_field.u_components, r, theta, phi, cfg)
    trace = want[0][0] + want[1][1] + want[2][2]
    assert div.shape == trace.shape
    assert np.array_equal(div, trace)
    assert np.array_equal(np.signbit(div), np.signbit(trace))
    curl = cartesian_curl(default_field.u_components, r, theta, phi, cfg)
    _, th, ph = np.broadcast_arrays(r, theta, phi)
    ref_curl = kernels.vec_cart_to_sph(th, ph, want[2][1] - want[1][2],
                                       want[0][2] - want[2][0], want[1][0] - want[0][1])
    for a, b in zip(curl, ref_curl):
        assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("cfg, n_offsets", [(FDConfig(), 6), (FDConfig(1e-4, True), 12)],
                         ids=["plain", "richardson"])
def test_one_cartesian_call_takes_every_stencil_point(default_field, cfg, n_offsets):
    # at the agreement nodes, one u_components call per oracle: each segment
    # shifts every node along one axis, +x, -x, +y, -y, +z, -z at step, then
    # at step / 2
    nodes = verify._agreement_nodes(verify.DEFAULT_SEED, cfg.step)
    x, y, z = kernels.sph_to_cart(*nodes)
    n = x.size
    for fd in (cartesian_divergence, cartesian_curl):
        calls = []

        def counted(r, theta, phi):
            calls.append(kernels.sph_to_cart(r, theta, phi))
            return default_field.u_components(r, theta, phi)

        fd(counted, *nodes, cfg)
        (points,) = calls
        assert points[0].shape == (n_offsets * n,)
        for k in range(n_offsets):
            cx, cy, cz = (c[k * n:(k + 1) * n] for c in points)
            shift = np.array([np.max(np.abs(cx - x)), np.max(np.abs(cy - y)),
                              np.max(np.abs(cz - z))])
            assert np.flatnonzero(shift > 1e-12).tolist() == [k % 6 // 2]
            assert shift.max() == pytest.approx(cfg.step / 2 ** (k // 6), rel=1e-6)


def test_every_node_is_checked_before_the_message_is_chosen():
    # the first radial layer breaks only the axis rule and the last only the
    # ball rule; over all nodes at once, the ball rule is reported first
    calls = []
    r = np.array([0.1, 0.5, 0.9995]).reshape(3, 1, 1)
    th = np.array([0.01, PI / 2]).reshape(1, 2, 1)
    ph = np.array([0.2, 1.0]).reshape(1, 1, 2)
    cfg = FDConfig(1e-3, False)
    for fd in (cartesian_divergence, oracle.cartesian_jacobian_grid):
        with pytest.raises(StencilOutOfDomain) as exc:
            fd(lambda *a: calls.append(a), r, th, ph, cfg)
        assert str(exc.value) == ("Cartesian stencil leaves the unit ball at r=0.9995 "
                                  "with step 0.001")
        with pytest.raises(StencilOutOfDomain) as exc:
            fd(lambda *a: calls.append(a), r[:2], th, ph, cfg)
        assert str(exc.value) == ("Cartesian stencil too close to the polar axis "
                                  "(needs rho >= 2 * step) at rho=0.0009999833334166665 "
                                  "with step 0.001")
    assert calls == []


def test_phi_is_reduced_before_evaluation():
    seen = []

    def fn(r, t, p):
        seen.append(p.copy())
        return np.zeros_like(p)

    oracle.fd_partial(fn, [1.0, 0.5], [1.0, 1.0], [0.0, 2 * PI - 1e-5], "phi",
                      FDConfig(step=1e-4, richardson=False))
    # one call: the + h nodes, then the - h nodes
    assert len(seen) == 1 and seen[0].shape == (4,)
    assert np.all((seen[0] >= 0.0) & (seen[0] < 2 * PI))
    assert seen[0][2] == (0.0 - 1e-4) % (2 * PI)  # the -h node of phi = 0
    assert seen[0][1] == (2 * PI - 1e-5 + 1e-4) % (2 * PI)


# -- guards ------------------------------------------------------------------

class TestGuards:
    def test_one_bad_radial_node_raises(self):
        f = lambda r, t, p: r
        with pytest.raises(StencilOutOfDomain):
            oracle.fd_partial(f, [0.5, 1e-4, 1.0], [1.0] * 3, [0.0] * 3, "r",
                              FDConfig(step=1e-4))
        with pytest.raises(StencilOutOfDomain):
            oracle.fd_partial(f, [0.5, 1.04], [1.0] * 2, [0.0] * 2, "r", FDConfig(step=1e-2))

    def test_one_bad_polar_node_raises(self):
        f = lambda r, t, p: t
        with pytest.raises(StencilOutOfDomain):
            oracle.fd_partial(f, [0.5, 0.5], [1.0, 1e-4], [0.0, 0.0], "theta",
                              FDConfig(step=1e-4))
        with pytest.raises(StencilOutOfDomain):
            oracle.fd_curl_spherical(lambda r, t, p: (r, t, p), [0.5, 0.5],
                                     [1.0, PI - 1e-4], [0.0, 0.0], FDConfig(step=1e-4))

    def test_edge_nodes_skip_the_radial_guard(self):
        # r = 1 takes the one-sided stencil, so r + 2s > R_CEILING is no error
        d = oracle.fd_partial(lambda r, t, p: r * r, [1.0], [1.0], [0.0], "r",
                              FDConfig(step=1e-2))
        assert d[0] == pytest.approx(2.0, abs=1e-12)

    def test_unknown_coordinate(self):
        with pytest.raises(ValueError):
            oracle.fd_partial(lambda r, t, p: r, [0.5], [1.0], [0.0], "lambda")

    @pytest.mark.parametrize("theta", [-1e-6, PI + 1e-6, 4.0, math.nan])
    def test_out_of_range_node_raises(self, theta):
        # caller nodes are checked as SphPoint checks them, not clamped or
        # reflected, by the spherical and the Cartesian oracles alike
        with pytest.raises(ValueError):
            oracle.fd_boundary_radial_derivative(lambda r, t, p: r, theta, 0.3)
        with pytest.raises(ValueError):
            oracle.fd_boundary_radial_derivative(lambda r, t, p: r, [1.0, theta], [0.3, 0.3])
        for fd in (oracle.fd_curl_spherical, cartesian_curl,
                   cartesian_divergence, oracle.cartesian_jacobian_grid):
            with pytest.raises(ValueError):
                fd(lambda r, t, p: (r, t, p), [0.5, 0.5], [1.0, theta], [0.0, 0.0])

    def test_negative_radius_raises(self):
        with pytest.raises(ValueError):
            oracle.fd_partial(lambda r, t, p: r, [0.5, -1e-6], [1.0, 1.0], [0.0, 0.0], "phi")
        with pytest.raises(ValueError):
            cartesian_curl(lambda r, t, p: (r, t, p), [0.5, -0.5], [1.0, 1.0],
                                       [0.3, 0.3])

    def test_slack_nodes_are_clamped_as_in_sphpoint(self, default_field):
        # within the coordinate slack, a node is clamped, as SphPoint clamps it
        f = v_theta_point(default_field)
        got = oracle.fd_partial(v_theta_grid(default_field), [0.5, 0.5],
                                [1.0, PI + 1e-13], [0.2, 0.2], "phi")
        cfg = FDConfig()
        assert got[1] == ref_fd_partial(f, SphPoint(0.5, PI + 1e-13, 0.2), "phi", cfg)
        assert got[1] == ref_fd_partial(f, SphPoint(0.5, PI, 0.2), "phi", cfg)

    def test_no_evaluation_outside_the_ball(self):
        seen = []

        def fn(r, t, p):
            seen.append(r.copy())
            return r

        oracle.fd_boundary_radial_derivative(fn, [1.0, 2.0], [0.0, 3.0])
        assert max(float(r.max()) for r in seen) == 1.0


# -- verify call sites against the loops they replaced ----------------------

def ref_rings(field, witness, n_directions=16):
    """|trace| at the witness, and the function that takes a radius rho to
    the smallest |trace| over the ring of n_directions points at geodesic
    distance rho from it, one ring per trace call.  The tangent frame is
    built from cross products; verify builds it from the kernel rotation
    (t1 = e_phi, t2 = -e_theta)."""
    fc = field.boundary_curl_theta
    st, ct = math.sin(witness.theta), math.cos(witness.theta)
    sp, cp = math.sin(witness.phi), math.cos(witness.phi)
    wvec = np.array([st * cp, st * sp, ct])
    t1 = np.cross([0.0, 0.0, 1.0], wvec)
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(wvec, t1)
    alpha = np.arange(n_directions) * (2.0 * math.pi / n_directions)
    dirs = np.outer(np.cos(alpha), t1) + np.outer(np.sin(alpha), t2)

    def ring_min(rho):
        pts = math.cos(rho) * wvec[None, :] + math.sin(rho) * dirs
        x, y, z = pts[:, 0].copy(), pts[:, 1].copy(), pts[:, 2].copy()
        _, th, ph = kernels.cart_to_sph(x, y, z)
        return float(np.min(np.abs(fc(th, ph))))

    return abs(fc(witness.theta, witness.phi)), ring_min


def ref_neighborhood_radius(field, witness, n_directions=16, n_rings=4, iterations=40):
    # the bisection that neighborhood_radius used to run, one step at a
    # time: a radius holds if n_rings fractional rings inside it keep the
    # floor; resolution (pi/2) 2^-iterations
    ref, ring_min = ref_rings(field, witness, n_directions)
    if ref == 0.0:
        return 0.0
    floor = 0.5 * ref

    def holds(rho):
        return min(ring_min(f * rho) for f in (np.arange(n_rings) + 1.0) / n_rings) >= floor

    lo, hi = 0.0, math.pi / 2
    if holds(hi):
        return hi
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return lo


def ref_ring_scan(field, witness, n_directions=16, split=64, levels=7):
    # the ring scan written out, one ring at a time: each level walks out
    # from lo in steps of width / split to the first failing ring (a later
    # level's last ring failed one level up), and keeps the last passing
    # radius
    ref, ring_min = ref_rings(field, witness, n_directions)
    if ref == 0.0:
        return 0.0
    floor = 0.5 * ref
    lo, width = 0.0, math.pi / 2
    for level in range(levels):
        last = lo
        for k in range(1, split + 1):
            rho = lo + width * k / split
            if (level and k == split) or not ring_min(rho) >= floor:
                break
            last = rho
        else:
            return math.pi / 2  # no ring of the first level fails
        lo, width = last, width / split
    return lo


# the equator plateau point, where the theta trace peaks; the two
# admissibility witnesses; and a point on the bump's rising ramp
RADIUS_WITNESSES = {
    "plateau": lambda field: SphPoint(1.0, PI / 2, PI / 4),
    "grid-theta": lambda field: fam.find_witnesses(field)[0],
    "grid-phi": lambda field: fam.find_witnesses(field)[1],
    "ramp": lambda field: SphPoint(1.0, 5 * PI / 16, PI / 4),
}


@pytest.mark.parametrize("directions", [16, 7])
@pytest.mark.parametrize("where", RADIUS_WITNESSES)
@pytest.mark.parametrize("angular", [fam.default_angular, fam.cosine_angular])
def test_neighborhood_radius_matches_ring_loop(angular, where, directions, monkeypatch):
    # the ring scan against its one-ring-at-a-time loop, bit for bit, and
    # against the old bisection within the bisection's resolution
    field = fam.CounterexampleField(fam.default_profile(), angular())
    witness = RADIUS_WITNESSES[where](field)
    monkeypatch.setattr(verify, "RADIUS_DIRECTIONS", directions)
    got = verify.neighborhood_radius(field, witness)
    assert got.hex() == ref_ring_scan(field, witness, n_directions=directions).hex()
    bisection = ref_neighborhood_radius(field, witness, n_directions=directions)
    assert abs(got - bisection) <= (PI / 2) * 2.0**-40


def _report_witness(field, n_theta, n_phi):
    # the theta witness of a report's persistency check on that sphere grid
    sphere = verify.boundary_pass(field, GridSpec(n_theta=n_theta, n_phi=n_phi,
                                                  boundary_only=True))
    return verify.check_persistency_failure(field, sphere)[0].witness


@pytest.mark.parametrize("where", [
    lambda field: _report_witness(field, 128, 256), lambda field: _report_witness(field, 32, 64),
    RADIUS_WITNESSES["plateau"], RADIUS_WITNESSES["ramp"]],
    ids=["shipped-report", "coarse-report", "plateau", "ramp"])
def test_radius_is_the_last_ring_that_keeps_half(where):
    # the defining property: every point of the ring at the radius keeps
    # half the witness value, and the ring one finest step further out
    # does not
    field = fam.default_field()
    at = where(field)
    rho = verify.neighborhood_radius(field, at)
    ref, ring_min = ref_rings(field, at)
    finest = (PI / 2) / verify.RADIUS_SPLIT ** verify.RADIUS_LEVELS
    assert 0.0 < rho < PI / 2
    assert ring_min(rho) >= 0.5 * ref
    assert ring_min(rho + finest) < 0.5 * ref


def test_failed_gate_keeps_the_closed_form_result(default_field, monkeypatch):
    # a failed gate fails the phi result; its numbers stay those of the
    # closed form on the full mesh, with no oracle subgrid in their place
    cfg = FDConfig()
    sphere = verify.boundary_pass(default_field, SMALL_BOUNDARY)
    want_t, want = verify.check_persistency_failure(default_field, sphere, cfg)
    calls = []
    original = oracle.fd_boundary_radial_derivative

    def off_at_the_gate(fn, theta, phi, cfg=FDConfig()):
        calls.append(np.size(theta))
        vals = original(fn, theta, phi, cfg)
        # v_theta at the gate nodes, which gates the phi trace; the two
        # witnesses come last
        vals[0, :-2] *= 2.0
        return vals

    monkeypatch.setattr(oracle, "fd_boundary_radial_derivative", off_at_the_gate)
    sizes = []  # of every evaluator call

    def sized(name):
        method = vars(fam.CounterexampleField)[name]

        def evaluator(self, *coords):
            sizes.append(np.size(coords[-1]))
            return method(self, *coords)
        return evaluator

    for name in ("v_components", "boundary_state", "boundary_curl_theta", "boundary_curl_phi"):
        monkeypatch.setattr(fam.CounterexampleField, name, sized(name))
    _, res_p = verify.check_persistency_failure(default_field, sphere, cfg)
    assert want.passed and not res_p.passed
    assert (res_p.norm_sup, res_p.norm_l2, res_p.witness) == (
        want.norm_sup, want.norm_l2, want.witness)
    assert res_p.details["source"] == "closed_form"
    assert res_p.details["closed_form_validated"] is False
    assert res_p.details["verdict"] == "no contradiction exhibited"
    assert res_p.details["oracle_at_witness"] == want.details["oracle_at_witness"]
    assert res_p.details["gate_points"] == want.details["gate_points"] == 50
    # one oracle call: both gates and the two witnesses; no scalar evaluation
    assert calls == [want_t.details["gate_points"] + want.details["gate_points"] + 2]
    assert sizes and 1 not in sizes


def test_nan_gate_value_fails_phi_and_is_named(default_field, monkeypatch, capsys):
    # one NaN oracle value fails the phi gate; a full run names the NaN
    # rather than writing a report that hides it
    original = oracle.fd_boundary_radial_derivative
    calls = []

    def nan_at_a_phi_gate_node(fn, theta, phi, cfg=FDConfig()):
        calls.append(np.size(theta))
        vals = original(fn, theta, phi, cfg)
        vals[0, -3] = math.nan  # v_theta there; the phi witness comes last
        return vals

    monkeypatch.setattr(oracle, "fd_boundary_radial_derivative", nan_at_a_phi_gate_node)
    # the theta gate bound was measured with Richardson at step 1e-4
    res_t, res_p = verify.check_persistency_failure(
        default_field, verify.boundary_pass(default_field, SMALL_BOUNDARY), FDConfig(1e-4, True))
    assert calls == [res_t.details["gate_points"] + res_p.details["gate_points"] + 2]
    assert res_t.passed and res_t.details["gate_max_rel_err"] <= 1e-10
    assert res_p.details["source"] == "closed_form"
    assert not res_p.passed and res_p.details["closed_form_validated"] is False
    assert math.isnan(res_p.details["gate_max_rel_err"])
    assert "gate_max_rel_err_defined" not in res_p.details

    message = "check persistency_failure_phi gives a non-finite details.gate_max_rel_err (nan)"
    interior = verify.GridSpec(n_r=8, n_theta=8, n_phi=8)
    with pytest.raises(ValueError) as exc:
        verify.run_full_verification(default_field, interior, SMALL_BOUNDARY)
    assert str(exc.value) == message
    code = cli.main(["verify", "--grid-nr", "8", "--grid-ntheta", "8", "--grid-nphi", "8",
                     "--boundary-ntheta", "32", "--boundary-nphi", "64"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", f"error: {message}\n")
