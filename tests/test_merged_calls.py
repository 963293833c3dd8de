"""One evaluator call per spherical stencil and one kernel call per cutoff bump.

fd_partial and fd_curl_spherical hand the evaluator every shifted node set
of a stencil in one call, bump_jet hands smooth_step_jet its rising and
falling arguments in one call, and _ramp_jet hands sigma_jet t and 1 - t in
one call.  All of it is elementwise, so every value, signed zeros and NaN
included, must have the bytes of the per-offset and per-step code written
out below.  The divergence check compares u in place and _grid_result
squares into the buffer of |values|; both keep their bits too.  The call
counts of a shipped verify are pinned, so a stencil or a bump split again
fails here.
"""
import io
import math
from contextlib import redirect_stdout

import numpy as np
import pytest

from slipball import cli, kernels, oracle, sphcalc, verify
from slipball import family as fam
from slipball.errors import StencilOutOfDomain
from slipball.oracle import FDConfig

PI = math.pi
CONFIGS = [FDConfig(), FDConfig(1e-4, True), FDConfig(1e-2, True)]
FAMILIES = {name: fam.family_by_label(name) for name in ("default", "h1zero", "perturbed:1e-3")}
COARSE = verify.GridSpec(n_r=8, n_theta=8, n_phi=8).lattice()

# flat nodes: interior and r = 1 nodes, phi on both sides of the wrap, and
# nodes outside the support
R = np.array([1.0, 0.7, 1.0, 0.55, 0.9, 0.3, 1.0, 0.4, 1.0, 0.8])
THETA = np.array([1.1, 0.9, 2.0, 1.3, 0.3, 1.2, 2.9, 1.6, PI / 2, 0.7])
PHI = np.array([0.0, 2 * PI - 1e-6, 2 * PI - 1e-12, 0.0, 3.0, 5.5, 1e-5, 4.0, PI / 4, 6.0])
# lattice axes whose r axis ends at the sphere
AXES = (np.array([0.4, 0.8, 1.0]).reshape(3, 1, 1), COARSE.axes[1], COARSE.axes[2])


def same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


# -- the per-offset and per-step code these calls replaced ----------------

def per_offset_fd_partial(fn, r, theta, phi, coordinate, cfg=FDConfig()):
    """fd_partial with one fn call per stencil offset, on the nodes
    broadcast to one shape."""
    axis = oracle._AXES[coordinate]
    base = np.broadcast_arrays(*oracle._normalise(r, theta, phi))
    r, theta = base[0], base[1]
    s = cfg.step
    edge = np.zeros(r.shape, dtype=bool)
    if coordinate == "r":
        edge = np.abs(r - 1.0) <= oracle._BOUNDARY_EPS
        inner = r[~edge]
        oracle._out_of_domain((inner - 2.0 * s > 0.0) & (inner + 2.0 * s < oracle.R_CEILING),
                              "radial stencil at r", inner, s)
    elif coordinate == "theta":
        oracle._out_of_domain((theta - 2.0 * s > 0.0) & (theta + 2.0 * s < PI),
                              "polar stencil at theta", theta, s)

    def shifted(offset):
        coords = list(base)
        coords[axis] = coords[axis] + offset
        return np.asarray(fn(*sphcalc._normalise(*coords)), dtype=np.float64)

    def d_at(h):
        front = shifted(np.where(edge, 0.0, h))
        back = shifted(-h)
        d = (front - back) / (2.0 * h)
        if edge.any():
            d = np.where(edge, (3.0 * front - 4.0 * back + shifted(-2.0 * h)) / (2.0 * h), d)
        return d

    return oracle._richardson(d_at, s, cfg.richardson)


def per_offset_fd_curl_spherical(components_fn, r, theta, phi, cfg=FDConfig()):
    """fd_curl_spherical as three per-offset partials (7 calls, 14 with
    Richardson)."""
    nodes = oracle._normalise(r, theta, phi)

    def theta_parts(r, t, p):
        vr, _, vp = components_fn(r, t, p)
        return vp * np.sin(t), vr

    def phi_parts(r, t, p):
        vr, vt, _ = components_fn(r, t, p)
        return vt, vr

    def r_parts(r, t, p):
        _, vt, vp = components_fn(r, t, p)
        return r * vp, r * vt

    d_upsin_dt, d_ur_dt = per_offset_fd_partial(theta_parts, *nodes, "theta", cfg)
    d_ut_dp, d_ur_dp = per_offset_fd_partial(phi_parts, *nodes, "phi", cfg)
    d_rup_dr, d_rut_dr = per_offset_fd_partial(r_parts, *nodes, "r", cfg)
    r, st = nodes[0], np.sin(nodes[1])
    return ((d_upsin_dt - d_ut_dp) / (r * st),
            (d_ur_dp / st - d_rup_dr) / r,
            (d_rut_dr - d_ur_dt) / r)


def two_call_ramp_jet(t, order=2):
    """_ramp_jet with one sigma_jet call for t and one for 1 - t."""
    a = kernels.sigma_jet(t, order)
    b = kernels.sigma_jet(1.0 - t, order)
    den = a[0] + b[0]
    s = a[0] / den
    if order < 1:
        return (s,)
    b1 = -b[1]
    num1 = a[1] * b[0] - a[0] * b1
    s1 = num1 / den**2
    if order < 2:
        return s, s1
    num2 = a[2] * b[0] - a[0] * b[2]
    return s, s1, (num2 * den - 2.0 * num1 * (a[1] + b1)) / den**3


def two_call_bump_jet(x, a, b, c, d, order=2):
    """bump_jet with one smooth_step_jet call per step; call it with
    kernels._ramp_jet patched to two_call_ramp_jet."""
    return kernels.product_jet(kernels._scaled_step_jet(x, a, b - a, order),
                               kernels._scaled_step_jet(x, d, c - d, order), order)


# -- kernels ------------------------------------------------------------------

BUMP = (kernels._BUMP_A, kernels._BUMP_B, kernels._BUMP_C, kernels._BUMP_D)


def bump_arguments():
    junctions = list(BUMP)
    near = [np.nextafter(e, s) for e in junctions for s in (-np.inf, np.inf)]
    # where the rising or falling argument sits at the sigma gate and its mirror
    gates = [lo + f * w for lo, w in ((BUMP[0], BUMP[1] - BUMP[0]), (BUMP[3], BUMP[2] - BUMP[3]))
             for f in (kernels._SIGMA_FLOOR, 1.0 - kernels._SIGMA_FLOOR)]
    special = [0.0, -0.0, PI, -1.0, 1e101, -1e101, 1e300, np.inf, -np.inf, np.nan]
    return np.concatenate([np.linspace(0.0, PI, 4001), junctions, near, gates, special])


@pytest.mark.parametrize("order", [0, 1, 2])
def test_ramp_jet_has_the_bytes_of_two_sigma_calls(order):
    rng = np.random.default_rng(5)
    f = kernels._SIGMA_FLOOR
    t = np.concatenate([rng.uniform(-0.5, 1.5, 5000), [0.0, -0.0, f, 1.0 - f, 0.5, 1.0],
                        [np.nextafter(f, 1.0), np.nextafter(1.0 - f, 0.0)],
                        [1e100, 1.5e100, 1e300, np.inf, -np.inf, np.nan]])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for nodes in (t, t[(t > f) & (1.0 - t > f)], t[:1]):  # mixed, all ramp, one node
            got, want = kernels._ramp_jet(nodes, order), two_call_ramp_jet(nodes, order)
            assert len(got) == len(want) == order + 1
            for a, b in zip(got, want):
                assert same_bytes(a, b)


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("shape", ["flat", "axis"])
def test_bump_jet_has_the_bytes_of_two_step_calls(monkeypatch, order, shape):
    x = bump_arguments()
    if shape == "axis":  # a lattice's theta axis
        x = x.reshape(1, -1, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        got = kernels.bump_jet(x, *BUMP, order)
        monkeypatch.setattr(kernels, "_ramp_jet", two_call_ramp_jet)
        want = two_call_bump_jet(x, *BUMP, order)
    assert len(got) == len(want) == order + 1
    for a, b in zip(got, want):
        assert same_bytes(a, b)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_angular_jet_on_a_band_has_the_old_bytes(monkeypatch, order):
    theta = np.linspace(0.8, 2.3, 24).reshape(1, -1, 1)
    phi = np.linspace(0.0, 2 * PI, 96, endpoint=False).reshape(1, 1, -1)
    got = kernels.default_angular_jet(theta, phi, order)
    monkeypatch.setattr(kernels, "_ramp_jet", two_call_ramp_jet)
    monkeypatch.setattr(kernels, "bump_jet", two_call_bump_jet)
    want = kernels.default_angular_jet(theta, phi, order)
    for a, b in zip(got, want):
        assert same_bytes(a, b)


def test_one_sigma_call_per_bump(monkeypatch):
    calls = []
    original = kernels.sigma_jet

    def spy(t, order=2):
        calls.append(t.shape)
        return original(t, order)

    monkeypatch.setattr(kernels, "sigma_jet", spy)
    x = np.array([0.1, 0.9, 1.0, 1.5, 2.0, 2.2, 3.0])  # 2 rising and 2 falling ramp nodes
    kernels.bump_jet(x, *BUMP)
    assert calls == [(2, 4)]  # t and 1 - t of the 4


# -- spherical oracles ------------------------------------------------------------

FIELDS = {"u": lambda field: field.u_components,  # a stack of three fields
          "u_theta": lambda field: lambda r, t, p: field.u_components(r, t, p)[1]}


def g_of(field):
    # the divergence check's g: order 0, exactly 0 off the band
    def g(_, t, p):
        return fam._on_support(field.support_mask(1.0, t), 1,
                               lambda t, p: field.angular.fn(t, p, 0), t, p)[0]
    return g


@pytest.mark.parametrize("cfg", CONFIGS)
@pytest.mark.parametrize("family_name", FAMILIES)
@pytest.mark.parametrize("coordinate", ["r", "theta", "phi"])
@pytest.mark.parametrize("nodes", ["flat", "axes"])
@pytest.mark.parametrize("fn", FIELDS)
def test_fd_partial_has_the_bytes_of_one_call_per_offset(fn, nodes, coordinate, family_name,
                                                          cfg):
    points = (R, THETA, PHI) if nodes == "flat" else AXES
    f = FIELDS[fn](FAMILIES[family_name])
    got = oracle.fd_partial(f, *points, coordinate, cfg)
    assert same_bytes(got, per_offset_fd_partial(f, *points, coordinate, cfg))
    assert np.any(got != 0.0)


@pytest.mark.parametrize("cfg", CONFIGS)
@pytest.mark.parametrize("axis", ["theta", "phi"])
def test_divergence_g_on_the_axes_has_the_bytes_of_one_call_per_offset(axis, cfg):
    # every family shares the default angular function
    _, theta, phi = verify.GridSpec().lattice().axes
    g = g_of(FAMILIES["default"])
    calls = []

    def counted(r, t, p):
        calls.append((t.shape, p.shape))
        return g(r, t, p)

    got = oracle.fd_partial(counted, 1.0, theta, phi, axis, cfg)
    assert same_bytes(got, per_offset_fd_partial(g, 1.0, theta, phi, axis, cfg))
    # one call, on the axes: only the shifted axis is concatenated
    k = (2 if cfg.richardson else 1) * 2
    assert calls == ([((1, k * theta.size, 1), phi.shape)] if axis == "theta"
                     else [(theta.shape, (1, 1, k * phi.size))])


@pytest.mark.parametrize("cfg", CONFIGS)
@pytest.mark.parametrize("family_name", FAMILIES)
@pytest.mark.parametrize("nodes", ["flat", "axes", "one"])
def test_fd_curl_spherical_has_the_bytes_of_one_call_per_offset(nodes, family_name, cfg):
    points = {"flat": (R, THETA, PHI), "axes": AXES, "one": (1.0, PI / 2, PI / 4)}[nodes]
    field = FAMILIES[family_name]
    got = oracle.fd_curl_spherical(field.u_components, *points, cfg)
    want = per_offset_fd_curl_spherical(field.u_components, *points, cfg)
    for a, b in zip(got, want):
        assert same_bytes(a, b)
    if family_name == "default":
        assert np.any(np.array(got) != 0.0)


@pytest.mark.parametrize("cfg", CONFIGS)
@pytest.mark.parametrize("family_name", FAMILIES)
def test_boundary_radial_derivative_of_stacked_fields_has_the_old_bytes(family_name, cfg):
    # the persistency check's call: v_theta and v_phi stacked, at r = 1
    field = FAMILIES[family_name]

    def v(r, t, p):
        return field.v_components(r, t, p)[1:]

    got = oracle.fd_boundary_radial_derivative(v, THETA, PHI, cfg)
    want = per_offset_fd_partial(lambda r, t, p: r * np.asarray(v(r, t, p)),
                                 1.0, THETA, PHI, "r", cfg)
    assert got.shape == (2, THETA.size)
    assert same_bytes(got, want)


def test_empty_nodes():
    field = FAMILIES["default"]
    empty = np.empty(0)
    for got, want in zip(oracle.fd_curl_spherical(field.u_components, empty, empty, empty),
                         per_offset_fd_curl_spherical(field.u_components, empty, empty, empty)):
        assert same_bytes(got, want)


class TestDomainBeforeTheOneCall:
    CFG = FDConfig(1e-4)

    def message(self, fd, *nodes):
        calls = []
        with pytest.raises(StencilOutOfDomain) as exc:
            fd(lambda r, t, p: calls.append(r) or (r, t, p), *nodes, self.CFG)
        return str(exc.value), calls

    @pytest.mark.parametrize("nodes", [
        ([0.5, 1e-5], [1.0, 1e-5], [0.0, 0.0]),  # one node breaks both rules
        ([1e-5, 0.5], [1.0, PI - 1e-5], [0.0, 0.0]),  # two nodes, one rule each
    ])
    def test_theta_is_reported_before_r(self, nodes):
        got, calls = self.message(oracle.fd_curl_spherical, *nodes)
        want, _ = self.message(per_offset_fd_curl_spherical, *nodes)
        assert got == want
        assert got.startswith("polar stencil at theta=")
        assert calls == []

    def test_r_alone_raises_before_any_evaluation(self):
        nodes = ([0.5, 1e-5], [1.0, 1.0], [0.0, 0.0])
        got, calls = self.message(oracle.fd_curl_spherical, *nodes)
        want, parent_calls = self.message(per_offset_fd_curl_spherical, *nodes)
        assert got == want == "radial stencil at r=1e-05 with step 0.0001"
        assert calls == [] and len(parent_calls) == 4  # the theta and phi offsets ran first


# -- verify ------------------------------------------------------------------

def old_grid_norms(values, lattice):
    """(flat index, sup, L2) of _grid_result with its three temporaries."""
    values = np.reshape(values, lattice.shape)
    a = np.abs(values).ravel()
    i = int(np.argmax(a))
    return i, float(a[i]), float(np.sqrt(np.sum(values * values * lattice.weights)))


@pytest.mark.parametrize("lattice", [COARSE, verify.GridSpec().lattice(),
                                     sphcalc.midpoint_lattice(32, 64)])
@pytest.mark.parametrize("special", [None, np.nan, -0.0, np.inf])
def test_grid_result_has_the_bits_of_three_temporaries(lattice, special):
    rng = np.random.default_rng(lattice.shape[0])
    values = rng.standard_normal(math.prod(lattice.shape)) * 10.0 ** rng.uniform(-8, 3)
    if special is not None:
        values[rng.choice(values.size, 5, replace=False)] = special
    before = values.copy()
    for v in (values, values.reshape(lattice.shape)):
        with np.errstate(invalid="ignore"):
            res = verify._grid_result("x", "below", v, lattice, 1.0)
            i, sup, l2 = old_grid_norms(v, lattice)
        assert np.float64(res.norm_sup).tobytes() == np.float64(sup).tobytes()
        assert np.float64(res.norm_l2).tobytes() == np.float64(l2).tobytes()
        assert res.witness == lattice.point(i)
    assert values.tobytes() == before.tobytes()  # the input is not written


SHIPPED_COUNTS = {"u_components": 13, "v_components": 1, "default_angular_jet": 24,
                  "cartesian_jacobian_grid": 1}


@pytest.mark.parametrize("args", [[], ["--richardson", "--oracle-step", "1e-4"]])
def test_shipped_verify_call_counts(monkeypatch, args):
    # per op, u: the divergence check's 11 r-slabs, the slip spots' curl
    # and the agreement check's one Jacobian, whose curl and trace it
    # reads, one call each; v: one call for both trace gates; angular jets:
    # those 13 u calls but the 2 slabs off the support, v, the two g axes
    # of the divergence check, the boundary pass, the one admissibility
    # probe, the agreement check's omega and the 7 radius calls, one per
    # level of its ring scan
    counts = dict.fromkeys(SHIPPED_COUNTS, 0)

    def spy(owner, name):
        original = getattr(owner, name)

        def counted(*a, **k):
            counts[name] += 1
            return original(*a, **k)
        monkeypatch.setattr(owner, name, counted)

    spy(fam.CounterexampleField, "u_components")
    spy(fam.CounterexampleField, "v_components")
    spy(kernels, "default_angular_jet")
    spy(oracle, "cartesian_jacobian_grid")
    with redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--no-timestamp"] + args) == 0
    assert counts == SHIPPED_COUNTS
