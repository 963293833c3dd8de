"""Support-compacted evaluation: bit-identical to full-array evaluation.

The evaluators compute the profile and angular jets, and run the assembly
kernels, only on the nodes inside the field's support.  Each one is
compared here against a reference that calls profile.fn / angular.fn and
the same assembly kernels on the full arrays and zeroes the result off the
support, with np.array_equal and equal sign bits, so signed zeros must
match too.  Spy jet functions and spy kernels check the evaluator contract
on flat input (coordinates that share an axis): a jet function or an
assembly kernel still sees only 1-D arrays of in-support nodes, never an
empty array.  Lattice axes, which each vary along an axis of their own, are
cut to their in-support values instead (tests/test_axis_rule.py).
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slipball import family as fam
from slipball import kernels, verify
from slipball.errors import DegenerateFit

PI = math.pi
# u_and_omega: the u and omega that v_components crosses, from its one pass;
# big_G: G through the two witness products of boundary_state, g_phi G and
# g_theta G
RADIAL = ("u_components", "omega_components", "v_components", "u_and_omega",
          "u_raw_partials")
POLAR = ("boundary_curl_theta", "boundary_curl_phi", "boundary_state", "big_G")


def _family(name):
    if name == "cosine_angular":
        return fam.CounterexampleField(fam.default_profile(), fam.cosine_angular())
    if name == "zero_angular":
        return fam.CounterexampleField(fam.default_profile(), fam.zero_angular())
    return fam.family_by_label(name)


def _spied(field):
    """Copy of field whose jet functions log their arguments."""
    calls = []
    profile, angular = field.profile, field.angular

    def radial_fn(r, order):
        calls.append(("radial", r))
        return profile.fn(r, order)

    def angular_fn(theta, phi, order):
        calls.append(("angular", theta, phi))
        return angular.fn(theta, phi, order)

    spy = fam.CounterexampleField(
        fam.RadialProfile(radial_fn, profile.support_inner, profile.label),
        fam.AngularFunction(angular_fn, angular.pole_margin, angular.label), field.label)
    calls.clear()  # construction probes the margins on purpose
    return spy, calls


def _full_jet(field):
    """Copy of field whose jet functions ignore the order asked for and
    always return the whole jet (a custom fn may return more than asked)."""
    profile, angular = field.profile, field.angular
    return fam.CounterexampleField(
        fam.RadialProfile(lambda r, order: profile.fn(r, 2), profile.support_inner,
                          profile.label),
        fam.AngularFunction(lambda theta, phi, order: angular.fn(theta, phi, 2),
                            angular.pole_margin, angular.label), field.label)


FAMILIES = {name: _family(name) for name in
            ("default", "h1zero", "perturbed:1e-3", "cosine_angular", "zero_angular")}
SPIED = {name: _spied(f) for name, f in FAMILIES.items()}
FULL_JET = {name: _full_jet(f) for name, f in FAMILIES.items()}


def _full(*coords):
    arrays = np.broadcast_arrays(*(np.asarray(c, dtype=np.float64) for c in coords))
    return [np.ascontiguousarray(np.atleast_1d(a)) for a in arrays]


def reference(field, name, r, theta, phi):
    """The evaluator `name` with the jets and the assembly kernels run on
    every node, then zeroed off the support."""
    with np.errstate(all="ignore"):  # 1/sin and 1/r off the support
        return _reference(field, name, r, theta, phi)


def _reference(field, name, r, theta, phi):
    if name in POLAR:
        theta, phi = _full(theta, phi)
        d = field.angular.pole_margin
        mask = (theta > d) & (theta < PI - d)
    else:
        r, theta, phi = _full(r, theta, phi)
        mask = field.support_mask(r, theta)

    def sel(*values):
        return tuple(np.where(mask, v, 0.0) for v in values)

    _, g_t, g_p, g_tt, g_tp, g_pp = field.angular.fn(theta, phi, 2)
    s, c = np.sin(theta), np.cos(theta)
    gg = kernels.big_g_values(s, c, g_t, g_tt, g_pp)
    if name in POLAR:
        products = sel(g_p * gg, g_t * gg)
        if name == "big_G":
            return products
        bt, bp = sel(*kernels.boundary_curl_assembly(
            s, field.h_boundary, field.hp_boundary, g_t, g_p, gg))
        if name == "boundary_state":
            return (*_reference(field, "u_components", 1.0, theta, phi)[1:],
                    *_reference(field, "omega_components", 1.0, theta, phi), bt, bp,
                    *products)
        return (bt,) if name == "boundary_curl_theta" else (bp,)
    h, hp, _ = field.profile.fn(r, 2)
    ut, up = sel(*kernels.u_assembly(h, g_t, g_p, s))
    if name == "u_components":
        return (np.zeros_like(ut), ut, up)
    w = sel(*kernels.omega_assembly(r, s, h, hp, g_t, g_p, gg))
    if name == "omega_components":
        return w
    if name == "u_and_omega":
        return (ut, up, *w)
    if name == "v_components":  # on the masked u and omega: -0 off the support
        return kernels.cross_tangential(ut, up, *w)
    return sel(-h * g_p / s, -hp * g_p / s, -h * (g_tp * s - g_p * c) / s**2,
               -h * g_pp / s, h * g_t, hp * g_t, h * g_tt, h * g_tp)


def crossed(field, r, theta, phi):
    """The five arguments of the one cross_tangential call of
    field.v_components: u_theta, u_phi and omega as it scattered them."""
    seen, cross = [], kernels.cross_tangential

    def spy(*args):
        seen.append(args)
        return cross(*args)
    kernels.cross_tangential = spy
    try:
        field.v_components(r, theta, phi)
    finally:
        kernels.cross_tangential = cross
    [args] = seen
    return args


def evaluate(field, name, r, theta, phi):
    if name == "big_G":
        out = field.boundary_state(theta, phi)[7:]
    elif name == "u_and_omega":
        out = crossed(field, r, theta, phi)
    elif name in POLAR:
        out = getattr(field, name)(theta, phi)
    else:
        out = getattr(field, name)(r, theta, phi)
    if isinstance(out, dict):
        out = tuple(out[k] for k in ("ut", "dut_dr", "dut_dtheta", "dut_dphi",
                                     "up", "dup_dr", "dup_dtheta", "dup_dphi"))
    return out if isinstance(out, tuple) else (out,)


def assert_bit_identical(got, want, shape):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        g = np.asarray(g, dtype=np.float64)
        w = np.asarray(w).reshape(g.shape)
        assert g.shape == shape
        assert np.array_equal(g, w, equal_nan=True)
        assert np.array_equal(np.signbit(g), np.signbit(w))


def _inside(draw, n, field):
    si, d = field.profile.support_inner, field.angular.pole_margin
    r = draw(st.lists(st.floats(si, 1.0, exclude_min=True), min_size=n, max_size=n))
    theta = draw(st.lists(st.floats(d, PI - d, exclude_min=True, exclude_max=True),
                          min_size=n, max_size=n))
    return r, theta


def _outside(draw, n, field):
    si, d = field.profile.support_inner, field.angular.pole_margin
    r, theta = [], []
    for _ in range(n):
        if draw(st.booleans()):  # inside the radial cutoff, any colatitude
            r.append(draw(st.floats(0.0, si)))
            theta.append(draw(st.floats(0.0, PI)))
        else:  # inside a pole margin, any radius
            r.append(draw(st.floats(0.0, 1.0)))
            theta.append(draw(st.one_of(st.floats(0.0, d), st.floats(PI - d, PI))))
    return r, theta


def _mixed(draw, n, field):
    si, d = field.profile.support_inner, field.angular.pole_margin
    edges_r = st.sampled_from([0.0, si, math.nextafter(si, 1.0), 1.0])
    edges_t = st.sampled_from([0.0, d, math.nextafter(d, PI), PI - d, PI])
    r = draw(st.lists(st.one_of(st.floats(0.0, 1.0), edges_r), min_size=n, max_size=n))
    theta = draw(st.lists(st.one_of(st.floats(0.0, PI), edges_t), min_size=n, max_size=n))
    return r, theta


@st.composite
def node_sets(draw, field):
    """(shape, kind, r, theta, phi) with shape (), (n,) or (k, m)."""
    shape = draw(st.sampled_from([(), (7,), (3, 5), (1,), (4, 1)]))
    n = int(np.prod(shape))
    kind = draw(st.sampled_from(["mixed", "inside", "outside"]))
    r, theta = {"mixed": _mixed, "inside": _inside, "outside": _outside}[kind](draw, n, field)
    phi = draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
    if shape == ():
        return shape, kind, r[0], theta[0], phi[0]
    return (shape, kind) + tuple(np.array(a).reshape(shape) for a in (r, theta, phi))


def _check_spy_log(calls, field):
    si, d = field.profile.support_inner, field.angular.pole_margin
    for call in calls:
        kind, args = call[0], call[1:]
        assert all(a.ndim == 1 and a.size > 0 for a in args)
        if kind == "radial":
            assert np.all(args[0] > si)
        else:
            assert np.all((args[0] > d) & (args[0] < PI - d))
        assert not any(np.isnan(a).any() for a in args)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("name", RADIAL + POLAR)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_evaluator_matches_full_array_reference(family, name, data):
    field = FAMILIES[family]
    spy, calls = SPIED[family]
    shape, kind, r, theta, phi = data.draw(node_sets(field))
    want = reference(field, name, r, theta, phi)
    assert_bit_identical(evaluate(field, name, r, theta, phi), want, shape)

    calls.clear()
    assert_bit_identical(evaluate(spy, name, r, theta, phi), want, shape)
    _check_spy_log(calls, field)
    if kind == "outside" and name in RADIAL:
        assert calls == []


# each assembly kernel: (position of its sin(theta) argument, of its r argument)
ASSEMBLY = {"big_g_values": (0, None), "u_assembly": (3, None),
            "omega_assembly": (1, 0), "boundary_curl_assembly": (0, None)}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("name", RADIAL + POLAR)
def test_assembly_kernels_see_only_in_support_nodes(monkeypatch, family, name):
    field = FAMILIES[family]
    seen = []
    for kernel in ASSEMBLY:
        def spy(*args, _kernel=kernel, _fn=getattr(kernels, kernel)):
            seen.append((_kernel, args))
            return _fn(*args)
        monkeypatch.setattr(kernels, kernel, spy)

    si, d = field.profile.support_inner, field.angular.pole_margin
    edges_r = [0.0, si, math.nextafter(si, 1.0), 1.0]
    edges_t = [0.0, d, math.nextafter(d, PI), PI - d, PI]
    rng = np.random.default_rng(11)
    r = np.concatenate([rng.uniform(0.0, 1.0, 300), np.repeat(edges_r, len(edges_t))])
    theta = np.concatenate([rng.uniform(0.0, PI, 300), np.tile(edges_t, len(edges_r))])
    phi = rng.uniform(0.0, 2.0 * PI, r.size)
    support = (field.support_mask(r, theta) if name in RADIAL
               else (theta > d) & (theta < PI - d))
    assert 0 < np.count_nonzero(support) < support.size
    evaluate(field, name, r, theta, phi)
    assert seen
    for kernel, args in seen:
        assert all(a.shape == (np.count_nonzero(support),)
                   for a in args if isinstance(a, np.ndarray))
        at_sin, at_r = ASSEMBLY[kernel]
        assert np.array_equal(args[at_sin], np.sin(theta[support]))
        if at_r is not None:  # the polar evaluators sit on the unit sphere
            want_r = r[support] if name in RADIAL else np.ones(np.count_nonzero(support))
            assert np.array_equal(args[at_r], want_r)

    seen.clear()
    evaluate(field, name, np.full(4, 0.1), np.array([0.0, 0.1, PI - 0.1, PI]), phi[:4])
    assert seen == []


def test_all_inside_fast_path_sees_every_node_flattened():
    spy, calls = SPIED["default"]
    r = np.full((3, 4), 0.8)
    theta = np.linspace(1.0, 2.0, 12).reshape(3, 4)
    phi = np.linspace(0.0, 6.0, 12).reshape(3, 4)
    calls.clear()
    spy.u_components(r, theta, phi)
    assert [c[0] for c in calls] == ["radial", "angular"]
    assert all(a.shape == (12,) for c in calls for a in c[1:])


def test_no_jet_call_outside_support():
    spy, calls = SPIED["default"]
    calls.clear()
    ur, ut, up = spy.u_components(np.array([0.1, 0.9]), np.array([1.0, 0.2]), np.zeros(2))
    assert calls == []
    assert np.all(ut == 0.0) and not np.any(np.signbit(ut))
    spy.boundary_curl_theta(np.array([0.1, PI - 0.1]), np.zeros(2))
    assert calls == []


def test_sweep_reads_each_profile_at_r_1_only(monkeypatch):
    # one angular jet on the sphere's support nodes (its in-band theta rows
    # and its phi row); the perturbed profiles enter through one jet at the
    # one node r = 1, its factor taken once over the whole eps vector
    spy, calls = _spied(FAMILIES["default"])
    factor = kernels.perturbed_factor_jet
    factors = []

    def spied_factor(r, eps, order):
        factors.append((r, eps, order))
        return factor(r, eps, order)

    monkeypatch.setattr(kernels, "perturbed_factor_jet", spied_factor)
    grid = verify.GridSpec(n_theta=32, n_phi=64, boundary_only=True)
    epsilons = [1e-1, 1e-2, 0.0, 1e-3]
    verify.scaling_sweep(spy, epsilons, grid)
    _, theta, phi = grid.lattice().axes
    support = spy.support_mask(1.0, theta)
    assert [c[0] for c in calls] == ["angular", "radial"]
    assert np.array_equal(calls[0][1], theta[support][None, :, None])
    assert np.array_equal(calls[0][2], phi)
    assert np.array_equal(calls[1][1], [1.0])
    [(r, eps, order)] = factors
    assert np.array_equal(r, [1.0]) and order == 1
    assert np.array_equal(eps, epsilons)


def test_empty_input_calls_no_jet():
    spy, calls = SPIED["default"]
    calls.clear()
    ur, ut, up = spy.u_components(np.array([]), np.array([]), np.array([]))
    assert ut.shape == (0,)
    assert calls == []


class TestNaNCoordinates:
    @pytest.mark.parametrize("name", ["u_components", "omega_components", "v_components"])
    def test_scalar_nan_gives_nan(self, default_field, name):
        for point in [(0.8, math.nan, 1.0), (math.nan, 1.0, 1.0), (0.8, 1.0, math.nan),
                      (0.1, 1.0, math.nan)]:
            out = getattr(default_field, name)(*point)
            assert all(math.isnan(v) for v in out)

    def test_array_nan_is_local(self):
        spy, calls = SPIED["default"]
        r = np.array([0.8, 0.8, math.nan, 0.1, 0.6])
        theta = np.array([1.0, math.nan, 1.2, 1.0, 2.0])
        phi = np.array([1.0, 2.0, 3.0, math.nan, 4.0])
        bad = np.array([False, True, True, True, False])
        calls.clear()
        for name in RADIAL:
            got = evaluate(spy, name, r, theta, phi)
            clean = evaluate(spy, name, r[~bad], theta[~bad], phi[~bad])
            for g, c in zip(got, clean):
                assert np.all(np.isnan(g[bad]))
                assert np.array_equal(g[~bad], c)
        _check_spy_log(calls, spy)

    def test_u_and_omega_is_u_components_and_omega_components(self, default_field):
        # the u and omega that v_components crosses in its one pass
        r = np.array([0.8, 0.8, math.nan, 0.1, 0.6, 1.0])
        theta = np.array([1.0, math.nan, 1.2, 1.0, 2.0, 0.3])
        phi = np.array([1.0, 2.0, 3.0, math.nan, 4.0, 5.0])
        _, *u = default_field.u_components(r, theta, phi)
        want = kernels.cross_tangential(*u, *default_field.omega_components(r, theta, phi))
        assert_bit_identical(default_field.v_components(r, theta, phi), want, (6,))
        scalar = default_field.v_components(0.8, 1.0, 1.0)
        assert all(isinstance(v, float) for v in scalar)
        assert scalar == tuple(float(v[0]) for v in default_field.v_components([0.8], 1.0, 1.0))

    def test_u_raw_partials_nan(self, default_field):
        parts = default_field.u_raw_partials(0.8, math.nan, 1.0)
        assert all(np.isnan(v).all() for v in parts.values())

    @pytest.mark.parametrize("name", POLAR)
    def test_polar_evaluators_nan(self, default_field, name):
        for theta, phi in [(math.nan, 1.0), (1.2, math.nan), (0.1, math.nan)]:
            out = evaluate(default_field, name, None, theta, phi)
            assert len(out) == {"boundary_state": 9, "big_G": 2}.get(name, 1)
            assert all(isinstance(v, float) and math.isnan(v) for v in out)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_boundary_state_is_u_and_omega_and_boundary_curl(self, family):
        field = FAMILIES[family]
        d = field.angular.pole_margin
        theta = np.array([1.0, math.nan, 1.2, 0.0, d, math.nextafter(d, PI), PI - d, PI, 2.0])
        phi = np.array([1.0, 2.0, math.nan, 3.0, 4.0, 5.0, 6.0, -0.0, -7.0])

        def want(th, ph):
            # the witness products against the full-array reference, NaN at NaN nodes
            nan = np.isnan(th) | np.isnan(ph)
            products = (np.where(nan, np.nan, p) for p in reference(field, "big_G", None, th, ph))
            return (*field.u_components(1.0, th, ph)[1:], *field.omega_components(1.0, th, ph),
                    field.boundary_curl_theta(th, ph), field.boundary_curl_phi(th, ph), *products)
        assert_bit_identical(field.boundary_state(theta, phi), want(theta, phi), theta.shape)
        for th, ph in zip(theta.tolist(), phi.tolist()):
            got = field.boundary_state(th, ph)
            assert all(isinstance(v, float) for v in got)
            assert_bit_identical(got, want(th, ph), ())


SCALAR_EVALUATORS = ("u_components", "omega_components", "v_components", "u_raw_partials",
                     "boundary_state", "boundary_curl_theta", "boundary_curl_phi")


@st.composite
def single_nodes(draw, field):
    """(r, theta, phi) floats: in the support, off it, at a pole, at r = 1,
    or with a NaN in one coordinate."""
    kind = draw(st.sampled_from(["inside", "outside", "pole", "sphere", "nan"]))
    (r,), (theta,) = (_outside if kind == "outside" else _inside)(draw, 1, field)
    if kind == "pole":
        theta = draw(st.sampled_from([0.0, PI]))
    if kind == "sphere":
        r = 1.0
    coords = [r, theta, draw(st.floats(-10.0, 10.0))]
    if kind == "nan":
        coords[draw(st.integers(0, 2))] = math.nan
    return coords


def _outputs(out):
    if isinstance(out, dict):
        return tuple(out.values())
    return out if isinstance(out, tuple) else (out,)


@pytest.mark.parametrize("name", SCALAR_EVALUATORS)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_scalar_point_is_a_one_element_array(name, data):
    # Python floats with the bits of float(a[0]) from a call on [x] (every
    # coordinate or some of them), signed zeros included, and NaN where it is
    # NaN: IEEE 754 gives a NaN's sign no meaning, and v_components crosses a
    # point's floats, whose product may keep either operand's NaN
    field = FAMILIES[data.draw(st.sampled_from(sorted(FAMILIES)))]
    coords = data.draw(single_nodes(field))
    if name in POLAR:
        coords = coords[1:]
    wrap = data.draw(st.lists(st.booleans(), min_size=len(coords), max_size=len(coords))
                     .filter(any))
    evaluator = getattr(field, name)
    got = _outputs(evaluator(*coords))
    want = _outputs(evaluator(*([c] if w else c for c, w in zip(coords, wrap))))
    assert len(got) == len(want) == {"boundary_state": 9, "u_raw_partials": 8}.get(
        name, 1 if name in POLAR else 3)
    for g, w in zip(got, want):
        assert type(g) is float
        assert w.shape == (1,)
        assert (math.isnan(g) and np.isnan(w[0])) or np.float64(g).tobytes() == w.tobytes()


def _edge_nodes(field, n=300, seed=11):
    """Random nodes plus the support edges and a NaN in each coordinate."""
    si, d = field.profile.support_inner, field.angular.pole_margin
    edges_r = [0.0, si, math.nextafter(si, 1.0), 1.0]
    edges_t = [0.0, d, math.nextafter(d, PI), PI - d, PI]
    rng = np.random.default_rng(seed)
    r = np.concatenate([rng.uniform(0.0, 1.0, n), np.repeat(edges_r, len(edges_t)),
                        [math.nan, 0.8, 0.8]])
    theta = np.concatenate([rng.uniform(0.0, PI, n), np.tile(edges_t, len(edges_r)),
                            [1.0, math.nan, 1.0]])
    phi = np.concatenate([rng.uniform(-7.0, 7.0, r.size - 1), [math.nan]])
    return r, theta, phi


class TestJetOrders:
    """Each evaluator asks the jet functions for the orders it reads, and a
    jet function that returns the whole jet at every order gives the same
    bits."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("name", RADIAL + POLAR)
    def test_full_jet_functions_give_the_same_bits(self, family, name):
        field, full = FAMILIES[family], FULL_JET[family]
        r, theta, phi = _edge_nodes(field)
        assert_bit_identical(evaluate(full, name, r, theta, phi),
                             evaluate(field, name, r, theta, phi), r.shape)
        assert_bit_identical(evaluate(full, name, 0.8, 1.2, 0.4),
                             evaluate(field, name, 0.8, 1.2, 0.4), ())

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_full_jet_functions_give_the_same_admissibility_and_sweep(self, family):
        field, full = FAMILIES[family], FULL_JET[family]
        assert fam.find_witnesses(full) == fam.find_witnesses(field)
        assert (fam.check_admissibility(full, fam.find_witnesses(full))
                == fam.check_admissibility(field, fam.find_witnesses(field)))
        assert (full.h_boundary, full.hp_boundary) == (field.h_boundary, field.hp_boundary)
        grid = verify.GridSpec(n_theta=32, n_phi=64, boundary_only=True)
        eps = [1e-1, 1e-2, 0.0]
        if family in ("h1zero", "zero_angular"):  # every residual is 0
            with pytest.raises(DegenerateFit):
                verify.scaling_sweep(full, eps, grid)
        else:
            want = verify.scaling_sweep(field, eps, grid).rows
            assert verify.scaling_sweep(full, eps, grid).rows == want

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("jet", ["perturbed_profile", "cosine_angular", "zero_angular"])
    def test_family_jet_functions_at_each_order(self, jet, order):
        r, theta, phi = _edge_nodes(FAMILIES["default"])
        if jet == "perturbed_profile":
            fn = fam.perturbed_profile(0.3).fn
            args, lengths = (r,), (1, 2, 3)
        else:
            fn = getattr(fam, jet)().fn
            args, lengths = (theta, phi), (1, 3, 6)
        with np.errstate(invalid="ignore"):  # NaN nodes give 0/0 in the cutoff step
            full, got = fn(*args, 2), fn(*args, order)
        assert len(full) == lengths[2] and len(got) == lengths[order]
        assert_bit_identical(got, full[:len(got)], r.shape)

    ASKED = {
        "u_components": [("radial", 0), ("angular", 1)],
        **{name: [("radial", 1), ("angular", 2)] for name in
           ("omega_components", "v_components", "u_and_omega", "u_raw_partials")},
        **{name: [("angular", 2)] for name in POLAR},
    }

    @staticmethod
    def order_spy(field):
        log = []
        profile, angular = field.profile, field.angular

        def radial_fn(r, order):
            log.append(("radial", order))
            return profile.fn(r, order)

        def angular_fn(theta, phi, order):
            log.append(("angular", order))
            return angular.fn(theta, phi, order)

        spy = fam.CounterexampleField(
            fam.RadialProfile(radial_fn, profile.support_inner, profile.label),
            fam.AngularFunction(angular_fn, angular.pole_margin, angular.label), field.label)
        return spy, log

    @pytest.mark.parametrize("name", RADIAL + POLAR)
    def test_each_evaluator_asks_for_the_orders_it_reads(self, name):
        spy, log = self.order_spy(FAMILIES["default"])
        r, theta, phi = _edge_nodes(spy)
        log.clear()
        evaluate(spy, name, r, theta, phi)
        assert log == self.ASKED[name]

    def test_admissibility_witnesses_sweep_and_construction(self):
        spy, log = self.order_spy(FAMILIES["default"])
        assert log == [("radial", 2)]  # construction: h(1), h'(1) from one profile jet
        log.clear()
        fam.find_witnesses(spy, 16, 32)
        assert log == [("angular", 2)]
        log.clear()
        verify.scaling_sweep(spy, [1e-1, 1e-2, 1e-3],
                             verify.GridSpec(n_theta=32, n_phi=64, boundary_only=True))
        # one angular jet at order 1 (no G), then h(1), h'(1) at order 1 for
        # the whole eps vector
        assert log == [("angular", 1), ("radial", 1)]
