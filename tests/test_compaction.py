"""Support-compacted evaluation: bit-identical to full-array evaluation.

The evaluators compute the profile and angular jets, and run the assembly
kernels, only on the nodes inside the field's support.  Each one is
compared here against a reference that calls profile.fn / angular.fn and
the same assembly kernels on the full arrays and zeroes the result off the
support, with np.array_equal and equal sign bits, so signed zeros must
match too.  Spy jet functions and spy kernels check the evaluator contract:
a jet function or an assembly kernel sees only 1-D arrays of in-support
nodes, never an empty array.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slipball import family as fam
from slipball import kernels

PI = math.pi
RADIAL = ("u_components", "omega_components", "v_components", "u_raw_partials")
POLAR = ("boundary_curl_theta", "boundary_curl_phi", "big_G")


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

    def radial_fn(r):
        calls.append(("radial", r))
        return profile.fn(r)

    def angular_fn(theta, phi):
        calls.append(("angular", theta, phi))
        return angular.fn(theta, phi)

    spy = fam.CounterexampleField(
        fam.RadialProfile(radial_fn, profile.support_inner, profile.label),
        fam.AngularFunction(angular_fn, angular.pole_margin, angular.label), field.label)
    calls.clear()  # construction probes the margins on purpose
    return spy, calls


FAMILIES = {name: _family(name) for name in
            ("default", "h1zero", "perturbed:1e-3", "cosine_angular", "zero_angular")}
SPIED = {name: _spied(f) for name, f in FAMILIES.items()}


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

    _, g_t, g_p, g_tt, g_tp, g_pp = field.angular.fn(theta, phi)
    s, c = np.sin(theta), np.cos(theta)
    gg = kernels.big_g_values(s, c, g_t, g_tt, g_pp)
    if name in POLAR:
        if name == "big_G":
            return sel(gg)
        bt, bp = sel(*kernels.boundary_curl_assembly(
            s, field.h_boundary, field.hp_boundary, g_t, g_p, gg))
        return (bt,) if name == "boundary_curl_theta" else (bp,)
    h, hp, _ = field.profile.fn(r)
    ut, up = sel(*kernels.u_assembly(h, g_t, g_p, s))
    if name == "u_components":
        return (np.zeros_like(ut), ut, up)
    w = sel(*kernels.omega_assembly(r, s, h, hp, g_t, g_p, gg))
    if name == "omega_components":
        return w
    if name == "v_components":  # on the masked u and omega: -0 off the support
        return kernels.cross_tangential(ut, up, *w)
    return sel(-h * g_p / s, -hp * g_p / s, -h * (g_tp * s - g_p * c) / s**2,
               -h * g_pp / s, h * g_t, hp * g_t, h * g_tt, h * g_tp)


def evaluate(field, name, r, theta, phi):
    if name == "big_G":
        out = fam.big_G(field.angular, theta, phi)
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
        if at_r is not None:
            assert np.array_equal(args[at_r], r[support])

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

    def test_u_raw_partials_nan(self, default_field):
        parts = default_field.u_raw_partials(0.8, math.nan, 1.0)
        assert all(np.isnan(v).all() for v in parts.values())

    @pytest.mark.parametrize("name", POLAR)
    def test_polar_evaluators_nan(self, default_field, name):
        for theta, phi in [(math.nan, 1.0), (1.2, math.nan), (0.1, math.nan)]:
            (out,) = evaluate(default_field, name, None, theta, phi)
            assert math.isnan(out)
