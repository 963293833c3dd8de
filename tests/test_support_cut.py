"""family._on_support against the cut it replaced, byte for byte.

parent_on_support below is the earlier rule, written out: one keep mask per
axis from `any` reductions of the support and of every coordinate's
not-NaN mask over the other axes, with the NaN passes run whether or not a
coordinate holds a NaN, and fancy-indexed cuts.  The lean rule takes the
NaN nodes of a coordinate that holds a NaN off the support, then projects
the support once per axis along which it varies.  Both must give the same
outputs, bit for bit (signed zeros and NaN included), call compute as often
(at most once, never on empty arrays) and hand it the same values in the
same shapes.  The
trace-only boundary_curl_theta and boundary_curl_phi are compared with the
SphereState they used to read.
"""
import math

import numpy as np
import pytest

from slipball import family as fam
from slipball.sphcalc import _node_arrays


def parent_on_support(support, n_out, compute, *coords):
    flat = all(c.shape == support.shape for c in coords)
    shape = support.shape if flat else np.broadcast_shapes(*(c.shape for c in coords))
    if flat:
        support, coords = support.ravel(), [c.ravel() for c in coords]
    cells, nan = support.shape if flat else shape, [np.isnan(c) for c in coords]
    keeps = [np.ones(n, dtype=bool) for n in cells]
    for term in (support, *(~bad for bad in nan)):
        for k, keep in enumerate(keeps):
            keep &= term if flat else term.any(axis=tuple(j for j in range(len(cells)) if j != k))
    if flat and 0 < np.count_nonzero(keeps[0]) == keeps[0].size:
        return tuple(v.reshape(shape) for v in compute(*coords))
    idx = [np.flatnonzero(keep) for keep in keeps]
    out = np.zeros((n_out,) + cells)
    if all(i.size for i in idx):
        cut = [c[tuple(i if n > 1 else slice(None) for i, n in zip(idx, c.shape))] for c in coords]
        at = (tuple(slice(i[0], i[-1] + 1) for i in idx)
              if all(i[-1] - i[0] == i.size - 1 for i in idx)
              else np.ix_(*idx) if len(idx) > 1 else idx[0])
        for o, v in zip(out, compute(*cut)):
            o[at] = v
    for bad in nan:
        if bad.any():
            out[:, np.broadcast_to(bad, cells)] = np.nan
    return tuple(o.reshape(shape) for o in out)


N_OUT = 3


def recording_compute(calls):
    """An elementwise compute of N_OUT outputs (one of them -0.0 wherever
    the first coordinate is positive) that records the values it is given."""
    def compute(*coords):
        assert all(c.size for c in coords)  # never on empty arrays
        calls.append([(c.shape, np.ascontiguousarray(c).tobytes()) for c in coords])
        first, last = coords[0], coords[-1]
        s = 2.0 * first - last
        return s + 1.5, np.cos(last) * s, -first * 0.0
    return compute


def assert_same_cut(support, *coords):
    got_calls, want_calls = [], []
    got = fam._on_support(support, N_OUT, recording_compute(got_calls), *coords)
    want = parent_on_support(support, N_OUT, recording_compute(want_calls), *coords)
    assert len(got) == len(want) == N_OUT
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype == np.float64
        assert g.tobytes() == w.tobytes()
    assert got_calls == want_calls and len(got_calls) <= 1
    return got_calls


def product_support(rng, kind, *terms_shape):
    """A boolean support that is a product of per-axis terms, each of the
    given length along its own axis: none, all, partial (one run) or
    scattered (not one run) along every varying axis."""
    ndim = len(terms_shape)
    support = np.ones((1,) * ndim, dtype=bool)
    for k, n in enumerate(terms_shape):
        if kind == "none":
            term = np.zeros(n, dtype=bool)
        elif kind == "all" or n <= 1:
            term = np.ones(n, dtype=bool)
        elif kind == "partial":
            term = np.zeros(n, dtype=bool)
            term[n // 4: n - n // 4 or n] = True
        else:  # scattered
            term = rng.random(n) < 0.5
            term[0], term[-1], term[n // 2] = True, True, False
        support = support & term.reshape((1,) * k + (n,) + (1,) * (ndim - k - 1))
    return support


KINDS = ("none", "all", "partial", "scattered")


def axes(rng, n_r, n_theta, n_phi):
    return (rng.uniform(0.1, 1.0, n_r).reshape(-1, 1, 1),
            rng.uniform(0.1, math.pi, n_theta).reshape(1, -1, 1),
            rng.uniform(0.0, 2.0 * math.pi, n_phi).reshape(1, 1, -1))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("shape", [(1,), (2,), (17,), (4, 5), (2, 3, 4)])
def test_flat_nodes(kind, shape):
    rng = np.random.default_rng(len(shape) * 10 + shape[-1])
    coords = [rng.uniform(-1.0, 4.0, shape) for _ in range(3)]
    support = product_support(rng, kind, math.prod(shape)).reshape(shape)
    calls = assert_same_cut(support, *coords)
    assert len(calls) == (kind != "none")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("sizes", [(5, 7, 9), (1, 7, 9), (5, 1, 9), (5, 7, 1), (1, 1, 1)])
def test_lattice_axes_with_an_r_and_a_theta_term(kind, sizes):
    rng = np.random.default_rng(sum(sizes))
    r, theta, phi = axes(rng, *sizes)
    support = product_support(rng, kind, *sizes[:2], 1)  # phi is not a term
    calls = assert_same_cut(support, r, theta, phi)
    assert len(calls) == (kind != "none")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("sizes", [(7, 9), (1, 9), (7, 1)])
def test_sphere_axes_with_a_theta_term(kind, sizes):
    rng = np.random.default_rng(sizes[0] * 31 + sizes[1])
    _, theta, phi = axes(rng, 1, *sizes)
    support = product_support(rng, kind, 1, sizes[0], 1)
    assert_same_cut(support, theta, phi)


@pytest.mark.parametrize("kind", KINDS)
def test_a_one_dimensional_lattice(kind):
    # r varies, theta and phi are one value each: _node_arrays keeps the shapes
    rng = np.random.default_rng(3)
    r, theta, phi = _node_arrays(rng.uniform(0.1, 1.0, 12), 1.0, 2.0)
    assert r.shape == (12,) and theta.shape == phi.shape == (1,)
    assert_same_cut(product_support(rng, kind, 12), r, theta, phi)


@pytest.mark.parametrize("which", range(3))
@pytest.mark.parametrize("count", ["one", "some", "every"])
def test_nan_in_each_flat_coordinate(which, count):
    rng = np.random.default_rng(which)
    coords = [rng.uniform(0.1, 3.0, 20) for _ in range(3)]
    coords[which][{"one": [7], "some": [0, 7, 8, 19], "every": slice(None)}[count]] = np.nan
    for kind in KINDS:
        assert_same_cut(product_support(rng, kind, 20), *coords)


@pytest.mark.parametrize("which", range(3))
@pytest.mark.parametrize("count", ["one", "some", "every"])
@pytest.mark.parametrize("sizes", [(5, 7, 9), (1, 7, 9), (5, 1, 9), (5, 7, 1)])
def test_nan_in_each_lattice_axis(which, count, sizes):
    # a NaN takes its own axis value off the support; on a one-value axis,
    # every node
    rng = np.random.default_rng(which * 7 + sizes[1])
    coords = list(axes(rng, *sizes))
    c = coords[which].reshape(-1)
    c[{"one": [c.size // 2], "some": [0, c.size - 1], "every": slice(None)}[count]] = np.nan
    for kind in KINDS:
        calls = assert_same_cut(product_support(rng, kind, *sizes[:2], 1), *coords)
        if count == "every" or c.size == 1:
            assert calls == []


def test_nan_in_two_axes_at_once():
    rng = np.random.default_rng(5)
    r, theta, phi = axes(rng, 6, 8, 10)
    theta[0, 3, 0], phi[0, 0, [0, 9]] = np.nan, np.nan
    for kind in KINDS:
        assert_same_cut(product_support(rng, kind, 6, 8, 1), r, theta, phi)


def test_signed_zero_coordinates():
    rng = np.random.default_rng(8)
    flat = [np.array([-0.0, 0.0, 1.0, -0.0, 2.5]) for _ in range(3)]
    for kind in KINDS:
        assert_same_cut(product_support(rng, kind, 5), *flat)
    r, theta, phi = axes(rng, 4, 5, 6)
    r[0, 0, 0], theta[0, [1, 2], 0], phi[0, 0, 0] = -0.0, [-0.0, 0.0], -0.0
    for kind in KINDS:
        assert_same_cut(product_support(rng, kind, 4, 5, 1), r, theta, phi)


@pytest.mark.parametrize("sizes", [(0, 7, 9), (5, 0, 9), (5, 7, 0)])
def test_empty_lattice_axes(sizes):
    rng = np.random.default_rng(9)
    r, theta, phi = axes(rng, *sizes)
    for kind in KINDS:
        assert assert_same_cut(product_support(rng, kind, *sizes[:2], 1), r, theta, phi) == []


@pytest.mark.parametrize("shape", [(0,), (0, 3), (3, 0)])
def test_empty_flat_nodes(shape):
    coords = [np.empty(shape) for _ in range(3)]
    assert assert_same_cut(np.zeros(shape, dtype=bool), *coords) == []


FIELD = fam.default_field()


@pytest.mark.parametrize("nodes", ["flat", "axes"])
def test_field_supports(nodes):
    # the support masks the evaluators hand over, from pole to pole and
    # from the origin out, NaN nodes included
    rng = np.random.default_rng(10)
    r, theta, phi = axes(rng, 9, 23, 7)
    r[[2, 5], 0, 0] = [0.0, np.nan]
    theta[0, [0, 11, 22], 0] = [0.0, np.nan, math.pi]
    if nodes == "flat":
        r, theta, phi = (np.ascontiguousarray(a).ravel()
                         for a in np.broadcast_arrays(r, theta, phi))
    with np.errstate(invalid="ignore"):
        assert_same_cut(FIELD.support_mask(r, theta), r, theta, phi)
        assert_same_cut(FIELD.support_mask(1.0, theta), theta, phi)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("family", ["default", "h1zero", "perturbed:1e-3"])
@pytest.mark.parametrize("nodes", ["flat", "axes"])
def test_trace_only_calls_equal_the_sphere_state(family, nodes):
    field = fam.family_by_label(family)
    # theta over the whole sphere, so that nodes off the support (near the
    # poles) and on it are both there, with the poles themselves
    theta = np.concatenate([[0.0, math.pi], np.linspace(0.01, math.pi - 0.01, 61)])
    phi = np.linspace(0.0, 2.0 * math.pi, 40, endpoint=False)
    args = ((theta[:, None], phi[None, :]) if nodes == "axes"
            else [a.ravel() for a in np.meshgrid(theta, phi, indexing="ij")])
    state = field.boundary_state(*args)
    support = field.support_mask(1.0, np.broadcast_to(args[0], state.curl_v_theta.shape))
    assert 0 < np.count_nonzero(support) < support.size
    assert_same_bits(field.boundary_curl_theta(*args), state.curl_v_theta)
    assert_same_bits(field.boundary_curl_phi(*args), state.curl_v_phi)
    if family != "h1zero":
        assert np.any(state.curl_v_theta[support] != 0.0)
    assert not np.any(state.curl_v_theta[~support])


def test_trace_only_calls_at_a_point_and_at_nan():
    field = fam.default_field()
    for theta, phi in [(1.2, 0.7), (0.1, 0.7), (math.nan, 0.7), (1.2, math.nan)]:
        state = field.boundary_state(theta, phi)
        got = field.boundary_curl_theta(theta, phi), field.boundary_curl_phi(theta, phi)
        assert all(type(g) is float for g in got)
        assert_same_bits(got, (state.curl_v_theta, state.curl_v_phi))
