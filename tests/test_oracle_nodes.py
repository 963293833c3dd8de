"""The Cartesian oracles are elementwise over their nodes.

cartesian_jacobian_grid takes every stencil point of every node in one
components_fn call, and the divergence and the curl read its Jacobian.
All of that work is elementwise, so every value, sign bits included, must
equal a run on any split of the nodes (the r-slabs of a lattice, chunks of
flat nodes, each node alone), a run on any subset of them, and a run with
one components_fn call per stencil offset.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slipball import family as fam
from slipball import kernels, oracle, verify
from tests_support import cartesian_curl, cartesian_divergence

PI = math.pi
FAMILIES = {name: fam.family_by_label(name) for name in ("default", "perturbed:1e-3")}
CONFIGS = {"plain": oracle.FDConfig(), "richardson": oracle.FDConfig(1e-4, True)}
COARSE = verify.GridSpec(n_r=8, n_theta=8, n_phi=8).lattice()


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def three_oracles(fn, nodes, cfg):
    """(divergence, Jacobian, curl) at the nodes."""
    return (cartesian_divergence(fn, *nodes, cfg),
            oracle.cartesian_jacobian_grid(fn, *nodes, cfg),
            np.array(cartesian_curl(fn, *nodes, cfg)))


def nodes_of(where, cfg):
    if where == "seeded":
        return verify._agreement_nodes(verify.DEFAULT_SEED, cfg.step)
    return COARSE.axes if where == "axes" else COARSE.nodes()


@pytest.mark.parametrize("cfg_name", CONFIGS)
@pytest.mark.parametrize("family_name", FAMILIES)
@pytest.mark.parametrize("where", ["axes", "flat", "seeded"])
def test_split_nodes_equal_one_call(where, family_name, cfg_name):
    # a lattice in r-slabs of 3 rows, as check_divergence_free reads it;
    # flat nodes in 7 uneven chunks; the agreement nodes one by one
    field, cfg = FAMILIES[family_name], CONFIGS[cfg_name]
    nodes = nodes_of(where, cfg)
    whole = three_oracles(field.u_components, nodes, cfg)
    if where == "axes":
        r, th, ph = nodes
        parts = [(r[lo:lo + 3], th, ph) for lo in range(0, r.shape[0], 3)]
    else:
        cuts = 7 if where == "flat" else nodes[0].size
        parts = list(zip(*(np.array_split(c, cuts) for c in nodes)))
    pieces = [three_oracles(field.u_components, part, cfg) for part in parts]
    axis = -3 if where == "axes" else -1  # the r axis, or the axis of flat nodes
    for k, want in enumerate(whole):
        assert same_bits(np.concatenate([p[k] for p in pieces], axis), want)
        assert np.any(want != 0.0)


@pytest.mark.parametrize("cfg_name", CONFIGS)
@pytest.mark.parametrize("family_name", FAMILIES)
@pytest.mark.parametrize("n_nodes", [0, 1, 64, 65])
def test_a_subset_of_the_lattice_reads_the_lattice_values(n_nodes, family_name, cfg_name):
    # 64 nodes are one radial layer of the coarse lattice
    field, cfg = FAMILIES[family_name], CONFIGS[cfg_name]
    flat = COARSE.nodes()
    pick = np.sort(np.random.default_rng(n_nodes).choice(flat[0].size, n_nodes, replace=False))
    subset = [c[pick] for c in flat]
    sizes = []

    def counted(r, theta, phi):
        sizes.append(r.size)
        return field.u_components(r, theta, phi)

    got = three_oracles(counted, subset, cfg)
    n_offsets = 12 if cfg.richardson else 6
    assert sizes == [n_offsets * n_nodes] * 3  # the divergence, the Jacobian, the curl
    whole = three_oracles(field.u_components, flat, cfg)
    for a, b in zip(got, whole):
        assert same_bits(a, b[..., pick])


def per_offset_jacobian(components_fn, nodes, cfg):
    """The Jacobian with one components_fn call per stencil offset, as the
    oracle ran it before it took every stencil point in one call."""
    x, y, z = kernels.sph_to_cart(*np.broadcast_arrays(*nodes))
    base = np.array([x.ravel(), y.ravel(), z.ravel()])

    def column(j, h):
        def field_at(offset):
            shifted = base.copy()
            shifted[j] += offset
            sx, sy, _ = shifted
            rho = np.sqrt(sx * sx + sy * sy)
            r, theta, phi = kernels.cart_to_sph(*shifted, rho)
            return np.array(kernels.vec_sph_to_cart_at(*shifted, r, rho,
                                                       *components_fn(r, theta, phi)))
        return (field_at(h) - field_at(-h)) / (2.0 * h)

    jac = np.stack([oracle._richardson(lambda h: column(j, h), cfg.step, cfg.richardson)
                    for j in range(3)], axis=1)
    return jac.reshape((3, 3) + x.shape)


@pytest.mark.parametrize("cfg_name", CONFIGS)
@pytest.mark.parametrize("family_name", FAMILIES)
@pytest.mark.parametrize("where", ["seeded", "axes"])
def test_one_call_equals_one_call_per_offset(where, family_name, cfg_name):
    field, cfg = FAMILIES[family_name], CONFIGS[cfg_name]
    nodes = nodes_of(where, cfg)
    want = per_offset_jacobian(field.u_components, nodes, cfg)
    got = oracle.cartesian_jacobian_grid(field.u_components, *nodes, cfg)
    assert same_bits(got, want)
    assert np.any(got != 0.0)
    div = cartesian_divergence(field.u_components, *nodes, cfg)
    assert same_bits(div, want[0, 0] + want[1, 1] + want[2, 2])


@pytest.mark.parametrize("fd", [cartesian_divergence,
                                oracle.cartesian_jacobian_grid,
                                cartesian_curl],
                         ids=["divergence", "jacobian", "curl"])
def test_list_and_scalar_nodes_equal_array_nodes(fd):
    field = FAMILIES["default"]
    r, th, ph = [0.6, 0.7], [PI / 2, 1.2], [1.0, 2.0]
    want = np.asarray(fd(field.u_components, np.array(r), np.array(th), np.array(ph)))
    assert same_bits(np.asarray(fd(field.u_components, r, th, ph)), want)
    one = np.asarray(fd(field.u_components, r[1], th[1], ph[1]))
    assert same_bits(one, want[..., 1:])
    assert np.any(want != 0.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(nodes=st.lists(st.tuples(st.floats(0.1, 0.95), st.floats(0.15, PI - 0.15),
                                st.floats(0.0, 2 * PI, exclude_max=True)),
                      min_size=1, max_size=6),
       richardson=st.booleans())
def test_a_node_reads_the_same_alone_and_among_others(nodes, richardson):
    field, cfg = FAMILIES["default"], oracle.FDConfig(1e-3, richardson)
    r, th, ph = (np.array(c) for c in zip(*nodes))
    fits = oracle.cartesian_stencil_fits(r, th, ph, cfg.step)
    r, th, ph = r[fits], th[fits], ph[fits]
    together = oracle.cartesian_jacobian_grid(field.u_components, r, th, ph, cfg)
    for k in range(r.size):
        alone = oracle.cartesian_jacobian_grid(field.u_components, r[k], th[k], ph[k], cfg)
        assert same_bits(alone[..., 0], together[..., k])
