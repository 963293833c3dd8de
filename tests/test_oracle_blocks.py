"""The Cartesian oracles in blocks of kept nodes.

cartesian_divergence_grid and cartesian_jacobian_grid evaluate the kept
nodes in consecutive blocks, each in one call that takes every stencil
point of the block (at most oracle._BLOCK points), and check and gather the
nodes in slabs of about _BLOCK along the leading axis.  All of that work is
elementwise, so every value, sign bits included, must equal a one-block run
(_BLOCK above the node count) and a run with one call per stencil offset,
and every node is still checked, with the message of an all-node check,
before the first field evaluation.
"""
import math
import tracemalloc

import numpy as np
import pytest

from slipball import family as fam
from slipball import kernels, oracle, verify
from slipball.errors import StencilOutOfDomain

PI = math.pi
FAMILIES = {name: fam.family_by_label(name) for name in ("default", "perturbed:1e-3")}
CONFIGS = {"plain": oracle.FDConfig(), "richardson": oracle.FDConfig(1e-4, True)}
SHIPPED = verify.GridSpec().lattice()
COARSE = verify.GridSpec(n_r=8, n_theta=8, n_phi=8).lattice()
ONE_BLOCK = 10 ** 9


def same_bits(a, b):
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def both_oracles(monkeypatch, block, fn, nodes, cfg, mask):
    """(divergence, Jacobian) with _BLOCK set to block."""
    monkeypatch.setattr(oracle, "_BLOCK", block)
    return (oracle.cartesian_divergence_grid(fn, *nodes, cfg, mask),
            oracle.cartesian_jacobian_grid(fn, *nodes, cfg, mask))


@pytest.mark.parametrize("cfg_name", CONFIGS)
@pytest.mark.parametrize("family_name", FAMILIES)
@pytest.mark.parametrize("mesh", ["axes", "flat"])
def test_shipped_grid_blocks_equal_one_block(monkeypatch, mesh, family_name, cfg_name):
    field, cfg = FAMILIES[family_name], CONFIGS[cfg_name]
    nodes = SHIPPED.axes if mesh == "axes" else SHIPPED.nodes()
    reach = field.support_mask(*nodes[:2], pad=2.0 * cfg.step)
    assert np.count_nonzero(np.broadcast_arrays(reach, *nodes)[0]) > 3 * oracle._BLOCK
    blocked = both_oracles(monkeypatch, oracle._BLOCK, field.u_components, nodes, cfg, reach)
    whole = both_oracles(monkeypatch, ONE_BLOCK, field.u_components, nodes, cfg, reach)
    for got, want in zip(blocked, whole):
        assert same_bits(got, want)
    assert np.any(blocked[0] != 0.0)


@pytest.mark.parametrize("cfg_name", CONFIGS)
@pytest.mark.parametrize("mesh", ["axes", "flat"])
@pytest.mark.parametrize("n_kept", [0, 1, 64, 65])
def test_kept_counts_at_the_block_edges(monkeypatch, n_kept, mesh, cfg_name):
    # _BLOCK = 64 is one radial layer of the coarse lattice
    field, cfg = FAMILIES["default"], CONFIGS[cfg_name]
    nodes = COARSE.axes if mesh == "axes" else COARSE.nodes()
    mask = np.zeros(COARSE.shape, dtype=bool)
    mask.flat[np.random.default_rng(n_kept).choice(mask.size, n_kept, replace=False)] = True
    if mesh == "flat":
        mask = mask.ravel()
    sizes = []

    def counted(r, theta, phi):
        sizes.append(r.size)
        return field.u_components(r, theta, phi)

    blocked = both_oracles(monkeypatch, 64, counted, nodes, cfg, mask)
    assert all(0 < n <= 64 for n in sizes)
    n_offsets = 12 if cfg.richardson else 6
    assert sum(sizes) == 2 * n_offsets * n_kept  # the divergence, then the Jacobian
    whole = both_oracles(monkeypatch, ONE_BLOCK, field.u_components, nodes, cfg, mask)
    for got, want in zip(blocked, whole):
        assert same_bits(got, want)
        assert np.all(got[..., ~mask] == 0.0)


@pytest.mark.parametrize("block", [4, ONE_BLOCK])
def test_every_slab_is_checked_before_the_message_is_chosen(monkeypatch, block):
    # with _BLOCK = 4, one radial layer per slab: the first slab breaks only
    # the axis rule and the last only the ball rule; as over all nodes at
    # once, the ball rule is reported first
    monkeypatch.setattr(oracle, "_BLOCK", block)
    calls = []
    r = np.array([0.1, 0.5, 0.9995]).reshape(3, 1, 1)
    th = np.array([0.01, PI / 2]).reshape(1, 2, 1)
    ph = np.array([0.2, 1.0]).reshape(1, 1, 2)
    cfg = oracle.FDConfig(1e-3, False)
    for fd in (oracle.cartesian_divergence_grid, oracle.cartesian_jacobian_grid):
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


def per_offset_columns(components_fn, convert, base, cfg):
    """The stencil loop with one components_fn call per offset and block of
    _BLOCK kept nodes, as the oracle ran it before it took a block's every
    stencil point in one call."""
    def column(points, j, h):
        def field_at(offset):
            shifted = list(points)
            shifted[j] = points[j] + offset
            x, y, _ = shifted
            rho = np.sqrt(x * x + y * y)
            r, theta, phi = kernels.cart_to_sph(*shifted, rho)
            return np.asarray(convert(j, *shifted, r, rho, *components_fn(r, theta, phi)))
        return (field_at(h) - field_at(-h)) / (2.0 * h)

    for block in (slice(lo, lo + oracle._BLOCK) for lo in range(0, base.shape[1], oracle._BLOCK)):
        for j in range(3):
            yield block, j, oracle._richardson(lambda h: column(base[:, block], j, h),
                                               cfg.step, cfg.richardson)


def three_oracles(fn, nodes, cfg, mask):
    """(divergence, Jacobian, curl); the curl takes no mask."""
    return (oracle.cartesian_divergence_grid(fn, *nodes, cfg, mask),
            oracle.cartesian_jacobian_grid(fn, *nodes, cfg, mask),
            np.array(oracle.cartesian_curl_grid(fn, *nodes, cfg)))


@pytest.mark.parametrize("cfg_name", CONFIGS)
@pytest.mark.parametrize("family_name", FAMILIES)
@pytest.mark.parametrize("where", ["seeded", "masked-lattice"])
def test_one_call_per_block_equals_one_call_per_offset(monkeypatch, where, family_name,
                                                       cfg_name):
    field, cfg = FAMILIES[family_name], CONFIGS[cfg_name]
    if where == "seeded":
        nodes, mask = verify._agreement_nodes(verify.DEFAULT_SEED, cfg.step), None
    else:
        nodes = COARSE.axes
        mask = field.support_mask(*nodes[:2], pad=2.0 * cfg.step)
    got = three_oracles(field.u_components, nodes, cfg, mask)
    monkeypatch.setattr(oracle, "_cartesian_columns", per_offset_columns)
    want = three_oracles(field.u_components, nodes, cfg, mask)
    for a, b in zip(got, want):
        assert same_bits(a, b)
        assert np.any(a != 0.0)


def test_divergence_check_memory_peak():
    # the full-size arrays of the check are its difference and the one
    # buffer of _grid_result (1.2 MB each); u and its comparison are
    # slab-sized: 2.9 MB traced in all, against 4.9 MB when each step of
    # the comparison allocated its own arrays
    field, grid = fam.default_field(), verify.GridSpec()
    verify.check_divergence_free(field, grid)
    tracemalloc.start()
    try:
        verify.check_divergence_free(field, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5e6
