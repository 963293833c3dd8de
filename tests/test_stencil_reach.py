"""The reach of the Cartesian stencil.

The Cartesian oracle evaluates every node it is given: one components_fn
call takes the 6 stencil points of every node (12 with Richardson), each
at distance step (or step / 2) from its node along x, y or z.  The field
vanishes off its support (CounterexampleField.support_mask), so a node
none of whose stencil points meets the support reads an exact 0, and a
node off the support that its stencil only just reaches still reads the
field.  The stencil points are taken from the one call the oracle makes,
so the reach below is that of the points it evaluated, bit for bit.
"""
import math

import numpy as np
import pytest

from slipball import family as fam
from slipball import kernels, oracle, verify
from slipball.errors import StencilOutOfDomain
from tests_support import cartesian_curl, cartesian_divergence

PI = math.pi
FAMILIES = {name: (fam.CounterexampleField(fam.default_profile(), fam.cosine_angular())
                   if name == "cosine_angular" else fam.family_by_label(name))
            for name in ("default", "h1zero", "perturbed:1e-3", "cosine_angular")}
GRIDS = {"shipped": verify.GridSpec(),
         "coarse": verify.GridSpec(n_r=8, n_theta=8, n_phi=8)}
CONFIGS = {"1e-4-richardson": oracle.FDConfig(1e-4, True),
           "1e-3-plain": oracle.FDConfig(1e-3, False)}
MESHES = {name: g.lattice().nodes() for name, g in GRIDS.items()}
ORACLES = {"divergence": cartesian_divergence,
           "jacobian": oracle.cartesian_jacobian_grid,
           "curl": cartesian_curl}


def recorded(field, calls):
    """field.u_components, appending the (r, theta, phi) of each call."""
    def fn(r, theta, phi):
        calls.append((r, theta, phi))
        return field.u_components(r, theta, phi)
    return fn


@pytest.mark.parametrize("cfg_name", CONFIGS)
@pytest.mark.parametrize("grid_name", GRIDS)
@pytest.mark.parametrize("family_name", FAMILIES)
def test_divergence_is_zero_where_no_stencil_point_meets_the_support(
        family_name, grid_name, cfg_name):
    field, cfg, mesh = FAMILIES[family_name], CONFIGS[cfg_name], MESHES[grid_name]
    calls = []
    div = cartesian_divergence(recorded(field, calls), *mesh, cfg)
    (points,) = calls
    n_offsets = 12 if cfg.richardson else 6
    assert points[0].shape == (n_offsets * div.size,)
    reach = field.support_mask(*points[:2]).reshape(n_offsets, div.size).any(axis=0)
    assert np.all(div[~reach] == 0.0)
    assert 0 < np.count_nonzero(reach) < reach.size
    assert np.any(div[reach] != 0.0)


# r node 1 of this grid sits at 0.245, 5e-3 inside the reach of a 1e-2 step
NEAR_SUPPORT = verify.GridSpec(n_r=8, n_theta=8, n_phi=8, margin_r=0.092)


@pytest.mark.parametrize("grid, cfg", [
    (GRIDS["coarse"], oracle.FDConfig()),
    (NEAR_SUPPORT, oracle.FDConfig(1e-2, False)),
    (NEAR_SUPPORT, oracle.FDConfig(1e-2, True))])
def test_divergence_on_the_lattice_axes_equals_the_flat_nodes(grid, cfg):
    field, lattice = FAMILIES["default"], grid.lattice()
    on_axes = cartesian_divergence(field.u_components, *lattice.axes, cfg)
    flat = cartesian_divergence(field.u_components, *lattice.nodes(), cfg)
    assert np.array_equal(on_axes.ravel(), flat)
    assert np.array_equal(np.signbit(on_axes.ravel()), np.signbit(flat))
    assert float(np.max(np.abs(on_axes))) > 0.0


@pytest.mark.parametrize("cfg", [oracle.FDConfig(1e-2, False), oracle.FDConfig(1e-2, True)],
                         ids=["plain", "richardson"])
def test_a_node_off_the_support_that_the_stencil_reaches_reads_the_field(cfg):
    field = FAMILIES["default"]
    r, th, ph = NEAR_SUPPORT.lattice().axes
    div = cartesian_divergence(field.u_components, r, th, ph, cfg)
    assert not np.any(field.support_mask(r[1], th))
    assert np.any(div[1] != 0.0)
    assert np.all(div[0] == 0.0)  # r = 0.12: 0.13 short of the support


def test_near_support_grid_has_nodes_the_stencil_only_just_reaches():
    r_ax = np.unique(NEAR_SUPPORT.lattice().nodes()[0])
    assert 0.25 - 1e-2 < r_ax[1] < 0.25 - 3e-3


@pytest.mark.parametrize("cfg, n_offsets", [(oracle.FDConfig(), 6),
                                            (oracle.FDConfig(1e-4, True), 12)],
                         ids=["plain", "richardson"])
def test_jacobian_evaluates_every_node_in_one_call(cfg, n_offsets):
    field = FAMILIES["default"]
    r = np.array([0.1, 0.6, 0.6])
    th = np.array([PI / 2, PI / 2, 0.3])
    ph = np.array([1.0, 1.0, 1.0])
    assert field.support_mask(r, th).tolist() == [False, True, False]
    calls = []
    jac = oracle.cartesian_jacobian_grid(recorded(field, calls), r, th, ph, cfg)
    assert [c[0].size for c in calls] == [n_offsets * 3]
    # the two nodes off the support are evaluated, and read an exact 0 there
    assert np.all(jac[..., [0, 2]] == 0.0)
    assert np.any(jac[..., 1] != 0.0)


@pytest.mark.parametrize("fd", ORACLES.values(), ids=ORACLES)
def test_near_axis_node_outside_the_support_still_raises(fd):
    field = FAMILIES["default"]
    r, th, ph = np.array([0.5, 0.6]), np.array([1e-3, PI / 2]), np.array([0.2, 0.2])
    assert not field.support_mask(r, th)[0]
    calls = []
    with pytest.raises(StencilOutOfDomain, match="polar axis"):
        fd(recorded(field, calls), r, th, ph, oracle.FDConfig(1e-3, False))
    assert calls == []


@pytest.mark.parametrize("family_name", FAMILIES)
def test_the_support_is_a_theta_term_and_an_r_term(family_name):
    # family._on_support cuts a lattice's axes one by one on this rule
    field = FAMILIES[family_name]
    rng = np.random.default_rng(5)
    r, th = rng.uniform(0.0, 1.0, 5000), rng.uniform(0.0, PI, 5000)
    inside = field.support_mask(r, th)
    r_term = field.support_mask(r, np.full(r.size, PI / 2))
    theta_term = field.support_mask(np.ones(th.size), th)
    assert np.array_equal(inside, r_term & theta_term)
    assert 0 < np.count_nonzero(inside) < inside.size


@pytest.mark.parametrize("cfg_name", CONFIGS)
@pytest.mark.parametrize("mesh", ["axes", "flat"])
def test_divergence_makes_one_call_holding_every_offset_of_every_node(mesh, cfg_name):
    field, cfg, lattice = FAMILIES["default"], CONFIGS[cfg_name], GRIDS["coarse"].lattice()
    nodes = lattice.axes if mesh == "axes" else lattice.nodes()
    x, y, z = kernels.sph_to_cart(*lattice.nodes())
    calls = []
    cartesian_divergence(recorded(field, calls), *nodes, cfg)
    (points,), n = calls, x.size
    points = kernels.sph_to_cart(*points)
    n_offsets = 12 if cfg.richardson else 6
    assert points[0].shape == (n_offsets * n,)
    # each segment of the call shifts every node along one axis: +x, -x,
    # +y, -y, +z, -z at step, then at step / 2
    for k in range(n_offsets):
        cx, cy, cz = (c[k * n:(k + 1) * n] for c in points)
        shift = np.array([np.max(np.abs(cx - x)), np.max(np.abs(cy - y)),
                          np.max(np.abs(cz - z))])
        assert np.flatnonzero(shift > 1e-12).tolist() == [k % 6 // 2]
        assert shift.max() == pytest.approx(cfg.step / 2 ** (k // 6), rel=1e-6)


@pytest.mark.parametrize("family_name", ["default", "perturbed:1e-3"])
def test_shipped_grid_divergence_is_the_jacobian_trace(family_name):
    field, cfg, mesh = FAMILIES[family_name], CONFIGS["1e-4-richardson"], MESHES["shipped"]
    jac = oracle.cartesian_jacobian_grid(field.u_components, *mesh, cfg)
    trace = jac[0][0] + jac[1][1] + jac[2][2]
    div = cartesian_divergence(field.u_components, *mesh, cfg)
    assert np.array_equal(div, trace)
    assert np.array_equal(np.signbit(div), np.signbit(trace))
