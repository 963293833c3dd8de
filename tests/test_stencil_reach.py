"""The stencil-reach mask of the Cartesian divergence oracle.

With the reach mask, the Cartesian oracle evaluates only nodes within
2 * step of the field's support (CounterexampleField.support_mask with a
pad) and gives the other nodes an exact 0.  The full-grid oracle call, kept
here as the reference, must give the same |div| bit for bit, and every node
must still be checked against the domain.  One components_fn call takes
every stencil point of a block of kept nodes.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slipball import family as fam
from slipball import kernels, oracle, verify
from slipball.errors import ConfigError, StencilOutOfDomain

PI = math.pi
FAMILIES = {name: (fam.CounterexampleField(fam.default_profile(), fam.cosine_angular())
                   if name == "cosine_angular" else fam.family_by_label(name))
            for name in ("default", "h1zero", "perturbed:1e-3", "cosine_angular")}
GRIDS = {"shipped": verify.GridSpec(),
         "coarse": verify.GridSpec(n_r=8, n_theta=8, n_phi=8)}
CONFIGS = {"1e-4-richardson": oracle.FDConfig(1e-4, True),
           "1e-3-plain": oracle.FDConfig(1e-3, False)}
MESHES = {name: g.lattice().nodes() for name, g in GRIDS.items()}


@pytest.mark.parametrize("cfg_name", CONFIGS)
@pytest.mark.parametrize("grid_name", GRIDS)
@pytest.mark.parametrize("family_name", FAMILIES)
def test_masked_divergence_equals_full_grid(family_name, grid_name, cfg_name):
    field, cfg, mesh = FAMILIES[family_name], CONFIGS[cfg_name], MESHES[grid_name]
    r, th, ph = mesh
    full = oracle.cartesian_divergence_grid(field.u_components, r, th, ph, cfg)
    reach = field.support_mask(r, th, pad=2.0 * cfg.step)
    masked = oracle.cartesian_divergence_grid(field.u_components, r, th, ph, cfg, reach)
    assert np.array_equal(np.abs(masked), np.abs(full))
    assert np.all(masked[~reach] == 0.0)
    assert 0 < np.count_nonzero(reach) < reach.size


# r node 1 of this grid sits at 0.245, 5e-3 inside the reach of a 1e-2 step
NEAR_SUPPORT = verify.GridSpec(n_r=8, n_theta=8, n_phi=8, margin_r=0.092)


@pytest.mark.parametrize("grid, cfg", [
    (GRIDS["coarse"], oracle.FDConfig()),
    (NEAR_SUPPORT, oracle.FDConfig(1e-2, False)),
    (NEAR_SUPPORT, oracle.FDConfig(1e-2, True))])
def test_reach_mask_on_the_lattice_axes_equals_the_full_grid(grid, cfg):
    field = FAMILIES["default"]
    r, th, ph = grid.lattice().axes
    mask = field.support_mask(r, th, pad=2.0 * cfg.step)
    masked = oracle.cartesian_divergence_grid(field.u_components, r, th, ph, cfg, mask)
    full = oracle.cartesian_divergence_grid(field.u_components, r, th, ph, cfg)
    assert np.array_equal(np.abs(masked), np.abs(full))
    assert float(np.max(np.abs(masked))) == float(np.max(np.abs(full))) > 0.0


def test_near_support_grid_has_nodes_the_stencil_only_just_reaches():
    r_ax = np.unique(NEAR_SUPPORT.lattice().nodes()[0])
    assert 0.25 - 1e-2 < r_ax[1] < 0.25 - 3e-3


def test_masked_jacobian_evaluates_only_kept_nodes():
    field = FAMILIES["default"]
    r = np.array([0.1, 0.6, 0.6])
    th = np.array([PI / 2, PI / 2, 0.3])
    ph = np.array([1.0, 1.0, 1.0])
    sizes = []

    def counted(r, theta, phi):
        sizes.append(r.size)
        return field.u_components(r, theta, phi)

    reach = field.support_mask(r, th, pad=2e-4)
    assert reach.tolist() == [False, True, False]
    jac = oracle.cartesian_jacobian_grid(counted, r, th, ph, oracle.FDConfig(), reach)
    assert sizes == [6]  # the 6 stencil points of the one kept node, in one call
    assert all(np.all(entry[~reach] == 0.0) for row in jac for entry in row)


@pytest.mark.parametrize("mask", [None, np.array([False, True]), np.array([False, False])])
def test_near_axis_node_outside_the_support_still_raises(mask):
    field = FAMILIES["default"]
    r, th, ph = np.array([0.5, 0.6]), np.array([1e-3, PI / 2]), np.array([0.2, 0.2])
    assert not field.support_mask(r, th, pad=2e-3)[0]
    with pytest.raises(StencilOutOfDomain, match="polar axis"):
        oracle.cartesian_divergence_grid(field.u_components, r, th, ph,
                                         oracle.FDConfig(1e-3, False), mask)


def test_zero_pad_is_the_support():
    field = FAMILIES["default"]
    rng = np.random.default_rng(5)
    r, th = rng.uniform(0.0, 1.0, 5000), rng.uniform(0.0, PI, 5000)
    assert np.array_equal(field.support_mask(r, th, pad=0.0), field.support_mask(r, th))


def test_every_theta_is_kept_within_pad_of_the_origin():
    field = FAMILIES["default"]
    th = np.linspace(0.0, PI, 9)
    pad = 0.3
    assert np.all(field.support_mask(np.full(9, pad), th, pad=pad))
    assert np.all(field.support_mask(np.zeros(9), th, pad=pad))
    assert not np.any(field.support_mask(np.full(9, 1e-3), th, pad=0.2))  # r too small


# Offsets stop 1e-12 short of pad, to absorb the rounding of building the
# shifted point in Cartesian coordinates and converting it back.
@settings(max_examples=400, deadline=None)
@given(r=st.floats(0.25, 1.0, exclude_min=True),
       theta=st.floats(PI / 4, 3 * PI / 4, exclude_min=True, exclude_max=True),
       phi=st.floats(0.0, 2 * PI),
       pad=st.floats(1e-6, 0.5),
       frac=st.floats(0.0, 1.0),
       az=st.floats(0.0, 2 * PI),
       cz=st.floats(-1.0, 1.0))
def test_points_within_pad_of_the_support_are_in_the_padded_mask(
        r, theta, phi, pad, frac, az, cz):
    field = FAMILIES["default"]
    assert field.support_mask(np.array(r), np.array(theta))
    length = frac * (pad - 1e-12)
    sz = math.sqrt(max(0.0, 1.0 - cz * cz))
    x, y, z = kernels.sph_to_cart(np.array([r]), np.array([theta]), np.array([phi]))
    q = kernels.cart_to_sph(x + length * sz * math.cos(az), y + length * sz * math.sin(az),
                            z + length * cz)
    assert field.support_mask(q[0], q[1], pad=pad)[0]


@pytest.mark.parametrize("cfg_name, n_offsets", [("1e-4-richardson", 12), ("1e-3-plain", 6)])
def test_divergence_makes_one_call_holding_every_offset_of_the_kept_nodes(cfg_name, n_offsets):
    field, cfg, mesh = FAMILIES["default"], CONFIGS[cfg_name], MESHES["coarse"]
    r, th, ph = mesh
    reach = field.support_mask(r, th, pad=2.0 * cfg.step)
    x, y, z = (c[reach] for c in kernels.sph_to_cart(r, th, ph))
    calls = []

    def counted(r, theta, phi):
        calls.append(kernels.sph_to_cart(r, theta, phi))
        return field.u_components(r, theta, phi)

    oracle.cartesian_divergence_grid(counted, r, th, ph, cfg, reach)
    (points,), n = calls, x.size
    assert points[0].shape == (n_offsets * n,)
    # each segment of the call shifts every kept node, and only those, along
    # one axis: +x, -x, +y, -y, +z, -z at step, then at step / 2
    for k in range(n_offsets):
        cx, cy, cz = (c[k * n:(k + 1) * n] for c in points)
        shift = np.array([np.max(np.abs(cx - x)), np.max(np.abs(cy - y)),
                          np.max(np.abs(cz - z))])
        assert np.flatnonzero(shift > 1e-12).tolist() == [k % 6 // 2]
        assert shift.max() == pytest.approx(cfg.step / 2 ** (k // 6), rel=1e-6)


@pytest.mark.parametrize("cfg, n_calls", [(oracle.FDConfig(), 22),
                                          (oracle.FDConfig(richardson=True), 43)])
def test_shipped_grid_divergence_call_count(cfg, n_calls):
    # one u_components call per block, holding every stencil point of it:
    # blocks of _BLOCK // 6 kept nodes, or _BLOCK // 12 with Richardson,
    # whose doubled offsets take twice the points
    field, lattice = FAMILIES["default"], GRIDS["shipped"].lattice()
    reach = field.support_mask(*lattice.axes[:2], pad=2.0 * cfg.step)
    sizes = []

    def counted(r, theta, phi):
        sizes.append(r.size)
        return field.u_components(r, theta, phi)

    oracle.cartesian_divergence_grid(counted, *lattice.axes, cfg, reach)
    kept = np.count_nonzero(np.broadcast_to(reach, lattice.shape))
    assert kept == 57_600
    n_offsets = 12 if cfg.richardson else 6
    width = oracle._BLOCK // n_offsets
    assert sizes == [n_offsets * width] * (n_calls - 1) + [n_offsets * 270]
    assert max(sizes) <= oracle._BLOCK and sum(sizes) == n_offsets * kept


@pytest.mark.parametrize("mask", [np.array([0, 0]), np.array([1, 1]), np.array([0.0, 1.0])],
                         ids=["int-zeros", "int-ones", "float"])
@pytest.mark.parametrize("fd", [oracle.cartesian_divergence_grid,
                                oracle.cartesian_jacobian_grid])
def test_a_mask_that_is_not_boolean_is_refused(fd, mask):
    # an integer mask would index the nodes instead of selecting them
    field = FAMILIES["default"]
    calls = []

    def counted(r, theta, phi):
        calls.append(r.size)
        return field.u_components(r, theta, phi)

    with pytest.raises(ConfigError) as exc:
        fd(counted, np.array([0.6, 0.7]), np.array([PI / 2, 1.2]), np.array([1.0, 2.0]),
           oracle.FDConfig(), mask)
    assert str(exc.value) == f"node mask must be boolean, not {mask.dtype}"
    assert calls == []


def test_a_boolean_list_mask_is_a_mask():
    field = FAMILIES["default"]
    nodes = np.array([0.6, 0.7]), np.array([PI / 2, 1.2]), np.array([1.0, 2.0])
    full = oracle.cartesian_divergence_grid(field.u_components, *nodes)
    masked = oracle.cartesian_divergence_grid(field.u_components, *nodes, oracle.FDConfig(),
                                              [False, True])
    assert masked.tolist() == [0.0, full[1]]


@pytest.mark.parametrize("family_name", ["default", "perturbed:1e-3"])
def test_shipped_grid_divergence_is_the_jacobian_trace(family_name):
    field, cfg, mesh = FAMILIES[family_name], CONFIGS["1e-4-richardson"], MESHES["shipped"]
    r, th, ph = mesh
    reach = field.support_mask(r, th, pad=2.0 * cfg.step)
    jac = oracle.cartesian_jacobian_grid(field.u_components, r, th, ph, cfg, reach)
    trace = jac[0][0] + jac[1][1] + jac[2][2]
    div = oracle.cartesian_divergence_grid(field.u_components, r, th, ph, cfg, reach)
    assert np.array_equal(div, trace)
    assert np.array_equal(np.signbit(div), np.signbit(trace))
