"""The interior lattice passed to the oracle as broadcastable axes.

check_divergence_free hands oracle.cartesian_divergence_grid the axes of
GridSpec._lattice, shaped (n_r, 1, 1), (1, n_theta, 1) and (1, 1, n_phi),
so every per-axis input (the transform to Cartesian, sin(theta) in the
weights, the reach mask) is computed once per axis value.  Each result must
equal the flat-mesh computation bit for bit, sign bits included.
"""
import math

import numpy as np
import pytest

from slipball import family as fam
from slipball import kernels, oracle, verify
from slipball.sphcalc import SphPoint

FAMILIES = {name: (fam.CounterexampleField(fam.default_profile(), fam.cosine_angular())
                   if name == "cosine_angular" else fam.family_by_label(name))
            for name in ("default", "h1zero", "perturbed:1e-3", "cosine_angular")}
GRIDS = {"shipped": verify.GridSpec(),
         "coarse": verify.GridSpec(n_r=8, n_theta=8, n_phi=8)}
CFG = oracle.FDConfig()


def same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def flat_mesh(grid):
    """The interior mesh as it was built node by node: meshgrid, then the
    weights r^2 sin(theta) dr dtheta dphi at every node."""
    (r_ax, th_ax, ph_ax), (dr, dth, dph) = grid._axes()
    r, th, ph = [np.ascontiguousarray(a.ravel())
                 for a in np.meshgrid(r_ax, th_ax, ph_ax, indexing="ij")]
    return r, th, ph, r**2 * np.sin(th) * dr * dth * dph


@pytest.mark.parametrize("masked", [False, True], ids=["full", "reach"])
@pytest.mark.parametrize("grid_name", GRIDS)
@pytest.mark.parametrize("family_name", FAMILIES)
def test_divergence_on_axes_equals_the_flat_mesh(family_name, grid_name, masked):
    field, grid = FAMILIES[family_name], GRIDS[grid_name]
    r, th, ph, _ = flat_mesh(grid)
    axes, _ = grid._lattice()
    flat_mask = axes_mask = None
    if masked:
        flat_mask = field.support_mask(r, th, pad=2.0 * CFG.step)
        axes_mask = field.support_mask(*axes[:2], pad=2.0 * CFG.step)
        assert same_bits(np.broadcast_to(axes_mask, (grid.n_r, grid.n_theta, grid.n_phi))
                         .ravel(), flat_mask)
    want = oracle.cartesian_divergence_grid(field.u_components, r, th, ph, CFG, flat_mask)
    got = oracle.cartesian_divergence_grid(field.u_components, *axes, CFG, axes_mask)
    assert got.shape == (grid.n_r, grid.n_theta, grid.n_phi)
    assert same_bits(got.ravel(), want)
    assert np.any(want != 0.0)


@pytest.mark.parametrize("grid_name", GRIDS)
@pytest.mark.parametrize("family_name", ["default", "cosine_angular"])
def test_divergence_check_equals_the_flat_mesh_result(family_name, grid_name):
    field, grid = FAMILIES[family_name], GRIDS[grid_name]
    r, th, ph, weights = flat_mesh(grid)
    div = oracle.cartesian_divergence_grid(field.u_components, r, th, ph, CFG,
                                           field.support_mask(r, th, pad=2.0 * CFG.step))
    i = int(np.argmax(np.abs(div)))
    res = verify.check_divergence_free(field, grid, CFG)
    assert res.norm_sup == float(np.abs(div[i]))
    assert res.norm_l2 == float(np.sqrt(np.sum(div * div * weights)))
    assert res.witness == SphPoint(r[i], th[i], ph[i])


@pytest.mark.parametrize("grid", [
    verify.GridSpec(), verify.GridSpec(n_r=8, n_theta=8, n_phi=8),
    verify.GridSpec(n_r=8, n_theta=9, n_phi=10, margin_r=0.1, margin_theta=0.2)],
    ids=["shipped", "coarse", "uneven"])
def test_interior_mesh_equals_the_flat_formula(grid):
    mesh = grid.interior_mesh()
    for key, want in zip(("r", "theta", "phi", "weights"), flat_mesh(grid)):
        assert same_bits(mesh[key], want) and mesh[key].flags.c_contiguous


@pytest.mark.parametrize("n_theta, n_phi", [(128, 256), (32, 64), (33, 70), (8, 8)])
def test_boundary_weights_equal_the_flat_formula(n_theta, n_phi):
    mesh = verify.GridSpec(n_theta=n_theta, n_phi=n_phi, boundary_only=True).boundary_mesh()
    dth, dph = math.pi / n_theta, 2.0 * math.pi / n_phi
    assert same_bits(mesh["weights"], np.sin(mesh["theta"]) * dth * dph)


def test_transform_given_rho_equals_the_transform_alone():
    rng = np.random.default_rng(5)
    x, y, z = rng.normal(size=(3, 10_000))
    x[:4], y[:4] = [0.0, -0.0, 0.0, -0.0], [0.0, 0.0, -0.0, -0.0]
    rho = np.sqrt(x * x + y * y)
    for got, want in zip(kernels.cart_to_sph(x, y, z, rho),
                         kernels.cart_to_sph(x, y, z)):
        assert same_bits(got, want)
