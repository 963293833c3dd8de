"""One midpoint lattice for every grid, and the oracle on its axes.

sphcalc.midpoint_lattice builds every grid: the interior lattice of the
ball, and the sphere as its r = 1 layer.  Its axes are shaped (n_r, 1, 1),
(1, n_theta, 1) and (1, 1, n_phi), so every per-axis input (the transform
to Cartesian in oracle.cartesian_jacobian_grid, sin(theta) in the
weights, and in check_divergence_free h on the r axis and g on the
theta x phi plane) is computed once per axis value.  The
references below are the flat meshes written out node by node, as they
were built before the one lattice rule; each result must equal them bit
for bit, sign bits included.
"""
import math

import numpy as np
import pytest

from slipball import family as fam
from slipball import kernels, oracle, sphcalc, verify
from slipball.errors import ConfigError
from slipball.sphcalc import SphPoint
from tests_support import cartesian_curl, cartesian_divergence

FAMILIES = {name: (fam.CounterexampleField(fam.default_profile(), fam.cosine_angular())
                   if name == "cosine_angular" else fam.family_by_label(name))
            for name in ("default", "h1zero", "perturbed:1e-3", "cosine_angular")}
GRIDS = {"shipped": verify.GridSpec(),
         "coarse": verify.GridSpec(n_r=8, n_theta=8, n_phi=8)}
CFG = oracle.FDConfig()


def same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def interior_axes(grid):
    """The interior axes and spacings, each formula written out."""
    dr = (1.0 - 2.0 * grid.margin_r) / grid.n_r
    dth = (math.pi - 2.0 * grid.margin_theta) / grid.n_theta
    dph = 2.0 * math.pi / grid.n_phi
    return ((grid.margin_r + (np.arange(grid.n_r) + 0.5) * dr,
             grid.margin_theta + (np.arange(grid.n_theta) + 0.5) * dth,
             np.arange(grid.n_phi) * dph), (dr, dth, dph))


def flat_mesh(grid):
    """The interior mesh as it was built node by node: meshgrid, then the
    weights r^2 sin(theta) dr dtheta dphi at every node."""
    (r_ax, th_ax, ph_ax), (dr, dth, dph) = interior_axes(grid)
    r, th, ph = [np.ascontiguousarray(a.ravel())
                 for a in np.meshgrid(r_ax, th_ax, ph_ax, indexing="ij")]
    return r, th, ph, r**2 * np.sin(th) * dr * dth * dph


def sphere_mesh(n_theta, n_phi):
    """The sphere mesh as it was built node by node: theta at the n_theta
    cell centres of [0, pi], phi uniform on [0, 2pi), flattened
    theta-major, and one weight sin(theta) dtheta dphi per theta row."""
    dth, dph = math.pi / n_theta, 2.0 * math.pi / n_phi
    th, ph = [np.ascontiguousarray(a.ravel()) for a in np.meshgrid(
        (np.arange(n_theta) + 0.5) * dth, np.arange(n_phi) * dph, indexing="ij")]
    return th, ph, np.repeat(np.sin(th[::n_phi]) * dth * dph, n_phi)


def flat(lattice):
    """The lattice's nodes and its weights, all flat."""
    return (*lattice.nodes(), np.broadcast_to(lattice.weights, lattice.shape).ravel())


@pytest.mark.parametrize("grid_name", GRIDS)
@pytest.mark.parametrize("family_name", FAMILIES)
def test_divergence_on_axes_equals_the_flat_mesh(family_name, grid_name):
    field, grid = FAMILIES[family_name], GRIDS[grid_name]
    r, th, ph, _ = flat_mesh(grid)
    want = cartesian_divergence(field.u_components, r, th, ph, CFG)
    got = cartesian_divergence(field.u_components, *grid.lattice().axes, CFG)
    assert got.shape == (grid.n_r, grid.n_theta, grid.n_phi)
    assert same_bits(got.ravel(), want)
    assert np.any(want != 0.0)


@pytest.mark.parametrize("grid_name", GRIDS)
@pytest.mark.parametrize("family_name", FAMILIES)
def test_jacobian_and_curl_on_axes_equal_the_flat_mesh(family_name, grid_name):
    field, grid = FAMILIES[family_name], GRIDS[grid_name]
    r, th, ph, _ = flat_mesh(grid)
    axes, shape = grid.lattice().axes, (grid.n_r, grid.n_theta, grid.n_phi)
    want = oracle.cartesian_jacobian_grid(field.u_components, r, th, ph, CFG)
    got = oracle.cartesian_jacobian_grid(field.u_components, *axes, CFG)
    assert got.shape == (3, 3) + shape
    assert same_bits(got.reshape(3, 3, -1), want)
    want = cartesian_curl(field.u_components, r, th, ph, CFG)
    got = cartesian_curl(field.u_components, *axes, CFG)
    for a, b in zip(got, want):
        assert a.shape == shape
        assert same_bits(a.ravel(), b)
    assert np.any(want[0] != 0.0)


@pytest.mark.parametrize("grid_name", GRIDS)
@pytest.mark.parametrize("family_name", ["default", "cosine_angular"])
def test_divergence_check_equals_the_flat_mesh_result(family_name, grid_name):
    # the comparison of u with (0, -h D_phi g / sin, h D_theta g), written
    # out on the flat mesh: every input evaluated at every node
    field, grid = FAMILIES[family_name], GRIDS[grid_name]
    r, th, ph, weights = flat_mesh(grid)

    def g(_, t, p):
        out = np.zeros(t.shape)
        band = field.support_mask(1.0, t)
        out[band] = field.angular.fn(t[band], p[band], 0)[0]
        return out
    g_t, g_p = (oracle.fd_partial(g, 1.0, th, ph, axis, CFG) for axis in ("theta", "phi"))
    h = np.zeros(r.shape)
    inside = r > field.profile.support_inner
    h[inside] = field.profile.fn(r[inside], 0)[0]
    u = field.u_components(r, th, ph)
    diff = np.max([np.abs(u[0]), np.abs(u[1] - -h * g_p / np.sin(th)),
                   np.abs(u[2] - h * g_t)], axis=0)
    rel = diff / np.max(np.abs(u))
    i = int(np.argmax(rel))
    res = verify.check_divergence_free(field, grid, CFG)
    assert res.norm_sup == float(rel[i]) > 0.0
    assert res.norm_l2 == float(np.sqrt(np.sum(rel * rel * weights)))
    assert res.witness == SphPoint(r[i], th[i], ph[i])


@pytest.mark.parametrize("grid", [
    verify.GridSpec(), verify.GridSpec(n_r=8, n_theta=8, n_phi=8),
    verify.GridSpec(n_r=8, n_theta=9, n_phi=10, margin_r=0.1, margin_theta=0.2)],
    ids=["shipped", "coarse", "uneven"])
def test_interior_mesh_equals_the_flat_formula(grid):
    lattice = grid.lattice()
    assert lattice.shape == (grid.n_r, grid.n_theta, grid.n_phi)
    assert [a.shape for a in lattice.axes] == [
        (grid.n_r, 1, 1), (1, grid.n_theta, 1), (1, 1, grid.n_phi)]
    assert lattice.weights.shape == (grid.n_r, grid.n_theta, 1)
    for got, want in zip(lattice.axes, interior_axes(grid)[0]):
        assert same_bits(got.ravel(), want)
    for got, want in zip(flat(lattice), flat_mesh(grid)):
        assert same_bits(got, want) and got.flags.c_contiguous
    r, th, ph, _ = flat_mesh(grid)
    for i in [*range(0, r.size, 997), r.size - 1]:
        assert lattice.point(i) == SphPoint(r[i], th[i], ph[i])


@pytest.mark.parametrize("counts, bad", [
    ((8.5, 16), "n_theta must be an integer, got 8.5"),
    ((8, 16.0), "n_phi must be an integer, got 16.0"),
    ((8, True), "n_phi must be an integer, got True"),
    ((8, 16, 0.1, 8.0), "n_r must be an integer, got 8.0"),
    ((8, 16, 0.1, False), "n_r must be an integer, got False")])
def test_fractional_or_bool_count_is_refused(counts, bad):
    # GridSpec's type rule, also for a lattice built directly: 8.5 rows used
    # to build 9 at spacing pi/8.5
    with pytest.raises(TypeError, match=bad):
        sphcalc.midpoint_lattice(*counts)


def test_count_minimum_holds_for_a_lattice_built_directly():
    with pytest.raises(ConfigError, match="n_phi must be at least 8"):
        sphcalc.midpoint_lattice(8, 7)
    with pytest.raises(ConfigError, match="n_r must be at least 8"):
        sphcalc.midpoint_lattice(8, 8, 0.1, 7)
    assert sphcalc.midpoint_lattice(np.int64(8), np.uint8(9), 0.1, np.int32(8)).shape == (8, 8, 9)


@pytest.mark.parametrize("counts, shape", [
    ((2 ** 14, 2 ** 13 + 1), "n_theta=16384 x n_phi=8193"),
    ((8, 2 ** 24 + 1, 0.0, 8), "n_r=8 x n_theta=8 x n_phi=16777217"),
    ((48, 96, 0.05, 10 ** 30), "n_r=1000000000000000000000000000000 x n_theta=48 x n_phi=96")])
def test_a_lattice_of_too_many_nodes_allocates_nothing(monkeypatch, counts, shape):
    # a count of 10^30 used to end in numpy's "Maximum allowed size
    # exceeded" traceback; the cap is checked before any array is built
    def refused(*args, **kwargs):
        raise AssertionError("allocated")
    for name in ("arange", "ones", "empty", "zeros"):
        monkeypatch.setattr(np, name, refused)
    with pytest.raises(ConfigError) as exc:
        sphcalc.midpoint_lattice(*counts)
    assert str(exc.value) == f"a lattice of {shape} has more than 134217728 nodes"
    assert sphcalc.MAX_NODES == 2 ** 27


def test_the_largest_lattice_is_allowed():
    # refused only above the cap: the counts are checked, not built, here
    sphcalc.require_nodes({"n_r": 2 ** 9, "n_theta": 2 ** 9, "n_phi": 2 ** 9})
    with pytest.raises(ConfigError, match="more than 134217728 nodes"):
        sphcalc.require_nodes({"n_r": 2 ** 9, "n_theta": 2 ** 9, "n_phi": 2 ** 9 + 1})


@pytest.mark.parametrize("n_theta, n_phi", [(128, 256), (32, 64), (33, 70), (8, 8)])
def test_boundary_weights_equal_the_flat_formula(n_theta, n_phi):
    grid = verify.GridSpec(n_theta=n_theta, n_phi=n_phi, boundary_only=True)
    th, ph, weights = sphere_mesh(n_theta, n_phi)
    for lattice in (grid.lattice(), sphcalc.midpoint_lattice(n_theta, n_phi)):
        assert lattice.shape == (1, n_theta, n_phi)
        r, *got = flat(lattice)
        assert same_bits(r, np.ones(th.size)) and r.strides == (0,)  # no memory
        for a, b in zip(got, (th, ph, weights)):
            assert same_bits(a, b)
        # every node of the small grids; a stride coprime to n_phi on the largest
        for i in [*range(0, th.size, 1 if th.size <= 4096 else 61), th.size - 1]:
            assert lattice.point(i) == SphPoint(1.0, th[i], ph[i])
    # a boundary check's norms and witness, against the flat mesh
    field = fam.default_field()
    ut, up, _, wt, wp = field.boundary_state(th, ph)[:5]
    magnitude = np.hypot(0.5 * wp - ut, -0.5 * wt - up)
    i = int(np.argmax(magnitude))
    res = verify.check_navier_traction(verify.boundary_pass(field, grid))
    assert res.norm_sup == float(magnitude[i])
    assert res.norm_l2 == float(np.sqrt(np.sum(magnitude * magnitude * weights)))
    assert res.witness == SphPoint(1.0, th[i], ph[i])


@pytest.mark.parametrize("n_theta, n_phi", [(128, 256), (32, 64), (33, 70), (8, 8)])
@pytest.mark.parametrize("family_name", [*FAMILIES, "zero_angular"])
def test_witness_scan_equals_the_flat_mesh(family_name, n_theta, n_phi):
    # find_witnesses evaluates the sphere on its axes; the reference runs the
    # jets on every node of the flat mesh
    field = (fam.CounterexampleField(fam.default_profile(), fam.zero_angular())
             if family_name == "zero_angular" else FAMILIES[family_name])
    th, ph, _ = sphere_mesh(n_theta, n_phi)
    g = field.angular.fn(th, ph, 2)
    big_g = kernels.big_g_values(np.sin(th), np.cos(th), g[1], g[3], g[5])
    want = []
    for product in (g[2] * big_g, g[1] * big_g):
        i = int(np.argmax(np.abs(product)))
        want.append(None if abs(product[i]) <= fam.WITNESS_THRESHOLD
                    else SphPoint(1.0, th[i], ph[i]))
    assert list(fam.find_witnesses(field, n_theta, n_phi)) == want
    assert (want == [None, None]) == (family_name == "zero_angular")


def test_transform_given_rho_equals_the_transform_alone():
    rng = np.random.default_rng(5)
    x, y, z = rng.normal(size=(3, 10_000))
    x[:4], y[:4] = [0.0, -0.0, 0.0, -0.0], [0.0, 0.0, -0.0, -0.0]
    rho = np.sqrt(x * x + y * y)
    for got, want in zip(kernels.cart_to_sph(x, y, z, rho),
                         kernels.cart_to_sph(x, y, z)):
        assert same_bits(got, want)
