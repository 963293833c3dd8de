"""The axis rule of the field evaluators: a lattice evaluated on its axes
gives the bits of its flat nodes, with each jet run once per axis value.

family._on_support takes two kinds of node arrays.  Flat nodes share their
axis, so they are broadcast together and gathered into 1-D arrays of the
in-support nodes (tests/test_compaction.py).  A lattice's axes, shaped
(n_r, 1, 1), (1, n_theta, 1) and (1, 1, n_phi), each vary along an axis of
their own: each is cut to its in-support values on that axis, so the profile
jet runs once per r value and the angular jet once per in-band theta row
and phi value.  Every result here is compared with the same lattice's flat
nodes, with equal bits, sign bits included (the witness scan's is in
tests/test_lattice.py).
"""
import math

import numpy as np
import pytest

from slipball import cli, verify
from slipball import family as fam
from slipball.errors import ConfigError, DegenerateFit
from slipball.sphcalc import _node_arrays
from slipball.verify import GridSpec

ANGULAR = {"cosine": fam.cosine_angular, "zero": fam.zero_angular}
FAMILIES = {name: (fam.CounterexampleField(fam.default_profile(), ANGULAR[name]())
                   if name in ANGULAR else fam.family_by_label(name))
            for name in ("default", "h1zero", "perturbed:1e-3", "cosine", "zero")}
INTERIOR = {"shipped": GridSpec(), "coarse": GridSpec(n_r=8, n_theta=8, n_phi=8)}
SPHERES = {"shipped": GridSpec(n_theta=128, n_phi=256, boundary_only=True),
           "coarse": GridSpec(n_theta=32, n_phi=64, boundary_only=True)}
LATTICES = {**{f"interior-{k}": g for k, g in INTERIOR.items()},
            **{f"sphere-{k}": g for k, g in SPHERES.items()}}
EVALUATORS = ("u_components", "omega_components", "v_components")


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def flat_nodes(*axes):
    """The nodes of the axes written out flat, as contiguous 1-D arrays."""
    return [np.ascontiguousarray(a).ravel() for a in np.broadcast_arrays(*axes)]


@pytest.mark.parametrize("evaluator", EVALUATORS)
@pytest.mark.parametrize("grid", LATTICES)
@pytest.mark.parametrize("family", FAMILIES)
def test_evaluator_on_axes_equals_the_flat_nodes(family, grid, evaluator):
    field, lattice = FAMILIES[family], LATTICES[grid].lattice()
    got = getattr(field, evaluator)(*lattice.axes)
    want = getattr(field, evaluator)(*lattice.nodes())
    assert len(got) == len(want) == 3
    for g, w in zip(got, want):
        assert g.shape == lattice.shape
        assert_same_bits(g.ravel(), w)
    vanishes = family == "zero" or (family == "h1zero" and grid.startswith("sphere"))  # h(1) = 0
    assert np.any(np.array(want) != 0.0) != vanishes


@pytest.mark.parametrize("grid", SPHERES)
@pytest.mark.parametrize("family", FAMILIES)
def test_sphere_pass_on_axes_equals_the_flat_nodes(family, grid):
    field, lattice = FAMILIES[family], SPHERES[grid].lattice()
    _, theta, phi = lattice.nodes()
    want = field.boundary_state(theta, phi)
    sphere = verify.boundary_pass(field, SPHERES[grid])
    assert sphere.lattice.shape == lattice.shape  # the nodes are the lattice's
    every = np.arange(theta.size)
    assert_same_bits(sphere.lattice.nodes_at(every)[1], theta)
    assert_same_bits(sphere.lattice.nodes_at(every)[2], phi)
    for name in fam.SphereState._fields:  # all nine
        assert_same_bits(getattr(sphere, name), getattr(want, name))
    on_axes = field.boundary_state(*lattice.axes[1:])
    assert all(a.shape == lattice.shape for a in on_axes)
    assert_same_bits(field.boundary_curl_theta(*lattice.axes[1:]).ravel(), want.curl_v_theta)
    assert_same_bits(field.boundary_curl_phi(*lattice.axes[1:]).ravel(), want.curl_v_phi)


@pytest.mark.parametrize("grid", SPHERES)
@pytest.mark.parametrize("family", FAMILIES)
def test_sweep_rows_equal_the_flat_gather(family, grid):
    # the flat gather the sweep used to make: the support nodes of the flat
    # sphere, and each profile's h(1), h'(1) as a field built on it reads them
    field = FAMILIES[family]
    epsilons = [1e-1, 1e-2, 1e-3, 0.0, -0.05]
    _, theta, phi = SPHERES[grid].lattice().nodes()
    support = field.support_mask(1.0, theta)
    theta, phi = theta[support], phi[support]
    g = field.angular.fn(theta, phi, 2)
    peak = float(np.max(np.hypot(g[1], g[2] / np.sin(theta))))
    want = []
    for eps in epsilons:
        perturbed = fam.CounterexampleField(fam.perturbed_profile(eps, field.profile),
                                            field.angular)
        h, hp = perturbed.h_boundary, perturbed.hp_boundary
        want.append((eps, abs(h + hp) * peak))
    if family in ("h1zero", "zero"):  # every row is 0
        assert all(res == 0.0 for _, res in want)
        with pytest.raises(DegenerateFit):
            verify.scaling_sweep(field, epsilons, SPHERES[grid])
    else:
        rows = verify.scaling_sweep(field, epsilons, SPHERES[grid]).rows
        assert [e for e, _ in rows] == epsilons
        for (_, got), (_, res) in zip(rows, want):
            assert_same_bits(got, res)


def per_eps_loop_rows(field, epsilons, grid):
    """The sweep rows as a loop over eps makes them: a perturbed profile per
    eps, its h(1), h'(1) read as Python floats, times the sup of the flat
    support nodes; ConfigError at the first non-finite residual."""
    profiles = [fam.perturbed_profile(float(eps), field.profile) for eps in epsilons]
    _, theta, phi = grid.lattice().nodes()
    support = field.support_mask(1.0, theta)
    theta, phi = theta[support], phi[support]
    g = field.angular.fn(theta, phi, 1)
    peak = float(np.max(np.hypot(g[1], g[2] / np.sin(theta))))
    rows = []
    for eps, profile in zip(epsilons, profiles):
        with np.errstate(over="ignore", invalid="ignore"):
            h, hp = (float(v[0]) for v in profile.fn(np.ones(1), 1)[:2])
        residual = abs(h + hp) * peak
        if not math.isfinite(residual):
            raise ConfigError(f"eps={float(eps)!r} gives a non-finite residual ({residual})")
        rows.append((float(eps), residual))
    return rows


def seeded_epsilons(seed, overflow):
    """Twelve eps: positive ones spread over ten decades, 0, negatives, the
    subnormal 1e-320 and a duplicate, shuffled; with overflow, 8.98e307 at
    a position other than the first and -8.98e307 after it (the residuals
    of both overflow)."""
    rng = np.random.default_rng(seed)
    eps = [*(10.0 ** rng.uniform(-9.0, 1.0, 6)), 0.0, -(10.0 ** rng.uniform(-6.0, 0.0)),
           -2.5, 1e-320]
    eps += [eps[int(rng.integers(6))], 0.0]
    eps = [float(e) for e in rng.permutation(eps)]
    if overflow:
        at = int(rng.integers(1, len(eps)))
        eps.insert(at, 8.98e307)
        eps.insert(int(rng.integers(at + 1, len(eps) + 1)), -8.98e307)
    return eps


@pytest.mark.parametrize("overflow", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("grid", SPHERES)
@pytest.mark.parametrize("family", FAMILIES)
def test_sweep_rows_equal_the_per_eps_loop(family, grid, seed, overflow):
    # every eps row of the one array pass has the bits of a loop over eps,
    # and an overflowing row names the eps that the loop names
    field, epsilons = FAMILIES[family], seeded_epsilons(seed, overflow)
    vanishes = family in ("h1zero", "zero")  # h(1) = 0 or g = 0: every row is 0
    try:
        want = per_eps_loop_rows(field, epsilons, SPHERES[grid])
    except ConfigError as exc:
        assert overflow and not vanishes
        with pytest.raises(ConfigError) as got:
            verify.scaling_sweep(field, epsilons, SPHERES[grid])
        assert str(got.value) == str(exc) == (
            "eps=8.98e+307 gives a non-finite residual (inf)")
        return
    assert vanishes or not overflow
    if vanishes:
        assert all(res == 0.0 for _, res in want)
        with pytest.raises(DegenerateFit):
            verify.scaling_sweep(field, epsilons, SPHERES[grid])
        return
    rows = verify.scaling_sweep(field, epsilons, SPHERES[grid]).rows
    assert [e for e, _ in rows] == epsilons
    assert_same_bits([e for e, _ in rows], epsilons)
    assert_same_bits([res for _, res in rows], [res for _, res in want])


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
    calls.clear()  # h(1), h'(1) at construction
    return spy, calls


def _assert_axis_calls(calls, field, lattice, radial=True):
    """One profile jet on the r axis values above support_inner (if radial),
    then one angular jet on the in-band theta rows and the phi row."""
    r, theta, phi = lattice.axes
    d = field.angular.pole_margin
    band = theta[(theta > d) & (theta < math.pi - d)]
    assert [c[0] for c in calls] == ["radial"] * radial + ["angular"]
    if radial:
        assert_same_bits(calls[0][1], r[r > field.profile.support_inner].reshape(-1, 1, 1))
    assert_same_bits(calls[-1][1], band.reshape(1, -1, 1))
    assert_same_bits(calls[-1][2], phi)


@pytest.mark.parametrize("grid", LATTICES)
@pytest.mark.parametrize("evaluator", EVALUATORS)
def test_each_jet_runs_once_per_in_support_axis_value(evaluator, grid):
    spy, calls = _spied(FAMILIES["default"])
    lattice = LATTICES[grid].lattice()
    getattr(spy, evaluator)(*lattice.axes)
    _assert_axis_calls(calls, spy, lattice)


@pytest.mark.parametrize("grid", SPHERES)
def test_sphere_pass_witnesses_and_sweep_run_the_angular_jet_on_the_axes(grid):
    spy, calls = _spied(FAMILIES["default"])
    lattice = SPHERES[grid].lattice()
    verify.boundary_pass(spy, SPHERES[grid])
    _assert_axis_calls(calls, spy, lattice, radial=False)
    calls.clear()
    fam.find_witnesses(spy, *lattice.shape[1:])
    _assert_axis_calls(calls, spy, lattice, radial=False)
    calls.clear()
    verify.scaling_sweep(spy, [1e-1, 1e-2], SPHERES[grid])
    _assert_axis_calls(calls[:1], spy, lattice, radial=False)
    assert all(c[0] == "radial" and np.array_equal(c[1], [1.0]) for c in calls[1:])


@pytest.mark.parametrize("argv", [
    ["--field", "u", "--on", "volume", "--grid-nr", "8", "--grid-ntheta", "8",
     "--grid-nphi", "8"],
    ["--field", "omega"],
    ["--field", "curl_v_boundary"]], ids=["u-volume", "omega-surface", "curl-v-boundary"])
def test_sample_evaluates_on_the_axes(argv, monkeypatch, tmp_path, capsys):
    spy, calls = _spied(FAMILIES["default"])
    monkeypatch.setattr(fam, "family_by_label", lambda label: spy)
    assert cli.main(["sample", *argv, "--out", str(tmp_path / "s.csv")]) == 0
    capsys.readouterr()
    volume = "volume" in argv
    grid = (GridSpec(n_r=8, n_theta=8, n_phi=8) if volume
            else GridSpec(n_theta=64, n_phi=128, boundary_only=True))
    _assert_axis_calls(calls, spy, grid.lattice(), radial="curl_v_boundary" not in argv)
    rows = (tmp_path / "s.csv").read_text().splitlines()
    assert len(rows) == 1 + math.prod(grid.lattice().shape)


def _irregular_axes():
    """Unsorted axes that leave and re-enter the support, with a NaN on each."""
    rng = np.random.default_rng(3)
    r = np.concatenate([rng.uniform(0.0, 1.0, 9), [0.25, math.nextafter(0.25, 1.0), np.nan]])
    theta = np.concatenate([rng.uniform(0.0, math.pi, 11),
                            [math.pi / 4, math.nextafter(math.pi / 4, 1.0), np.nan]])
    phi = np.concatenate([rng.uniform(-7.0, 7.0, 6), [-0.0, np.nan]])
    return r[:, None, None], theta[None, :, None], phi[None, None, :]


@pytest.mark.parametrize("family", FAMILIES)
def test_irregular_axes_equal_the_flat_nodes(family):
    # runs of in-support values that are not one block, and NaN rows
    field = FAMILIES[family]
    axes = _irregular_axes()
    with np.errstate(invalid="ignore"):
        for evaluator in EVALUATORS:
            got = getattr(field, evaluator)(*axes)
            for g, w in zip(got, getattr(field, evaluator)(*flat_nodes(*axes))):
                assert_same_bits(g.ravel(), w)
        got = field.boundary_state(*axes[1:])
        for g, w in zip(got, field.boundary_state(*flat_nodes(*axes[1:]))):
            assert_same_bits(g.ravel(), w)
    assert np.array_equal(np.isnan(got[0]), np.isnan(axes[1]) | np.isnan(axes[2]))


@pytest.mark.parametrize("family", FAMILIES)
def test_one_axis_beside_scalars_equals_the_flat_nodes(family):
    field = FAMILIES[family]
    r, theta, phi = _irregular_axes()
    for coords in [(r.ravel(), 1.2, 0.3), (0.8, theta.ravel(), -0.4), (0.6, 1.0, phi.ravel()),
                   (1.0, 0.1, phi.ravel())]:
        with np.errstate(invalid="ignore"):
            got = field.v_components(*coords)
            want = field.v_components(*flat_nodes(*coords))
        for g, w in zip(got, want):
            assert_same_bits(g, w)


@pytest.mark.parametrize("shapes, kept", [
    ([(5,), (5,), (5,)], False),            # flat nodes share their axis
    ([(5,), (), ()], True),                 # one axis beside scalars
    ([(4, 1, 1), (1, 3, 1), (1, 1, 2)], True),
    ([(1, 1, 1), (1, 3, 1), (1, 1, 2)], True),   # the sphere's r axis
    ([(4, 1), (4, 3)], False),              # theta and phi share the first axis
    ([(), (4, 3)], False),                  # one coordinate along two axes
    ([(3, 1), (1,)], True)])
def test_node_arrays_keep_only_own_axes(shapes, kept):
    arrays = _node_arrays(*(np.ones(s) for s in shapes))
    shape = np.broadcast_shapes(*shapes)
    assert all(a.ndim == len(shape) and a.flags.c_contiguous for a in arrays)
    if kept:
        assert [a.shape for a in arrays] == [(1,) * (len(shape) - len(s)) + s for s in shapes]
    else:
        assert all(a.shape == shape for a in arrays)
    # a scalar point stays 0-d: _on_support returns its outputs as floats
    assert [a.shape for a in _node_arrays(1.0, 2.0)] == [(), ()]


def test_zero_angular_gives_the_broadcast_shape():
    theta, phi = np.ones((1, 3, 1)), np.ones((1, 1, 5))
    for order, n in enumerate((1, 3, 6)):
        jet = fam.zero_angular().fn(theta, phi, order)
        assert len(jet) == n and all(a.shape == (1, 3, 5) for a in jet)
