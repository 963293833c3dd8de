"""Verification checks, quadrature, sweeps, and report assembly."""
import json
import math

import numpy as np
import pytest

from slipball import family as fam
from slipball import kernels, oracle, verify
from slipball.errors import DegenerateFit, StencilOutOfDomain
from slipball.oracle import FDConfig
from slipball.verify import GridSpec
from tests_support import jets_curl, jets_divergence

PI = math.pi

SMALL_INTERIOR = GridSpec(n_r=12, n_theta=16, n_phi=24)
SMALL_BOUNDARY = GridSpec(n_theta=48, n_phi=96, boundary_only=True)


@pytest.fixture(scope="module")
def default_report(default_field):
    return verify.run_full_verification(default_field, SMALL_INTERIOR, SMALL_BOUNDARY)


class TestGridSpec:
    def test_count_minimum(self):
        with pytest.raises(ValueError):
            GridSpec(n_theta=4)

    def test_margin_validation(self):
        with pytest.raises(ValueError):
            GridSpec(margin_r=0.0)
        GridSpec(margin_r=1e-3).require_margins_for(FDConfig(step=1e-4))
        with pytest.raises(ValueError):
            GridSpec(margin_r=1e-4).require_margins_for(FDConfig(step=1e-4))

    def test_boundary_check_accepts_exactly_what_the_slip_spots_accept(self, default_field):
        # the up-front check on a boundary grid passes iff the slip check's
        # FD-curl spots stay inside the polar stencil domain at that step
        cases = [(n, step) for n in (8, 16, 64, 78, 79, 80, 128, 200)
                 for step in (1e-4, 1e-3, 3e-3, 5e-3, 1e-2)]
        for n in (8, 79, 128):  # steps at the edge: theta_0 - 2 step just above, at, below 0
            half = math.pi / n * 0.5 / 2.0
            cases += [(n, s) for s in (math.nextafter(half, 0.0), half,
                                       math.nextafter(half, 1.0)) if s <= 1e-2]
        outcomes = set()
        for n, step in cases:
            grid = GridSpec(n_theta=n, n_phi=16, boundary_only=True)
            cfg = FDConfig(step=step)
            try:
                grid.require_margins_for(cfg)
                accepted = True
            except ValueError:
                accepted = False
            try:
                verify.check_slip_conditions(default_field, grid, cfg)
                runs = True
            except StencilOutOfDomain:
                runs = False
            assert accepted == runs, (n, step)
            outcomes.add(accepted)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("step", [3e-3, 1e-2])
    def test_cartesian_stencil_checked_up_front(self, step):
        # the shipped grid passes the margin check at these steps, but its
        # innermost node is only 5.2e-3 from the polar axis
        with pytest.raises(ValueError, match=rf"margin_r=0.05, margin_theta=0.05 .* "
                                             rf"step {step:g} needs at least {2 * step:g}"):
            GridSpec().require_margins_for(FDConfig(step=step))
        GridSpec(n_r=8, n_theta=8, n_phi=8).require_margins_for(FDConfig(step=step))

    @pytest.mark.parametrize("grid", [GridSpec(), GridSpec(n_r=8, n_theta=8, n_phi=8),
                                      GridSpec(n_r=20, n_theta=9, n_phi=10, margin_r=0.021,
                                               margin_theta=0.021)])
    def test_up_front_check_agrees_with_the_oracle(self, grid):
        mesh = grid.interior_mesh()
        nodes = mesh["r"], mesh["theta"], mesh["phi"]
        for step in (1e-4, 1e-3, 2.5e-3, 2.6e-3, 2.61e-3, 2.62e-3, 3e-3, 5e-3, 1e-2):
            cfg = FDConfig(step=step)
            if min(grid.margin_r, grid.margin_theta) <= 2.0 * step:
                continue
            fits = bool(np.all(oracle.cartesian_stencil_fits(*nodes, step)))
            try:
                grid.require_margins_for(cfg)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == fits, step

    def test_interior_mesh_shape_and_bounds(self):
        mesh = GridSpec(n_r=8, n_theta=8, n_phi=8).interior_mesh()
        assert mesh["r"].size == 8 * 8 * 8
        assert mesh["r"].min() > 0.05 and mesh["r"].max() < 0.95
        assert mesh["theta"].min() > 0.05 and mesh["theta"].max() < PI - 0.05

    def test_quadrature_sanity(self):
        # surface L2 norm of the constant 1
        mesh = GridSpec(n_theta=128, n_phi=256, boundary_only=True).boundary_mesh()
        l2 = math.sqrt(mesh["weights"].sum())
        assert l2 == pytest.approx(math.sqrt(4 * PI), rel=1e-3)

    def test_volume_weights_sum(self):
        mesh = GridSpec(n_r=32, n_theta=32, n_phi=32, margin_r=0.05,
                        margin_theta=0.05).interior_mesh()
        # shell volume between the radial margins, minus the polar caps
        shell = 4 * PI / 3 * (0.95**3 - 0.05**3)
        cap_fraction = math.cos(0.05)
        assert mesh["weights"].sum() == pytest.approx(shell * cap_fraction, rel=1e-2)


class TestDivergenceCheck:
    def test_default_family_passes(self, default_field):
        res = verify.check_divergence_free(default_field, SMALL_INTERIOR)
        assert res.passed
        assert res.norm_sup <= 1e-6
        assert res.direction == "below"
        # the identity in floating point, from the jets: a rounding residual
        mesh = SMALL_INTERIOR.interior_mesh()
        div = jets_divergence(default_field, mesh["r"], mesh["theta"], mesh["phi"])
        assert np.max(np.abs(div)) <= 1e-10

    def test_zero_family(self):
        f = fam.CounterexampleField(fam.default_profile(), fam.zero_angular())
        res = verify.check_divergence_free(f, SMALL_INTERIOR)
        assert res.norm_sup == 0.0

    def test_cosine_azimuthal_family(self):
        # the identity is structural in g, not specific to sin(phi)
        f = fam.CounterexampleField(fam.default_profile(), fam.cosine_angular())
        res = verify.check_divergence_free(f, SMALL_INTERIOR)
        assert res.passed


class TestSlipChecks:
    def test_default_family_exact(self, default_field):
        res_u, res_w = verify.check_slip_conditions(default_field, SMALL_BOUNDARY)
        assert res_u.norm_sup == 0.0 and res_u.passed
        assert res_w.norm_sup == 0.0 and res_w.passed
        # FD-curl spot checks ride along as the oracle partner of the trace
        assert res_w.details["oracle_spot_sup"] <= 1e-6

    def test_perturbed_scales_linearly(self):
        grid = SMALL_BOUNDARY
        res_ref = verify.check_slip_conditions(fam.family_by_label("perturbed:1e-3"), grid)[1]
        m = res_ref.norm_sup / 1e-3
        res = verify.check_slip_conditions(fam.family_by_label("perturbed:1e-2"), grid)[1]
        assert 0.3 * 1e-2 * m <= res.norm_sup <= 3 * 1e-2 * m
        assert not res.passed

    def test_zero_family(self):
        f = fam.CounterexampleField(fam.default_profile(), fam.zero_angular())
        res_u, res_w = verify.check_slip_conditions(f, SMALL_BOUNDARY)
        assert res_u.norm_sup == 0.0 and res_w.norm_sup == 0.0


class TestPersistencyCheck:
    def test_default_family_contradicts(self, default_field):
        res_t, res_p = verify.check_persistency_failure(default_field, SMALL_BOUNDARY)
        assert res_t.passed and res_t.norm_sup >= 0.9
        assert res_p.passed
        assert res_t.details["verdict"] == "persistency violated"
        assert res_t.details["rel_discrepancy"] <= 1e-4
        assert res_p.details["closed_form_validated"]
        assert res_p.details["rel_discrepancy"] <= 1e-4

    def test_h1zero_no_contradiction(self, h1zero_field):
        res_t, res_p = verify.check_persistency_failure(h1zero_field, SMALL_BOUNDARY)
        assert res_t.norm_sup <= 1e-8 and res_p.norm_sup <= 1e-8
        assert not res_t.passed and not res_p.passed
        assert res_t.details["verdict"] == "no contradiction exhibited"

    def test_grid_refinement_stability(self, default_field):
        # transition-zone peaks make the sup grid-sensitive; the coarse and
        # default grids still agree to ~12% and the traction sup to 5%
        coarse = GridSpec(n_theta=64, n_phi=128, boundary_only=True)
        fine = GridSpec(n_theta=128, n_phi=256, boundary_only=True)
        sup = {}
        for label, grid in (("coarse", coarse), ("fine", fine)):
            res_t, res_p = verify.check_persistency_failure(default_field, grid)
            nav = verify.check_navier_traction(default_field, grid)
            sup[label] = (res_t.norm_sup, res_p.norm_sup, nav.norm_sup)
        for i, tol in ((0, 0.12), (1, 0.12), (2, 0.05)):
            change = abs(sup["fine"][i] - sup["coarse"][i]) / sup["fine"][i]
            assert change <= tol


def off_by_a_tenth_percent(monkeypatch):
    """Make every field's phi closed form 0.1% too large in the one sphere
    pass, boundary_state, which the persistency check reads on the mesh."""
    true_method = fam.CounterexampleField.boundary_state

    def scaled(self, th, ph):
        *rest, bp = true_method(self, th, ph)
        return (*rest, 1.001 * bp)

    monkeypatch.setattr(fam.CounterexampleField, "boundary_state", scaled)


class TestPhiGateFailure:
    def test_bad_closed_form_fails_phi_check(self, monkeypatch):
        # a phi closed form deliberately off by 0.1% must be caught by the
        # gate, and the phi check then fails on the closed-form values
        off_by_a_tenth_percent(monkeypatch)
        _, res_p = verify.check_persistency_failure(fam.default_field(), SMALL_BOUNDARY)
        d = res_p.details
        assert d["closed_form_validated"] is False
        assert d["gate_max_rel_err"] == pytest.approx(1e-3, rel=1e-2)
        assert d["source"] == "closed_form"
        assert not res_p.passed
        assert res_p.norm_sup >= 0.9  # the sup alone would still pass

    def test_failed_gate_report_is_strict_json(self, monkeypatch, tmp_path, capsys):
        from slipball import cli
        off_by_a_tenth_percent(monkeypatch)
        path = tmp_path / "report.json"
        code = cli.main(["verify", "--no-timestamp", "--report", str(path),
                         "--grid-nr", "12", "--grid-ntheta", "16", "--grid-nphi", "24",
                         "--boundary-ntheta", "48", "--boundary-nphi", "96"])
        capsys.readouterr()
        assert code == 2

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        doc = json.loads(path.read_text(), parse_constant=reject)
        by_name = {c["name"]: c for c in doc["checks"]}
        phi = by_name["persistency_failure_phi"]
        assert doc["overall_pass"] is False
        assert phi["pass"] is False and phi["details"]["closed_form_validated"] is False
        assert [n for n, c in by_name.items() if not c["pass"]] == [phi["name"]]
        assert isinstance(phi["norm_l2"], float) and phi["norm_l2"] > 0.0
        assert all("norm_l2_defined" not in c for c in doc["checks"])


class TestNeighborhoodRadius:
    # reference point on the plateau, where the closed form is -sin(2 phi)/sin^3(theta)
    EQUATOR = None  # set lazily to avoid import-order issues

    @staticmethod
    def equator_point():
        from slipball.sphcalc import SphPoint
        return SphPoint(1.0, PI / 2, PI / 4)

    def test_half_floor_radius_at_plateau_peak(self, default_field):
        rho = verify.neighborhood_radius(default_field, "theta", self.equator_point(), 0.5)
        assert rho >= 0.05
        # |sin 2 phi| >= 1/2 pins the phi direction at pi/6
        assert rho == pytest.approx(PI / 6, abs=0.02)

    def test_half_floor_radius_at_grid_witness(self, default_field):
        # the grid sup sits in the bump transition zone, where the closed
        # form varies faster; the half-floor ball is smaller but still open
        res_t, _ = verify.check_persistency_failure(default_field, SMALL_BOUNDARY)
        rho = verify.neighborhood_radius(default_field, "theta", res_t.witness, 0.5)
        assert rho >= 0.02

    def test_full_floor_radius_is_resolution_zero(self, default_field):
        rho = verify.neighborhood_radius(default_field, "theta", self.equator_point(), 1.0)
        assert rho <= 0.01

    def test_zero_floor_bounded_by_zero_set(self, default_field):
        # the closed form vanishes on the meridians phi = k pi/2, a geodesic
        # distance pi/4 away from the plateau peak
        rho = verify.neighborhood_radius(default_field, "theta", self.equator_point(), 0.0)
        assert 0.0 < rho <= PI / 4 + 0.02

    @pytest.mark.parametrize("component", ["thta", "Theta", "r", ""])
    def test_unknown_component_raises(self, default_field, component):
        with pytest.raises(ValueError, match="component"):
            verify.neighborhood_radius(default_field, component, self.equator_point(), 0.5)

    @pytest.mark.parametrize("fraction", [math.nan, -0.5, -1e-300, 1.5, math.inf])
    def test_floor_fraction_outside_unit_interval_raises(self, default_field, fraction):
        with pytest.raises(ValueError, match="floor_fraction"):
            verify.neighborhood_radius(default_field, "theta", self.equator_point(), fraction)

    def test_phi_component_uses_phi_trace(self, default_field):
        # at the plateau peak the phi trace is 0 (g_theta = 0) and the theta
        # trace is not, so only the phi component gives radius 0
        p = self.equator_point()
        assert default_field.boundary_curl_phi(p.theta, p.phi) == 0.0
        assert verify.neighborhood_radius(default_field, "phi", p, 0.5) == 0.0
        assert verify.neighborhood_radius(default_field, "theta", p, 0.5) > 0.0


class TestNavierTraction:
    def test_curved_boundary_sees_slip_field(self, default_field):
        res = verify.check_navier_traction(default_field, SMALL_BOUNDARY, nu=1.0)
        assert res.norm_sup >= 0.9
        assert res.passed

    def test_viscosity_zero(self, default_field):
        res = verify.check_navier_traction(default_field, SMALL_BOUNDARY, nu=0.0)
        assert res.norm_sup == 0.0

    def test_flat_boundary_override(self, default_field):
        res = verify.check_navier_traction(default_field, SMALL_BOUNDARY,
                                           nu=1.0, flat_boundary=True)
        assert res.norm_sup <= 1e-12

    def test_scales_with_viscosity(self, default_field):
        r1 = verify.check_navier_traction(default_field, SMALL_BOUNDARY, nu=1.0)
        r2 = verify.check_navier_traction(default_field, SMALL_BOUNDARY, nu=0.25)
        assert r2.norm_sup == pytest.approx(0.25 * r1.norm_sup, rel=1e-12)


class TestOracleAgreement:
    def test_default_family(self, default_field):
        res = verify.check_oracle_agreement(default_field)
        assert res.passed and res.norm_sup <= 1e-4
        # the curl from the jets agrees with the closed form to rounding
        nodes = verify._agreement_nodes(verify.DEFAULT_SEED, FDConfig().step)
        closed = default_field.omega_components(*nodes)
        jets = jets_curl(default_field, *nodes)
        assert max(float(np.max(np.abs(a - b))) for a, b in zip(jets, closed)) <= 1e-10

    def test_deterministic_given_seed(self, default_field):
        a = verify.check_oracle_agreement(default_field, seed=7)
        b = verify.check_oracle_agreement(default_field, seed=7)
        assert a.to_dict() == b.to_dict()

    @staticmethod
    def plain_draw(seed, n=50):
        """The nodes as drawn before offending nodes were redrawn."""
        rng = np.random.default_rng(seed)
        return (rng.uniform(0.1, 0.95, n), rng.uniform(0.15, PI - 0.15, n),
                rng.uniform(0.0, 2.0 * PI, n))

    @staticmethod
    def nodes_used(monkeypatch, field, cfg, seed):
        seen = []
        original = oracle.cartesian_curl_grid

        def spy(fn, r, th, ph, cfg):
            seen.append((r.copy(), th.copy(), ph.copy()))
            return original(fn, r, th, ph, cfg)

        monkeypatch.setattr(oracle, "cartesian_curl_grid", spy)
        res = verify.check_oracle_agreement(field, cfg, seed=seed)
        monkeypatch.undo()
        return res, seen[0]

    def test_offending_nodes_are_redrawn(self, default_field, monkeypatch):
        # seed 18 at step 1e-2 used to hit "Cartesian stencil too close to the polar axis"
        cfg = FDConfig(step=1e-2)
        plain = self.plain_draw(18)
        bad = ~oracle.cartesian_stencil_fits(*plain, cfg.step)
        assert bad.any()
        res, used = self.nodes_used(monkeypatch, default_field, cfg, 18)
        assert np.all(oracle.cartesian_stencil_fits(*used, cfg.step))
        for a, b in zip(used, plain):
            np.testing.assert_array_equal(a[~bad], b[~bad])
            assert not np.any(a[bad] == b[bad])
        assert res.details["n_points"] == 50 and math.isfinite(res.norm_sup)

    @pytest.mark.parametrize("seed", [verify.DEFAULT_SEED, 0, 18, 99])
    def test_default_step_report_unchanged(self, default_field, monkeypatch, seed):
        res, used = self.nodes_used(monkeypatch, default_field, FDConfig(), seed)
        for a, b in zip(used, self.plain_draw(seed)):
            np.testing.assert_array_equal(a, b)
        monkeypatch.setattr(verify, "_agreement_nodes",
                            lambda seed, step: self.plain_draw(seed))
        ref = verify.check_oracle_agreement(default_field, FDConfig(), seed=seed)
        assert res.to_dict() == ref.to_dict()

    def test_only_seeds_with_offending_nodes_change(self):
        moved = 0
        for seed in range(3000):
            plain = self.plain_draw(seed)
            drawn = verify._agreement_nodes(seed, 1e-2)
            bad = ~oracle.cartesian_stencil_fits(*plain, 1e-2)
            assert np.all(oracle.cartesian_stencil_fits(*drawn, 1e-2))
            assert all(np.array_equal(a[~bad], b[~bad]) for a, b in zip(drawn, plain))
            moved += bool(bad.any())
            if seed % 10 == 0:  # no node can offend at the default step
                assert all(np.array_equal(a, b) for a, b in
                           zip(verify._agreement_nodes(seed, 1e-4), plain))
        assert moved == 100


class TestOnePathPerQuantity:
    """verify evaluates omega and div u by one path each: the closed-form
    omega, gated by the Cartesian FD curl, and the Cartesian FD divergence.
    The jets path (u_raw_partials with the divergence and curl kernels)
    is left to the tests."""

    JETS = [(fam.CounterexampleField, "u_raw_partials"), (kernels, "divergence_parts"),
            (kernels, "curl_parts")]

    @pytest.mark.parametrize("label, exit_code", [("default", 0), ("h1zero", 2),
                                                   ("perturbed:1e-3", 2)])
    def test_verify_calls_no_jets_path(self, label, exit_code, monkeypatch, tmp_path, capsys):
        from slipball import cli
        calls = []
        for owner, name in self.JETS:
            def spy(*args, _name=name, _original=vars(owner)[name], **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)
            monkeypatch.setattr(owner, name, spy)
        path = tmp_path / "report.json"
        code = cli.main(["verify", "--no-timestamp", "--family", label, "--report", str(path),
                         "--grid-nr", "8", "--grid-ntheta", "8", "--grid-nphi", "8",
                         "--boundary-ntheta", "32", "--boundary-nphi", "64"])
        capsys.readouterr()
        monkeypatch.undo()
        assert code == exit_code and calls == []
        by_name = {c["name"]: c for c in json.loads(path.read_text())["checks"]}
        assert by_name["divergence_free"]["details"] == {}

        # the agreement sup is that of the closed form against the FD curl
        field = fam.family_by_label(label)
        nodes = verify._agreement_nodes(verify.DEFAULT_SEED, FDConfig().step)
        closed = field.omega_components(*nodes)
        fd = oracle.cartesian_curl_grid(field.u_components, *nodes, FDConfig())
        want = max(float(np.max(np.abs(a - b))) for a, b in zip(closed, fd))
        agreement = by_name["oracle_agreement_curl"]
        assert agreement["norm_sup"] == want
        assert set(agreement["details"]) == {"n_points", "seed", "l2_is_rms_over_samples"}


class TestScalingSweep:
    def test_default_epsilons_slope_one(self, default_field):
        sweep = verify.scaling_sweep(default_field, [1e-1, 1e-2, 1e-3, 1e-4],
                                     SMALL_BOUNDARY)
        assert sweep.slope == pytest.approx(1.0, abs=0.05)

    def test_zero_eps_excluded(self, default_field):
        sweep = verify.scaling_sweep(default_field, [0.0, 1e-1, 1e-2, 1e-3, 1e-4],
                                     SMALL_BOUNDARY)
        zero_rows = [r for e, r in sweep.rows if e == 0.0]
        assert zero_rows[0] <= 1e-12
        assert all(e > 0 for e, _ in sweep.included)

    def test_doubling_eps_doubles_residual(self, default_field):
        sweep = verify.scaling_sweep(default_field, [1e-3, 2e-3, 4e-3, 8e-3],
                                     SMALL_BOUNDARY)
        res = dict(sweep.rows)
        assert res[2e-3] / res[1e-3] == pytest.approx(2.0, rel=0.01)
        assert res[8e-3] / res[4e-3] == pytest.approx(2.0, rel=0.01)

    def test_equal_epsilons_degenerate(self, default_field):
        with pytest.raises(ValueError) as exc:
            verify.scaling_sweep(default_field, [1e-2] * 4, SMALL_BOUNDARY)
        assert str(exc.value) == "degenerate fit: all eps values identical"

    @pytest.mark.parametrize("epsilons, message", [
        ([0.0, 1e-2, 1e-2, -1e-3], "all eps values identical"),
        ([0.0, 0.0, -1e-2, 1e-2], "need at least two positive eps values"),
    ])
    def test_bad_eps_set_raises_before_evaluating(self, default_field, monkeypatch,
                                                  epsilons, message):
        monkeypatch.setattr(fam.CounterexampleField, "support_mask", None)
        with pytest.raises(ValueError) as exc:
            verify.scaling_sweep(default_field, epsilons, SMALL_BOUNDARY)
        assert str(exc.value) == f"degenerate fit: {message}"

    def test_non_finite_residual_names_its_eps(self, default_field):
        # the profile overflows at eps = 1e308; no numpy warning escapes
        with pytest.raises(ValueError) as exc:
            verify.scaling_sweep(default_field, [1e300, 1e308, 1e-2, 1e-3], SMALL_BOUNDARY)
        assert str(exc.value) == "eps=1e+308 gives a non-finite residual (inf)"

    @staticmethod
    def per_eps_field_rows(base, epsilons, grid):
        """The sweep rows with one CounterexampleField per eps."""
        mesh = grid.boundary_mesh()
        th, ph = mesh["theta"], mesh["phi"]
        rows = []
        for eps in epsilons:
            f = fam.CounterexampleField(fam.perturbed_profile(float(eps), base.profile),
                                        base.angular)
            _, wt, wp = f.omega_components(np.ones_like(th), th, ph)
            rows.append((float(eps), float(np.max(np.hypot(wt, wp)))))
        return rows

    @pytest.mark.parametrize("base", ["default", "perturbed:1e-3", "cosine"])
    @pytest.mark.parametrize("grid", [SMALL_BOUNDARY, GridSpec(n_theta=33, n_phi=70,
                                                               boundary_only=True)])
    def test_rows_equal_per_eps_fields(self, base, grid):
        field = (fam.CounterexampleField(fam.default_profile(), fam.cosine_angular())
                 if base == "cosine" else fam.family_by_label(base))
        epsilons = [0.0, 1e-6, 3.7e-3, 0.1, 2.5, -0.01]
        sweep = verify.scaling_sweep(field, epsilons, grid)
        assert sweep.rows == self.per_eps_field_rows(field, epsilons, grid)

    def test_no_field_is_built_per_eps(self, default_field, monkeypatch):
        built = []
        monkeypatch.setattr(fam, "check_admissibility", lambda f: built.append(f))
        verify.scaling_sweep(default_field, [1e-1, 1e-2, 1e-3, 1e-4], SMALL_BOUNDARY)
        assert built == []


class TestFullVerification:
    def test_default_family_passes(self, default_report):
        assert default_report.overall_pass
        names = [c.name for c in default_report.checks]
        assert names == ["divergence_free", "slip_u_dot_n", "slip_omega_cross_n",
                         "persistency_failure_theta", "persistency_failure_phi",
                         "oracle_agreement_curl", "navier_traction"]
        by_name = {c.name: c for c in default_report.checks}
        assert by_name["persistency_failure_theta"].norm_sup >= 0.9
        assert "neighborhood_radius_half_floor" in by_name["persistency_failure_theta"].details

    @pytest.mark.parametrize("label", ["default", "perturbed:1e-3"])
    def test_boundary_checks_share_one_u_omega_pass(self, label, monkeypatch):
        # the slip, persistency and traction checks read one boundary_state
        # pass on the mesh, and each result is the one the check gives alone
        field = fam.family_by_label(label)
        mesh = SMALL_BOUNDARY.boundary_mesh()
        standalone = [*verify.check_slip_conditions(field, SMALL_BOUNDARY),
                      verify.check_navier_traction(field, SMALL_BOUNDARY, nu=0.7)]
        skipped = not field.admissibility.slip_ok
        if not skipped:
            res_t, res_p = verify.check_persistency_failure(field, SMALL_BOUNDARY)
            res_t.details["neighborhood_radius_half_floor"] = verify.neighborhood_radius(
                field, "theta", res_t.witness, 0.5)
            standalone += [res_t, res_p]
        names = ("u_components", "omega_components", "boundary_state")
        sizes = {name: [] for name in names}
        for name, log in sizes.items():
            def spy(self, *coords, _log=log, _fn=getattr(fam.CounterexampleField, name)):
                _log.append(np.size(coords[-2]))  # theta
                return _fn(self, *coords)
            monkeypatch.setattr(fam.CounterexampleField, name, spy)
        report = verify.run_full_verification(field, GridSpec(n_r=8, n_theta=8, n_phi=8),
                                              SMALL_BOUNDARY, nu=0.7)
        by_name = {c.name: c for c in report.checks}
        for res in standalone:
            assert by_name[res.name].to_dict() == res.to_dict()
        for name in ("persistency_failure_theta", "persistency_failure_phi"):
            assert by_name[name].details.get("skipped", False) is skipped
        n = mesh["theta"].size
        assert sizes["boundary_state"].count(n) == 1
        assert n not in sizes["u_components"] + sizes["omega_components"]

    def test_h1zero_family_fails_persistency_only(self, h1zero_field):
        report = verify.run_full_verification(h1zero_field, SMALL_INTERIOR, SMALL_BOUNDARY)
        assert not report.overall_pass
        by_name = {c.name: c for c in report.checks}
        assert by_name["divergence_free"].passed
        assert by_name["slip_u_dot_n"].passed and by_name["slip_omega_cross_n"].passed
        assert not by_name["persistency_failure_theta"].passed
        assert by_name["persistency_failure_theta"].details["verdict"] == (
            "no contradiction exhibited")

    def test_slip_violating_family_short_circuits(self):
        f = fam.family_by_label("perturbed:0.1")
        report = verify.run_full_verification(f, SMALL_INTERIOR, SMALL_BOUNDARY)
        assert not report.overall_pass
        by_name = {c.name: c for c in report.checks}
        assert not by_name["slip_omega_cross_n"].passed
        assert by_name["persistency_failure_theta"].details.get("skipped")

    def test_non_finite_detail_is_named(self, default_field, monkeypatch):
        original = verify.check_slip_conditions

        def with_nan(*args, **kwargs):
            res_u, res_w = original(*args, **kwargs)
            res_w.details["oracle_spot_sup"] = math.nan
            return res_u, res_w

        monkeypatch.setattr(verify, "check_slip_conditions", with_nan)
        with pytest.raises(ValueError, match=r"^check slip_omega_cross_n gives a non-finite "
                                             r"details\.oracle_spot_sup \(nan\)$"):
            verify.run_full_verification(default_field, GridSpec(n_r=8, n_theta=8, n_phi=8),
                                         SMALL_BOUNDARY)

    def test_report_determinism(self, default_field):
        a = verify.run_full_verification(default_field, SMALL_INTERIOR, SMALL_BOUNDARY)
        b = verify.run_full_verification(default_field, SMALL_INTERIOR, SMALL_BOUNDARY)
        assert a.to_json(include_timestamp=False) == b.to_json(include_timestamp=False)
        da, db = a.to_dict(), b.to_dict()
        da.pop("timestamp"), db.pop("timestamp")
        assert da == db

    def test_report_schema(self, default_report):
        doc = json.loads(default_report.to_json())
        assert set(doc) == {"family", "timestamp", "admissibility", "checks",
                            "overall_pass", "grid", "oracle"}
        for check in doc["checks"]:
            assert {"name", "norm_sup", "norm_l2", "tolerance", "direction",
                    "pass", "witness", "details"} <= set(check)
        assert doc["grid"]["interior"]["n_r"] == SMALL_INTERIOR.n_r
        assert doc["oracle"]["step"] == 1e-4

    @pytest.mark.parametrize("label", ["default", "h1zero", "perturbed:1e-3"])
    def test_report_leaves_are_plain_json_types(self, label):
        # to_dict converts nothing, so a numpy scalar (np.float64 subclasses
        # float) or a tuple in any check's numbers or details would reach it
        report = verify.run_full_verification(
            fam.family_by_label(label), GridSpec(n_r=8, n_theta=8, n_phi=8),
            GridSpec(n_theta=32, n_phi=64, boundary_only=True))
        doc = report.to_dict()
        by_name = {c["name"]: c for c in doc["checks"]}
        skipped = label == "perturbed:1e-3"
        for name in ("persistency_failure_theta", "persistency_failure_phi"):
            assert by_name[name]["details"].get("skipped", False) is skipped

        def leaves(node):
            if isinstance(node, dict):
                node = list(node.values())
            if isinstance(node, list):
                return [leaf for child in node for leaf in leaves(child)]
            return [node]

        bad = [leaf for leaf in leaves(doc)
               if type(leaf) not in (str, int, float, bool, type(None))]
        assert bad == []
