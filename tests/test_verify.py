"""Verification checks, quadrature, sweeps, and report assembly."""
import json
import math
import re
from dataclasses import asdict

import numpy as np
import pytest

from slipball import family as fam
from slipball import kernels, oracle, verify
from slipball.errors import ConfigError, DegenerateFit, StencilOutOfDomain
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

    def test_fractional_count_is_rejected(self):
        # 8.5 radial nodes used to build 9 nodes spaced 0.9/8.5 apart
        with pytest.raises(TypeError, match="n_r must be an integer"):
            GridSpec(n_r=8.5)
        with pytest.raises(TypeError, match="n_phi must be an integer"):
            GridSpec(n_phi=np.float64(16.0))

    @pytest.mark.parametrize("flag", [True, np.bool_(True)])
    def test_bool_count_is_rejected(self, flag):
        with pytest.raises(TypeError, match="n_theta must be an integer"):
            GridSpec(n_theta=flag)

    def test_numpy_counts_and_margins_are_stored_as_python_numbers(self, default_field):
        grid = GridSpec(n_r=np.int64(8), n_theta=np.int32(8), n_phi=np.uint16(8),
                        margin_r=np.float64(0.05), margin_theta=np.float32(0.25))
        assert [type(getattr(grid, k)) for k in ("n_r", "n_theta", "n_phi")] == [int] * 3
        assert type(grid.margin_r) is float and type(grid.margin_theta) is float
        assert grid.margin_theta == float(np.float32(0.25))
        # the report echoes the grid and the oracle: numpy counts, and a
        # float32 step, used to run every check and then make to_json raise
        report = verify.run_full_verification(
            default_field, grid, GridSpec(n_theta=np.int64(32), n_phi=np.int64(64),
                                          boundary_only=True), FDConfig(step=np.float32(1e-6)))
        doc = json.loads(report.to_json())
        assert doc["grid"]["interior"]["n_r"] == 8
        assert doc["oracle"]["step"] == float(np.float32(1e-6))

    @pytest.mark.parametrize("flag", ["no", 1, np.bool_(True)])
    def test_non_bool_boundary_only_is_rejected(self, flag):
        # "no" used to select the sphere and be echoed into the report
        with pytest.raises(TypeError, match="boundary_only must be a boolean"):
            GridSpec(boundary_only=flag)

    def test_non_number_margin_is_rejected(self):
        with pytest.raises(TypeError, match="margin_r must be a number"):
            GridSpec(margin_r="0.05")

    def test_margin_validation(self, default_field):
        with pytest.raises(ValueError):
            GridSpec(margin_r=0.0)
        # the oracle's rule alone: a margin under twice the step runs, as
        # long as every stencil stays inside the ball
        for margin in (1e-3, 1e-4):
            verify.check_divergence_free(
                default_field, GridSpec(n_r=8, n_theta=8, n_phi=8, margin_r=margin),
                FDConfig(step=1e-4))
        with pytest.raises(StencilOutOfDomain,
                           match=r"^Cartesian stencil leaves the unit ball at r=0\.99499\d* "
                                 r"with step 0\.01$"):
            verify.check_divergence_free(
                default_field, GridSpec(n_r=100, n_theta=8, n_phi=8, margin_r=1e-6),
                FDConfig(step=1e-2))

    def test_every_boundary_grid_runs_the_slip_check_at_every_step(self, default_field):
        # the FD-curl spots lie on the sphere's support, more than pi/4 from
        # the poles, so no boundary grid needs a stencil check up front; the
        # first spot used to be flat index 0, at theta = pi / (2 n_theta)
        for n in (8, 16, 64, 79, 128, 200):
            grid = GridSpec(n_theta=n, n_phi=16, boundary_only=True)
            sphere = verify.boundary_pass(default_field, grid)
            support = default_field.support_mask(1.0, sphere.theta)
            for step in (1e-8, 1e-4, 1e-3, 3e-3, 5e-3, 1e-2):
                _, res_w = verify.check_slip_conditions(default_field, sphere,
                                                        FDConfig(step=step))
                assert res_w.details["oracle_spot_points"] == min(
                    verify.ORACLE_SPOTS, int(np.count_nonzero(support))) > 0, (n, step)
                assert math.isfinite(res_w.details["oracle_spot_sup"])
            with pytest.raises(ValueError, match=self.NEEDS_INTERIOR):
                verify.check_divergence_free(default_field, grid, FDConfig(step=1e-2))

    def test_slip_spots_are_spread_over_the_support(self, default_field, monkeypatch):
        sphere = verify.boundary_pass(default_field, SMALL_BOUNDARY)
        support = np.flatnonzero(default_field.support_mask(1.0, sphere.theta))
        seen = []
        original = oracle.fd_curl_spherical

        def spy(fn, r, theta, phi, cfg):
            seen.append((theta, phi))
            return original(fn, r, theta, phi, cfg)
        monkeypatch.setattr(oracle, "fd_curl_spherical", spy)
        verify.check_slip_conditions(default_field, sphere)
        spots = support[::support.size // verify.ORACLE_SPOTS][:verify.ORACLE_SPOTS]
        assert [t.tolist() for t in seen[0]] == [sphere.theta[spots].tolist(),
                                                 sphere.phi[spots].tolist()]

    @pytest.mark.parametrize("step", [3e-3, 1e-2])
    def test_cartesian_stencil_checked_up_front(self, default_field, monkeypatch, step):
        # the shipped grid's innermost node is only 5.2e-3 from the polar
        # axis; the oracle checks every node before it evaluates u once
        calls = []
        original = fam.CounterexampleField.u_components
        monkeypatch.setattr(fam.CounterexampleField, "u_components",
                            lambda self, *c: calls.append(c) or original(self, *c))
        with pytest.raises(StencilOutOfDomain,
                           match=rf"^Cartesian stencil too close to the polar axis \(needs rho >= "
                                 rf"2 \* step\) at rho=0\.00522\d* with step {step:g}$"):
            verify.check_divergence_free(default_field, GridSpec(), FDConfig(step=step))
        assert calls == []
        verify.check_divergence_free(default_field, GridSpec(n_r=8, n_theta=8, n_phi=8),
                                     FDConfig(step=step))
        assert calls

    NEEDS_BOUNDARY = (r"^this check needs a boundary grid \(boundary_only=True\), "
                      r"got boundary_only=False$")
    NEEDS_INTERIOR = (r"^this check needs an interior grid \(boundary_only=False\), "
                      r"got boundary_only=True$")

    @pytest.mark.parametrize("check", ["check_slip_conditions", "check_persistency_failure",
                                       "check_navier_traction", "scaling_sweep"])
    def test_boundary_check_rejects_an_interior_grid(self, default_field, check):
        # an interior grid's n_theta x n_phi is not read as a sphere: the
        # sweep takes the grid, the other checks read it through boundary_pass
        with pytest.raises(ValueError, match=self.NEEDS_BOUNDARY):
            if check == "scaling_sweep":
                verify.scaling_sweep(default_field, [1e-1, 1e-2], SMALL_INTERIOR)
            else:
                sphere = verify.boundary_pass(default_field, SMALL_INTERIOR)
                pytest.fail(f"{check} was given {sphere}")

    def test_divergence_check_rejects_a_boundary_grid(self, default_field):
        # a boundary grid's n_r and margins are not read as an interior lattice
        with pytest.raises(ValueError, match=self.NEEDS_INTERIOR):
            verify.check_divergence_free(default_field, SMALL_BOUNDARY)

    @pytest.mark.parametrize("interior, boundary, message", [
        (SMALL_BOUNDARY, SMALL_BOUNDARY, NEEDS_INTERIOR),
        (SMALL_INTERIOR, SMALL_INTERIOR, NEEDS_BOUNDARY)], ids=["interior", "boundary"])
    def test_full_verification_rejects_a_grid_of_the_wrong_kind(self, default_field, interior,
                                                                boundary, message):
        with pytest.raises(ValueError, match=message):
            verify.run_full_verification(default_field, interior, boundary)

    def test_interior_mesh_shape_and_bounds(self):
        r, theta, _ = GridSpec(n_r=8, n_theta=8, n_phi=8).lattice().nodes()
        assert r.size == 8 * 8 * 8
        assert r.min() > 0.05 and r.max() < 0.95
        assert theta.min() > 0.05 and theta.max() < PI - 0.05

    def test_quadrature_sanity(self):
        # surface L2 norm of the constant 1
        lattice = GridSpec(n_theta=128, n_phi=256, boundary_only=True).lattice()
        l2 = math.sqrt(np.broadcast_to(lattice.weights, lattice.shape).sum())
        assert l2 == pytest.approx(math.sqrt(4 * PI), rel=1e-3)

    def test_volume_weights_sum(self):
        lattice = GridSpec(n_r=32, n_theta=32, n_phi=32, margin_r=0.05,
                           margin_theta=0.05).lattice()
        # shell volume between the radial margins, minus the polar caps
        shell = 4 * PI / 3 * (0.95**3 - 0.05**3)
        cap_fraction = math.cos(0.05)
        weights = np.broadcast_to(lattice.weights, lattice.shape)
        assert weights.sum() == pytest.approx(shell * cap_fraction, rel=1e-2)


class TestDivergenceCheck:
    def test_default_family_passes(self, default_field):
        res = verify.check_divergence_free(default_field, SMALL_INTERIOR)
        assert res.passed
        assert res.norm_sup <= 1e-6
        assert res.direction == "below"
        # the identity in floating point, from the jets: a rounding residual
        div = jets_divergence(default_field, *SMALL_INTERIOR.lattice().nodes())
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
        res_u, res_w = verify.check_slip_conditions(
            default_field, verify.boundary_pass(default_field, SMALL_BOUNDARY))
        assert res_u.norm_sup == 0.0 and res_u.passed
        assert res_w.norm_sup == 0.0 and res_w.passed
        # FD-curl spot checks ride along as the oracle partner of the trace
        assert res_w.details["oracle_spot_sup"] <= 1e-6

    def test_perturbed_scales_linearly(self):
        grid = SMALL_BOUNDARY
        ref, f = fam.family_by_label("perturbed:1e-3"), fam.family_by_label("perturbed:1e-2")
        res_ref = verify.check_slip_conditions(ref, verify.boundary_pass(ref, grid))[1]
        m = res_ref.norm_sup / 1e-3
        res = verify.check_slip_conditions(f, verify.boundary_pass(f, grid))[1]
        assert 0.3 * 1e-2 * m <= res.norm_sup <= 3 * 1e-2 * m
        assert not res.passed

    def test_zero_family(self):
        f = fam.CounterexampleField(fam.default_profile(), fam.zero_angular())
        res_u, res_w = verify.check_slip_conditions(f, verify.boundary_pass(f, SMALL_BOUNDARY))
        assert res_u.norm_sup == 0.0 and res_w.norm_sup == 0.0


class TestPersistencyCheck:
    def test_default_family_contradicts(self, default_field):
        # the gate errors below were measured with Richardson at step 1e-4
        res_t, res_p = verify.check_persistency_failure(
            default_field, verify.boundary_pass(default_field, SMALL_BOUNDARY),
            FDConfig(1e-4, True))
        assert res_t.passed and res_t.norm_sup >= 0.9
        assert res_p.passed
        assert res_t.details["verdict"] == "persistency violated"
        assert res_t.details["rel_discrepancy"] <= 1e-4
        assert res_p.details["closed_form_validated"]
        assert res_p.details["rel_discrepancy"] <= 1e-4
        # both traces are gated, with the same details
        assert list(res_t.details) == list(res_p.details)
        for res in (res_t, res_p):
            assert res.details["closed_form_validated"]
            assert res.details["gate_points"] == verify.GATE_POINTS
            assert res.details["gate_max_rel_err"] <= 1e-10

    @pytest.mark.parametrize("grid", [SMALL_BOUNDARY, verify._DEFAULT_BOUNDARY_GRID])
    def test_h1zero_traces_are_not_validated_without_a_gate_node(self, h1zero_field, grid):
        # both h1zero traces stay under TRACE_GATE_MAGNITUDE everywhere, so
        # no closed-form value meets the oracle; the verdicts stand
        for res in verify.check_persistency_failure(h1zero_field,
                                                    verify.boundary_pass(h1zero_field, grid)):
            assert not res.passed
            assert res.details["verdict"] == "no contradiction exhibited"
            assert res.details["gate_points"] == 0
            assert res.details["closed_form_validated"] is False
            assert "no oracle value was compared" in res.details["gate_note"]

    def test_bad_theta_closed_form_fails_theta_check(self, default_field, monkeypatch):
        # a theta closed form 0.1% too large is caught by its gate, as the
        # phi closed form is by its own; the oracle reads v, not the trace
        true_method = fam.CounterexampleField.boundary_state

        def scaled(self, th, ph):
            state = true_method(self, th, ph)
            return state._replace(curl_v_theta=1.001 * state.curl_v_theta)

        monkeypatch.setattr(fam.CounterexampleField, "boundary_state", scaled)
        res_t, res_p = verify.check_persistency_failure(
            default_field, verify.boundary_pass(default_field, SMALL_BOUNDARY))
        assert res_t.details["closed_form_validated"] is False
        assert res_t.details["gate_max_rel_err"] == pytest.approx(1e-3, rel=1e-2)
        assert not res_t.passed and res_t.norm_sup >= 0.9  # the sup alone would pass
        assert res_t.details["verdict"] == "no contradiction exhibited"
        assert res_p.passed and res_p.details["closed_form_validated"]

    def test_h1zero_no_contradiction(self, h1zero_field):
        res_t, res_p = verify.check_persistency_failure(
            h1zero_field, verify.boundary_pass(h1zero_field, SMALL_BOUNDARY))
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
            sphere = verify.boundary_pass(default_field, grid)
            res_t, res_p = verify.check_persistency_failure(default_field, sphere)
            nav = verify.check_navier_traction(sphere)
            sup[label] = (res_t.norm_sup, res_p.norm_sup, nav.norm_sup)
        for i, tol in ((0, 0.12), (1, 0.12), (2, 0.05)):
            change = abs(sup["fine"][i] - sup["coarse"][i]) / sup["fine"][i]
            assert change <= tol


def off_by_a_tenth_percent(monkeypatch):
    """Make every field's phi closed form 0.1% too large in the one sphere
    pass, boundary_state, which the persistency check reads on the mesh."""
    true_method = fam.CounterexampleField.boundary_state

    def scaled(self, th, ph):
        state = true_method(self, th, ph)
        return state._replace(curl_v_phi=1.001 * state.curl_v_phi)

    monkeypatch.setattr(fam.CounterexampleField, "boundary_state", scaled)


class TestPhiGateFailure:
    def test_bad_closed_form_fails_phi_check(self, monkeypatch):
        # a phi closed form deliberately off by 0.1% must be caught by the
        # gate, and the phi check then fails on the closed-form values
        off_by_a_tenth_percent(monkeypatch)
        field = fam.default_field()
        _, res_p = verify.check_persistency_failure(
            field, verify.boundary_pass(field, SMALL_BOUNDARY))
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
        rho = verify.neighborhood_radius(default_field, self.equator_point())
        assert rho >= 0.05
        # |sin 2 phi| >= 1/2 pins the phi direction at pi/6
        assert rho == pytest.approx(PI / 6, abs=0.02)

    def test_half_floor_radius_at_grid_witness(self, default_field):
        # the grid sup sits in the bump transition zone, where the closed
        # form varies faster; the half-floor ball is smaller but still open
        res_t, _ = verify.check_persistency_failure(
            default_field, verify.boundary_pass(default_field, SMALL_BOUNDARY))
        rho = verify.neighborhood_radius(default_field, res_t.witness)
        assert rho >= 0.02

    # float.hex of the radius at the theta admissibility witness (witness_a1),
    # measured with one bisection step per trace call; the level-batched
    # bisection must keep every bit
    PINS = [
        ("default", "0x1.07e6053e97930p-5"),
        ("perturbed:1e-3", "0x1.07e6053e97930p-5"),
        ("h1zero", "0x0.0p+0"),  # h(1) = 0: the trace vanishes at the witness
    ]

    @pytest.mark.parametrize("label, pin", PINS)
    def test_radius_bits_are_pinned(self, label, pin):
        field = fam.family_by_label(label)
        rho = verify.neighborhood_radius(field, fam.find_witnesses(field)[0])
        assert type(rho) is float and rho.hex() == pin

    # the same at fixed points of the default field: the plateau peak, a
    # point on the bump's rising ramp, and the meridian phi = 0
    POINT_PINS = [
        ((PI / 2, PI / 4), "0x1.0c152382d62a2p-1"),
        ((5 * PI / 16, PI / 4), "0x1.48063378c456ep-8"),
        ((PI / 2, 0.0), "0x0.0p+0"),
    ]

    @pytest.mark.parametrize("angles, pin", POINT_PINS)
    def test_radius_bits_at_fixed_points(self, default_field, angles, pin):
        from slipball.sphcalc import SphPoint
        rho = verify.neighborhood_radius(default_field, SphPoint(1.0, *angles))
        assert type(rho) is float and rho.hex() == pin

    def test_vanishing_trace_gives_radius_zero_with_one_trace_call(self, default_field,
                                                                   monkeypatch):
        # the closed form -sin(2 phi)/sin^3(theta) is 0 on the meridian phi = 0,
        # so no ball keeps half of it and the bisection never runs
        calls = []

        def spy(*args, _original=fam.CounterexampleField.boundary_curl_theta):
            calls.append(np.size(args[1]))
            return _original(*args)

        monkeypatch.setattr(fam.CounterexampleField, "boundary_curl_theta", spy)
        from slipball.sphcalc import SphPoint
        assert verify.neighborhood_radius(default_field, SphPoint(1.0, PI / 2, 0.0)) == 0.0
        # the witness and the rings of the radius pi/2 share the one call
        assert calls == [1 + verify.RADIUS_RINGS * verify.RADIUS_DIRECTIONS]

    def test_radius_bits_at_the_coarse_check_witness(self, default_field):
        # the same at the theta witness of the 32x64 persistency check
        grid = GridSpec(n_theta=32, n_phi=64, boundary_only=True)
        res_t, _ = verify.check_persistency_failure(
            default_field, verify.boundary_pass(default_field, grid))
        assert verify.neighborhood_radius(default_field, res_t.witness).hex() == \
            "0x1.e0b369a34416ap-8"


class TestNavierTraction:
    def test_curved_boundary_sees_slip_field(self, default_field):
        res = verify.check_navier_traction(verify.boundary_pass(default_field, SMALL_BOUNDARY))
        assert res.norm_sup >= 0.9
        assert res.passed
        assert res.details == {"nu": 1.0, "curvature": 1.0}


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


class TestSeed:
    """One seed rule, which check_oracle_agreement and run_full_verification
    apply before they evaluate the field."""

    BAD = [(-1, "seed must be non-negative, got -1"),  # used to end in numpy's ValueError
           (1.5, "seed must be an integer, got 1.5"),  # used to end in a TypeError
           (True, "seed must be an integer, got True"),  # used to run with seed 1
           (np.True_, "seed must be an integer, got np.True_"),  # used to end in a TypeError
           (np.int64(-1), "seed must be non-negative, got -1"),  # numpy's ValueError
           (None, "seed must be an integer, got None"),  # used to draw fresh entropy
           ("5", "seed must be an integer, got '5'")]  # used to end in a TypeError

    @pytest.mark.parametrize("seed, message", BAD)
    def test_bad_seed_is_refused_by_the_agreement_check(self, default_field, seed, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            verify.check_oracle_agreement(default_field, seed=seed)

    @pytest.mark.parametrize("seed, message", BAD)
    def test_bad_seed_stops_the_run_before_any_other_check(self, default_field, monkeypatch,
                                                           seed, message):
        for name in ("check_divergence_free", "boundary_pass"):
            monkeypatch.setattr(verify, name, lambda *a, **k: pytest.fail("a check ran"))
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            verify.run_full_verification(default_field, SMALL_INTERIOR, SMALL_BOUNDARY,
                                         seed=seed)

    def test_numpy_integer_seed_is_stored_as_int(self, default_field):
        # np.int64(5) used to make to_json raise TypeError after every check ran
        grids = (GridSpec(n_r=8, n_theta=8, n_phi=8), SMALL_BOUNDARY)
        got = verify.run_full_verification(default_field, *grids, seed=np.int64(5))
        want = verify.run_full_verification(default_field, *grids, seed=5)
        assert type(got.oracle_echo["seed"]) is int
        assert type(got.checks[-2].details["seed"]) is int
        assert got.to_json(False) == want.to_json(False)

    @pytest.mark.parametrize("seed", [np.int64(5), np.uint8(5), np.int32(5)])
    def test_numpy_integer_seed_is_stored_as_int_by_the_agreement_check(self, default_field,
                                                                        seed):
        got = verify.check_oracle_agreement(default_field, seed=seed)
        assert type(got.details["seed"]) is int
        want = verify.check_oracle_agreement(default_field, seed=5)
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())


class TestPerAxisWork:
    """verify transforms the interior lattice once per axis value, not once
    per node, and evaluates the bisection steps of neighborhood_radius in
    batches of RADIUS_BATCH_LEVELS levels."""

    @pytest.mark.parametrize("grid", [
        ["--grid-nr", "8", "--grid-ntheta", "8", "--grid-nphi", "8",
         "--boundary-ntheta", "32", "--boundary-nphi", "64"],
        []], ids=["coarse", "shipped"])
    def test_verify_does_per_axis_work_and_batched_bisection(self, grid, monkeypatch,
                                                             tmp_path, capsys):
        from slipball import cli
        inside = []  # the name of the verify function running, if watched
        sizes, trace_calls = [], []

        def watch(name):
            original = vars(verify)[name]

            def spy(*args, **kwargs):
                inside.append(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    inside.pop()
            monkeypatch.setattr(verify, name, spy)

        watch("check_divergence_free")
        watch("neighborhood_radius")
        sph_to_cart = kernels.sph_to_cart

        def spy_transform(*args):
            if inside == ["check_divergence_free"]:
                sizes.append(max(np.size(a) for a in args))
            return sph_to_cart(*args)
        monkeypatch.setattr(kernels, "sph_to_cart", spy_transform)
        for name in ("boundary_curl_theta", "boundary_curl_phi"):
            def spy_trace(*args, _original=vars(fam.CounterexampleField)[name]):
                if inside == ["neighborhood_radius"]:
                    trace_calls.append(args[1:])
                return _original(*args)
            monkeypatch.setattr(fam.CounterexampleField, name, spy_trace)

        code = cli.main(["verify", "--no-timestamp", "--report", str(tmp_path / "r.json"),
                         *grid])
        capsys.readouterr()
        monkeypatch.undo()
        assert code == 0
        spec = json.loads((tmp_path / "r.json").read_text())["grid"]["interior"]
        assert sizes and max(sizes) <= max(spec["n_r"], spec["n_theta"], spec["n_phi"])
        batches = math.ceil(verify.RADIUS_BISECTIONS / verify.RADIUS_BATCH_LEVELS)
        assert 0 < len(trace_calls) <= 1 + batches
        # a full batch holds the rings of 2^levels - 1 midpoints
        ring = verify.RADIUS_RINGS * verify.RADIUS_DIRECTIONS
        assert max(np.size(theta) for theta, _ in trace_calls) == (
            ring * (2 ** verify.RADIUS_BATCH_LEVELS - 1))


class TestOneLatticeRule:
    """Every grid's nodes come from sphcalc.midpoint_lattice.  The spy marks
    the theta axis of each lattice it builds, so a theta that reaches an
    output (or, in the sweep, the field) carries the mark only if its node
    came from the one rule."""

    MARK = 1e-3
    COARSE = ["--grid-nr", "8", "--grid-ntheta", "8", "--grid-nphi", "8",
              "--boundary-ntheta", "32", "--boundary-nphi", "64"]

    @pytest.mark.parametrize("command", ["verify", "sweep", "sample-surface", "sample-volume"])
    def test_every_grid_is_built_by_the_one_lattice_rule(self, command, monkeypatch, tmp_path,
                                                         capsys):
        from slipball import cli, sphcalc
        built = []
        original = sphcalc.midpoint_lattice

        def spy(*args, **kwargs):
            (r, th, ph), weights = original(*args, **kwargs)
            built.append(sphcalc.Lattice((r, th + self.MARK, ph), weights))
            return built[-1]
        monkeypatch.setattr(sphcalc, "midpoint_lattice", spy)
        factor_thetas = []
        init = fam.OmegaFactors.__init__

        def spy_factors(obj, r, theta, g_jet):
            factor_thetas.append(theta)
            init(obj, r, theta, g_jet)
        monkeypatch.setattr(fam.OmegaFactors, "__init__", spy_factors)

        out = tmp_path / "out"
        if command == "verify":
            argv = ["verify", "--no-timestamp", "--report", str(out), *self.COARSE]
        elif command == "sweep":
            argv = ["sweep", "--boundary-ntheta", "32", "--boundary-nphi", "64"]
        else:
            on = command.split("-")[1]
            argv = ["sample", "--field", "u", "--on", on, "--out", str(out),
                    *(self.COARSE[:6] if on == "volume" else [])]
        code = cli.main(argv)
        capsys.readouterr()
        monkeypatch.undo()
        assert code == 0

        def from_the_rule(theta):
            marked = np.concatenate([lat.axes[1].ravel() for lat in built])
            return np.size(theta) > 0 and np.all(np.isin(theta, marked))

        shapes = {lat.shape for lat in built}
        if command == "verify":
            # the two grids each build it; the witnesses come from the
            # boundary pass, so no hidden 128x256 witness sphere is built
            assert {(8, 8, 8), (1, 32, 64)} == shapes
            report = json.loads(out.read_text())
            witnesses = [c["witness"] for c in report["checks"]
                         if c["name"] != "oracle_agreement_curl"]
            witnesses += [report["admissibility"][k] for k in ("witness_a1", "witness_a2")]
            assert len(witnesses) == 8
            assert from_the_rule([w["theta"] for w in witnesses])
        elif command == "sweep":
            assert (1, 32, 64) in shapes
            # the sweep's support nodes and the witness scan's
            assert factor_thetas and all(map(from_the_rule, factor_thetas))
        else:
            assert ((1, 64, 128) if command == "sample-surface" else (8, 8, 8)) in shapes
            rows = np.loadtxt(out, delimiter=",", skiprows=1)
            assert from_the_rule(rows[:, 1])


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

    def test_non_finite_eps_raises_before_evaluating(self, default_field, monkeypatch):
        monkeypatch.setattr(fam.CounterexampleField, "support_mask", None)
        with pytest.raises(ValueError) as exc:
            verify.scaling_sweep(default_field, [1e-1, math.nan, 1e-2, 1e-3], SMALL_BOUNDARY)
        assert str(exc.value) == ("perturbation size must be finite and at most half the "
                                  "largest float, got nan")

    def test_non_finite_residual_names_its_eps(self, default_field):
        # the profile overflows at eps = 8.98e307; no numpy warning escapes
        with pytest.raises(ValueError) as exc:
            verify.scaling_sweep(default_field, [1e300, 8.98e307, 1e-2, 1e-3], SMALL_BOUNDARY)
        assert str(exc.value) == "eps=8.98e+307 gives a non-finite residual (inf)"

    @staticmethod
    def per_eps_field_rows(base, epsilons, grid):
        """The sweep rows with one CounterexampleField per eps."""
        _, th, ph = grid.lattice().nodes()
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
        monkeypatch.setattr(fam, "check_admissibility", lambda f, w: built.append(f))
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

    def test_family_without_witness_skips_the_persistency_checks(self):
        # the one admissibility report of the run decides both skips
        field = fam.CounterexampleField(fam.default_profile(), fam.zero_angular())
        report = verify.run_full_verification(field, GridSpec(n_r=8, n_theta=8, n_phi=8),
                                              SMALL_BOUNDARY)
        witnesses = fam.find_witnesses(field, SMALL_BOUNDARY.n_theta, SMALL_BOUNDARY.n_phi)
        assert witnesses == (None, None)
        assert report.admissibility == fam.check_admissibility(field, witnesses)
        assert report.admissibility.slip_ok and not report.overall_pass
        by_name = {c.name: c for c in report.checks}
        for name in ("persistency_failure_theta", "persistency_failure_phi"):
            assert not by_name[name].passed
            assert by_name[name].details == {
                "skipped": True, "reason": "family 'default+zero' exhibits no witness point"}

    def test_boundary_pass_fields_are_the_sphere_state(self, default_field):
        # the pass declares no field of its own beyond the lattice and nodes
        assert verify.BoundaryPass._fields[:3] == ("lattice", "theta", "phi")
        assert verify.BoundaryPass._fields[3:] == fam.SphereState._fields
        sphere = verify.boundary_pass(default_field, SMALL_BOUNDARY)
        state = default_field.boundary_state(sphere.theta, sphere.phi)
        for name in fam.SphereState._fields:
            assert np.array_equal(getattr(sphere, name), getattr(state, name), equal_nan=True)

    @pytest.mark.parametrize("label", ["default", "perturbed:1e-3"])
    def test_boundary_checks_share_one_u_omega_pass(self, label, monkeypatch):
        # the slip, persistency and traction checks read one boundary_state
        # pass on the mesh, and each result is the one the check gives alone
        field = fam.family_by_label(label)
        _, theta, _ = SMALL_BOUNDARY.lattice().nodes()
        sphere = verify.boundary_pass(field, SMALL_BOUNDARY)
        standalone = [*verify.check_slip_conditions(field, sphere),
                      verify.check_navier_traction(sphere)]
        skipped = not fam.check_admissibility(field, fam.find_witnesses(field)).slip_ok
        if not skipped:
            res_t, res_p = verify.check_persistency_failure(field, sphere)
            res_t.details["neighborhood_radius_half_floor"] = verify.neighborhood_radius(
                field, res_t.witness)
            standalone += [res_t, res_p]
        names = ("u_components", "omega_components", "boundary_state")
        sizes = {name: [] for name in names}
        for name, log in sizes.items():
            def spy(self, *coords, _log=log, _fn=getattr(fam.CounterexampleField, name)):
                _log.append(np.size(coords[-2]))  # theta
                return _fn(self, *coords)
            monkeypatch.setattr(fam.CounterexampleField, name, spy)
        report = verify.run_full_verification(field, GridSpec(n_r=8, n_theta=8, n_phi=8),
                                              SMALL_BOUNDARY)
        by_name = {c.name: c for c in report.checks}
        for res in standalone:
            assert by_name[res.name].to_dict() == res.to_dict()
        for name in ("persistency_failure_theta", "persistency_failure_phi"):
            assert by_name[name].details.get("skipped", False) is skipped
        n = theta.size
        assert sizes["boundary_state"].count(n) == 1
        assert n not in sizes["u_components"] + sizes["omega_components"]

    def test_verify_evaluates_the_sphere_once(self, monkeypatch, tmp_path, capsys):
        # one coarse verify builds the boundary grid's lattice once and calls
        # boundary_state once on its nodes; the boundary checks read that pass
        from slipball import cli, sphcalc
        shapes, sizes = [], []
        lattice, state = sphcalc.midpoint_lattice, fam.CounterexampleField.boundary_state

        def spy_lattice(*args, **kwargs):
            built = lattice(*args, **kwargs)
            shapes.append(built.shape)
            return built

        def spy_state(self, theta, phi):
            sizes.append(np.size(theta))
            return state(self, theta, phi)

        monkeypatch.setattr(sphcalc, "midpoint_lattice", spy_lattice)
        monkeypatch.setattr(fam.CounterexampleField, "boundary_state", spy_state)
        code = cli.main(["verify", "--no-timestamp", "--report", str(tmp_path / "r.json"),
                         "--grid-nr", "8", "--grid-ntheta", "8", "--grid-nphi", "8",
                         "--boundary-ntheta", "32", "--boundary-nphi", "64"])
        capsys.readouterr()
        monkeypatch.undo()
        assert code == 0
        assert shapes.count((1, 32, 64)) == 1
        assert sizes.count(32 * 64) == 1

    def test_admissibility_witnesses_come_from_the_boundary_pass(self, monkeypatch, tmp_path,
                                                                  capsys):
        # a coarse verify scans no second sphere: no find_witnesses call, no
        # 128x256 lattice, and one angular jet on the sphere's support nodes,
        # the largest angular jet of the run
        from slipball import cli, sphcalc
        scans, shapes, jets = [], [], []
        scan, lattice, jet = (fam.find_witnesses, sphcalc.midpoint_lattice,
                              kernels.default_angular_jet)

        def spy_lattice(*args, **kwargs):
            built = lattice(*args, **kwargs)
            shapes.append(built.shape)
            return built

        def spy_jet(theta, phi, order):
            jets.append((theta, phi))
            return jet(theta, phi, order)

        monkeypatch.setattr(fam, "find_witnesses", lambda *a: scans.append(a) or scan(*a))
        monkeypatch.setattr(sphcalc, "midpoint_lattice", spy_lattice)
        # default_angular() reads the kernel when cli builds the family
        monkeypatch.setattr(kernels, "default_angular_jet", spy_jet)
        code = cli.main(["verify", "--no-timestamp", "--report", str(tmp_path / "r.json"),
                         *TestOneLatticeRule.COARSE])
        capsys.readouterr()
        monkeypatch.undo()
        assert code == 0
        assert scans == []
        assert (1, 128, 256) not in shapes
        _, th, ph = GridSpec(n_theta=32, n_phi=64, boundary_only=True).lattice().nodes()
        support = fam.default_field().support_mask(1.0, th)
        on_sphere = [i for i, (t, p) in enumerate(jets)
                     if np.array_equal(t, th[support]) and np.array_equal(p, ph[support])]
        assert len(on_sphere) == 1
        assert max(np.size(t) for t, _ in jets) == np.count_nonzero(support)

    @pytest.mark.parametrize("n_theta, n_phi", [(32, 64), (128, 256)])
    @pytest.mark.parametrize("family", ["default", "h1zero", "cosine", "zero"])
    def test_report_witnesses_are_those_of_the_run_boundary_grid(self, family, n_theta, n_phi):
        angular = {"cosine": fam.cosine_angular, "zero": fam.zero_angular}
        field = (fam.CounterexampleField(fam.default_profile(), angular[family]())
                 if family in angular else fam.family_by_label(family))
        report = verify.run_full_verification(
            field, GridSpec(n_r=8, n_theta=8, n_phi=8),
            GridSpec(n_theta=n_theta, n_phi=n_phi, boundary_only=True)).to_dict()
        want = fam.find_witnesses(field, n_theta, n_phi)
        assert (want == (None, None)) is (family == "zero")
        got = [report["admissibility"][k] for k in ("witness_a1", "witness_a2")]
        assert got == [None if w is None else asdict(w) for w in want]

    def test_verify_builds_the_interior_lattice_once(self, monkeypatch, tmp_path, capsys):
        # the divergence check checks the margins on the lattice it reads
        from slipball import cli, sphcalc
        shapes = []
        lattice = sphcalc.midpoint_lattice

        def spy_lattice(*args, **kwargs):
            built = lattice(*args, **kwargs)
            shapes.append(built.shape)
            return built

        monkeypatch.setattr(sphcalc, "midpoint_lattice", spy_lattice)
        code = cli.main(["verify", "--no-timestamp", "--report", str(tmp_path / "r.json"),
                         "--grid-nr", "8", "--grid-ntheta", "9", "--grid-nphi", "10",
                         "--boundary-ntheta", "32", "--boundary-nphi", "64"])
        capsys.readouterr()
        monkeypatch.undo()
        assert code == 0
        assert shapes.count((8, 9, 10)) == 1

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
        assert doc["oracle"]["step"] == 1e-6 and doc["oracle"]["richardson"] is False

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
