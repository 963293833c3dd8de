"""Field family: closed forms, boundary traces, admissibility, witnesses."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slipball import family as fam
from slipball import kernels, oracle
from slipball.errors import NoWitness
from tests_support import (random_admissible_nodes, random_admissible_points,
                           random_boundary_points)

PI = math.pi
SQRT2_HALF = math.sqrt(2) / 2


def scaled_profile(lam):
    base = fam.default_profile()
    return fam.RadialProfile(
        lambda r, order: tuple(lam * a for a in base.fn(r, order)), base.support_inner,
        f"scaled:{lam:g}")


def chi_only_profile():
    """h = chi(r) alone: h(1) = 1 but h'(1) = 0, violating the slip identity."""
    def fn(r, order):  # the full jet at every order
        c, c1, c2 = kernels.smooth_step_jet((r - 0.25) / 0.25)
        return c, c1 / 0.25, c2 / 0.0625
    return fam.RadialProfile(fn, 0.25, "chi")


class TestDefaultProfile:
    def test_boundary_constants(self):
        p = fam.default_profile()
        h, hp, _ = p.jet(1.0)
        assert h == 1.0 and hp == -1.0
        assert abs(h + hp) < 1e-14

    def test_cutoff_support(self):
        p = fam.default_profile()
        assert p.jet(0.1) == (0.0, 0.0, 0.0)

    def test_first_derivative_consistency(self):
        # central differences of h converge to h' at second order
        p = fam.default_profile()
        r = np.linspace(0.3, 1.0, 29)
        hp = p.jet(r)[1]

        def err(step):
            fd = (p.jet(r + step)[0] - p.jet(r - step)[0]) / (2 * step)
            return np.abs(fd - hp).max()

        e1, e2 = err(1e-3), err(5e-4)
        assert e1 < 2e3 * 1e-6  # |h'''|/6 stays below ~2e3 on [0.3, 1]
        assert 3.4 <= e1 / e2 <= 4.6


class TestDefaultAngular:
    def test_plateau(self):
        a = fam.default_angular()
        g, *_ = a.jet(PI / 2, PI / 2)
        assert g == 1.0

    def test_outside_support(self):
        a = fam.default_angular()
        for phi in (0.0, 1.0, 4.4):
            assert a.jet(PI / 8, phi) == (0.0,) * 6

    def test_azimuthal_derivative(self):
        a = fam.default_angular()
        assert a.jet(PI / 2, 0.0)[2] == 1.0

    @given(st.floats(min_value=0, max_value=PI), st.floats(min_value=0, max_value=2 * PI))
    @settings(max_examples=80, deadline=None)
    def test_periodicity(self, theta, phi):
        a = fam.default_angular()
        assert abs(a.jet(theta, phi)[0] - a.jet(theta, phi + 2 * PI)[0]) < 1e-12


def big_g(angular, theta, phi):
    """G = cos g_theta + sin g_thetatheta + g_phiphi / sin at one node, from
    OmegaFactors on the angular jet there."""
    theta, phi = np.array([theta]), np.array([phi])
    return float(fam.OmegaFactors(np.ones(1), theta, angular.fn(theta, phi, 2)).big_g[0])


class TestBigG:
    def test_equator_value(self, default_field):
        # on the plateau G reduces to -g/sin: -sin(pi/4)
        val = big_g(default_field.angular, PI / 2, PI / 4)
        assert val == pytest.approx(-SQRT2_HALF, abs=1e-14)

    def test_equator_zero(self, default_field):
        assert big_g(default_field.angular, PI / 2, 0.0) == 0.0

    def test_pole_margin_short_circuit(self, default_field):
        # the angular jet vanishes inside the margin, so G does too
        assert big_g(default_field.angular, PI / 16, 1.0) == 0.0

    def test_against_fd_oracle(self, default_field, rng):
        # independent reconstruction from point values of g alone
        a = default_field.angular
        h = 1e-5
        for theta, phi in [(PI / 2, PI / 4), (1.0, 2.0), (2.0, 5.5), (1.3, 0.7)]:
            g = lambda t, p: a.jet(t, p)[0]
            g_t = (g(theta + h, phi) - g(theta - h, phi)) / (2 * h)
            g_tt = (g(theta + h, phi) - 2 * g(theta, phi) + g(theta - h, phi)) / h**2
            g_pp = (g(theta, phi + h) - 2 * g(theta, phi) + g(theta, phi - h)) / h**2
            expected = (math.cos(theta) * g_t + math.sin(theta) * g_tt
                        + g_pp / math.sin(theta))
            assert big_g(a, theta, phi) == pytest.approx(expected, abs=5e-5)


class TestUField:
    def test_inside_radial_support(self, default_field):
        assert default_field.u_components(0.1, PI / 2, 1.0) == (0.0, 0.0, 0.0)

    def test_boundary_value(self, default_field):
        ur, ut, up = default_field.u_components(1.0, PI / 2, 0.0)
        assert ur == 0.0
        assert ut == pytest.approx(-1.0, abs=1e-15)
        assert up == 0.0

    def test_tangential_on_boundary(self, default_field, rng):
        for p in random_boundary_points(rng, 200):
            assert default_field.u_components(p.r, p.theta, p.phi)[0] == 0.0

    def test_raw_partials_scalar_point_gives_floats(self, default_field):
        point = default_field.u_raw_partials(0.8, 1.2, 0.5)
        batch = default_field.u_raw_partials(np.array([0.8]), np.array([1.2]),
                                             np.array([0.5]))
        assert point.keys() == batch.keys()
        for k, v in point.items():
            assert type(v) is float
            assert batch[k].shape == (1,) and v == batch[k][0]
        assert point["ut"] == default_field.u_components(0.8, 1.2, 0.5)[1]


class TestOmegaField:
    def test_boundary_trace_vanishes(self, default_field, rng):
        # d/dr(r h) at r=1 is h(1)+h'(1) = 0, so both tangential parts vanish
        for p in random_boundary_points(rng, 200):
            _, wt, wp = default_field.omega_components(p.r, p.theta, p.phi)
            assert wt == 0.0 and wp == 0.0

    def test_radial_boundary_value(self, default_field):
        wr, _, _ = default_field.omega_components(1.0, PI / 2, PI / 4)
        assert wr == pytest.approx(-SQRT2_HALF, abs=1e-14)

    def test_matches_curl_of_jets(self, default_field, rng):
        # kernels.curl_parts on the analytic first partials (u_r and its
        # partials vanish)
        r, th, ph = random_admissible_nodes(rng, 100)
        g = default_field.u_raw_partials(r, th, ph)
        zeros = np.zeros_like(r)
        c = kernels.curl_parts(r, np.sin(th), np.cos(th), zeros, zeros,
                               g["ut"], g["dut_dr"], g["dut_dphi"],
                               g["up"], g["dup_dr"], g["dup_dtheta"])
        w = default_field.omega_components(r, th, ph)
        for k in range(3):
            assert np.all(np.abs(w[k] - c[k]) < 1e-10)


class TestVField:
    def test_tangential_on_boundary(self, default_field, rng):
        for p in random_boundary_points(rng, 200):
            assert default_field.v_components(p.r, p.theta, p.phi)[0] == 0.0

    def test_boundary_products(self, default_field, rng):
        # on the boundary v_theta = u_phi w_r and v_phi = -u_theta w_r
        for p in random_boundary_points(rng, 50):
            _, ut, up = default_field.u_components(p.r, p.theta, p.phi)
            wr, _, _ = default_field.omega_components(p.r, p.theta, p.phi)
            _, vt, vp = default_field.v_components(p.r, p.theta, p.phi)
            assert vt == pytest.approx(up * wr, abs=1e-15)
            assert vp == pytest.approx(-ut * wr, abs=1e-15)

    def test_boundary_value(self, default_field):
        _, vt, vp = default_field.v_components(1.0, PI / 2, PI / 4)
        assert vt == 0.0
        assert vp == pytest.approx(-0.5, abs=1e-14)

    def test_equals_cross_product(self, default_field, rng):
        nodes = random_admissible_nodes(rng, 100)
        v = default_field.v_components(*nodes)
        ur, ut, up = default_field.u_components(*nodes)
        assert np.all(ur == 0.0)  # cross_tangential takes a tangential first factor
        c = kernels.cross_tangential(ut, up, *default_field.omega_components(*nodes))
        for k in range(3):
            assert np.all(np.abs(v[k] - c[k]) < 1e-12)


class TestInteriorConsistency:
    def test_divergence_free(self, default_field, rng):
        r, th, ph = random_admissible_nodes(rng, 100)
        g = default_field.u_raw_partials(r, th, ph)
        zeros = np.zeros_like(r)
        d = kernels.divergence_parts(r, np.sin(th), np.cos(th), zeros, zeros,
                                     g["ut"], g["dut_dtheta"], g["dup_dphi"])
        assert np.all(np.abs(d) < 1e-10)

    def test_div_of_curl_via_fd_jets(self, default_field, rng):
        # closed-form curl components, first partials by the FD oracle at
        # the Richardson config this bound was measured with
        cfg = oracle.FDConfig(1e-4, True)
        nodes = random_admissible_nodes(rng, 100, r_lo=0.1, r_hi=0.9, th_margin=0.1)
        w = default_field.omega_components(*nodes)
        d_r, d_t, d_p = (oracle.fd_partial(default_field.omega_components, *nodes, c, cfg)
                         for c in ("r", "theta", "phi"))
        r, th, _ = nodes
        div = kernels.divergence_parts(r, np.sin(th), np.cos(th), w[0], d_r[0],
                                       w[1], d_t[1], d_p[2])
        assert np.all(np.abs(div) < 1e-8)


class TestBoundaryCurl:
    def test_theta_closed_form_value(self, default_field):
        assert default_field.boundary_curl_theta(PI / 2, PI / 4) == pytest.approx(
            -1.0, abs=1e-14)

    def test_theta_zero_line(self, default_field):
        assert default_field.boundary_curl_theta(PI / 2, 0.0) == 0.0

    def test_theta_matches_radial_derivative_oracle(self, default_field, rng):
        # [curl v]_theta = -(1/r) d_r(r v_phi) on the boundary
        def v_phi(r, t, p):
            return default_field.v_components(r, t, p)[2]

        for p in random_boundary_points(rng, 40, th_margin=0.3):
            closed = default_field.boundary_curl_theta(p.theta, p.phi)
            if abs(closed) <= 1e-3:
                continue
            fd = -oracle.fd_boundary_radial_derivative(v_phi, p.theta, p.phi)[0]
            assert fd == pytest.approx(closed, rel=1e-5)

    def test_phi_matches_radial_derivative_oracle(self, default_field):
        def v_theta(r, t, p):
            return default_field.v_components(r, t, p)[1]

        theta, phi = 5 * PI / 16, PI / 2
        closed = default_field.boundary_curl_phi(theta, phi)
        fd = oracle.fd_boundary_radial_derivative(v_theta, theta, phi)[0]
        assert abs(closed) > 1e-2
        assert fd == pytest.approx(closed, rel=1e-5)

    def test_phi_zero_on_plateau(self, default_field):
        # psi' = 0 at the equator, so g_theta and the closed form vanish
        closed = default_field.boundary_curl_phi(PI / 2, 1.0)
        assert closed == 0.0

        def v_theta(r, t, p):
            return default_field.v_components(r, t, p)[1]

        fd = oracle.fd_boundary_radial_derivative(v_theta, PI / 2, 1.0)[0]
        assert abs(fd) < 1e-8

    def test_both_vanish_for_h1zero(self, h1zero_field, rng):
        for p in random_boundary_points(rng, 50):
            assert h1zero_field.boundary_curl_theta(p.theta, p.phi) == 0.0
            assert h1zero_field.boundary_curl_phi(p.theta, p.phi) == 0.0


class TestScalingSymmetries:
    @pytest.mark.parametrize("lam", [2.0, -3.0, 0.5])
    def test_linearity_in_profile(self, default_field, rng, lam):
        scaled = fam.CounterexampleField(scaled_profile(lam), fam.default_angular())
        r, th, ph = (np.array(a) for a in zip(*[
            (p.r, p.theta, p.phi) for p in random_admissible_points(rng, 50)]))
        for base_c, scaled_c in zip(default_field.u_components(r, th, ph),
                                    scaled.u_components(r, th, ph)):
            np.testing.assert_allclose(scaled_c, lam * base_c, rtol=1e-10, atol=1e-300)
        for base_c, scaled_c in zip(default_field.omega_components(r, th, ph),
                                    scaled.omega_components(r, th, ph)):
            np.testing.assert_allclose(scaled_c, lam * base_c, rtol=1e-10, atol=1e-300)
        for base_c, scaled_c in zip(default_field.v_components(r, th, ph),
                                    scaled.v_components(r, th, ph)):
            np.testing.assert_allclose(scaled_c, lam**2 * base_c, rtol=1e-10, atol=1e-300)
        thb, phb = th[:20], ph[:20]
        np.testing.assert_allclose(scaled.boundary_curl_theta(thb, phb),
                                   lam**2 * default_field.boundary_curl_theta(thb, phb),
                                   rtol=1e-10, atol=1e-300)
        np.testing.assert_allclose(scaled.boundary_curl_phi(thb, phb),
                                   lam**2 * default_field.boundary_curl_phi(thb, phb),
                                   rtol=1e-10, atol=1e-300)

    def test_azimuthal_equivariance(self, default_field, rng):
        c = 0.8371
        shifted = fam.CounterexampleField(
            fam.default_profile(),
            fam.AngularFunction(
                lambda th, ph, order: kernels.default_angular_jet(th, ph + c, order),
                PI / 4, "shifted"))
        for p in random_admissible_points(rng, 40):
            got = shifted.u_components(p.r, p.theta, p.phi)
            want = default_field.u_components(p.r, p.theta, p.phi + c)
            for a, b in zip(got, want):
                assert a == pytest.approx(b, abs=1e-12)
            got = shifted.omega_components(p.r, p.theta, p.phi)
            want = default_field.omega_components(p.r, p.theta, p.phi + c)
            for a, b in zip(got, want):
                assert a == pytest.approx(b, abs=1e-12)


class TestAdmissibility:
    def test_default_family(self, default_field):
        rep = default_field.admissibility
        assert rep.slip_condition_residual <= 1e-14
        assert rep.h1_value == 1.0 and rep.h1_nonzero
        assert rep.pole_margin_ok and rep.support_ok and rep.periodicity_ok
        assert rep.witness_a1 is not None and rep.witness_a2 is not None

    def test_chi_only_profile_fails_slip(self):
        f = fam.CounterexampleField(chi_only_profile(), fam.default_angular())
        assert f.admissibility.slip_condition_residual == pytest.approx(1.0, abs=1e-14)
        assert not f.admissibility.slip_ok

    def test_zero_angular_has_no_witness(self):
        f = fam.CounterexampleField(fam.default_profile(), fam.zero_angular())
        assert f.admissibility.witness_a1 is None
        assert f.admissibility.witness_a2 is None

    def test_h1zero_slips_but_h1_zero(self, h1zero_field):
        rep = h1zero_field.admissibility
        assert rep.slip_ok
        assert not rep.h1_nonzero

    def test_report_dict_keys_and_order(self, default_field):
        d = default_field.admissibility.to_dict()
        assert list(d) == ["slip_condition_residual", "h1_value", "h1_nonzero",
                           "pole_margin_ok", "support_ok", "periodicity_ok",
                           "witness_a1", "witness_a2"]
        for key in ("witness_a1", "witness_a2"):
            assert list(d[key]) == ["r", "theta", "phi"]
            assert all(type(v) is float for v in d[key].values())
        none = fam.CounterexampleField(fam.default_profile(), fam.zero_angular())
        assert none.admissibility.to_dict()["witness_a1"] is None


class TestWitnesses:
    def test_default_witnesses(self, default_field):
        w1, w2 = fam.find_witnesses(default_field)
        # strict non-vanishing of both factors at each witness
        a = default_field.angular
        for w, factor_idx in ((w1, 2), (w2, 1)):
            jet = a.jet(w.theta, w.phi)
            assert abs(jet[factor_idx]) > 0.0
            assert abs(big_g(a, w.theta, w.phi)) > 0.0
        g_p = a.jet(w1.theta, w1.phi)[2]
        big = big_g(a, w1.theta, w1.phi)
        assert abs(g_p * big) >= 0.4

    def test_a2_witness_in_transition_zone(self, default_field):
        _, w2 = fam.find_witnesses(default_field)
        in_rise = PI / 4 < w2.theta < 3 * PI / 8
        in_fall = 5 * PI / 8 < w2.theta < 3 * PI / 4
        assert in_rise or in_fall

    def test_zero_angular_raises(self):
        f = fam.CounterexampleField(fam.default_profile(), fam.zero_angular())
        with pytest.raises(NoWitness):
            fam.find_witnesses(f)

    def test_grid_minimum(self, default_field):
        with pytest.raises(ValueError):
            fam.find_witnesses(default_field, n_theta=8, n_phi=8)


class TestFamilyLabels:
    def test_builtin_labels(self):
        assert fam.family_by_label("default").label == "default"
        assert fam.family_by_label("h1zero").label == "h1zero"
        f = fam.family_by_label("perturbed:0.001")
        assert f.admissibility.slip_condition_residual == pytest.approx(5e-4, rel=1e-10)

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            fam.family_by_label("nonsense")
        with pytest.raises(ValueError):
            fam.family_by_label("perturbed:xyz")

    @pytest.mark.parametrize("eps", ["inf", "-inf", "nan"])
    def test_non_finite_perturbation_rejected(self, eps):
        with pytest.raises(ValueError, match="finite"):
            fam.family_by_label(f"perturbed:{eps}")
        with pytest.raises(ValueError, match="finite"):
            fam.perturbed_profile(float(eps))

    @pytest.mark.parametrize("eps", ["1e308", "-1e308", "8.99e307"])
    def test_overflowing_perturbation_rejected(self, eps):
        # 2 eps, the factor's second derivative, overflows; rejected before
        # any evaluation, so no numpy warning
        with pytest.raises(ValueError, match=f"'perturbed:{eps}' must be finite"):
            fam.family_by_label(f"perturbed:{eps}")

    def test_largest_perturbation_builds(self):
        f = fam.family_by_label("perturbed:8.98e307")
        assert f.admissibility.support_ok

    def test_perturbed_residual_linear(self):
        for eps in (1e-1, 1e-3):
            f = fam.family_by_label(f"perturbed:{eps}")
            assert f.admissibility.slip_condition_residual == pytest.approx(
                eps / 2, rel=1e-12)
