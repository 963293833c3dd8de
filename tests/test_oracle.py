"""Finite-difference oracle: stencils, convergence, independent curl paths."""
import math

import numpy as np
import pytest

from slipball import family as fam
from slipball import oracle, sphcalc
from slipball.errors import StencilOutOfDomain
from slipball.oracle import FDConfig
from slipball.sphcalc import SphPoint, SphVec
from tests_support import random_admissible_points

PI = math.pi


def rigid_rotation(p):
    return SphVec(0.0, 0.0, p.r * math.sin(p.theta))


class TestFdPartial:
    def test_radial_polynomial(self):
        d = oracle.fd_partial(lambda q: q.r**2, SphPoint(0.5, 1.0, 0.0), "r")
        assert d == pytest.approx(1.0, abs=1e-8)

    def test_azimuthal_sine(self):
        d = oracle.fd_partial(lambda q: math.sin(q.phi), SphPoint(0.5, 1.0, 0.0), "phi")
        assert d == pytest.approx(1.0, abs=1e-8)

    def test_one_sided_at_boundary(self, default_field):
        h = lambda q: default_field.profile.jet(q.r)[0]
        d = oracle.fd_partial(h, SphPoint(1.0, 1.0, 0.0), "r")
        assert d == pytest.approx(-1.0, abs=1e-6)

    def test_polar_derivative(self):
        d = oracle.fd_partial(lambda q: math.cos(q.theta), SphPoint(0.5, 0.9, 0.0), "theta")
        assert d == pytest.approx(-math.sin(0.9), abs=1e-8)

    def test_richardson_improves(self):
        f = lambda q: math.exp(1.0 - q.r)
        p = SphPoint(0.7, 1.0, 0.0)
        exact = -math.exp(0.3)
        plain = oracle.fd_partial(f, p, "r", FDConfig(step=1e-3, richardson=False))
        rich = oracle.fd_partial(f, p, "r", FDConfig(step=1e-3, richardson=True))
        assert abs(rich - exact) < abs(plain - exact)

    def test_stencil_guards(self):
        f = lambda q: q.r
        with pytest.raises(StencilOutOfDomain):
            oracle.fd_partial(f, SphPoint(1e-4, 1.0, 0.0), "r", FDConfig(step=1e-4))
        with pytest.raises(StencilOutOfDomain):
            oracle.fd_partial(f, SphPoint(0.5, 1e-4, 0.0), "theta", FDConfig(step=1e-4))
        with pytest.raises(ValueError):
            oracle.fd_partial(f, SphPoint(0.5, 1.0, 0.0), "lambda")

    def test_step_validation(self):
        with pytest.raises(ValueError):
            FDConfig(step=0.5)
        with pytest.raises(ValueError):
            FDConfig(step=1e-9)


def smooth(r, t, p):
    """e^r sin(theta) cos(phi); its r-partial is itself."""
    return np.exp(r) * np.sin(t) * np.cos(p)


SMOOTH_PARTIALS = {"r": smooth,
                   "theta": lambda r, t, p: np.exp(r) * np.cos(t) * np.cos(p),
                   "phi": lambda r, t, p: -np.exp(r) * np.sin(t) * np.sin(p)}


class TestConvergenceOrder:
    def test_central_difference_is_second_order(self):
        # halving the step cuts the plain central-difference error ~4x
        f = lambda q: math.exp(1.0 - q.r)
        p = SphPoint(0.7, 1.0, 0.0)
        exact = -math.exp(0.3)
        e1 = abs(oracle.fd_partial(f, p, "r", FDConfig(step=1e-3, richardson=False)) - exact)
        e2 = abs(oracle.fd_partial(f, p, "r", FDConfig(step=5e-4, richardson=False)) - exact)
        assert 3.5 <= e1 / e2 <= 4.5

    @pytest.mark.parametrize("r, coordinate, richardson, ratio", [
        # the plain central r stencil is test_central_difference_is_second_order
        (0.7, "theta", False, 4.0), (0.7, "phi", False, 4.0),
        (0.7, "r", True, 16.0), (0.7, "theta", True, 16.0), (0.7, "phi", True, 16.0),
        # one-sided r = 1 stencil: Richardson cancels h^2 but not h^3
        (1.0, "r", False, 4.0), (1.0, "r", True, 8.0),
    ])
    def test_error_ratio_on_halving_the_step(self, r, coordinate, richardson, ratio):
        t, p = 1.1, 0.6
        exact = SMOOTH_PARTIALS[coordinate](r, t, p)
        e1, e2 = (abs(oracle.fd_partial_grid(smooth, r, t, p, coordinate,
                                             FDConfig(step=s, richardson=richardson))[0]
                      - exact) for s in (1e-2, 5e-3))
        assert e1 / e2 == pytest.approx(ratio, rel=0.1)


class TestSphericalCurl:
    def test_rigid_rotation(self):
        p = SphPoint(0.6, 1.1, 2.0)
        c = oracle.fd_curl_spherical(rigid_rotation, p)
        assert c.vr == pytest.approx(2 * math.cos(p.theta), abs=1e-6)
        assert c.vtheta == pytest.approx(-2 * math.sin(p.theta), abs=1e-6)
        assert c.vphi == pytest.approx(0.0, abs=1e-6)

    def test_counterexample_matches_closed_form(self, default_field):
        p = SphPoint(0.9, PI / 2, PI / 4)
        c = oracle.fd_curl_spherical(lambda q: fam.u_field(default_field, q), p)
        w = fam.omega_field(default_field, p)
        assert c.vr == pytest.approx(w.vr, rel=1e-5, abs=1e-8)
        assert c.vtheta == pytest.approx(w.vtheta, rel=1e-5, abs=1e-8)
        assert c.vphi == pytest.approx(w.vphi, rel=1e-5, abs=1e-8)

    def test_gradient_field_is_curl_free(self):
        # grad(r^2 cos theta) = (2 r cos, -r sin, 0)
        def grad_field(p):
            return SphVec(2 * p.r * math.cos(p.theta), -p.r * math.sin(p.theta), 0.0)

        c = oracle.fd_curl_spherical(grad_field, SphPoint(0.5, 1.0, 0.3))
        assert c.norm() < 1e-6


class TestCartesianCurl:
    def test_rigid_rotation(self):
        p = SphPoint(0.5, 1.0, 0.5)
        c = oracle.cartesian_curl(rigid_rotation, p)
        assert c.vr == pytest.approx(2 * math.cos(p.theta), abs=1e-5)
        assert c.vtheta == pytest.approx(-2 * math.sin(p.theta), abs=1e-5)
        assert c.vphi == pytest.approx(0.0, abs=1e-5)

    def test_default_family_matches_closed_form(self, default_field, rng):
        for p in random_admissible_points(rng, 50, r_hi=0.9, th_margin=0.15):
            c = oracle.cartesian_curl(lambda q: fam.u_field(default_field, q), p)
            w = fam.omega_field(default_field, p)
            assert abs(c.vr - w.vr) < 1e-4
            assert abs(c.vtheta - w.vtheta) < 1e-4
            assert abs(c.vphi - w.vphi) < 1e-4

    def test_constant_field(self):
        const = np.array([0.3, -1.2, 0.7])

        def field(p):
            return sphcalc.vec_from_cartesian(p, const)

        c = oracle.cartesian_curl(field, SphPoint(0.5, 1.2, 4.0))
        assert c.norm() < 1e-8

    def test_two_curl_paths_agree(self, default_field, rng):
        u = lambda q: fam.u_field(default_field, q)
        for p in random_admissible_points(rng, 50, r_hi=0.9, th_margin=0.15):
            a = oracle.fd_curl_spherical(u, p)
            b = oracle.cartesian_curl(u, p)
            assert abs(a.vr - b.vr) < 1e-4
            assert abs(a.vtheta - b.vtheta) < 1e-4
            assert abs(a.vphi - b.vphi) < 1e-4

    def test_stencil_guards(self):
        u = rigid_rotation
        with pytest.raises(StencilOutOfDomain):
            oracle.cartesian_curl(u, SphPoint(0.99999, 1.0, 0.0))
        with pytest.raises(StencilOutOfDomain):
            oracle.cartesian_curl(u, SphPoint(0.5, 1e-4, 0.0))


class TestCartesianDivergence:
    def test_radial_identity_field(self):
        def field(p):
            return SphVec(p.r, 0.0, 0.0)

        d = oracle.cartesian_divergence(field, SphPoint(0.4, 1.0, 2.0))
        assert d == pytest.approx(3.0, abs=1e-7)

    def test_default_family(self, default_field, rng):
        for p in random_admissible_points(rng, 20, r_hi=0.9, th_margin=0.15):
            d = oracle.cartesian_divergence(lambda q: fam.u_field(default_field, q), p)
            assert abs(d) < 1e-6


class TestRelativeAgreement:
    def test_operators_match_cartesian_path_to_1e5_relative(self, default_field, rng):
        # interior lattice away from margins; relative agreement where the
        # component magnitude is significant, absolute agreement elsewhere
        r = np.linspace(0.3, 0.9, 5)
        th = np.linspace(0.6, PI - 0.6, 6)
        ph = np.linspace(0.0, 2 * PI, 7, endpoint=False)
        R, T, P = (a.ravel() for a in np.meshgrid(r, th, ph, indexing="ij"))
        for p in (SphPoint(*t) for t in zip(R, T, P)):
            w = fam.omega_field(default_field, p)
            c = oracle.cartesian_curl(lambda q: fam.u_field(default_field, q), p)
            for a, b in ((w.vr, c.vr), (w.vtheta, c.vtheta), (w.vphi, c.vphi)):
                if abs(a) >= 1e-3:
                    assert abs(a - b) / abs(a) <= 1e-5
                else:
                    assert abs(a - b) <= 1e-6
            d = oracle.cartesian_divergence(lambda q: fam.u_field(default_field, q), p)
            assert abs(d) <= 1e-6


class TestBoundaryRadialDerivative:
    def test_constant(self):
        # (1/r) d_r(r c) = c/r = c at r = 1
        d = oracle.fd_boundary_radial_derivative(lambda q: 2.5, 1.0, 0.3)
        assert d == pytest.approx(2.5, abs=1e-9)

    def test_inverse_radius(self):
        d = oracle.fd_boundary_radial_derivative(lambda q: 1.0 / q.r, 1.0, 0.3)
        assert d == pytest.approx(0.0, abs=1e-9)

    def test_v_phi_of_default_family(self, default_field):
        def v_phi(q):
            return default_field.v_components(q.r, q.theta, q.phi)[2]

        d = oracle.fd_boundary_radial_derivative(v_phi, PI / 2, PI / 4)
        assert d == pytest.approx(1.0, abs=1e-4)
