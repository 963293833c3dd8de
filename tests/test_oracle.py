"""Finite-difference oracle: stencils, convergence, independent curl paths."""
import math

import numpy as np
import pytest

from slipball import oracle
from slipball.errors import StencilOutOfDomain
from slipball.oracle import FDConfig
from tests_support import random_admissible_nodes

PI = math.pi


def rigid_rotation(r, t, p):
    z = np.zeros_like(r)
    return z, z, r * np.sin(t)


def norm(v):
    return np.sqrt(v[0] ** 2 + v[1] ** 2 + v[2] ** 2)


class TestFdPartial:
    def test_radial_polynomial(self):
        d = oracle.fd_partial(lambda r, t, p: r**2, 0.5, 1.0, 0.0, "r")[0]
        assert d == pytest.approx(1.0, abs=1e-8)

    def test_azimuthal_sine(self):
        d = oracle.fd_partial(lambda r, t, p: np.sin(p), 0.5, 1.0, 0.0, "phi")[0]
        assert d == pytest.approx(1.0, abs=1e-8)

    def test_one_sided_at_boundary(self, default_field):
        h = lambda r, t, p: default_field.profile.jet(r)[0]
        d = oracle.fd_partial(h, 1.0, 1.0, 0.0, "r")[0]
        assert d == pytest.approx(-1.0, abs=1e-6)

    def test_polar_derivative(self):
        d = oracle.fd_partial(lambda r, t, p: np.cos(t), 0.5, 0.9, 0.0, "theta")[0]
        assert d == pytest.approx(-math.sin(0.9), abs=1e-8)

    def test_richardson_improves(self):
        f = lambda r, t, p: np.exp(1.0 - r)
        exact = -math.exp(0.3)
        plain = oracle.fd_partial(f, 0.7, 1.0, 0.0, "r", FDConfig(step=1e-3, richardson=False))
        rich = oracle.fd_partial(f, 0.7, 1.0, 0.0, "r", FDConfig(step=1e-3, richardson=True))
        assert abs(rich[0] - exact) < abs(plain[0] - exact)

    def test_stencil_guards(self):
        f = lambda r, t, p: r
        with pytest.raises(StencilOutOfDomain):
            oracle.fd_partial(f, 1e-4, 1.0, 0.0, "r", FDConfig(step=1e-4))
        with pytest.raises(StencilOutOfDomain):
            oracle.fd_partial(f, 0.5, 1e-4, 0.0, "theta", FDConfig(step=1e-4))
        with pytest.raises(ValueError):
            oracle.fd_partial(f, 0.5, 1.0, 0.0, "lambda")

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
        f = lambda r, t, p: np.exp(1.0 - r)
        exact = -math.exp(0.3)
        e1, e2 = (abs(oracle.fd_partial(f, 0.7, 1.0, 0.0, "r",
                                        FDConfig(step=s, richardson=False))[0] - exact)
                  for s in (1e-3, 5e-4))
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
        e1, e2 = (abs(oracle.fd_partial(smooth, r, t, p, coordinate,
                                        FDConfig(step=s, richardson=richardson))[0]
                      - exact) for s in (1e-2, 5e-3))
        assert e1 / e2 == pytest.approx(ratio, rel=0.1)


class TestSphericalCurl:
    def test_rigid_rotation(self):
        r, theta, phi = 0.6, 1.1, 2.0
        cr, ct, cp = oracle.fd_curl_spherical(rigid_rotation, r, theta, phi)
        assert cr[0] == pytest.approx(2 * math.cos(theta), abs=1e-6)
        assert ct[0] == pytest.approx(-2 * math.sin(theta), abs=1e-6)
        assert cp[0] == pytest.approx(0.0, abs=1e-6)

    def test_counterexample_matches_closed_form(self, default_field):
        node = (0.9, PI / 2, PI / 4)
        c = oracle.fd_curl_spherical(default_field.u_components, *node)
        w = default_field.omega_components(*node)
        for k in range(3):
            assert c[k][0] == pytest.approx(w[k], rel=1e-5, abs=1e-8)

    def test_gradient_field_is_curl_free(self):
        # grad(r^2 cos theta) = (2 r cos, -r sin, 0)
        def grad_field(r, t, p):
            return 2 * r * np.cos(t), -r * np.sin(t), np.zeros_like(r)

        c = oracle.fd_curl_spherical(grad_field, 0.5, 1.0, 0.3)
        assert norm(c)[0] < 1e-6


def constant_cartesian_field(w):
    """The constant Cartesian vector w in the local spherical basis."""
    def fn(r, t, p):
        st, ct, sp, cp = np.sin(t), np.cos(t), np.sin(p), np.cos(p)
        return (w[0] * st * cp + w[1] * st * sp + w[2] * ct,
                w[0] * ct * cp + w[1] * ct * sp - w[2] * st,
                -w[0] * sp + w[1] * cp)
    return fn


class TestCartesianCurl:
    def test_rigid_rotation(self):
        r, theta, phi = 0.5, 1.0, 0.5
        cr, ct, cp = oracle.cartesian_curl_grid(rigid_rotation, r, theta, phi)
        assert cr[0] == pytest.approx(2 * math.cos(theta), abs=1e-5)
        assert ct[0] == pytest.approx(-2 * math.sin(theta), abs=1e-5)
        assert cp[0] == pytest.approx(0.0, abs=1e-5)

    def test_default_family_matches_closed_form(self, default_field, rng):
        nodes = random_admissible_nodes(rng, 50, r_hi=0.9, th_margin=0.15)
        c = oracle.cartesian_curl_grid(default_field.u_components, *nodes)
        w = default_field.omega_components(*nodes)
        for k in range(3):
            assert np.all(np.abs(c[k] - w[k]) < 1e-4)

    def test_constant_field(self):
        field = constant_cartesian_field(np.array([0.3, -1.2, 0.7]))
        c = oracle.cartesian_curl_grid(field, 0.5, 1.2, 4.0)
        assert norm(c)[0] < 1e-8

    def test_two_curl_paths_agree(self, default_field, rng):
        nodes = random_admissible_nodes(rng, 50, r_hi=0.9, th_margin=0.15)
        a = oracle.fd_curl_spherical(default_field.u_components, *nodes)
        b = oracle.cartesian_curl_grid(default_field.u_components, *nodes)
        for k in range(3):
            assert np.all(np.abs(a[k] - b[k]) < 1e-4)

    def test_stencil_guards(self):
        cfg = FDConfig(1e-4, True)  # the step these nodes are too close for
        with pytest.raises(StencilOutOfDomain):
            oracle.cartesian_curl_grid(rigid_rotation, 0.99999, 1.0, 0.0, cfg)
        with pytest.raises(StencilOutOfDomain):
            oracle.cartesian_curl_grid(rigid_rotation, 0.5, 1e-4, 0.0, cfg)


class TestCartesianDivergence:
    def test_radial_identity_field(self):
        def field(r, t, p):
            z = np.zeros_like(r)
            return r, z, z

        d = oracle.cartesian_divergence_grid(field, 0.4, 1.0, 2.0)
        assert d[0] == pytest.approx(3.0, abs=1e-7)

    def test_default_family(self, default_field, rng):
        nodes = random_admissible_nodes(rng, 20, r_hi=0.9, th_margin=0.15)
        d = oracle.cartesian_divergence_grid(default_field.u_components, *nodes)
        assert np.all(np.abs(d) < 1e-6)


class TestRelativeAgreement:
    def test_operators_match_cartesian_path_to_1e5_relative(self, default_field, rng):
        # interior lattice away from margins; relative agreement where the
        # component magnitude is significant, absolute agreement elsewhere
        r = np.linspace(0.3, 0.9, 5)
        th = np.linspace(0.6, PI - 0.6, 6)
        ph = np.linspace(0.0, 2 * PI, 7, endpoint=False)
        nodes = [a.ravel() for a in np.meshgrid(r, th, ph, indexing="ij")]
        w = default_field.omega_components(*nodes)
        c = oracle.cartesian_curl_grid(default_field.u_components, *nodes)
        for a, b in zip(w, c):
            big = np.abs(a) >= 1e-3
            assert np.all(np.abs(a - b)[big] / np.abs(a)[big] <= 1e-5)
            assert np.all(np.abs(a - b)[~big] <= 1e-6)
        d = oracle.cartesian_divergence_grid(default_field.u_components, *nodes)
        assert np.all(np.abs(d) <= 1e-6)


class TestBoundaryRadialDerivative:
    def test_constant(self):
        # (1/r) d_r(r c) = c/r = c at r = 1
        d = oracle.fd_boundary_radial_derivative(lambda r, t, p: np.full_like(r, 2.5),
                                                 1.0, 0.3)
        assert d[0] == pytest.approx(2.5, abs=1e-9)

    def test_inverse_radius(self):
        d = oracle.fd_boundary_radial_derivative(lambda r, t, p: 1.0 / r, 1.0, 0.3)
        assert d[0] == pytest.approx(0.0, abs=1e-9)

    def test_v_phi_of_default_family(self, default_field):
        def v_phi(r, t, p):
            return default_field.v_components(r, t, p)[2]

        d = oracle.fd_boundary_radial_derivative(v_phi, PI / 2, PI / 4)
        assert d[0] == pytest.approx(1.0, abs=1e-4)

        # the same bits as fd_partial on the nodes normalised beforehand, as
        # float64 arrays of one shape with r = 1 at each
        def on_arrays(theta, phi):
            theta, phi = (np.atleast_1d(np.asarray(a, dtype=np.float64))
                          for a in np.broadcast_arrays(theta, phi))
            return oracle.fd_partial(lambda r, t, p: r * v_phi(r, t, p),
                                     np.ones_like(theta), theta, phi, "r")

        rng = np.random.default_rng(11)
        nodes = (rng.uniform(0.3, PI - 0.3, 200), rng.uniform(0.0, 2.0 * PI, 200))
        for theta, phi in (nodes, (PI / 2, PI / 4)):
            got = oracle.fd_boundary_radial_derivative(v_phi, theta, phi)
            want = on_arrays(theta, phi)
            assert got.shape == want.shape == np.shape(np.atleast_1d(theta))
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
