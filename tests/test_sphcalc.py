"""Coordinate geometry, basis algebra, and the operator kernels at one point.

The operators and transforms are the array kernels (kernels.divergence_parts,
curl_parts, cross_tangential, sph_to_cart / cart_to_sph, vec_sph_to_cart /
vec_cart_to_sph), fed here with one node's floats.
"""
import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slipball import kernels, oracle
from slipball.sphcalc import SphPoint

PI = math.pi

radii = st.floats(min_value=1e-6, max_value=1.05)
colats = st.floats(min_value=1e-6, max_value=PI - 1e-6)
lons = st.floats(min_value=0.0, max_value=2 * PI, exclude_max=True)
comps = st.floats(min_value=-10.0, max_value=10.0)


class TestPointConversions:
    @pytest.mark.parametrize("p,xyz", [
        (SphPoint(1, PI / 2, 0), (1, 0, 0)),
        (SphPoint(1, 0, 2.7), (0, 0, 1)),
        (SphPoint(0.5, PI / 2, PI / 2), (0, 0.5, 0)),
    ])
    def test_axis_points(self, p, xyz):
        np.testing.assert_allclose(kernels.sph_to_cart(p.r, p.theta, p.phi), xyz, atol=1e-15)

    @given(radii, colats, lons)
    @settings(max_examples=150, deadline=None)
    def test_round_trip(self, r, theta, phi):
        p = SphPoint(r, theta, phi)
        q = SphPoint(*kernels.cart_to_sph(*kernels.sph_to_cart(p.r, p.theta, p.phi)))
        assert abs(q.r - r) < 1e-12
        assert abs(q.theta - theta) < 1e-12
        assert min(abs(q.phi - phi), 2 * PI - abs(q.phi - phi)) < 1e-12 / max(math.sin(theta), 1e-6)

    @given(radii, colats, lons)
    @settings(max_examples=100, deadline=None)
    def test_radius_preserved(self, r, theta, phi):
        x, y, z = kernels.sph_to_cart(r, theta, phi)
        assert math.sqrt(x * x + y * y + z * z) == pytest.approx(r, rel=1e-12)

    def test_phi_normalization(self):
        assert SphPoint(1, 1, -PI / 2).phi == pytest.approx(3 * PI / 2)
        assert SphPoint(1, 1, 2 * PI).phi == 0.0
        assert SphPoint(1, 1, 5 * PI).phi == pytest.approx(PI)

    def test_invalid_coordinates_rejected(self):
        with pytest.raises(ValueError):
            SphPoint(-0.5, 1.0, 0.0)
        with pytest.raises(ValueError):
            SphPoint(0.5, 4.0, 0.0)

    @pytest.mark.parametrize("coords", [(math.nan, 1.0, 0.0), (0.5, math.nan, 0.0),
                                        (0.5, 1.0, math.nan), (math.inf, 1.0, 0.0),
                                        (0.5, 1.0, -math.inf)])
    def test_non_finite_coordinates_rejected(self, coords):
        with pytest.raises(ValueError, match="non-finite"):
            SphPoint(*coords)


def ref_sphpoint_coords(r, theta, phi):
    """The scalar normaliser SphPoint held before it shared the oracles' one."""
    r, theta, phi = float(r), float(theta), float(phi)
    if not (math.isfinite(r) and math.isfinite(theta) and math.isfinite(phi)):
        raise ValueError("non-finite coordinate")
    if r < -1e-12:
        raise ValueError("negative radius")
    if theta < -1e-12 or theta > PI + 1e-12:
        raise ValueError("colatitude out of range")
    phi = phi % (2.0 * PI)
    if phi == 2.0 * PI:
        phi = 0.0
    return max(r, 0.0), min(max(theta, 0.0), PI), phi


_TWO_PI_DOWN = math.nextafter(2 * PI, 0.0)
_SLACK = 1e-12


def _near(*values):
    # exact edge values, values around them, and any float (NaN and inf too)
    return st.one_of(st.sampled_from(values),
                     st.floats(min_value=-2 * _SLACK, max_value=2 * _SLACK),
                     st.floats())


class TestSharedNormaliser:
    @given(_near(0.0, -0.0, -_SLACK, -_SLACK / 2, math.nextafter(-_SLACK, -1.0), 0.5),
           _near(0.0, -0.0, -_SLACK, PI, PI + _SLACK, math.nextafter(PI + _SLACK, 4.0),
                 math.nextafter(-_SLACK, -1.0), 1.0),
           _near(-0.0, -1e-300, -5e-324, _TWO_PI_DOWN, 2 * PI, -_TWO_PI_DOWN, -PI, 7.0,
                 -7.5, 1e20))
    @example(-0.0, -0.0, -0.0)
    @example(0.5, PI + _SLACK, _TWO_PI_DOWN)
    @example(0.5, -_SLACK, -1e-300)
    @example(0.5, 1.0, math.nan)
    @settings(max_examples=400, deadline=None)
    def test_sphpoint_agrees_with_the_scalar_normaliser(self, r, theta, phi):
        try:
            want = ref_sphpoint_coords(r, theta, phi)
        except ValueError:
            with pytest.raises(ValueError):
                SphPoint(r, theta, phi)
            return
        p = SphPoint(r, theta, phi)
        got = (p.r, p.theta, p.phi)
        assert all(type(c) is float for c in got)
        # bit for bit, so signed zeros count
        assert [c.hex() for c in got] == [c.hex() for c in want]


def basis_at(p):
    """(e_r, e_theta, e_phi) at p: the kernel rotation of the unit vectors."""
    return np.transpose(kernels.vec_sph_to_cart(p.theta, p.phi, *np.eye(3)))


class TestBasis:
    def test_equator_phi0(self):
        e_r, e_t, e_p = basis_at(SphPoint(1, PI / 2, 0))
        np.testing.assert_allclose(e_r, [1, 0, 0], atol=1e-15)
        np.testing.assert_allclose(e_t, [0, 0, -1], atol=1e-15)
        np.testing.assert_allclose(e_p, [0, 1, 0], atol=1e-15)

    def test_equator_phi90(self):
        e_r, e_t, e_p = basis_at(SphPoint(1, PI / 2, PI / 2))
        np.testing.assert_allclose(e_r, [0, 1, 0], atol=1e-15)
        np.testing.assert_allclose(e_t, [0, 0, -1], atol=1e-15)
        np.testing.assert_allclose(e_p, [-1, 0, 0], atol=1e-15)

    @given(colats, lons)
    @settings(max_examples=100, deadline=None)
    def test_orthonormal_right_handed(self, theta, phi):
        e_r, e_t, e_p = basis_at(SphPoint(0.7, theta, phi))
        for a in (e_r, e_t, e_p):
            assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)
        assert abs(e_r @ e_t) < 1e-12 and abs(e_r @ e_p) < 1e-12 and abs(e_t @ e_p) < 1e-12
        np.testing.assert_allclose(np.cross(e_r, e_t), e_p, atol=1e-12)


def vec_to_cartesian(p, v):
    return np.array(kernels.vec_sph_to_cart(p.theta, p.phi, *v))


class TestVecConversions:
    def test_basis_image(self):
        p = SphPoint(0.8, PI / 3, 1.1)
        st = math.sin(p.theta)
        np.testing.assert_allclose(vec_to_cartesian(p, (1, 0, 0)),
                                   [st * math.cos(p.phi), st * math.sin(p.phi),
                                    math.cos(p.theta)], atol=1e-15)

    def test_round_trip(self):
        p = SphPoint(0.8, PI / 3, 1.1)
        v = (0.3, -0.7, 0.2)
        w = kernels.vec_cart_to_sph(p.theta, p.phi, *vec_to_cartesian(p, v))
        assert abs(w[0] - v[0]) < 1e-12
        assert abs(w[1] - v[1]) < 1e-12
        assert abs(w[2] - v[2]) < 1e-12

    def test_isometry(self):
        w = vec_to_cartesian(SphPoint(0.5, 1.0, 2.0), (3, 4, 0))
        assert np.linalg.norm(w) == pytest.approx(5.0, rel=1e-12)

    @given(colats, lons, comps, comps, comps)
    @settings(max_examples=100, deadline=None)
    def test_norm_invariant(self, theta, phi, a, b, c):
        w = vec_to_cartesian(SphPoint(0.9, theta, phi), (a, b, c))
        assert np.linalg.norm(w) == pytest.approx(math.sqrt(a * a + b * b + c * c),
                                                  rel=1e-12, abs=1e-12)


class Jet(NamedTuple):
    """Value and raw-coordinate partials of a scalar at a point."""

    value: float
    d_r: float = 0.0
    d_theta: float = 0.0
    d_phi: float = 0.0
    d_rr: float = 0.0
    d_rtheta: float = 0.0
    d_rphi: float = 0.0
    d_thetatheta: float = 0.0
    d_thetaphi: float = 0.0
    d_phiphi: float = 0.0


# math.sin and math.cos, as one node's floats
def divergence(p, jets):
    """kernels.divergence_parts from the jets of (u_r, u_theta, u_phi)."""
    jr, jt, jp = jets
    return kernels.divergence_parts(p.r, math.sin(p.theta), math.cos(p.theta),
                                    jr.value, jr.d_r, jt.value, jt.d_theta, jp.d_phi)


def curl(p, jets):
    """kernels.curl_parts from the jets of (u_r, u_theta, u_phi)."""
    jr, jt, jp = jets
    return kernels.curl_parts(p.r, math.sin(p.theta), math.cos(p.theta),
                              jr.d_theta, jr.d_phi, jt.value, jt.d_r, jt.d_phi,
                              jp.value, jp.d_r, jp.d_theta)


def jets_constant_ez(p):
    """Jets of the constant Cartesian field e_z in spherical components."""
    st_, ct = math.sin(p.theta), math.cos(p.theta)
    return (Jet(ct, d_theta=-st_),
            Jet(-st_, d_theta=-ct),
            Jet(0.0))


class TestDivergence:
    def test_constant_field(self):
        p = SphPoint(0.5, PI / 3, 0.2)
        assert divergence(p, jets_constant_ez(p)) == pytest.approx(0.0, abs=1e-12)

    def test_radial_identity_field(self):
        # u = r e_r has divergence 3 everywhere
        p = SphPoint(0.37, 1.1, 2.9)
        jets = (Jet(p.r, d_r=1.0), Jet(0.0), Jet(0.0))
        assert divergence(p, jets) == pytest.approx(3.0, rel=1e-14)


def jets_rigid_rotation(p):
    """u = r sin(theta) e_phi: rigid rotation about the z axis."""
    st_ = math.sin(p.theta)
    return (Jet(0.0), Jet(0.0),
            Jet(p.r * st_, d_r=st_, d_theta=p.r * math.cos(p.theta)))


class TestCurl:
    def test_constant_field(self):
        p = SphPoint(0.6, 0.9, 1.4)
        c = curl(p, jets_constant_ez(p))
        assert math.hypot(*c) < 1e-14

    def test_rigid_rotation(self):
        p = SphPoint(0.77, 1.234, 4.0)
        cr, ctheta, cphi = curl(p, jets_rigid_rotation(p))
        assert cr == pytest.approx(2 * math.cos(p.theta), rel=1e-13)
        assert ctheta == pytest.approx(-2 * math.sin(p.theta), rel=1e-13)
        assert cphi == pytest.approx(0.0, abs=1e-14)


class TestCrossDot:
    # kernels.cross_tangential(a_theta, a_phi, b_r, b_theta, b_phi) is a x b
    # for a tangential a, in the local basis
    def test_orientation(self):
        # e_theta x e_phi = e_r
        assert kernels.cross_tangential(1.0, 0.0, 0.0, 0.0, 1.0) == (1.0, 0.0, 0.0)

    def test_self_cross_vanishes(self):
        a = (-1.2, 4.0)
        assert math.hypot(*kernels.cross_tangential(*a, 0.0, *a)) == 0.0

    def test_boundary_trace_rotation(self):
        # a x n with n = e_r swaps the tangential components
        assert kernels.cross_tangential(2.0, 3.0, 1.0, 0.0, 0.0) == (0.0, 3.0, -2.0)

    @given(*(comps,) * 5)
    @settings(max_examples=100, deadline=None)
    def test_antisymmetry_and_orthogonality(self, a2, a3, b1, b2, b3):
        c = kernels.cross_tangential(a2, a3, b1, b2, b3)
        cba = kernels.cross_tangential(b2, b3, 0.0, a2, a3)
        tangential = kernels.cross_tangential(a2, a3, 0.0, b2, b3)
        assert tangential == tuple(-x for x in cba)
        a, b = np.array([0.0, a2, a3]), np.array([b1, b2, b3])
        assert abs(np.dot(c, a)) < 1e-12 * max(1.0, np.linalg.norm(a) ** 2 * np.linalg.norm(b))
        # the local basis is right-handed: the same product as in Cartesian components
        np.testing.assert_allclose(c, np.cross(a, b), rtol=0, atol=1e-12 * max(
            1.0, np.linalg.norm(a) * np.linalg.norm(b)))


# scalar fields with hand-written spherical jets, for the operator identities
def jet_height(p):
    st_, ct = math.sin(p.theta), math.cos(p.theta)
    return Jet(p.r * ct, d_r=ct, d_theta=-p.r * st_, d_rtheta=-st_,
               d_thetatheta=-p.r * ct)


def jet_r_squared(p):
    return Jet(p.r**2, d_r=2 * p.r, d_rr=2.0)


def jet_x(p):
    st_, ct = math.sin(p.theta), math.cos(p.theta)
    sp, cp = math.sin(p.phi), math.cos(p.phi)
    return Jet(p.r * st_ * cp, d_r=st_ * cp, d_theta=p.r * ct * cp,
               d_phi=-p.r * st_ * sp, d_rtheta=ct * cp, d_rphi=-st_ * sp,
               d_thetatheta=-p.r * st_ * cp, d_thetaphi=-p.r * ct * sp,
               d_phiphi=-p.r * st_ * cp)


def jet_xy(p):
    st_, ct = math.sin(p.theta), math.cos(p.theta)
    s2p, c2p = math.sin(2 * p.phi), math.cos(2 * p.phi)
    s2t, c2t = math.sin(2 * p.theta), math.cos(2 * p.theta)
    return Jet(
        0.5 * p.r**2 * st_**2 * s2p,
        d_r=p.r * st_**2 * s2p,
        d_theta=0.5 * p.r**2 * s2t * s2p,
        d_phi=p.r**2 * st_**2 * c2p,
        d_rr=st_**2 * s2p,
        d_rtheta=p.r * s2t * s2p,
        d_rphi=2 * p.r * st_**2 * c2p,
        d_thetatheta=p.r**2 * c2t * s2p,
        d_thetaphi=p.r**2 * s2t * c2p,
        d_phiphi=-2 * p.r**2 * st_**2 * s2p,
    )


def gradient_component_jets(p, jet):
    """First-order jets of the three gradient components
    grad f = f_r e_r + (1/r) f_t e_t + (1/(r sin)) f_p e_p, from a full jet."""
    st_, ct = math.sin(p.theta), math.cos(p.theta)
    r = p.r
    j_r = Jet(jet.d_r, d_r=jet.d_rr, d_theta=jet.d_rtheta, d_phi=jet.d_rphi)
    j_t = Jet(jet.d_theta / r,
              d_r=jet.d_rtheta / r - jet.d_theta / r**2,
              d_theta=jet.d_thetatheta / r,
              d_phi=jet.d_thetaphi / r)
    j_p = Jet(jet.d_phi / (r * st_),
              d_r=jet.d_rphi / (r * st_) - jet.d_phi / (r**2 * st_),
              d_theta=jet.d_thetaphi / (r * st_) - jet.d_phi * ct / (r * st_**2),
              d_phi=jet.d_phiphi / (r * st_))
    return j_r, j_t, j_p


class TestOperatorIdentities:
    def test_point_operators_equal_array_kernels(self, rng):
        # one formula per operator: the kernels fed one node's floats give
        # the bits of the same kernels over the node arrays
        n = 40
        r = rng.uniform(0.05, 1.0, n)
        th = rng.uniform(0.05, PI - 0.05, n)
        ph = rng.uniform(0.0, 2 * PI, n)
        vals = rng.normal(size=(3, 4, n))  # (component, value/d_r/d_theta/d_phi, node)
        (ur, dur_dr, dur_dt, dur_dp), (ut, dut_dr, dut_dt, dut_dp), \
            (up, dup_dr, dup_dt, dup_dp) = vals
        # math.sin, as one node's floats carry it (np.sin may differ in the last bit)
        st_ = np.array([math.sin(t) for t in th])
        ct = np.array([math.cos(t) for t in th])
        div = kernels.divergence_parts(r, st_, ct, ur, dur_dr, ut, dut_dt, dup_dp)
        cr, ctheta, cphi = kernels.curl_parts(r, st_, ct, dur_dt, dur_dp,
                                             ut, dut_dr, dut_dp, up, dup_dr, dup_dt)
        for i in range(n):
            p = SphPoint(r[i], th[i], ph[i])
            jets = tuple(Jet(*(float(x) for x in vals[k, :, i])) for k in range(3))
            assert divergence(p, jets) == div[i]
            assert curl(p, jets) == (cr[i], ctheta[i], cphi[i])

    @pytest.mark.parametrize("jet_fn", [jet_height, jet_r_squared, jet_x, jet_xy])
    def test_curl_of_gradient_vanishes(self, jet_fn, rng):
        from tests_support import random_admissible_points
        for p in random_admissible_points(rng, 25):
            c = curl(p, gradient_component_jets(p, jet_fn(p)))
            assert math.sqrt(sum(x * x for x in c)) < 1e-10

    def test_operators_match_cartesian_fd_oracle(self, rng):
        # gradient of the smooth scalar f = xy against the Cartesian path:
        # rotate grad f to Cartesian, difference against FD of f along axes
        from tests_support import random_admissible_points
        cfg = oracle.FDConfig()
        for p in random_admissible_points(rng, 10, r_hi=0.9):
            grad = tuple(j.value for j in gradient_component_jets(p, jet_xy(p)))
            w = vec_to_cartesian(p, grad)
            x, y, z = kernels.sph_to_cart(p.r, p.theta, p.phi)

            def f_cart(q):
                qx, qy, _ = kernels.sph_to_cart(q.r, q.theta, q.phi)
                return qx * qy

            for axis, exact in enumerate(w):
                h = cfg.step

                def f_shift(t, axis=axis):
                    c = [x, y, z]
                    c[axis] += t
                    return f_cart(SphPoint(*kernels.cart_to_sph(*c)))

                fd = (f_shift(h) - f_shift(-h)) / (2 * h)
                assert fd == pytest.approx(exact, rel=1e-5, abs=1e-8)
