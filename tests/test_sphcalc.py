"""Coordinate geometry, basis algebra, and the differential operators."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slipball import oracle
from slipball.errors import CoordinateSingularity, PoleDegeneracy
from slipball.sphcalc import (ScalarJet, SphPoint, SphVec, basis_at, cross, curl,
                              divergence, dot, from_cartesian_point, gradient,
                              to_cartesian_point, vec_from_cartesian,
                              vec_to_cartesian)

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
        np.testing.assert_allclose(to_cartesian_point(p), xyz, atol=1e-15)

    @given(radii, colats, lons)
    @settings(max_examples=150, deadline=None)
    def test_round_trip(self, r, theta, phi):
        c = to_cartesian_point(SphPoint(r, theta, phi))
        q = from_cartesian_point(*c)
        assert abs(q.r - r) < 1e-12
        assert abs(q.theta - theta) < 1e-12
        assert min(abs(q.phi - phi), 2 * PI - abs(q.phi - phi)) < 1e-12 / max(math.sin(theta), 1e-6)

    @given(radii, colats, lons)
    @settings(max_examples=100, deadline=None)
    def test_radius_preserved(self, r, theta, phi):
        x, y, z = to_cartesian_point(SphPoint(r, theta, phi))
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

    @pytest.mark.parametrize("theta", [0.0, 1e-10, PI - 1e-10, PI])
    def test_pole_degeneracy(self, theta):
        with pytest.raises(PoleDegeneracy):
            basis_at(SphPoint(1, theta, 0))


class TestVecConversions:
    def test_basis_image(self):
        p = SphPoint(0.8, PI / 3, 1.1)
        np.testing.assert_allclose(vec_to_cartesian(p, SphVec(1, 0, 0)), basis_at(p)[0],
                                   atol=1e-15)

    def test_round_trip(self):
        p = SphPoint(0.8, PI / 3, 1.1)
        v = SphVec(0.3, -0.7, 0.2)
        w = vec_from_cartesian(p, vec_to_cartesian(p, v))
        assert abs(w.vr - v.vr) < 1e-12
        assert abs(w.vtheta - v.vtheta) < 1e-12
        assert abs(w.vphi - v.vphi) < 1e-12

    def test_isometry(self):
        w = vec_to_cartesian(SphPoint(0.5, 1.0, 2.0), SphVec(3, 4, 0))
        assert np.linalg.norm(w) == pytest.approx(5.0, rel=1e-12)

    @given(colats, lons, comps, comps, comps)
    @settings(max_examples=100, deadline=None)
    def test_norm_invariant(self, theta, phi, a, b, c):
        v = SphVec(a, b, c)
        w = vec_to_cartesian(SphPoint(0.9, theta, phi), v)
        assert np.linalg.norm(w) == pytest.approx(v.norm(), rel=1e-12, abs=1e-12)


def jets_constant_ez(p):
    """Jets of the constant Cartesian field e_z in spherical components."""
    st_, ct = math.sin(p.theta), math.cos(p.theta)
    return (ScalarJet(ct, d_theta=-st_),
            ScalarJet(-st_, d_theta=-ct),
            ScalarJet(0.0))


class TestDivergence:
    def test_constant_field(self):
        p = SphPoint(0.5, PI / 3, 0.2)
        assert divergence(p, jets_constant_ez(p)) == pytest.approx(0.0, abs=1e-12)

    def test_radial_identity_field(self):
        # u = r e_r has divergence 3 everywhere
        p = SphPoint(0.37, 1.1, 2.9)
        jets = (ScalarJet(p.r, d_r=1.0), ScalarJet(0.0), ScalarJet(0.0))
        assert divergence(p, jets) == pytest.approx(3.0, rel=1e-14)

    def test_singularity_guard(self):
        jets = (ScalarJet(0.0), ScalarJet(0.0), ScalarJet(0.0))
        with pytest.raises(CoordinateSingularity):
            divergence(SphPoint(1e-10, 1.0, 0.0), jets)
        with pytest.raises(CoordinateSingularity):
            divergence(SphPoint(0.5, 1e-10, 0.0), jets)


def jets_rigid_rotation(p):
    """u = r sin(theta) e_phi: rigid rotation about the z axis."""
    st_ = math.sin(p.theta)
    return (ScalarJet(0.0), ScalarJet(0.0),
            ScalarJet(p.r * st_, d_r=st_, d_theta=p.r * math.cos(p.theta)))


class TestCurl:
    def test_constant_field(self):
        p = SphPoint(0.6, 0.9, 1.4)
        c = curl(p, jets_constant_ez(p))
        assert c.norm() < 1e-14

    def test_rigid_rotation(self):
        p = SphPoint(0.77, 1.234, 4.0)
        c = curl(p, jets_rigid_rotation(p))
        assert c.vr == pytest.approx(2 * math.cos(p.theta), rel=1e-13)
        assert c.vtheta == pytest.approx(-2 * math.sin(p.theta), rel=1e-13)
        assert c.vphi == pytest.approx(0.0, abs=1e-14)


class TestGradient:
    def test_radius(self):
        g = gradient(SphPoint(0.5, 1.0, 1.0), ScalarJet(0.5, d_r=1.0))
        assert (g.vr, g.vtheta, g.vphi) == (1.0, 0.0, 0.0)

    def test_height(self):
        # f = z = r cos(theta)
        p = SphPoint(0.81, 0.77, 0.3)
        jet = ScalarJet(p.r * math.cos(p.theta), d_r=math.cos(p.theta),
                        d_theta=-p.r * math.sin(p.theta))
        g = gradient(p, jet)
        assert g.vr == pytest.approx(math.cos(p.theta), rel=1e-14)
        assert g.vtheta == pytest.approx(-math.sin(p.theta), rel=1e-14)
        assert g.vphi == 0.0

    def test_radial_power(self):
        g = gradient(SphPoint(0.5, 1.2, 0.1), ScalarJet(0.25, d_r=1.0))
        assert g.vr == pytest.approx(1.0)


class TestCrossDot:
    def test_orientation(self):
        c = cross(SphVec(1, 0, 0), SphVec(0, 1, 0))
        assert (c.vr, c.vtheta, c.vphi) == (0.0, 0.0, 1.0)

    def test_self_cross_vanishes(self):
        a = SphVec(0.3, -1.2, 4.0)
        assert cross(a, a).norm() == 0.0

    def test_boundary_trace_rotation(self):
        # w x n with n = e_r swaps the tangential components
        c = cross(SphVec(1, 2, 3), SphVec(1, 0, 0))
        assert (c.vr, c.vtheta, c.vphi) == (0.0, 3.0, -2.0)

    @given(*(comps,) * 6)
    @settings(max_examples=100, deadline=None)
    def test_antisymmetry_and_orthogonality(self, a1, a2, a3, b1, b2, b3):
        a, b = SphVec(a1, a2, a3), SphVec(b1, b2, b3)
        c = cross(a, b)
        cba = cross(b, a)
        assert (c.vr, c.vtheta, c.vphi) == (-cba.vr, -cba.vtheta, -cba.vphi)
        assert abs(dot(c, a)) < 1e-12 * max(1.0, a.norm() * b.norm() * a.norm())


# scalar fields with hand-written spherical jets, for the operator identities
def jet_height(p):
    st_, ct = math.sin(p.theta), math.cos(p.theta)
    return ScalarJet(p.r * ct, d_r=ct, d_theta=-p.r * st_, d_rtheta=-st_,
                     d_thetatheta=-p.r * ct)


def jet_r_squared(p):
    return ScalarJet(p.r**2, d_r=2 * p.r, d_rr=2.0)


def jet_x(p):
    st_, ct = math.sin(p.theta), math.cos(p.theta)
    sp, cp = math.sin(p.phi), math.cos(p.phi)
    return ScalarJet(p.r * st_ * cp, d_r=st_ * cp, d_theta=p.r * ct * cp,
                     d_phi=-p.r * st_ * sp, d_rtheta=ct * cp, d_rphi=-st_ * sp,
                     d_thetatheta=-p.r * st_ * cp, d_thetaphi=-p.r * ct * sp,
                     d_phiphi=-p.r * st_ * cp)


def jet_xy(p):
    st_, ct = math.sin(p.theta), math.cos(p.theta)
    s2p, c2p = math.sin(2 * p.phi), math.cos(2 * p.phi)
    s2t, c2t = math.sin(2 * p.theta), math.cos(2 * p.theta)
    return ScalarJet(
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
    """First-order jets of the three gradient components, from a full jet."""
    st_, ct = math.sin(p.theta), math.cos(p.theta)
    r = p.r
    j_r = ScalarJet(jet.d_r, d_r=jet.d_rr, d_theta=jet.d_rtheta, d_phi=jet.d_rphi)
    j_t = ScalarJet(jet.d_theta / r,
                    d_r=jet.d_rtheta / r - jet.d_theta / r**2,
                    d_theta=jet.d_thetatheta / r,
                    d_phi=jet.d_thetaphi / r)
    j_p = ScalarJet(jet.d_phi / (r * st_),
                    d_r=jet.d_rphi / (r * st_) - jet.d_phi / (r**2 * st_),
                    d_theta=jet.d_thetaphi / (r * st_) - jet.d_phi * ct / (r * st_**2),
                    d_phi=jet.d_phiphi / (r * st_))
    return j_r, j_t, j_p


class TestOperatorIdentities:
    def test_point_operators_equal_array_kernels(self, rng):
        # one formula per operator: the point operators and the array
        # kernels the grid checks use give the same bits at every node
        from slipball import kernels
        n = 40
        r = rng.uniform(0.05, 1.0, n)
        th = rng.uniform(0.05, PI - 0.05, n)
        ph = rng.uniform(0.0, 2 * PI, n)
        vals = rng.normal(size=(3, 4, n))  # (component, value/d_r/d_theta/d_phi, node)
        (ur, dur_dr, dur_dt, dur_dp), (ut, dut_dr, dut_dt, dut_dp), \
            (up, dup_dr, dup_dt, dup_dp) = vals
        # math.sin, as the point operators use it (np.sin may differ in the last bit)
        st_ = np.array([math.sin(t) for t in th])
        ct = np.array([math.cos(t) for t in th])
        div = kernels.divergence_parts(r, st_, ct, ur, dur_dr, ut, dut_dt, dup_dp)
        cr, ctheta, cphi = kernels.curl_parts(r, st_, ct, dur_dt, dur_dp,
                                             ut, dut_dr, dut_dp, up, dup_dr, dup_dt)
        for i in range(n):
            p = SphPoint(r[i], th[i], ph[i])
            jets = tuple(ScalarJet(*(float(x) for x in vals[k, :, i])) for k in range(3))
            assert divergence(p, jets) == div[i]
            assert curl(p, jets) == SphVec(cr[i], ctheta[i], cphi[i])

    @pytest.mark.parametrize("jet_fn", [jet_height, jet_r_squared, jet_x, jet_xy])
    def test_curl_of_gradient_vanishes(self, jet_fn, rng):
        from tests_support import random_admissible_points
        for p in random_admissible_points(rng, 25):
            c = curl(p, gradient_component_jets(p, jet_fn(p)))
            assert c.norm() < 1e-10

    def test_operators_match_cartesian_fd_oracle(self, rng):
        # gradient of the smooth scalar f = xy against the Cartesian path:
        # rotate grad f to Cartesian, difference against FD of f along axes
        from tests_support import random_admissible_points
        cfg = oracle.FDConfig()
        for p in random_admissible_points(rng, 10, r_hi=0.9):
            g = gradient(p, jet_xy(p))
            w = vec_to_cartesian(p, g)
            x, y, z = to_cartesian_point(p)

            def f_cart(q):
                return to_cartesian_point(q)[0] * to_cartesian_point(q)[1]

            for axis, exact in enumerate(w):
                h = cfg.step

                def f_shift(t, axis=axis):
                    c = [x, y, z]
                    c[axis] += t
                    return f_cart(from_cartesian_point(*c))

                fd = (f_shift(h) - f_shift(-h)) / (2 * h)
                assert fd == pytest.approx(exact, rel=1e-5, abs=1e-8)
