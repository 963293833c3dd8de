"""Kernel-level checks: cutoff machinery, profiles, angular jets."""
import math

import numpy as np
import pytest

from slipball import kernels


def fd1(fn, x, h=1e-6):
    return (fn(x + h)[0] - fn(x - h)[0]) / (2 * h)


def fd2(fn, x, h=1e-4):
    return (fn(x + h)[0] - 2 * fn(x)[0] + fn(x - h)[0]) / h**2


class TestSmoothStep:
    def test_exact_tails(self):
        t = np.array([-5.0, -1e-9, 0.0, 1.0, 1.5, 80.0])
        s, s1, s2 = kernels.smooth_step_jet(t)
        assert np.all(s[:3] == 0.0) and np.all(s1[:3] == 0.0) and np.all(s2[:3] == 0.0)
        assert np.all(s[3:] == 1.0) and np.all(s1[3:] == 0.0) and np.all(s2[3:] == 0.0)

    def test_midpoint(self):
        s, s1, s2 = kernels.smooth_step_jet(np.array([0.5]))
        assert s[0] == pytest.approx(0.5, abs=1e-15)
        # sigma(1/2) = e^-2, sigma'(1/2) = 4 e^-2 gives s'(1/2) = 2 exactly
        assert s1[0] == pytest.approx(2.0, abs=1e-14)
        assert s2[0] == pytest.approx(0.0, abs=1e-12)

    def test_derivatives_match_finite_differences(self):
        t = np.linspace(-0.2, 1.2, 141)
        _, s1, s2 = kernels.smooth_step_jet(t)
        assert np.abs(s1 - fd1(kernels.smooth_step_jet, t)).max() < 1e-7
        assert np.abs(s2 - fd2(kernels.smooth_step_jet, t)).max() < 1e-3

    def test_monotone_on_transition(self):
        # saturates to exact 0/1 in double precision near the endpoints,
        # so strictness is only required in the core
        t = np.linspace(0.01, 0.99, 199)
        s, s1, _ = kernels.smooth_step_jet(t)
        assert np.all(np.diff(s) >= 0)
        assert np.all(s1 >= 0)
        core = (t >= 0.1) & (t <= 0.9)
        assert np.all(s1[core] > 0)

    def test_no_nan_near_underflow(self):
        t = np.array([1e-320, 1e-12, 9e-4, 1.1e-3, 2e-3])
        for a in kernels.smooth_step_jet(t):
            assert np.all(np.isfinite(a))


def full_formula_step_jet(t):
    """smooth_step_jet as the formula gives it on every node, with no
    plateau short-circuit (the reference for the plateau rule)."""
    a, a1, a2 = kernels.sigma_jet(t)
    b, b1m, b2 = kernels.sigma_jet(1.0 - t)
    b1 = -b1m
    den = a + b
    num1 = a1 * b - a * b1
    num2 = a2 * b - a * b2
    return (a / den, num1 / den**2,
            (num2 * den - 2.0 * num1 * (a1 + b1)) / den**3)


def assert_same_bits(got, want):
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
        np.testing.assert_array_equal(np.signbit(g), np.signbit(w))


def gated_sigma_jet(t):
    """sigma_jet with its gate applied at every node (the reference for the
    ungated fast path)."""
    m = t > kernels._SIGMA_FLOOR
    ts = np.where(m, t, 1.0)
    s = np.where(m, np.exp(-1.0 / ts), 0.0)
    return s, np.where(m, s / ts**2, 0.0), np.where(m, s * (1.0 / ts**4 - 2.0 / ts**3), 0.0)


class TestSigmaFastPath:
    """With every t above the gate, sigma_jet skips the gating passes; its
    bits must equal the gated formula's, and any other input is gated."""

    F = kernels._SIGMA_FLOOR

    def ramp_t(self):
        rng = np.random.default_rng(12)
        return np.concatenate([rng.uniform(self.F, 1.0 - self.F, 100_000),
                               10.0 ** rng.uniform(-2.99, 300, 2000),
                               [np.nextafter(self.F, 1.0), 1.0 - self.F, 0.5, 1e100]])

    def test_ramp_input_matches_the_gated_formula(self, monkeypatch):
        t = self.ramp_t()
        with np.errstate(over="ignore"):
            want = gated_sigma_jet(t)

            def no_gating(*args):
                raise AssertionError("the fast path gates nothing")

            monkeypatch.setattr(np, "where", no_gating)
            got = kernels.sigma_jet(t)
        assert_same_bits(got, want)

    @pytest.mark.parametrize("extra", [np.nan, F, 0.0, -1.0, -np.inf])
    def test_one_gated_node_takes_the_gated_path(self, extra):
        t = np.append(self.ramp_t(), extra)
        with np.errstate(over="ignore"):
            got = kernels.sigma_jet(t)
            assert_same_bits(got, gated_sigma_jet(t))
        # the gate sends NaN to 0 as well (the fast path would give NaN)
        assert all(a[-1] == 0.0 for a in got)

    def test_smooth_step_ramp_nodes_take_the_fast_path(self, monkeypatch):
        t = np.linspace(-0.5, 1.5, 2001)
        want = kernels.smooth_step_jet(t)
        seen = []
        original = kernels.sigma_jet

        def spy(t, order=2):
            seen.append(bool(np.all(t > self.F)))
            return original(t, order)

        monkeypatch.setattr(kernels, "sigma_jet", spy)
        assert_same_bits(kernels.smooth_step_jet(t), want)
        # one call takes the ramp's t and 1 - t, all above the gate
        assert seen == [True]


class TestPlateauRule:
    """smooth_step_jet skips sigma_jet on the plateaus; values and signed
    zeros must equal the full formula's."""

    F = kernels._SIGMA_FLOOR

    def test_random_t(self):
        rng = np.random.default_rng(11)
        t = np.concatenate([rng.uniform(-0.5, 1.5, 200_000),
                            10.0 ** rng.uniform(-8, 300, 2000),
                            -(10.0 ** rng.uniform(-8, 300, 2000))])
        with np.errstate(over="ignore", invalid="ignore"):
            assert_same_bits(kernels.smooth_step_jet(t), full_formula_step_jet(t))

    def test_junctions_and_non_finite(self):
        edges = [0.0, self.F, 1.0 - self.F, 1.0, kernels._HUGE_T]
        t = np.array(edges + [np.nextafter(e, d) for e in edges for d in (-np.inf, np.inf)]
                     + [-0.0, 5.7e102, 1e200, np.inf, -np.inf, np.nan])
        with np.errstate(over="ignore", invalid="ignore"):
            assert_same_bits(kernels.smooth_step_jet(t), full_formula_step_jet(t))
            assert np.all(np.isnan(kernels.smooth_step_jet(np.array([np.nan]))))

    def test_upper_plateau_second_derivative_is_negative_zero(self):
        s, s1, s2 = kernels.smooth_step_jet(np.array([1.0, 2.0, -1.0]))
        assert s.tolist() == [1.0, 1.0, 0.0]
        assert np.signbit(s2).tolist() == [True, True, False]
        assert not np.any(np.signbit(s1))

    def test_bump_keeps_its_signed_zeros(self):
        x = np.linspace(0.0, math.pi, 2001)
        a, b, c, d = TestBump.A, TestBump.B, TestBump.C, TestBump.D
        u = full_formula_step_jet((x - a) / (b - a))
        v = full_formula_step_jet((d - x) / (d - c))
        u1, u2 = u[1] / (b - a), u[2] / (b - a) ** 2
        v1, v2 = -v[1] / (d - c), v[2] / (d - c) ** 2
        want = (u[0] * v[0], u1 * v[0] + u[0] * v1, u2 * v[0] + 2.0 * u1 * v1 + u[0] * v2)
        assert_same_bits(kernels.bump_jet(x, a, b, c, d), want)
        assert np.signbit(want[2][(x > b) & (x < c)]).all()  # plateau p'' is -0.0

    def test_plateaus_do_not_call_sigma_jet(self, monkeypatch):
        seen = []
        original = kernels.sigma_jet

        def spy(t, order=2):
            seen.append(t.copy())
            return original(t, order)

        monkeypatch.setattr(kernels, "sigma_jet", spy)
        kernels.smooth_step_jet(np.array([-1.0, 0.0, 0.5, 1.0, 3.0]))
        # one call on the ramp node alone: t and 1 - t, stacked
        assert [a.tolist() for a in seen] == [[[0.5], [0.5]]]
        seen.clear()
        kernels.smooth_step_jet(np.array([-1.0, 2.0]))
        assert seen == []


class TestBump:
    A, B, C, D = np.pi / 4, 3 * np.pi / 8, 5 * np.pi / 8, 3 * np.pi / 4

    def jet(self, x):
        return kernels.bump_jet(np.atleast_1d(x), self.A, self.B, self.C, self.D)

    def test_plateau_and_support(self):
        x = np.linspace(self.B, self.C, 33)
        p, p1, p2 = self.jet(x)
        np.testing.assert_array_equal(p, 1.0)
        np.testing.assert_array_equal(p1, 0.0)
        np.testing.assert_array_equal(p2, 0.0)
        x = np.array([0.0, self.A, self.D, math.pi])
        p, p1, p2 = self.jet(x)
        np.testing.assert_array_equal(p, 0.0)
        np.testing.assert_array_equal(p1, 0.0)
        np.testing.assert_array_equal(p2, 0.0)

    def test_derivatives_match_finite_differences(self):
        x = np.linspace(0.1, math.pi - 0.1, 211)
        _, p1, p2 = self.jet(x)
        assert np.abs(p1 - fd1(self.jet, x)).max() < 1e-6
        assert np.abs(p2 - fd2(self.jet, x)).max() < 2e-2  # psi'' reaches ~64


class TestProfiles:
    def test_default_boundary_constants(self):
        h, hp, hpp = kernels.default_profile_jet(np.array([1.0]))
        assert h[0] == 1.0
        assert hp[0] == -1.0
        assert hpp[0] == 1.0

    def test_default_inside_cutoff(self):
        r = np.linspace(0.0, 0.25, 9)
        for a in kernels.default_profile_jet(r):
            np.testing.assert_array_equal(a, 0.0)

    def test_default_past_transition_is_exponential(self):
        r = np.array([0.6])
        h, hp, hpp = kernels.default_profile_jet(r)
        e = math.exp(0.4)
        assert h[0] == pytest.approx(e, rel=1e-15)
        assert hp[0] == pytest.approx(-e, rel=1e-15)
        assert hpp[0] == pytest.approx(e, rel=1e-15)

    def test_default_derivatives_match_fd(self):
        r = np.linspace(0.05, 1.2, 116)
        _, hp, hpp = kernels.default_profile_jet(r)
        assert np.abs(hp - fd1(kernels.default_profile_jet, r)).max() < 1e-6
        assert np.abs(hpp - fd2(kernels.default_profile_jet, r)).max() < 1e-2

    def test_h1zero_boundary_constants(self):
        h, hp, _ = kernels.h1zero_profile_jet(np.array([1.0]))
        assert h[0] == 0.0
        assert hp[0] == 0.0

    def test_h1zero_derivatives_match_fd(self):
        r = np.linspace(0.05, 1.2, 116)
        _, hp, hpp = kernels.h1zero_profile_jet(r)
        assert np.abs(hp - fd1(kernels.h1zero_profile_jet, r)).max() < 1e-6
        assert np.abs(hpp - fd2(kernels.h1zero_profile_jet, r)).max() < 1e-2


def hand_expanded_default_profile_jet(r):
    """chi(r) e^(1-r) with the Leibniz rule expanded by hand through order 2
    (the reference for the product_jet form)."""
    c = kernels._scaled_step_jet(r, 0.25, 0.25)
    e = np.exp(1.0 - r)
    return c[0] * e, (c[1] - c[0]) * e, (c[2] - 2.0 * c[1] + c[0]) * e


def hand_expanded_h1zero_profile_jet(r):
    """chi(r) (1-r)^2 with the Leibniz rule expanded by hand through order 2."""
    c = kernels._scaled_step_jet(r, 0.25, 0.25)
    q = 1.0 - r
    return (c[0] * q * q, c[1] * q * q - 2.0 * c[0] * q,
            c[2] * q * q - 4.0 * c[1] * q + 2.0 * c[0])


class TestProfilesFromProductJet:
    """Both profile jets are the cutoff's chain rule times a factor's jet by
    product_jet.  The default profile keeps the bits of the hand-expanded
    rule everywhere; h1zero keeps h, and every entry off the cutoff ramp."""

    R = np.concatenate([np.linspace(0.0, 1.2, 20001), [np.nextafter(1.0, 0.0),
                                                        np.nextafter(1.0, 2.0)]])

    @staticmethod
    def nodes():
        return np.concatenate([TestJetOrders.R, TestProfilesFromProductJet.R])

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_default_keeps_the_hand_expanded_bits(self, order):
        with np.errstate(invalid="ignore"):  # the NaN node
            got = kernels.default_profile_jet(TestJetOrders.R, order)
            want = hand_expanded_default_profile_jet(TestJetOrders.R)
        assert len(got) == order + 1
        assert_same_bits(got, want[:order + 1])

    def test_h1zero_value_is_chi_times_one_minus_r_squared(self):
        r = self.nodes()
        with np.errstate(invalid="ignore"):
            c0 = kernels._scaled_step_jet(r, 0.25, 0.25, 0)[0]
            q = 1.0 - r
            assert_same_bits(kernels.h1zero_profile_jet(r, 0), (c0 * q * q,))

    def test_h1zero_keeps_every_bit_past_the_ramp(self):
        r = self.nodes()
        past = r >= 0.5
        got = kernels.h1zero_profile_jet(r[past])
        assert_same_bits(got, hand_expanded_h1zero_profile_jet(r[past]))

    def test_h1zero_derivatives_on_the_ramp_within_rounding(self):
        r = self.nodes()
        r = r[np.isfinite(r)]
        got, want = kernels.h1zero_profile_jet(r), hand_expanded_h1zero_profile_jet(r)
        ramp = (r > 0.25) & (r < 0.5)
        for g, w in zip(got[1:], want[1:]):
            assert np.abs(g[ramp] - w[ramp]).max() <= 5e-16 * np.abs(w).max()

    def test_h1zero_slope_at_the_sphere_is_positive_zero(self):
        hp = kernels.h1zero_profile_jet(np.array([1.0]), 1)[1]
        assert hp[0] == 0.0 and not np.signbit(hp[0])


class TestAngular:
    def test_plateau_value(self):
        g, *_ = kernels.default_angular_jet(np.array([math.pi / 2]), np.array([math.pi / 2]))
        assert g[0] == 1.0

    def test_pole_support(self):
        th = np.array([0.0, math.pi / 8, math.pi - 0.1, math.pi])
        ph = np.array([0.3, 1.0, 2.0, 5.0])
        for a in kernels.default_angular_jet(th, ph):
            np.testing.assert_array_equal(a, 0.0)

    def test_azimuthal_derivative(self):
        _, _, g_p, *_ = kernels.default_angular_jet(np.array([math.pi / 2]), np.array([0.0]))
        assert g_p[0] == 1.0

    def test_partials_match_fd(self, rng):
        th = rng.uniform(0.1, math.pi - 0.1, 60)
        ph = rng.uniform(0, 2 * math.pi, 60)
        h = 1e-6
        g, g_t, g_p, g_tt, g_tp, g_pp = kernels.default_angular_jet(th, ph)
        g_tf = (kernels.default_angular_jet(th + h, ph)[0]
                - kernels.default_angular_jet(th - h, ph)[0]) / (2 * h)
        g_pf = (kernels.default_angular_jet(th, ph + h)[0]
                - kernels.default_angular_jet(th, ph - h)[0]) / (2 * h)
        g_tpf = (kernels.default_angular_jet(th + h, ph)[2]
                 - kernels.default_angular_jet(th - h, ph)[2]) / (2 * h)
        assert np.abs(g_t - g_tf).max() < 1e-6
        assert np.abs(g_p - g_pf).max() < 1e-8
        assert np.abs(g_tp - g_tpf).max() < 1e-6


class TestJetRules:
    """The chain rule of a scaled step and the Leibniz rule, which the
    profile and bump jets share."""

    X = np.concatenate([np.linspace(-0.5, 3.5, 801), [TestBump.A, TestBump.B, TestBump.C,
                                                     TestBump.D, -0.0]])

    @pytest.mark.parametrize("lo, width", [(0.25, 0.25), (TestBump.A, TestBump.B - TestBump.A),
                                           (TestBump.D, TestBump.C - TestBump.D)])
    def test_scaled_step_is_the_chain_rule(self, lo, width):
        s = kernels.smooth_step_jet((self.X - lo) / width)
        # the value entry passes through undivided
        assert_same_bits(kernels._scaled_step_jet(self.X, lo, width),
                         (s[0], s[1] / width, s[2] / width**2))
        x = np.linspace(lo + 0.1 * width, lo + 0.9 * width, 41)
        step = lambda y: kernels._scaled_step_jet(y, lo, width)  # noqa: E731
        _, s1, s2 = step(x)
        assert np.abs(s1 - fd1(step, x)).max() < 1e-6 * max(1.0, abs(width) ** -1)
        assert np.abs(s2 - fd2(step, x)).max() < 1e-3 * max(1.0, width ** -2)

    def test_falling_argument_is_the_reflected_one(self):
        # bump_jet's falling side reads (x - d) / (c - d) for (d - x) / (d - c):
        # the same value everywhere, and the sign of zero differs only at x = d
        c, d = TestBump.C, TestBump.D
        got, want = (self.X - d) / (c - d), (d - self.X) / (d - c)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got) != np.signbit(want), self.X == d)

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_product_is_the_leibniz_rule(self, order):
        # x^2 times x^3 on small integers: every entry of the jet of x^5 is exact
        x = np.arange(-4.0, 5.0)
        got = kernels.product_jet((x**2, 2.0 * x, np.full_like(x, 2.0)),
                                  (x**3, 3.0 * x**2, 6.0 * x), order)
        assert len(got) == order + 1
        assert_same_bits(got, (x**5, 5.0 * x**4, 20.0 * x**3)[:order + 1])


class TestJetOrders:
    """A jet at order k holds the first k + 1 entries of the order-2 jet,
    bit for bit and with the same sign bits (the angular jet: 1, 3 and 6
    entries)."""

    F = kernels._SIGMA_FLOOR
    EDGES = [0.0, F, 1.0 - F, 1.0, kernels._HUGE_T]
    T = np.array(EDGES + [np.nextafter(e, d) for e in EDGES for d in (-np.inf, np.inf)]
                 + [-0.0, 0.5, 0.3, 0.9, -2.0, 3.0, 5.7e102, 1e200, np.inf, -np.inf, np.nan]
                 + list(np.linspace(-0.5, 1.5, 401)))
    X = np.concatenate([np.linspace(0.0, math.pi, 801), [np.nan],
                        [TestBump.A, TestBump.B, TestBump.C, TestBump.D],
                        [np.nextafter(e, d) for e in (TestBump.A, TestBump.B, TestBump.C,
                                                      TestBump.D) for d in (0.0, 4.0)]])
    R = np.concatenate([np.linspace(0.0, 1.2, 481), [np.nan, 0.25, 0.5, 0.25 + 0.25 * F,
                                                     0.5 - 0.25 * F, 1.0]])
    PHI = np.append(np.linspace(-1.0, 7.0, X.size - 1), np.nan)

    JETS = {
        "sigma_jet": lambda order: kernels.sigma_jet(TestJetOrders.T, order),
        "sigma_jet_ramp": lambda order: kernels.sigma_jet(np.linspace(0.01, 1e3, 999), order),
        "_ramp_jet": lambda order: kernels._ramp_jet(np.linspace(0.002, 0.998, 499), order),
        "smooth_step_jet": lambda order: kernels.smooth_step_jet(TestJetOrders.T, order),
        "bump_jet": lambda order: kernels.bump_jet(TestJetOrders.X, TestBump.A, TestBump.B,
                                                   TestBump.C, TestBump.D, order),
        "_scaled_step_jet": lambda order: kernels._scaled_step_jet(
            TestJetOrders.X, TestBump.D, TestBump.C - TestBump.D, order),
        "product_jet": lambda order: kernels.product_jet(
            kernels.smooth_step_jet(TestJetOrders.T),
            kernels.perturbed_factor_jet(TestJetOrders.T, 0.37), order),
        "default_profile_jet": lambda order: kernels.default_profile_jet(TestJetOrders.R, order),
        "h1zero_profile_jet": lambda order: kernels.h1zero_profile_jet(TestJetOrders.R, order),
        "perturbed_factor_jet": lambda order: kernels.perturbed_factor_jet(
            TestJetOrders.R, 0.37, order),
        "default_angular_jet": lambda order: kernels.default_angular_jet(
            TestJetOrders.X, TestJetOrders.PHI, order),
    }

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("name", sorted(JETS))
    def test_entries_equal_the_order_two_jet(self, name, order):
        with np.errstate(over="ignore", invalid="ignore"):  # t > 1e100 and NaN nodes
            full = self.JETS[name](2)
            got = self.JETS[name](order)
        assert len(full) == (6 if name == "default_angular_jet" else 3)
        assert len(got) == ((1, 3, 6)[order] if name == "default_angular_jet" else order + 1)
        assert_same_bits(got, full[:len(got)])

    def test_the_default_order_is_two(self):
        with np.errstate(over="ignore", invalid="ignore"):  # NaN nodes give 0/0
            assert_same_bits(kernels.smooth_step_jet(self.T), kernels.smooth_step_jet(self.T, 2))
            assert len(kernels.default_angular_jet(self.X, self.X)) == 6


class TestTransforms:
    """cart_to_sph wraps phi without fmod, and vec_sph_to_cart_at rotates
    with the point's own coordinates instead of sin/cos of its angles."""

    @staticmethod
    def assert_phi_is_np_mod(x, y):
        _, _, phi = kernels.cart_to_sph(x, y, np.zeros_like(x))
        want = np.mod(np.arctan2(y, x), 2.0 * np.pi)
        assert np.array_equal(phi.view(np.uint64), want.view(np.uint64))
        assert np.all((phi >= 0.0) & (phi <= 2.0 * np.pi)) and not np.signbit(phi).any()

    def test_phi_wrap_is_np_mod_on_random_points(self):
        rng = np.random.default_rng(11)
        x, y = rng.normal(size=(2, 200_000))
        self.assert_phi_is_np_mod(x, y)

    def test_phi_wrap_is_np_mod_at_the_edges(self):
        tiny = [5e-324, 1e-300, 1e-17]
        # +-0 on both half-axes (phi = +-0 and +-pi), +-0 at the origin, a
        # tiny negative y with positive x (phi + 2 pi rounds to 2 pi) and
        # with negative x (phi next to -pi)
        x = np.array([1.0, 1.0, -1.0, -1.0, 0.0, 0.0, -0.0, -0.0] + [1.0] * 3 + [-1.0] * 3)
        y = np.array([0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0] + [-t for t in tiny] * 2)
        self.assert_phi_is_np_mod(x, y)
        _, _, phi = kernels.cart_to_sph(x, y, np.zeros_like(x))
        assert phi[8] == 2.0 * np.pi and phi[2] == phi[3] == np.pi

    def test_phi_wrap_keeps_nan(self):
        _, _, phi = kernels.cart_to_sph(np.array([np.nan, 1.0]), np.array([0.5, np.nan]),
                                        np.zeros(2))
        assert np.isnan(phi).all()

    @staticmethod
    def points(kind, rng, n=50_000):
        if kind == "random":
            p = rng.normal(size=(3, n))
            return p * rng.uniform(1e-3, 1.0, n) ** (1 / 3) / np.linalg.norm(p, axis=0)
        if kind == "next-to-axis":
            # rho = step, the least the Cartesian oracle's shifted points reach
            rho = rng.choice([1e-8, 1e-6, 1e-4, 1e-2], n)
            a = rng.uniform(0.0, 2.0 * np.pi, n)
            return np.array([rho * np.cos(a), rho * np.sin(a), rng.uniform(-0.99, 0.99, n)])
        p = rng.normal(size=(3, n))  # near the sphere
        return p * (1.0 - rng.uniform(0.0, 1e-4, n)) / np.linalg.norm(p, axis=0)

    @pytest.mark.parametrize("kind", ["random", "next-to-axis", "near-sphere"])
    def test_rotation_at_the_point_agrees_with_the_angles(self, kind):
        rng = np.random.default_rng(12)
        x, y, z = self.points(kind, rng)
        v = rng.normal(size=(3, x.size))
        r, theta, phi = kernels.cart_to_sph(x, y, z)
        want = kernels.vec_sph_to_cart(theta, phi, *v)
        # both are orthogonal rotations: they agree within 8 ulp of |v|
        bound = 8.0 * np.finfo(float).eps * np.linalg.norm(v, axis=0)
        got = kernels.vec_sph_to_cart_at(x, y, z, r, np.sqrt(x * x + y * y), *v)
        for axis in range(3):
            assert np.all(np.abs(got[axis] - want[axis]) <= bound)
