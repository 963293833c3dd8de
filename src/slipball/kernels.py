"""Elementwise numeric kernels (the hot inner loops).

Every kernel takes float64 ndarrays of identical shape and returns ndarrays;
callers do the broadcasting.  The kernels are plain numpy functions.  The
assembly kernels (big_g_values, u_assembly, omega_assembly,
boundary_curl_assembly) take no support mask: the field evaluators call
them only on 1-D arrays of in-support nodes, where r > 0 and sin(theta) > 0.

Smooth cutoff machinery: sigma(t) = exp(-1/t) for t > 0 (else 0) and the
step s(t) = sigma(t) / (sigma(t) + sigma(1-t)), which is 0 for t <= 0 and
1 for t >= 1 with all derivatives vanishing at the junctions.  In double
precision sigma underflows to exactly 0 for t <= ~1.34e-3, so sigma_jet
gates its formula at t > 1e-3; that changes nothing and avoids 0*inf at
tiny t; when every t > 1e-3 (the ramp nodes) it skips the gating passes.

Plateau rule: where sigma(t) or sigma(1-t) is gated to 0, the step formula
gives exactly 0 or 1 with zero derivatives, so smooth_step_jet returns
those constants without calling sigma_jet.  The zeros keep the signs the
formula gives: +0 on the lower plateau; s' = +0 and s'' = -0 on the upper
one, where sigma''(t) < 0.  Only the ramp between, NaN, and t > 1e100
(where t**3 overflows and s'' is +0) run the formula.

Phi wrap: cart_to_sph maps atan2's phi in [-pi, pi] to [0, 2pi] by adding
2pi to the negative values, then adding +0.0, which turns -0 into +0; that
equals np.mod(phi, 2pi) bit for bit (a tiny negative phi gives exactly 2pi
in both) without the fmod.

Orders: each jet kernel (sigma_jet through default_angular_jet) takes an
order k, 0, 1 or 2 (the default), and computes and returns its jet through
order k only: (value,), (value, first), or all three entries; the angular
jet returns (g,), (g, g_t, g_p), or all six.  Each entry is the same
expression as at order 2, so it has the same bits, signed zeros included.
"""
import numpy as np

_SIGMA_FLOOR = 1e-3
_HUGE_T = 1e100  # t**3 is finite below this, so sigma''(t) < 0 rounds to a negative

# default radial profile: chi((r - 0.25)/0.25) * exp(1 - r)
_CHI_LO = 0.25
_CHI_WIDTH = 0.25

# default polar bump: rises on [pi/4, 3pi/8], 1 on [3pi/8, 5pi/8], falls on [5pi/8, 3pi/4]
_BUMP_A = np.pi / 4
_BUMP_B = 3 * np.pi / 8
_BUMP_C = 5 * np.pi / 8
_BUMP_D = 3 * np.pi / 4


def sigma_jet(t, order=2):
    m = t > _SIGMA_FLOOR
    if np.all(m):
        ts, gate = t, (lambda v: v)
    else:
        ts, gate = np.where(m, t, 1.0), (lambda v: np.where(m, v, 0.0))
    s = gate(np.exp(-1.0 / ts))
    if order < 1:
        return (s,)
    s1 = gate(s / ts**2)
    if order < 2:
        return s, s1
    return s, s1, gate(s * (1.0 / ts**4 - 2.0 / ts**3))


def _ramp_jet(t, order=2):
    # s = a / (a + b) with a = sigma(t), b = sigma(1 - t)
    a = sigma_jet(t, order)
    b = sigma_jet(1.0 - t, order)
    den = a[0] + b[0]
    s = a[0] / den
    if order < 1:
        return (s,)
    b1 = -b[1]
    num1 = a[1] * b[0] - a[0] * b1
    s1 = num1 / den**2
    if order < 2:
        return s, s1
    num2 = a[2] * b[0] - a[0] * b[2]
    return s, s1, (num2 * den - 2.0 * num1 * (a[1] + b1)) / den**3


def smooth_step_jet(t, order=2):
    # the plateau rule of the module docstring
    t = np.asarray(t)
    up = t > _SIGMA_FLOOR
    # both sigmas ungated (the ramp) or neither (NaN)
    ramp = (up == (1.0 - t > _SIGMA_FLOOR)) | (t > _HUGE_T)
    jet = [np.where(up, 1.0, 0.0)]
    if order >= 1:
        jet.append(np.zeros(t.shape))
    if order >= 2:
        jet.append(np.where(up, -0.0, 0.0))
    if ramp.any():
        for a, v in zip(jet, _ramp_jet(t[ramp], order)):
            a[ramp] = v
    return tuple(jet)


def _scaled_step_jet(x, lo, width, order=2):
    # the jet in x of smooth_step_jet((x - lo) / width), by the chain rule
    s = smooth_step_jet((x - lo) / width, order)
    return s[:1] + tuple(s[k] / width**k for k in range(1, order + 1))


def product_jet(a, b, order=2):
    # the jet of the product of two jets, by the Leibniz rule
    p = a[0] * b[0]
    if order < 1:
        return (p,)
    p1 = a[1] * b[0] + a[0] * b[1]
    if order < 2:
        return p, p1
    return p, p1, a[2] * b[0] + 2.0 * a[1] * b[1] + a[0] * b[2]


def bump_jet(x, a, b, c, d, order=2):
    # a rising step on [a,b] times a falling one on [c,d], whose argument
    # (x - d) / (c - d) is (d - x) / (d - c) bit for bit
    return product_jet(_scaled_step_jet(x, a, b - a, order),
                       _scaled_step_jet(x, d, c - d, order), order)


def default_profile_jet(r, order=2):
    c = _scaled_step_jet(r, _CHI_LO, _CHI_WIDTH, order)
    e = np.exp(1.0 - r)
    h = c[0] * e
    if order < 1:
        return (h,)
    hp = (c[1] - c[0]) * e
    if order < 2:
        return h, hp
    return h, hp, (c[2] - 2.0 * c[1] + c[0]) * e


def h1zero_profile_jet(r, order=2):
    # chi(r) * (1 - r)^2: vanishes to second order at r = 1
    c = _scaled_step_jet(r, _CHI_LO, _CHI_WIDTH, order)
    q = 1.0 - r
    h = c[0] * q * q
    if order < 1:
        return (h,)
    hp = c[1] * q * q - 2.0 * c[0] * q
    if order < 2:
        return h, hp
    return h, hp, c[2] * q * q - 4.0 * c[1] * q + 2.0 * c[0]


def perturbed_factor_jet(r, eps, order=2):
    # multiplier (1 + eps*(r - 0.75)^2); shifts h(1)+h'(1) to eps/2 * h(1)
    d = r - 0.75
    q = 1.0 + eps * d * d
    if order < 1:
        return (q,)
    q1 = 2.0 * eps * d
    if order < 2:
        return q, q1
    return q, q1, np.full_like(r, 2.0 * eps)


def default_angular_jet(theta, phi, order=2):
    p = bump_jet(theta, _BUMP_A, _BUMP_B, _BUMP_C, _BUMP_D, order)
    sp = np.sin(phi)
    g = p[0] * sp
    if order < 1:
        return (g,)
    cp = np.cos(phi)
    g_t = p[1] * sp
    g_p = p[0] * cp
    if order < 2:
        return g, g_t, g_p
    return g, g_t, g_p, p[2] * sp, p[1] * cp, -p[0] * sp


def big_g_values(sin_t, cos_t, g_t, g_tt, g_pp):
    # cos(theta) g_t + sin(theta) g_tt + g_pp / sin(theta)
    return cos_t * g_t + sin_t * g_tt + g_pp / sin_t


def u_assembly(h, g_t, g_p, sin_t):
    return -h * g_p / sin_t, h * g_t


def omega_assembly(r, sin_t, h, hp, g_t, g_p, big_g):
    drh = h + r * hp  # d/dr (r h)
    return h * big_g / (r * sin_t), -drh * g_t / r, -drh * g_p / (r * sin_t)


def cross_tangential(ut, up, wr, wt, wp):
    # u x w for u with zero radial component
    vr = ut * wp - up * wt
    vt = up * wr
    vp = -ut * wr
    return vr, vt, vp


def boundary_curl_assembly(sin_t, h1, hp1, g_t, g_p, big_g):
    # tangential components of curl(u x w) on the unit sphere
    return -2.0 * h1 * hp1 * g_p * big_g / sin_t**2, 2.0 * h1 * hp1 * g_t * big_g / sin_t


def sph_to_cart(r, theta, phi):
    st = np.sin(theta)
    x = r * st * np.cos(phi)
    y = r * st * np.sin(phi)
    z = r * np.cos(theta)
    return x, y, z


def cart_to_sph(x, y, z, rho=None):
    # rho = sqrt(x^2 + y^2), computed here unless the caller holds it
    if rho is None:
        rho = np.sqrt(x * x + y * y)
    r = np.sqrt(x * x + y * y + z * z)
    # atan2(rho, z) stays well-conditioned at the poles, unlike acos(z/r)
    theta = np.arctan2(rho, z)
    # the phi wrap of the module docstring
    phi = np.arctan2(y, x)
    phi = np.where(phi < 0.0, phi + 2.0 * np.pi, phi) + 0.0
    return r, theta, phi


def vec_sph_to_cart_at(axis, x, y, z, r, rho, vr, vt, vp):
    # Cartesian component `axis` (0, 1, 2: x, y, z) of (vr, vt, vp) at the
    # point (x, y, z), rotated by x/r, y/r, z/r, x/rho, y/rho and rho/r: the
    # point's own coordinates, with no trig; r and rho = sqrt(x^2 + y^2) > 0
    # are the point's radii as cart_to_sph computes them
    if axis == 2:
        return (vr * z - vt * rho) / r
    vz = vt * (z / r)
    return (vr * x / r + (vz * x - vp * y) / rho if axis == 0
            else vr * y / r + (vz * y + vp * x) / rho)


def vec_sph_to_cart(theta, phi, vr, vt, vp):
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    return (vr * st * cp + vt * ct * cp - vp * sp,
            vr * st * sp + vt * ct * sp + vp * cp,
            vr * ct - vt * st)


def vec_cart_to_sph(theta, phi, wx, wy, wz):
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    vr = wx * st * cp + wy * st * sp + wz * ct
    vt = wx * ct * cp + wy * ct * sp - wz * st
    vp = -wx * sp + wy * cp
    return vr, vt, vp


# divergence_parts and curl_parts have no caller in the package: verify
# reads the closed forms and the Cartesian oracles alone.  The tests build the
# jets divergence and curl from them, and perfbench/tracer.py wraps both.
def divergence_parts(r, sin_t, cos_t, ur, dur_dr, ut, dut_dt, dup_dp):
    # (1/r^2) d_r(r^2 ur) + (1/(r sin)) d_t(ut sin) + (1/(r sin)) d_p up
    return (dur_dr + 2.0 * ur / r
            + (dut_dt + ut * cos_t / sin_t) / r
            + dup_dp / (r * sin_t))


def curl_parts(r, sin_t, cos_t,
               dur_dt, dur_dp,
               ut, dut_dr, dut_dp,
               up, dup_dr, dup_dt):
    cr = (dup_dt * sin_t + up * cos_t - dut_dp) / (r * sin_t)
    ct_ = (dur_dp / sin_t - up - r * dup_dr) / r
    cp = (ut + r * dut_dr - dur_dt) / r
    return cr, ct_, cp
