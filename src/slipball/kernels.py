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
tiny t.

Plateau rule: where sigma(t) or sigma(1-t) is gated to 0, the step formula
gives exactly 0 or 1 with zero derivatives, so smooth_step_jet returns
those constants without calling sigma_jet.  The zeros keep the signs the
formula gives: +0 on the lower plateau; s' = +0 and s'' = -0 on the upper
one, where sigma''(t) < 0.  Only the ramp between, NaN, and t > 1e100
(where t**3 overflows and s'' is +0) run the formula.
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


def sigma_jet(t):
    m = t > _SIGMA_FLOOR
    ts = np.where(m, t, 1.0)
    s = np.where(m, np.exp(-1.0 / ts), 0.0)
    s1 = np.where(m, s / ts**2, 0.0)
    s2 = np.where(m, s * (1.0 / ts**4 - 2.0 / ts**3), 0.0)
    return s, s1, s2


def _ramp_jet(t):
    # s = a / (a + b) with a = sigma(t), b = sigma(1 - t)
    a, a1, a2 = sigma_jet(t)
    b, b1m, b2 = sigma_jet(1.0 - t)
    b1 = -b1m
    den = a + b
    s = a / den
    num1 = a1 * b - a * b1
    s1 = num1 / den**2
    num2 = a2 * b - a * b2
    s2 = (num2 * den - 2.0 * num1 * (a1 + b1)) / den**3
    return s, s1, s2


def smooth_step_jet(t):
    # the plateau rule of the module docstring
    t = np.asarray(t)
    up = t > _SIGMA_FLOOR
    # both sigmas ungated (the ramp) or neither (NaN)
    ramp = (up == (1.0 - t > _SIGMA_FLOOR)) | (t > _HUGE_T)
    s = np.where(up, 1.0, 0.0)
    s1 = np.zeros(t.shape)
    s2 = np.where(up, -0.0, 0.0)
    if ramp.any():
        s[ramp], s1[ramp], s2[ramp] = _ramp_jet(t[ramp])
    return s, s1, s2


def bump_jet(x, a, b, c, d):
    # product of a rising step on [a,b] and a falling step on [c,d]
    wl = b - a
    wr = d - c
    u, u1, u2 = smooth_step_jet((x - a) / wl)
    v, v1, v2 = smooth_step_jet((d - x) / wr)
    u1, u2 = u1 / wl, u2 / wl**2
    v1, v2 = -v1 / wr, v2 / wr**2
    p = u * v
    p1 = u1 * v + u * v1
    p2 = u2 * v + 2.0 * u1 * v1 + u * v2
    return p, p1, p2


def default_profile_jet(r):
    c, c1, c2 = smooth_step_jet((r - _CHI_LO) / _CHI_WIDTH)
    c1 = c1 / _CHI_WIDTH
    c2 = c2 / _CHI_WIDTH**2
    e = np.exp(1.0 - r)
    h = c * e
    hp = (c1 - c) * e
    hpp = (c2 - 2.0 * c1 + c) * e
    return h, hp, hpp


def h1zero_profile_jet(r):
    # chi(r) * (1 - r)^2: vanishes to second order at r = 1
    c, c1, c2 = smooth_step_jet((r - _CHI_LO) / _CHI_WIDTH)
    c1 = c1 / _CHI_WIDTH
    c2 = c2 / _CHI_WIDTH**2
    q = 1.0 - r
    h = c * q * q
    hp = c1 * q * q - 2.0 * c * q
    hpp = c2 * q * q - 4.0 * c1 * q + 2.0 * c
    return h, hp, hpp


def perturbed_factor_jet(r, eps):
    # multiplier (1 + eps*(r - 0.75)^2); shifts h(1)+h'(1) to eps/2 * h(1)
    d = r - 0.75
    q = 1.0 + eps * d * d
    q1 = 2.0 * eps * d
    q2 = np.full_like(r, 2.0 * eps)
    return q, q1, q2


def default_angular_jet(theta, phi):
    p, p1, p2 = bump_jet(theta, _BUMP_A, _BUMP_B, _BUMP_C, _BUMP_D)
    sp = np.sin(phi)
    cp = np.cos(phi)
    g = p * sp
    g_t = p1 * sp
    g_p = p * cp
    g_tt = p2 * sp
    g_tp = p1 * cp
    g_pp = -p * sp
    return g, g_t, g_p, g_tt, g_tp, g_pp


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


def cart_to_sph(x, y, z):
    r = np.sqrt(x * x + y * y + z * z)
    # atan2(hypot, z) stays well-conditioned at the poles, unlike acos(z/r)
    theta = np.arctan2(np.sqrt(x * x + y * y), z)
    phi = np.mod(np.arctan2(y, x), 2.0 * np.pi)
    return r, theta, phi


def vec_sph_to_cart(theta, phi, vr, vt, vp):
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    wx = vr * st * cp + vt * ct * cp - vp * sp
    wy = vr * st * sp + vt * ct * sp + vp * cp
    wz = vr * ct - vt * st
    return wx, wy, wz


def vec_cart_to_sph(theta, phi, wx, wy, wz):
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    vr = wx * st * cp + wy * st * sp + wz * ct
    vt = wx * ct * cp + wy * ct * sp - wz * st
    vp = -wx * sp + wy * cp
    return vr, vt, vp


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
