"""Symbolic certificate of the family's closed forms, for generic h(r) and g(theta, phi).

The identities below hold for every radial profile h and angular function
g, not only for the shipped ones:

* div u = 0 everywhere;
* u = x x grad(psi) with the potential psi = h g, and div(x x grad psi) = 0
  for a generic psi(r, theta, phi): the identity the divergence check
  certifies through;
* omega x n = 0 at r = 1 once h'(1) = -h(1) (the slip condition);
* at r = 1, with no slip assumption, |omega x n|^2 =
  (h(1) + h'(1))^2 (g_theta^2 + g_phi^2 / sin^2), so the scaling sweep's
  residual is |h(1) + h'(1)| times one sup over the sphere;
* at r = 1, under the slip condition, the tangential components of
  curl(u x omega) are the closed forms of the family module docstring,
  [curl v]_theta = -(2 / sin^2) h(1) h'(1) g_phi G and
  [curl v]_phi = (2 / sin) h(1) h'(1) g_theta G;
* the perturbed profile h (1 + eps (r - 3/4)^2) moves h(1) + h'(1) to
  (eps / 2) h(1);
* the Euler step, for generic Cartesian u(x, y, z, t) and p: Euler's
  u_t = -(u . grad) u - grad p gives omega_t = curl(u x omega), which is
  (omega . grad) u - (u . grad) omega once div u = 0, so the closed-form
  trace of curl(u x omega) is the initial rate of change of omega x n;
* the flat control: on the plane z = 0, u_z = 0 and omega_x = omega_y = 0
  make both tangential components of curl(u x omega) vanish, with no
  div u = 0, so the nonzero trace on the sphere is a curvature effect.

The numpy assembly kernels are then checked against the lambdified
symbolic expressions at random nodes.  sympy is a test dependency only;
the package itself imports numpy alone.
"""
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

import slipball
from slipball import kernels

r, th, ph = sp.symbols("r theta phi", positive=True)
h = sp.Function("h")(r)
g = sp.Function("g")(th, ph)
SIN = sp.sin(th)

# boundary values h(1), h'(1), h''(1) and the g jet as plain symbols
H0, H1, H2 = sp.symbols("H0 H1 H2")
G_JET = sp.symbols("g0 g_t g_p g_tt g_tp g_pp")


def div(v):
    vr, vt, vp = v
    return (sp.diff(r**2 * vr, r) / r**2 + sp.diff(SIN * vt, th) / (r * SIN)
            + sp.diff(vp, ph) / (r * SIN))


def curl(v):
    vr, vt, vp = v
    return ((sp.diff(SIN * vp, th) - sp.diff(vt, ph)) / (r * SIN),
            (sp.diff(vr, ph) / SIN - sp.diff(r * vp, r)) / r,
            (sp.diff(r * vt, r) - sp.diff(vr, th)) / r)


def cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def on_sphere(expr):
    """expr at r = 1 with h(1), h'(1), h''(1) as the symbols H0, H1, H2."""
    expr = expr.xreplace({sp.diff(h, r, 2): H2, sp.diff(h, r): H1}).xreplace({h: H0})
    return expr.subs(r, 1)


def on_slip_sphere(expr):
    """on_sphere(expr) with h'(1) = -h(1)."""
    return on_sphere(expr).subs(H1, -H0)


def jet_symbols(expr):
    """expr with g and its partials to second order replaced by G_JET."""
    partials = (sp.diff(g, th), sp.diff(g, ph), sp.diff(g, th, 2), sp.diff(g, th, ph),
                sp.diff(g, ph, 2))
    return expr.xreplace(dict(zip(partials, G_JET[1:]))).xreplace({g: G_JET[0]})


U = (sp.Integer(0), -h * sp.diff(g, ph) / SIN, h * sp.diff(g, th))
OMEGA = curl(U)
V = cross(U, OMEGA)
BIG_G = sp.diff(SIN * sp.diff(g, th), th) + sp.diff(g, ph, 2) / SIN


def test_u_is_divergence_free():
    assert sp.simplify(div(U)) == 0


def grad(f):
    return (sp.diff(f, r), sp.diff(f, th) / r, sp.diff(f, ph) / (r * SIN))


def x_cross_grad(f):
    """x x grad(f) in the local spherical basis, with x = r e_r."""
    return cross((r, sp.Integer(0), sp.Integer(0)), grad(f))


def test_u_is_x_cross_the_gradient_of_the_potential():
    assert [sp.simplify(a - b) for a, b in zip(U, x_cross_grad(h * g))] == [0, 0, 0]


def test_x_cross_a_gradient_is_divergence_free():
    psi = sp.Function("psi")(r, th, ph)
    assert sp.simplify(div(x_cross_grad(psi))) == 0


def test_omega_cross_n_vanishes_on_the_slip_sphere():
    omega_x_n = cross(OMEGA, (1, 0, 0))
    assert [sp.simplify(on_slip_sphere(c)) for c in omega_x_n] == [0, 0, 0]


def test_omega_cross_n_factors_through_the_slip_residual():
    _, w_theta, w_phi = (on_sphere(c) for c in OMEGA)
    angular = sp.diff(g, th) ** 2 + sp.diff(g, ph) ** 2 / SIN**2
    assert sp.simplify(w_theta**2 + w_phi**2 - (H0 + H1) ** 2 * angular) == 0


def test_boundary_curl_closed_forms():
    curl_v = curl(V)
    closed_theta = -(2 / SIN**2) * H0 * H1 * sp.diff(g, ph) * BIG_G
    closed_phi = (2 / SIN) * H0 * H1 * sp.diff(g, th) * BIG_G
    assert sp.simplify(on_slip_sphere(curl_v[1] - closed_theta)) == 0
    assert sp.simplify(on_slip_sphere(curl_v[2] - closed_phi)) == 0


def test_perturbed_slip_residual_is_half_eps_h1():
    eps = sp.Symbol("eps")
    h_eps = h * (1 + eps * (r - sp.Rational(3, 4)) ** 2)
    residual = on_slip_sphere(h_eps + sp.diff(h_eps, r))
    assert sp.simplify(residual - eps / 2 * H0) == 0


# -- the Euler step and the flat control, in Cartesian coordinates -------------

XYZ = sp.symbols("x y z", real=True)
T = sp.Symbol("t", real=True)


def cartesian_curl(v):
    x, y, z = XYZ
    return (sp.diff(v[2], y) - sp.diff(v[1], z), sp.diff(v[0], z) - sp.diff(v[2], x),
            sp.diff(v[1], x) - sp.diff(v[0], y))


def advect(a, v):
    """(a . grad) v."""
    return tuple(sum(a_j * sp.diff(v_i, x_j) for a_j, x_j in zip(a, XYZ)) for v_i in v)


def test_euler_step_is_the_curl_of_u_cross_omega():
    u = tuple(sp.Function(f"u_{c}")(*XYZ, T) for c in "xyz")
    p = sp.Function("p")(*XYZ, T)
    omega = cartesian_curl(u)
    u_t = tuple(-a - sp.diff(p, x) for a, x in zip(advect(u, u), XYZ))
    rate = cartesian_curl(u_t)  # omega_t
    curl_v = cartesian_curl(cross(u, omega))
    assert [sp.expand(a - b) for a, b in zip(rate, curl_v)] == [0, 0, 0]
    # the vorticity equation of a divergence-free u: d_z u_z = -(d_x u_x + d_y u_y)
    x, y, z = XYZ
    div_free = {sp.Derivative(u[2], z): -sp.diff(u[0], x) - sp.diff(u[1], y)}
    stretch = tuple(a - b for a, b in zip(advect(omega, u), advect(u, omega)))
    assert [sp.expand((a - b).subs(div_free).doit()) for a, b in zip(curl_v, stretch)] == [0, 0, 0]


def test_flat_control_has_no_tangential_curl_of_u_cross_omega():
    # the general smooth u with u_z = 0 and omega_x = omega_y = 0 on z = 0:
    # u_z = z a, and d_z u_x = d_z u_y = 0 there (omega_y = d_z u_x - d_x u_z)
    x, y, z = XYZ
    a, b, c = (sp.Function(n)(*XYZ) for n in "abc")
    u = (sp.Function("b0")(x, y) + z**2 * b, sp.Function("c0")(x, y) + z**2 * c, z * a)
    omega = cartesian_curl(u)
    assert [sp.simplify(w.subs(z, 0)) for w in omega[:2]] == [0, 0]
    curl_v = cartesian_curl(cross(u, omega))
    assert [sp.simplify(t.subs(z, 0).doit()) for t in curl_v[:2]] == [0, 0]


# -- the numpy kernels against the symbolic expressions ------------------------

HR = sp.symbols("h hp")  # h(r), h'(r) at a generic radius


def numeric(expr):
    """numpy function of (r, theta, h, hp, *G_JET) evaluating expr."""
    expr = jet_symbols(expr.xreplace({sp.diff(h, r): HR[1]}).xreplace({h: HR[0]}))
    return sp.lambdify((r, th, *HR, *G_JET), expr, "numpy")


@pytest.fixture()
def nodes():
    rng = np.random.default_rng(7)
    n = 64
    return {"r": rng.uniform(0.3, 1.0, n), "theta": rng.uniform(0.3, np.pi - 0.3, n),
            "h": rng.normal(size=n), "hp": rng.normal(size=n),
            "jet": rng.normal(size=(6, n))}


def kernel_fields(n):
    st, ct = np.sin(n["theta"]), np.cos(n["theta"])
    _, g_t, g_p, g_tt, _, g_pp = n["jet"]
    big_g = kernels.big_g_values(st, ct, g_t, g_tt, g_pp)
    ut, up = kernels.u_assembly(n["h"], g_t, g_p, st)
    w = kernels.omega_assembly(n["r"], st, n["h"], n["hp"], g_t, g_p, big_g)
    return (np.zeros_like(ut), ut, up), w, kernels.cross_tangential(ut, up, *w)


def test_assembly_kernels_match_symbolic_fields(nodes):
    args = (nodes["r"], nodes["theta"], nodes["h"], nodes["hp"], *nodes["jet"])
    for sym, got in zip((U, OMEGA, V), kernel_fields(nodes)):
        for expr, value in zip(sym, got):
            want = np.broadcast_to(numeric(expr)(*args), value.shape)
            np.testing.assert_allclose(value, want, rtol=1e-12, atol=1e-12)


def test_boundary_curl_assembly_matches_symbolic_trace(nodes):
    curl_v = curl(V)
    st = np.sin(nodes["theta"])
    _, g_t, g_p, g_tt, _, g_pp = nodes["jet"]
    h1 = 0.8
    big_g = kernels.big_g_values(st, np.cos(nodes["theta"]), g_t, g_tt, g_pp)
    got = kernels.boundary_curl_assembly(st, h1, -h1, g_t, g_p, big_g)
    for k, value in zip((1, 2), got):
        expr = jet_symbols(sp.simplify(on_slip_sphere(curl_v[k])))
        want = sp.lambdify((th, H0, *G_JET), expr, "numpy")(nodes["theta"], h1, *nodes["jet"])
        np.testing.assert_allclose(value, want, rtol=1e-12, atol=1e-12)


def test_runtime_does_not_import_sympy():
    # a fresh interpreter importing the package under test, CLI included
    src = str(Path(slipball.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import slipball, slipball.cli; "
            "assert slipball.__file__.startswith(sys.argv[1]), slipball.__file__; "
            "print('sympy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "False"
