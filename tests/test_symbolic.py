"""Symbolic certificate of the family's closed forms, for generic h(r) and g(theta, phi).

The identities below hold for every radial profile h and angular function
g, not only for the shipped ones:

* div u = 0 everywhere;
* omega x n = 0 at r = 1 once h'(1) = -h(1) (the slip condition);
* at r = 1, under the slip condition, the tangential components of
  curl(u x omega) are the closed forms of the family module docstring,
  [curl v]_theta = -(2 / sin^2) h(1) h'(1) g_phi G and
  [curl v]_phi = (2 / sin) h(1) h'(1) g_theta G;
* the perturbed profile h (1 + eps (r - 3/4)^2) moves h(1) + h'(1) to
  (eps / 2) h(1).

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


def on_slip_sphere(expr):
    """expr at r = 1 with h(1), h'(1), h''(1) as symbols and h'(1) = -h(1)."""
    expr = expr.xreplace({sp.diff(h, r, 2): H2, sp.diff(h, r): H1}).xreplace({h: H0})
    return expr.subs(r, 1).subs(H1, -H0)


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


def test_omega_cross_n_vanishes_on_the_slip_sphere():
    omega_x_n = cross(OMEGA, (1, 0, 0))
    assert [sp.simplify(on_slip_sphere(c)) for c in omega_x_n] == [0, 0, 0]


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
