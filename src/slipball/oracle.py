"""Finite-difference ground truth, independent of every analytic formula.

Two derivative paths:

* spherical: central differences directly in (r, theta, phi), assembled with
  the same curl formula the analytic side uses;
* Cartesian: fields are sampled at Cartesian stencil points, components
  rotated to Cartesian, differentiated axis by axis, and the result rotated
  back - nothing of the spherical operator formulas is reused.

Both paths consume evaluators only, never analytic jets, and do their
stencil arithmetic on node arrays: each stencil offset is one evaluator
call over all nodes.  Spherical stencil nodes are validated and normalised
as SphPoint does it for one point (phi reduced to [0, 2pi), theta clamped
to [0, pi], r clamped at 0, out-of-range nodes rejected with ValueError).

fd_partial, fd_curl_spherical and fd_boundary_radial_derivative each hold
their stencil once and take two forms: a point form (SphPoint evaluator,
one point, float or SphVec result; the evaluator is looped over the
stencil nodes by _point_scalar / _point_components) and a grid form (array
evaluator fn(r, theta, phi), node arrays, array result).  The *_grid
functions are the grid forms under the naming of the Cartesian ones; they
call into the three functions above, so the spherical oracle's work always
runs under those names, which perfbench/tracer.py times.  cartesian_curl
and cartesian_divergence are point adapters over the Cartesian grid
functions.

Central differences are second order; one Richardson level (enabled by
default) combines D(step) and D(step/2) into (4 D(step/2) - D(step)) / 3.
At r = 1 radial derivatives switch to the one-sided inward stencil with
nodes (r, r-s, r-2s) and weights (3, -4, 1)/(2s); no evaluation outside the
closed ball is ever requested.
"""
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import StencilOutOfDomain
from .sphcalc import _COORD_SLACK, TWO_PI, ScalarJet, SphPoint, SphVec

R_CEILING = 1.05  # interior radial stencils may probe slightly past the sphere
_BOUNDARY_EPS = 1e-12
_AXES = {"r": 0, "theta": 1, "phi": 2}


@dataclass(frozen=True)
class FDConfig:
    step: float = 1e-4
    richardson: bool = True

    def __post_init__(self):
        if not 1e-8 <= self.step <= 1e-2:
            raise ValueError(f"step {self.step} outside [1e-8, 1e-2]")


def _richardson(d_at, step, enabled):
    if not enabled:
        return d_at(step)
    return (4.0 * d_at(step / 2.0) - d_at(step)) / 3.0


def _nodes(*coords):
    """Node coordinates as contiguous float64 arrays of one shape, at least 1-D."""
    arrays = np.broadcast_arrays(*(np.asarray(c, dtype=np.float64) for c in coords))
    return [np.ascontiguousarray(np.atleast_1d(a)) for a in arrays]


def _normalise(r, theta, phi):
    """Nodes as SphPoint stores them: r >= 0, theta in [0, pi], phi in [0, 2pi).

    Raises ValueError for a node SphPoint would reject: non-finite, r below
    0 or theta outside [0, pi] by more than the coordinate slack.
    """
    for name, c in (("r", r), ("theta", theta), ("phi", phi)):
        if not np.all(np.isfinite(c)):
            raise ValueError(f"non-finite coordinate {name}={c[~np.isfinite(c)].flat[0]}")
    if np.any(r < -_COORD_SLACK):
        raise ValueError(f"negative radius r={r[r < -_COORD_SLACK].flat[0]}")
    bad = (theta < -_COORD_SLACK) | (theta > math.pi + _COORD_SLACK)
    if np.any(bad):
        raise ValueError(f"colatitude out of range theta={theta[bad].flat[0]}")
    phi = np.mod(phi, TWO_PI)
    phi[phi == TWO_PI] = 0.0  # guard against rounding in the modulo itself
    return np.maximum(r, 0.0), np.clip(theta, 0.0, math.pi), phi


def _grid(p):
    """Normalised node arrays of p: a SphPoint or an (r, theta, phi) tuple."""
    if isinstance(p, SphPoint):
        p = (p.r, p.theta, p.phi)
    return _normalise(*_nodes(*p))


def _out_of_domain(ok, where, values, step):
    if not np.all(ok):
        raise StencilOutOfDomain(f"{where}={values[~ok].flat[0]} with step {step}")


def _point_components(field):
    def fn(r, theta, phi):
        vr = np.empty_like(r)
        vt = np.empty_like(r)
        vp = np.empty_like(r)
        for i in range(r.size):
            v = field(SphPoint(r.flat[i], theta.flat[i], phi.flat[i]))
            vr.flat[i], vt.flat[i], vp.flat[i] = v.vr, v.vtheta, v.vphi
        return vr, vt, vp
    return fn


def _point_scalar(f):
    def fn(r, theta, phi):
        out = np.empty_like(r)
        for i in range(r.size):
            out.flat[i] = f(SphPoint(r.flat[i], theta.flat[i], phi.flat[i]))
        return out
    return fn


def fd_partial(f, p, coordinate: str, cfg: FDConfig = FDConfig()):
    """Partial derivative of a field at p.

    Point form: p is a SphPoint and f(SphPoint) a float; returns a float.
    Grid form (fd_partial_grid): p is an (r, theta, phi) tuple of node
    arrays and f maps float64 arrays (r, theta, phi) to an array, or to a
    tuple of arrays (a stack of fields, which gives the result the same
    leading axis); returns the derivative at every node.

    Central second-order stencil; radial derivatives at nodes with r = 1
    take the one-sided inward stencil.  Raises StencilOutOfDomain when any
    node's stencil would leave the domain.
    """
    if coordinate not in _AXES:
        raise ValueError(f"unknown coordinate {coordinate!r}")
    point = isinstance(p, SphPoint)
    fn = _point_scalar(f) if point else f
    axis = _AXES[coordinate]
    base = _grid(p)
    r, theta = base[0], base[1]
    s = cfg.step
    edge = np.zeros(r.shape, dtype=bool)
    if coordinate == "r":
        edge = np.abs(r - 1.0) <= _BOUNDARY_EPS
        inner = r[~edge]
        _out_of_domain((inner - 2.0 * s > 0.0) & (inner + 2.0 * s < R_CEILING),
                       "radial stencil at r", inner, s)
    elif coordinate == "theta":
        _out_of_domain((theta - 2.0 * s > 0.0) & (theta + 2.0 * s < math.pi),
                       "polar stencil at theta", theta, s)

    def shifted(offset):
        coords = list(base)
        coords[axis] = coords[axis] + offset
        return np.asarray(fn(*_normalise(*coords)), dtype=np.float64)

    def d_at(h):
        # `front` is the node itself where one-sided, else the + h node
        front = shifted(np.where(edge, 0.0, h))
        back = shifted(-h)
        d = (front - back) / (2.0 * h)
        if edge.any():
            d = np.where(edge, (3.0 * front - 4.0 * back + shifted(-2.0 * h)) / (2.0 * h), d)
        return d

    d = _richardson(d_at, s, cfg.richardson)
    return float(d[0]) if point else d


def fd_partial_grid(fn, r, theta, phi, coordinate: str, cfg: FDConfig = FDConfig()):
    """Partial derivative of the array field fn(r, theta, phi) at every node
    (the grid form of fd_partial)."""
    return fd_partial(fn, (r, theta, phi), coordinate, cfg)


def fd_scalar_jet(f, p: SphPoint, cfg: FDConfig = FDConfig()) -> ScalarJet:
    """First-order jet of f at p by finite differences (second-order slots stay 0)."""
    return ScalarJet(
        value=f(p),
        d_r=fd_partial(f, p, "r", cfg),
        d_theta=fd_partial(f, p, "theta", cfg),
        d_phi=fd_partial(f, p, "phi", cfg),
    )


def fd_curl_spherical(field, p, cfg: FDConfig = FDConfig()):
    """Curl at p with every derivative replaced by a finite difference.

    Point form: p is a SphPoint and field(SphPoint) a SphVec; returns a
    SphVec.  Grid form (fd_curl_spherical_grid): p is an (r, theta, phi)
    tuple of node arrays and field maps float64 arrays (r, theta, phi) to
    the component arrays (v_r, v_theta, v_phi); returns the curl's
    component arrays.
    """
    point = isinstance(p, SphPoint)
    components_fn = _point_components(field) if point else field
    nodes = _grid(p)

    def theta_parts(r, t, p):
        vr, _, vp = components_fn(r, t, p)
        return vp * np.sin(t), vr

    def phi_parts(r, t, p):
        vr, vt, _ = components_fn(r, t, p)
        return vt, vr

    def r_parts(r, t, p):
        _, vt, vp = components_fn(r, t, p)
        return r * vp, r * vt

    d_upsin_dt, d_ur_dt = fd_partial(theta_parts, nodes, "theta", cfg)
    d_ut_dp, d_ur_dp = fd_partial(phi_parts, nodes, "phi", cfg)
    d_rup_dr, d_rut_dr = fd_partial(r_parts, nodes, "r", cfg)
    r, st = nodes[0], np.sin(nodes[1])
    curl = ((d_upsin_dt - d_ut_dp) / (r * st),
            (d_ur_dp / st - d_rup_dr) / r,
            (d_rut_dr - d_ur_dt) / r)
    return SphVec(*(float(c[0]) for c in curl)) if point else curl


def fd_curl_spherical_grid(components_fn, r, theta, phi, cfg: FDConfig = FDConfig()):
    """Curl at every node (the grid form of fd_curl_spherical).

    components_fn maps float64 arrays (r, theta, phi) to the spherical
    component arrays (v_r, v_theta, v_phi); returns the curl's components.
    """
    return fd_curl_spherical(components_fn, (r, theta, phi), cfg)


def fd_boundary_radial_derivative(f, theta, phi, cfg: FDConfig = FDConfig()):
    """(1/r) d_r(r f) at r = 1, by the one-sided inward stencil of fd_partial.

    Point form: theta and phi are numbers and f(SphPoint) a float; returns
    a float.  Grid form (fd_boundary_radial_derivative_grid): theta and phi
    are node arrays and f maps float64 arrays (r, theta, phi) to an array;
    returns the derivative at every node.
    """
    point = np.ndim(theta) == 0 and np.ndim(phi) == 0
    fn = _point_scalar(f) if point else f
    theta, phi = _nodes(theta, phi)
    d = fd_partial(lambda r, t, p: r * np.asarray(fn(r, t, p)),
                   (np.ones_like(theta), theta, phi), "r", cfg)
    return float(d[0]) if point else d


def fd_boundary_radial_derivative_grid(fn, theta, phi, cfg: FDConfig = FDConfig()):
    """(1/r) d_r(r fn) at r = 1 and every (theta, phi) node (the grid form
    of fd_boundary_radial_derivative)."""
    theta, phi = _nodes(theta, phi)
    return fd_boundary_radial_derivative(fn, theta, phi, cfg)


def _check_cartesian_stencil(x, y, z, step):
    r = np.sqrt(x * x + y * y + z * z)
    if np.any(r + step > 1.0 + _BOUNDARY_EPS):
        raise StencilOutOfDomain("Cartesian stencil leaves the unit ball")
    if np.any(np.sqrt(x * x + y * y) < 2.0 * step):
        raise StencilOutOfDomain("Cartesian stencil too close to the polar axis")


def _cartesian_field(components_fn, x, y, z):
    r, theta, phi = kernels.cart_to_sph(x, y, z)
    vr, vt, vp = components_fn(r, theta, phi)
    return kernels.vec_sph_to_cart(theta, phi, vr, vt, vp)


def cartesian_jacobian_grid(components_fn, r, theta, phi, cfg: FDConfig = FDConfig()):
    """3x3 Jacobian dW_i/dx_j of the Cartesian field at each grid node.

    components_fn maps float64 arrays (r, theta, phi) to spherical component
    arrays; everything here is vectorized over the nodes.
    """
    r, theta, phi = _nodes(r, theta, phi)
    x, y, z = kernels.sph_to_cart(r, theta, phi)
    _check_cartesian_stencil(x, y, z, cfg.step)
    base = [x, y, z]

    def column(j, h):
        plus = list(base)
        minus = list(base)
        plus[j] = base[j] + h
        minus[j] = base[j] - h
        wp = _cartesian_field(components_fn, *plus)
        wm = _cartesian_field(components_fn, *minus)
        return [(wp[i] - wm[i]) / (2.0 * h) for i in range(3)]

    jac = [[None] * 3 for _ in range(3)]
    for j in range(3):
        if cfg.richardson:
            c1 = column(j, cfg.step)
            c2 = column(j, cfg.step / 2.0)
            col = [(4.0 * c2[i] - c1[i]) / 3.0 for i in range(3)]
        else:
            col = column(j, cfg.step)
        for i in range(3):
            jac[i][j] = col[i]
    return jac


def cartesian_divergence_grid(components_fn, r, theta, phi, cfg: FDConfig = FDConfig()):
    jac = cartesian_jacobian_grid(components_fn, r, theta, phi, cfg)
    return jac[0][0] + jac[1][1] + jac[2][2]


def cartesian_curl_grid(components_fn, r, theta, phi, cfg: FDConfig = FDConfig()):
    """Curl in the local spherical basis via the fully Cartesian path."""
    r, theta, phi = _nodes(r, theta, phi)
    jac = cartesian_jacobian_grid(components_fn, r, theta, phi, cfg)
    cx = jac[2][1] - jac[1][2]
    cy = jac[0][2] - jac[2][0]
    cz = jac[1][0] - jac[0][1]
    return kernels.vec_cart_to_sph(theta, phi, cx, cy, cz)


def cartesian_curl(field, p: SphPoint, cfg: FDConfig = FDConfig()) -> SphVec:
    """Point version of cartesian_curl_grid for a SphPoint -> SphVec field."""
    cr, ct, cp = cartesian_curl_grid(_point_components(field), p.r, p.theta, p.phi, cfg)
    return SphVec(float(cr[0]), float(ct[0]), float(cp[0]))


def cartesian_divergence(field, p: SphPoint, cfg: FDConfig = FDConfig()) -> float:
    div = cartesian_divergence_grid(_point_components(field), p.r, p.theta, p.phi, cfg)
    return float(div[0])

