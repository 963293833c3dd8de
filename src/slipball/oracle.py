"""Finite-difference ground truth, independent of every analytic formula.

Two derivative paths:

* spherical: central differences directly in (r, theta, phi), assembled with
  the spherical curl formula;
* Cartesian: fields are sampled at Cartesian stencil points, components
  rotated to Cartesian, differentiated axis by axis, and the result rotated
  back - nothing of the spherical operator formulas is reused.  Each
  stencil point is rotated with its own x, y, z and the r and
  rho = sqrt(x^2 + y^2) that kernels.cart_to_sph used for it
  (kernels.vec_sph_to_cart_at, no trig); rho is computed once per shifted
  point, and every shifted point has rho >= step, since
  _check_cartesian_stencil requires rho >= 2 * step at its base node.

Both paths consume evaluators only, never analytic jets, and do their
stencil arithmetic on node arrays: each stencil offset is one evaluator
call over all nodes.  Node arrays need only broadcast together: flat nodes
share one shape, and a lattice may pass its axes as (n_r, 1, 1),
(1, n_theta, 1) and (1, 1, n_phi).  _nodes validates and normalises each
array in its own shape with sphcalc._normalise, the one normaliser that
SphPoint also uses (phi reduced to [0, 2pi), theta clamped to [0, pi], r
clamped at 0, out-of-range nodes rejected with ValueError).  The Cartesian
oracles transform the arrays as given and broadcast only the products that
need every node, so lattice axes cost one sine and cosine per axis value;
the spherical stencils broadcast the nodes first.

fd_partial, fd_curl_spherical and fd_boundary_radial_derivative hold the
spherical stencils once each; the Cartesian oracles share one stencil loop,
and the divergence builds no Jacobian.  Every oracle takes an array
evaluator fn(r, theta, phi) and node arrays and returns arrays.

The Cartesian Jacobian and divergence take an optional boolean node mask,
the stencil-reach mask: the caller's promise that the field vanishes on
every stencil point of the nodes outside it.  Every node is still checked
against the domain (cartesian_stencil_fits), but only masked nodes are
evaluated; the others get an exact 0.

Central differences are second order; the default is one difference at
step 1e-6, where truncation and rounding balance (tests/test_fd_error.py
pins its error).  Richardson is opt-in: one level combines D(step) and
D(step/2) into (4 D(step/2) - D(step)) / 3 at twice the field evaluations,
and steps above about 5e-6 need it.
At r = 1 radial derivatives switch to the one-sided inward stencil with
nodes (r, r-s, r-2s) and weights (3, -4, 1)/(2s), so the boundary oracles
evaluate nothing outside the closed ball; the central radial stencil of an
interior node may reach past the sphere, up to R_CEILING.
"""
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import StencilOutOfDomain
from .sphcalc import _normalise

R_CEILING = 1.05  # interior radial stencils may probe slightly past the sphere
_BOUNDARY_EPS = 1e-12
_AXES = {"r": 0, "theta": 1, "phi": 2}


@dataclass(frozen=True)
class FDConfig:
    step: float = 1e-6
    richardson: bool = False

    def __post_init__(self):
        if not 1e-8 <= self.step <= 1e-2:
            raise ValueError(f"step {self.step} outside [1e-8, 1e-2]")


def _richardson(d_at, step, enabled):
    if not enabled:
        return d_at(step)
    return (4.0 * d_at(step / 2.0) - d_at(step)) / 3.0


def _nodes(r, theta, phi):
    """Normalised float64 node arrays, at least 1-D, each in its own shape;
    the shapes broadcast together.  Flat nodes share one shape; a lattice
    passes its axes as (n_r, 1, 1), (1, n_theta, 1) and (1, 1, n_phi), so
    each is normalised once per axis value, not once per node."""
    arrays = [np.atleast_1d(np.asarray(c, dtype=np.float64)) for c in (r, theta, phi)]
    np.broadcast_shapes(*(a.shape for a in arrays))
    return _normalise(*arrays)


def _out_of_domain(ok, where, values, step):
    if not np.all(ok):
        raise StencilOutOfDomain(f"{where}={values[~ok].flat[0]} with step {step}")


def fd_partial(fn, r, theta, phi, coordinate: str, cfg: FDConfig = FDConfig()):
    """Partial derivative of the array field fn(r, theta, phi) at every node.

    fn maps float64 arrays (r, theta, phi) to an array, or to a tuple of
    arrays (a stack of fields, which gives the result the same leading
    axis).  Central second-order stencil; radial derivatives at nodes with
    r = 1 take the one-sided inward stencil.  Raises StencilOutOfDomain when
    any node's stencil would leave the domain.
    """
    if coordinate not in _AXES:
        raise ValueError(f"unknown coordinate {coordinate!r}")
    axis = _AXES[coordinate]
    base = np.broadcast_arrays(*_nodes(r, theta, phi))
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

    return _richardson(d_at, s, cfg.richardson)


def fd_curl_spherical(components_fn, r, theta, phi, cfg: FDConfig = FDConfig()):
    """Curl at every node with every derivative replaced by a finite difference.

    components_fn maps float64 arrays (r, theta, phi) to the spherical
    component arrays (v_r, v_theta, v_phi); returns the curl's components.
    """
    nodes = _nodes(r, theta, phi)

    def theta_parts(r, t, p):
        vr, _, vp = components_fn(r, t, p)
        return vp * np.sin(t), vr

    def phi_parts(r, t, p):
        vr, vt, _ = components_fn(r, t, p)
        return vt, vr

    def r_parts(r, t, p):
        _, vt, vp = components_fn(r, t, p)
        return r * vp, r * vt

    d_upsin_dt, d_ur_dt = fd_partial(theta_parts, *nodes, "theta", cfg)
    d_ut_dp, d_ur_dp = fd_partial(phi_parts, *nodes, "phi", cfg)
    d_rup_dr, d_rut_dr = fd_partial(r_parts, *nodes, "r", cfg)
    r, st = nodes[0], np.sin(nodes[1])
    return ((d_upsin_dt - d_ut_dp) / (r * st),
            (d_ur_dp / st - d_rup_dr) / r,
            (d_rut_dr - d_ur_dt) / r)


def fd_boundary_radial_derivative(fn, theta, phi, cfg: FDConfig = FDConfig()):
    """(1/r) d_r(r fn) at r = 1 and every (theta, phi) node, by the one-sided
    inward stencil of fd_partial; fn maps float64 arrays (r, theta, phi) to
    an array."""
    return fd_partial(lambda r, t, p: r * np.asarray(fn(r, t, p)), 1.0, theta, phi, "r", cfg)


def _cartesian_margins(x, y, z, step):
    """Per node: (stencil inside the ball, stencil off the polar axis)."""
    inside = np.sqrt(x * x + y * y + z * z) + step <= 1.0 + _BOUNDARY_EPS
    return inside, np.sqrt(x * x + y * y) >= 2.0 * step


def cartesian_stencil_fits(r, theta, phi, step):
    """Nodes whose Cartesian stencil of the given step the oracle accepts."""
    inside, off_axis = _cartesian_margins(*kernels.sph_to_cart(*_nodes(r, theta, phi)), step)
    return inside & off_axis


def _check_cartesian_stencil(x, y, z, step):
    inside, off_axis = _cartesian_margins(x, y, z, step)
    if not np.all(inside):
        raise StencilOutOfDomain("Cartesian stencil leaves the unit ball")
    if not np.all(off_axis):
        raise StencilOutOfDomain("Cartesian stencil too close to the polar axis")


def _kept_points(r, theta, phi, step, mask):
    """(kept-node mask, [x, y, z] at the kept nodes) after every node is
    checked; the nodes are transformed in their own shapes (the axes of a
    lattice, say) and broadcast only by the arithmetic that needs every
    node, and no full-size array outlives this call."""
    x, y, z = kernels.sph_to_cart(*_nodes(r, theta, phi))
    _check_cartesian_stencil(x, y, z, step)
    shape = np.broadcast_shapes(x.shape, y.shape, z.shape)
    keep = np.broadcast_to(True if mask is None else mask, shape)
    return keep, [np.broadcast_to(c, shape)[keep] for c in (x, y, z)]


def _cartesian_columns(components_fn, convert, r, theta, phi, cfg, mask):
    """(kept-node mask, [d/dx_j of convert(j, x, y, z, r, rho, *components)
    for j = 0, 1, 2] at the kept nodes), one components_fn call per offset;
    (x, y, z) is the shifted stencil point, rho = sqrt(x^2 + y^2) >= step
    there, and (r, rho) are those kernels.cart_to_sph used for it."""
    keep, base = _kept_points(r, theta, phi, cfg.step, mask)
    # a shift along z keeps x and y, so rho is that of the base node
    base_rho = np.sqrt(base[0] * base[0] + base[1] * base[1])

    def column(j, h):
        def field_at(offset):
            shifted = base.copy()
            shifted[j] = base[j] + offset
            x, y, _ = shifted
            rho = base_rho if j == 2 else np.sqrt(x * x + y * y)
            r, theta, phi = kernels.cart_to_sph(*shifted, rho)
            return np.asarray(convert(j, *shifted, r, rho, *components_fn(r, theta, phi)))
        return (field_at(h) - field_at(-h)) / (2.0 * h)

    return keep, [_richardson(lambda h: column(j, h), cfg.step, cfg.richardson)
                  for j in range(3)]


def cartesian_jacobian_grid(components_fn, r, theta, phi, cfg: FDConfig = FDConfig(),
                            mask=None):
    """Jacobian dW_i/dx_j of the Cartesian field at each grid node, as one
    (3, 3, *shape) array, so jac[i][j] is the array of dW_i/dx_j.

    components_fn maps float64 arrays (r, theta, phi) to spherical component
    arrays; everything here is vectorized over the nodes, which are checked
    and normalised as the spherical oracles check them.  With a boolean
    mask (broadcast to the nodes; None keeps all), every node is checked but
    only masked nodes are evaluated; the Jacobian is exactly 0 at the others.
    """
    def convert(j, *point_and_components):
        return [kernels.vec_sph_to_cart_at(i, *point_and_components) for i in range(3)]

    keep, columns = _cartesian_columns(components_fn, convert, r, theta, phi, cfg, mask)
    jac = np.zeros((3, 3) + keep.shape)
    for j, col in enumerate(columns):
        jac[:, j, keep] = col
    return jac


def cartesian_divergence_grid(components_fn, r, theta, phi, cfg: FDConfig = FDConfig(),
                              mask=None):
    """The trace of cartesian_jacobian_grid, bit for bit; the shifts along
    x_j convert only W_j to Cartesian."""
    keep, (dxx, dyy, dzz) = _cartesian_columns(
        components_fn, kernels.vec_sph_to_cart_at, r, theta, phi, cfg, mask)
    div = np.zeros(keep.shape)
    div[keep] = dxx + dyy + dzz
    return div


def cartesian_curl_grid(components_fn, r, theta, phi, cfg: FDConfig = FDConfig()):
    """Curl in the local spherical basis via the fully Cartesian path."""
    r, theta, phi = _nodes(r, theta, phi)
    jac = cartesian_jacobian_grid(components_fn, r, theta, phi, cfg)
    cx = jac[2][1] - jac[1][2]
    cy = jac[0][2] - jac[2][0]
    cz = jac[1][0] - jac[0][1]
    return kernels.vec_cart_to_sph(theta, phi, cx, cy, cz)
