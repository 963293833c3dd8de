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
  point, and every shifted point has rho >= step, since _checked_points
  requires rho >= 2 * step at its base node.

Both paths consume evaluators only, never analytic jets, and do their
stencil arithmetic on node arrays in as few evaluator calls as the
stencil allows.  A spherical stencil is one call that takes every shifted
node set (+-h, the one-sided -2h at r = 1, both Richardson levels), and
fd_curl_spherical makes one call for the stencils of all three
coordinates (7 node sets, 14 with Richardson); the Cartesian Jacobian is
one call that takes every stencil point of every node (6 per node, 12
with Richardson), after every node is checked against the domain.  None
of it changes a bit, as the work is elementwise and every evaluator is
pointwise.  Node arrays need only broadcast together: flat nodes share one
shape, and a lattice may pass its axes as (n_r, 1, 1), (1, n_theta, 1)
and (1, 1, n_phi).  Every entry takes its raw coordinates through
sphcalc._normalise, the one node entry that SphPoint also takes: it shapes
them by sphcalc._node_arrays (at least 1-D, one ndim; lattice axes keep
their shapes, anything else is broadcast) and validates them (phi reduced
to [0, 2pi), theta clamped to [0, pi], r clamped at 0, out-of-range nodes
rejected with ConfigError); nothing here shapes nodes of its own.  A
spherical stencil concatenates the shifted coordinate's copies along the
axis where it varies most and tiles the other coordinates only where they
vary along it, so flat nodes are concatenated along their axis and a
lattice's other axes keep their shapes: the divergence check's two calls
of g take (1, 2 n_theta, 1) and (1, 1, 2 n_phi) axes, not a plane per
offset.  fd_curl_spherical broadcasts its normalised nodes once, so that
its three stencils share one axis, and _checked_points broadcasts
sph_to_cart's output once.

_stencil holds the spherical stencil once (its domain rule, shifted node
sets and difference weights), and fd_partial, fd_curl_spherical and
fd_boundary_radial_derivative read it; cartesian_jacobian_grid is the one
Cartesian stencil and the one oracle that enforces its domain rule
(cartesian_stencil_fits only tells which nodes pass it), and
cartesian_divergence_grid and cartesian_curl_grid read a Jacobian it
returned, evaluating nothing.  Every oracle that differentiates takes an
array evaluator fn(r, theta, phi) and node arrays and returns arrays.  In
verify, fd_partial differences g along the interior lattice's theta and
phi axes for the divergence check, which compares u with x x grad(h g);
the oracle-agreement check takes one Jacobian of u at its 50 seeded nodes
and gates both its curl, against the closed-form omega, and its trace, the
independent Cartesian divergence.

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
from .errors import ConfigError, StencilOutOfDomain
from .sphcalc import _normalise, store_field

R_CEILING = 1.05  # interior radial stencils may probe slightly past the sphere
_BOUNDARY_EPS = 1e-12
_AXES = {"r": 0, "theta": 1, "phi": 2}


@dataclass(frozen=True)
class FDConfig:
    step: float = 1e-6
    richardson: bool = False

    def __post_init__(self):
        given = self.step  # the message names the value as given
        if not 1e-8 <= store_field(self, "step", float) <= 1e-2:
            raise ConfigError(f"step {given} outside [1e-8, 1e-2]")
        store_field(self, "richardson", bool)


def _richardson(d_at, step, enabled):
    if not enabled:
        return d_at(step)
    return (4.0 * d_at(step / 2.0) - d_at(step)) / 3.0


def _out_of_domain(ok, where, values, step):
    if not np.all(ok):
        raise StencilOutOfDomain(f"{where}={values[~ok].flat[0]} with step {step}")


def _stencil(nodes, coordinate, cfg):
    """The spherical stencil along `coordinate` at the node arrays (as
    _normalise returns them): (points, combine).  points are the normalised
    node arrays of every shifted node set at once: the shifted coordinate's
    copies are concatenated along the axis where it varies most (the axis of
    flat nodes; a lattice's other axes keep their own shapes), and the other
    coordinates are tiled only where they vary along that axis.
    combine(values) takes the field at the points, one array of their
    broadcast shape (a stack of fields on a leading axis), and returns the
    derivative at the nodes.  Raises StencilOutOfDomain, before anything is
    evaluated, when a node's stencil would leave the domain."""
    k = _AXES[coordinate]
    c, s = nodes[k], cfg.step
    edge = np.zeros(c.shape, dtype=bool)
    if coordinate == "r":
        edge = np.abs(c - 1.0) <= _BOUNDARY_EPS
        inner = c[~edge]
        _out_of_domain((inner - 2.0 * s > 0.0) & (inner + 2.0 * s < R_CEILING),
                       "radial stencil at r", inner, s)
    elif coordinate == "theta":
        _out_of_domain((c - 2.0 * s > 0.0) & (c + 2.0 * s < math.pi),
                       "polar stencil at theta", c, s)
    one_sided = bool(edge.any())
    levels = (s, s / 2.0) if cfg.richardson else (s,)
    # per level: the node itself where one-sided, else the + h node; the
    # - h node; and, if any node is one-sided, the - 2h node
    offsets = [o for h in levels
               for o in (np.where(edge, 0.0, h), -h) + ((-2.0 * h,) if one_sided else ())]
    axis = int(np.argmax(c.shape))
    along = list(c.shape)
    along[axis] = max(a.shape[axis] for a in nodes)  # the nodes share one ndim
    points = [np.concatenate([np.broadcast_to(c + o, along) for o in offsets], axis) if j == k
              else np.concatenate([a] * len(offsets), axis) if a.shape[axis] > 1 else a
              for j, a in enumerate(nodes)]

    def combine(values):
        pieces = np.split(values, len(offsets), axis - c.ndim)
        per_level = len(offsets) // len(levels)
        at_step = {h: pieces[i * per_level:(i + 1) * per_level] for i, h in enumerate(levels)}

        def d_at(h):
            # `front` is the node itself where one-sided, else the + h node
            front, back, *far = at_step[h]
            d = (front - back) / (2.0 * h)
            if one_sided:
                d = np.where(edge, (3.0 * front - 4.0 * back + far[0]) / (2.0 * h), d)
            return d
        return _richardson(d_at, s, cfg.richardson)
    return _normalise(*points), combine


def _evaluate(fn, points):
    """fn at the points as one float64 array of their broadcast shape, with
    a leading axis for a stack of fields (a tuple, or an array of more
    dimensions)."""
    shape = np.broadcast_shapes(*(p.shape for p in points))
    values = fn(*points)
    if isinstance(values, (tuple, list)):
        values = np.stack(np.broadcast_arrays(*values))
    values = np.asarray(values, dtype=np.float64)
    return np.broadcast_to(values, values.shape[:max(0, values.ndim - len(shape))] + shape)


def fd_partial(fn, r, theta, phi, coordinate: str, cfg: FDConfig = FDConfig()):
    """Partial derivative of the array field fn(r, theta, phi) at every node.

    fn maps float64 arrays (r, theta, phi) to an array, or to a tuple of
    arrays (a stack of fields, which gives the result the same leading
    axis), and must be pointwise: one call takes every shifted node set of
    the stencil (both Richardson levels included).  Central second-order
    stencil; radial derivatives at nodes with r = 1 take the one-sided
    inward stencil.  Raises StencilOutOfDomain when any node's stencil would
    leave the domain.
    """
    if coordinate not in _AXES:
        raise ConfigError(f"unknown coordinate {coordinate!r}")
    points, combine = _stencil(_normalise(r, theta, phi), coordinate, cfg)
    return combine(_evaluate(fn, points))


def fd_curl_spherical(components_fn, r, theta, phi, cfg: FDConfig = FDConfig()):
    """Curl at every node with every derivative replaced by a finite difference.

    components_fn maps float64 arrays (r, theta, phi) to the spherical
    component arrays (v_r, v_theta, v_phi), pointwise; one call takes the
    stencils of all three coordinates (7 shifted node sets, 14 with
    Richardson), after the theta and then the r stencil are checked against
    the domain.  Returns the curl's components.
    """
    # on nodes of one shape every stencil concatenates along the same axis
    nodes = np.broadcast_arrays(*_normalise(r, theta, phi))
    axis = int(np.argmax(nodes[0].shape)) - nodes[0].ndim
    (at_t, by_t), (at_p, by_p), (at_r, by_r) = (
        _stencil(nodes, c, cfg) for c in ("theta", "phi", "r"))
    points = [np.broadcast_arrays(*at) for at in (at_t, at_p, at_r)]
    fields = _evaluate(components_fn, [np.concatenate(c, axis) for c in zip(*points)])
    v_t, v_p, v_r = np.split(fields, np.cumsum([at[0].shape[axis] for at in points[:2]]), axis)
    d_upsin_dt, d_ur_dt = by_t(np.stack([v_t[2] * np.sin(at_t[1]), v_t[0]]))
    d_ut_dp, d_ur_dp = by_p(np.stack([v_p[1], v_p[0]]))
    d_rup_dr, d_rut_dr = by_r(np.stack([at_r[0] * v_r[2], at_r[0] * v_r[1]]))
    r, st = nodes[0], np.sin(nodes[1])
    return ((d_upsin_dt - d_ut_dp) / (r * st),
            (d_ur_dp / st - d_rup_dr) / r,
            (d_rut_dr - d_ur_dt) / r)


def fd_boundary_radial_derivative(fn, theta, phi, cfg: FDConfig = FDConfig()):
    """(1/r) d_r(r fn) at r = 1 and every (theta, phi) node, by the one-sided
    inward stencil of fd_partial (one fn call); fn maps float64 arrays
    (r, theta, phi) to an array, pointwise."""
    return fd_partial(lambda r, t, p: r * np.asarray(fn(r, t, p)), 1.0, theta, phi, "r", cfg)


def _cartesian_domain(x, y, z, step):
    """The one stencil-domain rule, per node: (what, value, holds) for the
    stencil staying inside the ball and off the polar axis."""
    r, rho = np.sqrt(x * x + y * y + z * z), np.sqrt(x * x + y * y)
    return (("leaves the unit ball at r", r, r + step <= 1.0 + _BOUNDARY_EPS),
            ("too close to the polar axis (needs rho >= 2 * step) at rho", rho, rho >= 2.0 * step))


def cartesian_stencil_fits(r, theta, phi, step):
    """Nodes whose Cartesian stencil of the given step the oracle accepts."""
    (*_, inside), (*_, off_axis) = _cartesian_domain(
        *kernels.sph_to_cart(*_normalise(r, theta, phi)), step)
    return inside & off_axis


def _checked_points(r, theta, phi, step):
    """(shape of the nodes, (3, n) array of x, y, z at every node, raveled)
    after every node is checked against the stencil domain; the message
    names the first node that breaks the first rule."""
    x, y, z = np.broadcast_arrays(*kernels.sph_to_cart(*_normalise(r, theta, phi)))
    for what, value, holds in _cartesian_domain(x, y, z, step):
        _out_of_domain(holds, f"Cartesian stencil {what}", value, step)
    return x.shape, np.array([c.ravel() for c in (x, y, z)])


def cartesian_jacobian_grid(components_fn, r, theta, phi, cfg: FDConfig = FDConfig()):
    """Jacobian dW_i/dx_j of the Cartesian field at each grid node, as one
    (3, 3, *shape) array, so jac[i][j] is the array of dW_i/dx_j.

    components_fn maps float64 arrays (r, theta, phi) to spherical component
    arrays; everything here is vectorized over the nodes, which are checked
    and normalised as the spherical oracles check them.  One components_fn
    call takes every stencil point: each offset (+-h along x, y and z, at
    step and, with Richardson, at step / 2) shifts every node.
    """
    shape, base = _checked_points(r, theta, phi, cfg.step)
    n = base.shape[1]
    levels = (cfg.step, cfg.step / 2.0) if cfg.richardson else (cfg.step,)
    offsets = [(j, sign * h) for h in levels for j in range(3) for sign in (1.0, -1.0)]
    shifted = np.tile(base, len(offsets))  # offset k: columns k n to (k + 1) n
    for k, (j, offset) in enumerate(offsets):
        shifted[j, k * n:(k + 1) * n] += offset
    x, y, _ = shifted
    rho = np.sqrt(x * x + y * y)  # >= step, as _checked_points asks rho >= 2 * step
    r, theta, phi = kernels.cart_to_sph(*shifted, rho)
    w = np.array(kernels.vec_sph_to_cart_at(*shifted, r, rho,
                                            *_evaluate(components_fn, (r, theta, phi))))
    at = dict(zip(offsets, np.split(w, len(offsets), axis=1)))
    jac = np.stack([_richardson(lambda h: (at[j, h] - at[j, -h]) / (2.0 * h),
                                cfg.step, cfg.richardson) for j in range(3)], axis=1)
    return jac.reshape((3, 3) + shape)


def cartesian_divergence_grid(jac):
    """The trace dxx + dyy + dzz of a cartesian_jacobian_grid Jacobian."""
    return jac[0, 0] + jac[1, 1] + jac[2, 2]


def cartesian_curl_grid(jac, theta, phi):
    """The curl of a cartesian_jacobian_grid Jacobian, its antisymmetric
    part, in the local spherical basis at the Jacobian's nodes (theta and
    phi as _normalise returns them)."""
    return kernels.vec_cart_to_sph(theta, phi, jac[2, 1] - jac[1, 2], jac[0, 2] - jac[2, 0],
                                   jac[1, 0] - jac[0, 1])
