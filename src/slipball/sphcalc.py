"""Spherical coordinates, the local orthonormal basis, and differential operators.

Points are (r, theta, phi) with theta the colatitude and phi the longitude,
reduced to [0, 2pi) at construction.  Vectors carry components in the local
positively oriented basis (e_r, e_theta, e_phi); on the unit sphere the
outward normal is e_r, i.e. SphVec(1, 0, 0).

Operators act on ScalarJet bundles of raw-coordinate partial derivatives
(not arc-length derivatives): every metric factor 1/r, 1/sin(theta) lives
in the operator formulas themselves,

    div u  = (1/r^2) d_r(r^2 u_r) + (1/(r sin)) d_t(u_t sin) + (1/(r sin)) d_p u_p
    curl u = (1/(r sin)) (d_t(u_p sin) - d_p u_t) e_r
           + (1/r) ((1/sin) d_p u_r - d_r(r u_p)) e_t
           + (1/r) (d_r(r u_t) - d_t u_r) e_p
    grad f = f_r e_r + (1/r) f_t e_t + (1/(r sin)) f_p e_p.

divergence and curl evaluate kernels.divergence_parts / curl_parts, the
formulas the array checks use, on one point; likewise the point and vector
transforms (to/from_cartesian_point, vec_to/from_cartesian) are the
kernels' array transforms evaluated at one point.

Evaluation refuses points with r or sin(theta) below 1e-9 rather than
silently zeroing the singular factors.
"""
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import CoordinateSingularity, PoleDegeneracy

TWO_PI = 2.0 * math.pi

POLE_EPS = 1e-9
SINGULARITY_EPS = 1e-9
_COORD_SLACK = 1e-12


class CartesianPoint(NamedTuple):
    x: float
    y: float
    z: float


@dataclass(frozen=True)
class SphPoint:
    """Point in spherical coordinates, normalised once, here, by the
    oracles' node normaliser (_normalise); the coordinates are floats.

    Non-finite or out-of-range coordinates raise ValueError.
    """

    r: float
    theta: float
    phi: float

    def __post_init__(self):
        coords = _normalise(*_node_arrays(self.r, self.theta, self.phi)[0])
        for name, c in zip(("r", "theta", "phi"), coords):
            object.__setattr__(self, name, c.item())


@dataclass(frozen=True)
class SphVec:
    """Vector components in the local basis (e_r, e_theta, e_phi)."""

    vr: float
    vtheta: float
    vphi: float

    def norm(self) -> float:
        return math.sqrt(self.vr**2 + self.vtheta**2 + self.vphi**2)


@dataclass(frozen=True)
class ScalarJet:
    """Value and raw-coordinate partials of a scalar at a point.

    Mixed partials are stored once per unordered pair, so symmetry holds by
    construction.  First-order operators read only the first partials; the
    second-order slots exist for callers that have them (they default to 0).
    """

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


def _node_arrays(*coords):
    """Coordinates as contiguous float64 arrays of one broadcast shape, at
    least 1-D, and whether every coordinate was a scalar."""
    arrays = np.broadcast_arrays(*(np.asarray(c, dtype=np.float64) for c in coords))
    return [np.ascontiguousarray(np.atleast_1d(a)) for a in arrays], arrays[0].ndim == 0


def _normalise(r, theta, phi):
    """Node arrays as SphPoint stores a point: r >= 0, theta in [0, pi],
    phi in [0, 2pi).  The one normaliser, for SphPoint and the oracles.

    Raises ValueError for a non-finite node, r below 0 or theta outside
    [0, pi] by more than the coordinate slack.
    """
    # array methods, not np.all/np.any/np.clip: less dispatch per SphPoint
    for name, c in (("r", r), ("theta", theta), ("phi", phi)):
        if not np.isfinite(c).all():
            raise ValueError(f"non-finite coordinate {name}={c[~np.isfinite(c)].flat[0]}")
    if (r < -_COORD_SLACK).any():
        raise ValueError(f"negative radius r={r[r < -_COORD_SLACK].flat[0]}")
    bad = (theta < -_COORD_SLACK) | (theta > math.pi + _COORD_SLACK)
    if bad.any():
        raise ValueError(f"colatitude out of range theta={theta[bad].flat[0]}")
    phi = np.mod(phi, TWO_PI)
    phi[phi == TWO_PI] = 0.0  # guard against rounding in the modulo itself
    # where, not maximum: r = -0.0 keeps its sign, as max(r, 0.0) does
    return np.where(r < 0.0, 0.0, r), theta.clip(0.0, math.pi), phi


def sphere_midpoint_mesh(n_theta, n_phi):
    """Midpoint lattice of the unit sphere (theta at the n_theta cell centres
    of [0, pi], phi uniform on [0, 2pi)): ((theta_axis, phi_axis), (dtheta,
    dphi), theta, phi), the node arrays flattened theta-major."""
    dth, dph = math.pi / n_theta, TWO_PI / n_phi
    th_ax = (np.arange(n_theta) + 0.5) * dth
    ph_ax = np.arange(n_phi) * dph
    th, ph = [np.ascontiguousarray(a.ravel())
              for a in np.meshgrid(th_ax, ph_ax, indexing="ij")]
    return (th_ax, ph_ax), (dth, dph), th, ph


def to_cartesian_point(p: SphPoint) -> CartesianPoint:
    return CartesianPoint(*(float(c) for c in kernels.sph_to_cart(p.r, p.theta, p.phi)))


def from_cartesian_point(x, y, z) -> SphPoint:
    return SphPoint(*kernels.cart_to_sph(x, y, z))


def _require_off_axis(p: SphPoint):
    if p.theta < POLE_EPS or p.theta > math.pi - POLE_EPS:
        raise PoleDegeneracy(f"basis degenerates at theta={p.theta}")


def basis_at(p: SphPoint):
    """Cartesian unit vectors (e_r, e_theta, e_phi) at p; requires theta off the poles."""
    _require_off_axis(p)
    st, ct = math.sin(p.theta), math.cos(p.theta)
    sp, cp = math.sin(p.phi), math.cos(p.phi)
    e_r = np.array([st * cp, st * sp, ct])
    e_t = np.array([ct * cp, ct * sp, -st])
    e_p = np.array([-sp, cp, 0.0])
    return e_r, e_t, e_p


def vec_to_cartesian(p: SphPoint, v: SphVec) -> np.ndarray:
    _require_off_axis(p)
    return np.array(kernels.vec_sph_to_cart(p.theta, p.phi, v.vr, v.vtheta, v.vphi))


def vec_from_cartesian(p: SphPoint, w) -> SphVec:
    _require_off_axis(p)
    wx, wy, wz = np.asarray(w, dtype=float)
    return SphVec(*(float(c) for c in kernels.vec_cart_to_sph(p.theta, p.phi, wx, wy, wz)))


def _require_regular(p: SphPoint):
    if p.r < SINGULARITY_EPS or math.sin(p.theta) < SINGULARITY_EPS:
        raise CoordinateSingularity(
            f"operator undefined at r={p.r}, theta={p.theta} (1/r or 1/sin too large)")


def divergence(p: SphPoint, jets) -> float:
    """Divergence from the jets of (u_r, u_theta, u_phi)."""
    _require_regular(p)
    jr, jt, jp = jets
    return kernels.divergence_parts(p.r, math.sin(p.theta), math.cos(p.theta),
                                    jr.value, jr.d_r, jt.value, jt.d_theta, jp.d_phi)


def curl(p: SphPoint, jets) -> SphVec:
    """Curl from the jets of (u_r, u_theta, u_phi)."""
    _require_regular(p)
    jr, jt, jp = jets
    return SphVec(*kernels.curl_parts(p.r, math.sin(p.theta), math.cos(p.theta),
                                      jr.d_theta, jr.d_phi,
                                      jt.value, jt.d_r, jt.d_phi,
                                      jp.value, jp.d_r, jp.d_theta))


def gradient(p: SphPoint, jet: ScalarJet) -> SphVec:
    _require_regular(p)
    st = math.sin(p.theta)
    return SphVec(jet.d_r, jet.d_theta / p.r, jet.d_phi / (p.r * st))


def cross(a: SphVec, b: SphVec) -> SphVec:
    """Right-handed cross product in the local basis (both vectors at one point)."""
    return SphVec(
        a.vtheta * b.vphi - a.vphi * b.vtheta,
        a.vphi * b.vr - a.vr * b.vphi,
        a.vr * b.vtheta - a.vtheta * b.vr,
    )


def dot(a: SphVec, b: SphVec) -> float:
    return a.vr * b.vr + a.vtheta * b.vtheta + a.vphi * b.vphi
