"""Spherical points and the sphere mesh.

Points are (r, theta, phi) with theta the colatitude and phi the longitude,
reduced to [0, 2pi) at construction by _normalise, the one node normaliser,
which the oracles share.  The differential operators and the point and
vector transforms (the local basis (e_r, e_theta, e_phi) among them) are the
array kernels in kernels.
"""
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

_COORD_SLACK = 1e-12


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
    of [0, pi], phi uniform on [0, 2pi)): ((dtheta, dphi), theta, phi), the
    node arrays flattened theta-major."""
    dth, dph = math.pi / n_theta, TWO_PI / n_phi
    th_ax = (np.arange(n_theta) + 0.5) * dth
    ph_ax = np.arange(n_phi) * dph
    th, ph = [np.ascontiguousarray(a.ravel())
              for a in np.meshgrid(th_ax, ph_ax, indexing="ij")]
    return (dth, dph), th, ph

