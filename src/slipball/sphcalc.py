"""Spherical points and the midpoint lattice.

Points are (r, theta, phi) with theta the colatitude and phi the longitude,
reduced to [0, 2pi) at construction by _normalise, the one node entry,
which the oracles share: it shapes raw coordinates by _node_arrays, the one
shape rule, and validates them.  midpoint_lattice is the one grid rule: the
ball's interior lattice, and the unit sphere as its r = 1 layer;
require_nodes is the one rule for its counts (integers, at least 8 cells per
axis, at most MAX_NODES nodes, checked before anything is allocated), and
store_field is the one type rule of GridSpec's and FDConfig's fields.
_convert is the one conversion that refuses an integer too large for a
float, for the fields, the nodes and the perturbation sizes.  The
differential operators and the point and vector transforms (the local basis
(e_r, e_theta, e_phi) among them) are the array kernels in kernels.
"""
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError

TWO_PI = 2.0 * math.pi
# nodes of the largest lattice: one float64 array of them is 1 GiB
MAX_NODES = 2 ** 27

_COORD_SLACK = 1e-12


@dataclass(frozen=True)
class SphPoint:
    """Point in spherical coordinates, normalised once, here, by the one
    node entry that the oracles also take (_normalise); the coordinates are
    floats.

    Non-finite or out-of-range coordinates raise ConfigError.
    """

    r: float
    theta: float
    phi: float

    def __post_init__(self):
        for name, c in zip(("r", "theta", "phi"), _normalise(self.r, self.theta, self.phi)):
            object.__setattr__(self, name, c.item())


def _node_arrays(*coords):
    """Coordinates as C-contiguous float64 arrays of one ndim (0-d for a
    scalar point): each keeps its shape if each varies along one axis of its
    own (a lattice's axes), else all broadcast (flat nodes).  _convert's
    message names them from the last, phi: (r, theta, phi), or the sphere's
    (theta, phi)."""
    arrays = [_convert(name, c, lambda v: np.asarray(v, dtype=np.float64)) for name, c in
              zip(("coordinate r", "coordinate theta", "coordinate phi")[-len(coords):], coords)]
    if any(a.shape != arrays[0].shape for a in arrays):
        ndim = max(a.ndim for a in arrays)
        arrays = [a.reshape((1,) * (ndim - a.ndim) + a.shape) for a in arrays]
        varying = [k for a in arrays for k, n in enumerate(a.shape) if n > 1]
        if not len(set(varying)) == len(varying) == sum(a.size > 1 for a in arrays):
            arrays = np.broadcast_arrays(*arrays)
    return [np.asarray(a, order="C") for a in arrays]


def _normalise(r, theta, phi):
    """Raw coordinates as node arrays, shaped by _node_arrays (at least 1-D)
    and stored as SphPoint stores a point: r >= 0, theta in [0, pi], phi in
    [0, 2pi).  The one node entry, for SphPoint and every oracle.

    Raises ConfigError for a non-finite node, r below 0 or theta outside
    [0, pi] by more than the coordinate slack.
    """
    r, theta, phi = np.atleast_1d(*_node_arrays(r, theta, phi))
    # array methods, not np.all/np.any/np.clip: less dispatch per SphPoint
    for name, c in (("r", r), ("theta", theta), ("phi", phi)):
        if not np.isfinite(c).all():
            raise ConfigError(f"non-finite coordinate {name}={c[~np.isfinite(c)].flat[0]}")
    if (r < -_COORD_SLACK).any():
        raise ConfigError(f"negative radius r={r[r < -_COORD_SLACK].flat[0]}")
    bad = (theta < -_COORD_SLACK) | (theta > math.pi + _COORD_SLACK)
    if bad.any():
        raise ConfigError(f"colatitude out of range theta={theta[bad].flat[0]}")
    phi = np.mod(phi, TWO_PI)
    phi[phi == TWO_PI] = 0.0  # guard against rounding in the modulo itself
    # where, not maximum: r = -0.0 keeps its sign, as max(r, 0.0) does
    return np.where(r < 0.0, 0.0, r), theta.clip(0.0, math.pi), phi


class Lattice(NamedTuple):
    """A midpoint lattice: the (r, theta, phi) axes shaped to broadcast,
    (n_r, 1, 1), (1, n_theta, 1) and (1, 1, n_phi), and the volume weights
    r^2 sin(theta) dr dtheta dphi, (n_r, n_theta, 1).  Per-axis work is done
    once per axis value; nodes are numbered row-major, r then theta."""

    axes: tuple
    weights: np.ndarray

    @property
    def shape(self):
        return tuple(a.size for a in self.axes)

    def nodes(self):
        """The flat (r, theta, phi) node arrays.  An axis of one value (r on
        the sphere) is a view with stride 0, so it takes no memory."""
        return [np.broadcast_to(a, self.shape).reshape(-1) for a in self.axes]

    def nodes_at(self, flat):
        """The (r, theta, phi) nodes at the flat indices, read off the axes:
        the one flat-index rule."""
        return [a.ravel()[k] for a, k in zip(self.axes, np.unravel_index(flat, self.shape))]

    def point(self, i):
        """The node at flat index i."""
        return SphPoint(*self.nodes_at(i))


def require_nodes(counts):
    """The one size rule of a lattice, given its counts by name: a count
    that is not an integer raises store_field's TypeError, fewer than 8
    cells ConfigError, and more than MAX_NODES nodes in all ConfigError
    naming the counts, before anything is allocated."""
    for name, count in counts.items():
        if _of_kind(name, count, int) < 8:
            raise ConfigError(f"{name} must be at least 8")
    if math.prod(counts.values()) > MAX_NODES:
        shape = " x ".join(f"{name}={count}" for name, count in counts.items())
        raise ConfigError(f"a lattice of {shape} has more than {MAX_NODES} nodes")


def _of_kind(name, value, kind):
    """value as kind (int, float or bool) by _convert, else TypeError: numpy
    numbers count, bools only as bool."""
    accepted, noun = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number"),
                      bool: (bool, "a boolean")}[kind]
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise TypeError(f"{name} must be {noun}, got {value!r}")
    return _convert(name, value, kind)


def _convert(name, value, kind):
    """kind(value), the one conversion of a number that the package reads as
    a float; an integer too large for a float raises ConfigError naming it
    by name, not by its repr, which can itself raise for a long int."""
    try:
        return kind(value)
    except OverflowError:
        raise ConfigError(f"{name} holds an integer too large for a float") from None


def store_field(obj, name, kind):
    """Store obj's frozen field `name` as _of_kind reads it (plain JSON in reports); return it."""
    object.__setattr__(obj, name, _of_kind(name, getattr(obj, name), kind))
    return getattr(obj, name)


def _midpoints(n, span, margin):
    """The n cell centres of [margin, span - margin] and their spacing."""
    step = (span - 2.0 * margin) / n
    return margin + (np.arange(n) + 0.5) * step, step


def midpoint_lattice(n_theta, n_phi, margin_theta=0.0, n_r=None, margin_r=0.0):
    """The midpoint Lattice of the ball: n_r radial cells in [margin_r,
    1 - margin_r], n_theta polar cells in [margin_theta, pi - margin_theta],
    phi uniform on [0, 2pi).  n_r None gives the unit sphere: the one layer
    r = 1 with dr = 1 (its weights are sin(theta) dtheta dphi).  The counts
    follow require_nodes."""
    counts = {"n_theta": n_theta, "n_phi": n_phi}
    require_nodes(counts if n_r is None else {"n_r": n_r, **counts})
    r, dr = (np.ones(1), 1.0) if n_r is None else _midpoints(n_r, 1.0, margin_r)
    th, dth = _midpoints(n_theta, math.pi, margin_theta)
    dph = TWO_PI / n_phi
    r, th, ph = r[:, None, None], th[None, :, None], (np.arange(n_phi) * dph)[None, None, :]
    return Lattice((r, th, ph), r**2 * np.sin(th) * dr * dth * dph)
