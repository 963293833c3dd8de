"""Velocity-field family on the closed unit ball and its derived quantities.

A family pairs a radial profile h(r) with an angular function g(theta, phi)
and realizes the tangential field

    u = -(h / sin) g_phi e_theta + h g_theta e_phi,

its curl w, the quadratic field v = u x w, and closed forms for the
tangential components of curl(v) on the unit sphere:

    [curl v]_theta = -(2 / sin^2) h(1) h'(1) g_phi G,
    [curl v]_phi   =  (2 / sin)   h(1) h'(1) g_theta G,

with G = d_theta(sin g_theta) + g_phiphi / sin.  Profiles vanish identically
near r = 0 and angular functions near both poles, so every evaluator
short-circuits to exact zeros inside those margins and never touches 1/r or
1/sin there.  support_mask is the one support rule and _on_support is the
one rule for what every evaluator returns: it gathers the in-support nodes
once (a NaN node counts as off the support; a lattice axis is cut to the
support's projection on it), the profile and angular jets and the assembly
kernels (which take no mask) run on those alone, and the outputs are
scattered back to the input's shape, exact zeros off the support and NaN
at NaN nodes, as Python floats for a scalar point.  The angular factors
(sin, G, g_theta, g_phi) come from OmegaFactors alone.  The unit sphere is
r = 1 of the same rule, support_mask(1.0, theta), and a profile enters it
only as the two numbers h(1), h'(1).  Its closed forms have one path,
_on_sphere: boundary_state evaluates the sphere in one pass, the witness
products g_phi G and g_theta G included, and boundary_curl_theta (the
radius's samples) and boundary_curl_phi assemble their trace alone, with
the same kernel.  The scaling sweep reads g_theta, g_phi there once, for
all its profiles.  Jet functions are ufunc-like: they accept float64
arrays that broadcast and an order k (0, 1 or 2), and return arrays of the
broadcast shape: the jet through at least order k, from analytic
derivatives.  Each evaluator asks for the orders it
reads: u the profile value and the first angular partials, omega and the u
partials the profile's first derivative and the angular jet through order 2.
Callers read jet entries by position, so a jet may return more than asked.
"""
import functools
import math
from collections import namedtuple
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

from . import kernels, sphcalc
from .errors import ConfigError
from .sphcalc import SphPoint, _convert, _node_arrays

WITNESS_THRESHOLD = 1e-6
_H1_ZERO_EPS = 1e-12


# The nine outputs of CounterexampleField.boundary_state, which every reader reads by name.
SphereState = namedtuple("SphereState", "u_theta u_phi omega_r omega_theta omega_phi "
                                        "curl_v_theta curl_v_phi g_phi_G g_theta_G")


def _on_support(support, n_out, compute, *coords):
    """compute(*coords) on the nodes of the boolean `support` only: the one
    rule for what every field evaluator returns.

    coords are _node_arrays, support their support_mask: flat nodes (coords
    of the support's shape), taken as one axis, or a lattice's axes, each
    varying along an axis of its own, whose support is a product of per-axis
    terms (a theta term and an r term).  A coordinate that holds a NaN takes
    its NaN nodes off the support, so the support stays such a product, and
    each axis is cut to the support's projection on it (a run of kept values
    as a slice): 1-D arrays of the in-support flat nodes, or a lattice's
    axes whose product is the support.  compute runs at most once, never on
    empty arrays, and its n_out outputs are scattered back to the input's
    shape with exact zeros off the support and NaN where any coordinate is
    NaN; all flat nodes in with no NaN are only reshaped.  For a scalar
    point (0-d coords) the outputs are Python floats.
    """
    flat = all(c.shape == support.shape for c in coords)
    shape = support.shape if flat else np.broadcast_shapes(*(c.shape for c in coords))
    if flat:
        support, coords = support.ravel(), [c.ravel() for c in coords]
    nan = [bad for bad in map(np.isnan, coords) if bad.any()]
    if flat and not nan and shape and 0 < np.count_nonzero(support) == support.size:
        return tuple(v.reshape(shape) for v in compute(*coords))
    for bad in nan:
        support = support & ~bad
    cells = support.shape if flat else shape
    out = np.zeros((n_out,) + cells)
    if 0 not in cells and support.any():
        # the kept values of each axis, None for every value
        idx = [None if n == 1 else np.flatnonzero(support if flat else support.any(
                   axis=tuple(j for j in range(len(cells)) if j != k)))
               for k, n in enumerate(support.shape)]
        runs = [i is None or i[-1] - i[0] == i.size - 1 for i in idx]
        cuts = [slice(None) if i is None else slice(i[0], i[-1] + 1) if run else i
                for i, run in zip(idx, runs)]
        cut = [c[tuple(s if n > 1 else slice(None) for s, n in zip(cuts, c.shape))]
               for c in coords]
        at = tuple(cuts) if all(runs) else np.ix_(
            *(np.arange(n) if i is None else i for i, n in zip(idx, cells)))
        for o, v in zip(out, compute(*cut)):
            o[at] = v
    for bad in nan:
        out[:, np.broadcast_to(bad, cells)] = np.nan
    if not shape:
        return tuple(out.ravel().tolist())
    return tuple(out.reshape((n_out,) + shape))


class OmegaFactors:
    """The angular factors of u and omega on in-support nodes (r, theta)
    from _on_support, from the angular jet g_jet there: sin theta, g_theta,
    g_phi, and G, computed when first asked for (u and the scaling sweep
    need no G, so their g_jet may stop at order 1).

    assemble(h, h') completes them with a profile jet on the same nodes.
    """

    def __init__(self, r, theta, g_jet):
        self.r, self.theta, self.g_jet = r, theta, g_jet
        self.g_t, self.g_p = g_jet[1], g_jet[2]
        self.sin = np.sin(theta)

    @functools.cached_property
    def big_g(self):
        g = self.g_jet
        return kernels.big_g_values(self.sin, np.cos(self.theta), g[1], g[3], g[5])

    def assemble(self, h, hp):
        """(omega_r, omega_theta, omega_phi) for the profile jet (h, h')."""
        return kernels.omega_assembly(self.r, self.sin, h, hp, self.g_t, self.g_p, self.big_g)


@dataclass(frozen=True)
class RadialProfile:
    """h(r) with derivatives; identically zero for r <= support_inner.

    fn(r, order) returns (h, h', h'') through at least `order` (h alone
    at order 0) as arrays of r's shape.  The field evaluators call it only
    on nodes inside the field's support (r > support_inner, theta off the
    pole margins), never empty: a 1-D array of flat nodes, or a lattice's r
    values above support_inner, (k, 1, 1), once per r value.  Only
    check_admissibility probes r <= support_inner, to confirm that fn
    vanishes there.
    """

    fn: Callable
    support_inner: float
    label: str

    def __post_init__(self):
        if not 0.0 < self.support_inner < 1.0:
            raise ConfigError("support_inner must lie in (0, 1)")


@dataclass(frozen=True)
class AngularFunction:
    """g(theta, phi) with partials to second order, 2pi-periodic in phi.

    g and all stored partials vanish identically for theta within
    pole_margin of 0 or pi.  fn(theta, phi, order) returns, as arrays of
    the inputs' broadcast shape, at least (g,) at order 0, (g, g_t, g_p) at
    order 1, and (g, g_t, g_p, g_tt, g_tp, g_pp) at order 2.  The field
    evaluators call it only on nodes inside the support (theta off the pole
    margins, and r > support_inner where a radius is given), never empty:
    1-D arrays of flat nodes, or a lattice's in-band theta rows, (1, k, 1),
    beside its phi row, (1, 1, n_phi).  Only check_admissibility probes the
    margins and the period, to confirm that fn vanishes and repeats there.
    """

    fn: Callable
    pole_margin: float
    label: str

    def __post_init__(self):
        if not 0.0 < self.pole_margin < math.pi / 2:
            raise ConfigError("pole_margin must lie in (0, pi/2)")


def default_profile() -> RadialProfile:
    """h(r) = chi(r) e^(1-r): h(1) = 1, h'(1) = -1, zero for r <= 0.25."""
    return RadialProfile(kernels.default_profile_jet, 0.25, "default")


def h1zero_profile() -> RadialProfile:
    """h(r) = chi(r) (1-r)^2: h(1) = h'(1) = 0, so the boundary trace of
    curl(u x w) vanishes while the slip conditions still hold."""
    return RadialProfile(kernels.h1zero_profile_jet, 0.25, "h1zero")


def perturbed_profile(eps, base: Optional[RadialProfile] = None) -> RadialProfile:
    """base profile times (1 + eps (r - 0.75)^2).

    For an admissible base this breaks the slip identity by exactly
    h_eps(1) + h_eps'(1) = (eps/2) h(1), linear in eps.  A 1-D eps array
    broadcasts against r: fn(np.ones(1), 1) is h, h' at r = 1 for every eps.
    """
    refused = [e for e in np.ravel(eps).tolist()
               if not math.isfinite(_convert("perturbation size", e, lambda v: 2.0 * v))]
    if refused:  # 2 eps, the factor's second derivative, must be finite
        raise ConfigError(f"perturbation size must be finite and at most half the largest "
                          f"float, got {refused[0]!r}")
    base = base if base is not None else default_profile()
    label = "perturbed" if np.ndim(eps) else f"perturbed:{eps:g}"
    eps = np.array(eps, dtype=float) if np.ndim(eps) else float(eps)

    def fn(r, order):
        return kernels.product_jet(base.fn(r, order),
                                   kernels.perturbed_factor_jet(r, eps, order), order)

    return RadialProfile(fn, base.support_inner, label)


def default_angular() -> AngularFunction:
    """g = psi(theta) sin(phi) with psi a bump: 0 outside [pi/4, 3pi/4],
    1 on [3pi/8, 5pi/8]."""
    return AngularFunction(kernels.default_angular_jet, math.pi / 4, "default")


def cosine_angular() -> AngularFunction:
    """Same bump with azimuthal factor cos(phi) (regression family)."""

    def fn(theta, phi, order):
        return kernels.default_angular_jet(theta, phi + math.pi / 2, order)

    return AngularFunction(fn, math.pi / 4, "cosine")


def zero_angular() -> AngularFunction:
    def fn(theta, phi, order):
        return tuple(np.zeros(np.broadcast(theta, phi).shape) for _ in range((1, 3, 6)[order]))

    return AngularFunction(fn, math.pi / 4, "zero")


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the hypothesis checks for one family (pure function of it)."""

    slip_condition_residual: float
    h1_value: float
    h1_nonzero: bool
    pole_margin_ok: bool
    support_ok: bool
    periodicity_ok: bool
    witness_a1: Optional[SphPoint]
    witness_a2: Optional[SphPoint]

    @property
    def slip_ok(self) -> bool:
        return self.slip_condition_residual <= 1e-10

    def to_dict(self) -> dict:
        return asdict(self)


class CounterexampleField:
    """Immutable (profile, angular) pair with all field evaluators.

    Boundary constants h(1), h'(1) are cached at construction; the
    hypotheses on (h, g) are decided by check_admissibility, which only
    verify calls.  Evaluation methods accept scalars or arrays (broadcast
    together) and are pure.
    """

    def __init__(self, profile: RadialProfile, angular: AngularFunction, label=None):
        self.profile = profile
        self.angular = angular
        self.label = label if label is not None else f"{profile.label}+{angular.label}"
        self.h_boundary, self.hp_boundary = (float(v[0]) for v in profile.fn(np.ones(1), 2)[:2])

    def support_mask(self, r, theta):
        """The nodes in the support: off the polar margins and past the
        profile's inner radius."""
        d = self.angular.pole_margin
        return (theta > d) & (theta < math.pi - d) & (r > self.profile.support_inner)

    def _assemble(self, n_out, assemble, orders, r, theta, phi):
        """assemble(profile jet, OmegaFactors) on the support nodes of the
        node arrays, scattered back by _on_support; orders are those of the
        profile and the angular jet."""
        h_order, g_order = orders
        r, theta, phi = _node_arrays(r, theta, phi)

        def compute(r, theta, phi):
            return assemble(self.profile.fn(r, h_order),
                            OmegaFactors(r, theta, self.angular.fn(theta, phi, g_order)))
        return _on_support(self.support_mask(r, theta), n_out, compute, r, theta, phi)

    def u_components(self, r, theta, phi):
        """(u_r, u_theta, u_phi); u_r is identically zero (NaN at NaN input)."""
        def parts(h, w):
            ut, up = _u_parts(h, w)
            return u_radial(ut), ut, up
        return self._assemble(3, parts, (0, 1), r, theta, phi)

    def omega_components(self, r, theta, phi):
        return self._assemble(3, lambda h, w: w.assemble(h[0], h[1]), (1, 2), r, theta, phi)

    def v_components(self, r, theta, phi):
        """u x curl(u), from the closed forms of both factors (one pass)."""
        # crossed on the scattered u and omega, so that v_phi = -(0 * 0) is -0 off the support
        return kernels.cross_tangential(*self._assemble(
            5, lambda h, w: (*_u_parts(h, w), *w.assemble(h[0], h[1])), (1, 2), r, theta, phi))

    def u_raw_partials(self, r, theta, phi):
        """Components of u and their raw-coordinate first partials.

        Returns a dict with keys ut, dut_dr, dut_dtheta, dut_dphi, up,
        dup_dr, dup_dtheta, dup_dphi (u_r and its partials are zero and
        omitted); the values are floats for a scalar point.  No check in
        verify calls it (omega and div u each have one path there: the
        closed forms and the Cartesian oracles); the tests build the jets
        divergence and curl from it, and perfbench/tracer.py wraps it.
        """
        keys = ("ut", "dut_dr", "dut_dtheta", "dut_dphi", "up", "dup_dr", "dup_dtheta", "dup_dphi")
        return dict(zip(keys, self._assemble(len(keys), _u_partials, (1, 2), r, theta, phi)))

    def _on_sphere(self, n_out, parts, theta, phi):
        """parts(OmegaFactors, h(1), h'(1)), its n_out outputs, on the
        support nodes of the unit sphere, scattered back by _on_support: the
        one path of the sphere's closed forms."""
        theta, phi = _node_arrays(theta, phi)
        h, hp = self.h_boundary, self.hp_boundary

        def compute(theta, phi):
            w = OmegaFactors(np.ones_like(theta), theta, self.angular.fn(theta, phi, 2))
            return parts(w, h, hp)
        return _on_support(self.support_mask(1.0, theta), n_out, compute, theta, phi)

    def boundary_state(self, theta, phi):
        """The SphereState on the unit sphere in one pass from h(1) and
        h'(1): u_theta, u_phi as in u_components(1, ...), omega as
        omega_components(1, ...), the two traces of curl(u x w), and the
        witness products g_phi G and g_theta G."""
        def parts(w, h, hp):
            return (*_u_parts((h,), w), *w.assemble(h, hp), *_traces(w, h, hp),
                    w.g_p * w.big_g, w.g_t * w.big_g)
        return SphereState(*self._on_sphere(9, parts, theta, phi))

    def boundary_curl_theta(self, theta, phi):
        """The closed-form theta trace of curl(u x w), boundary_state's
        curl_v_theta by the same path with no other output: what
        verify.neighborhood_radius samples."""
        return self._on_sphere(1, lambda w, h, hp: _traces(w, h, hp)[:1], theta, phi)[0]

    def boundary_curl_phi(self, theta, phi):
        """The closed-form phi trace, boundary_state's curl_v_phi by the same
        path.  No package code calls it; the benchmark tracer and the tests do."""
        return self._on_sphere(1, lambda w, h, hp: _traces(w, h, hp)[1:], theta, phi)[0]


def u_radial(u_theta):
    """u_r of the family's tangential field: 0, NaN where u_theta is NaN."""
    return np.where(np.isnan(u_theta), np.nan, 0.0)


def _u_parts(h_jet, w):
    return kernels.u_assembly(h_jet[0], w.g_t, w.g_p, w.sin)


def _traces(w, h, hp):
    # the theta and phi traces of curl(u x w) on the unit sphere
    return kernels.boundary_curl_assembly(w.sin, h, hp, w.g_t, w.g_p, w.big_g)


def _u_partials(h_jet, w):
    # the raw partials of u_raw_partials, which alone calls this
    h, hp = h_jet[0], h_jet[1]
    _, g_t, g_p, g_tt, g_tp, g_pp = w.g_jet[:6]
    st, ct = w.sin, np.cos(w.theta)
    ut, up = _u_parts(h_jet, w)
    return (ut, -hp * g_p / st, -h * (g_tp * st - g_p * ct) / st**2, -h * g_pp / st,
            up, hp * g_t, h * g_tt, h * g_tp)


def witness_points(lattice, state):
    """For g_phi_G and g_theta_G of the state (a SphereState or a BoundaryPass)
    on the lattice's nodes, the node of each one's largest |value| (the
    lowest flat index among equal bits), or None if that is <=
    WITNESS_THRESHOLD."""
    flats = [np.abs(p).ravel() for p in (state.g_phi_G, state.g_theta_G)]
    peaks = [int(np.argmax(flat)) for flat in flats]
    return tuple(None if flat[i] <= WITNESS_THRESHOLD else lattice.point(i)
                 for flat, i in zip(flats, peaks))


def find_witnesses(field: CounterexampleField, n_theta=128, n_phi=256):
    """The witness_points of g_phi G and g_theta G on the n_theta x n_phi
    sphere (GridSpec's size rule); verify reads its own boundary pass."""
    sphere = sphcalc.midpoint_lattice(n_theta, n_phi)
    with np.errstate(over="ignore", invalid="ignore"):  # only the h-free products are read
        state = field.boundary_state(*sphere.axes[1:])
    return witness_points(sphere, state)


def check_admissibility(field: CounterexampleField, witnesses) -> AdmissibilityReport:
    """The hypotheses on (h, g), with the given witnesses (the
    witness_points of g_phi G and g_theta G); it scans no sphere."""
    h1, hp1 = field.h_boundary, field.hp_boundary
    si = field.profile.support_inner
    r_in = np.linspace(0.0, si, 5)
    support_ok = all(np.all(a == 0.0) for a in field.profile.fn(r_in, 2))

    # one call of the pointwise fn on a product grid: theta rows 0-7 probe
    # the pole margins at phi columns 0-3, and rows 8-14 the period, phi at
    # columns 4-8 against phi + 2 pi at columns 9-13
    d = field.angular.pole_margin
    theta = np.concatenate([np.linspace(0.0, d, 4), np.linspace(math.pi - d, math.pi, 4),
                            np.linspace(0.0, math.pi, 7)])[:, None]
    period = np.linspace(0.0, 2.0 * math.pi, 5)
    jet = field.angular.fn(theta, np.concatenate([[0.0, 0.7, math.pi, 5.1], period,
                                                  period + 2.0 * math.pi]), 2)
    pole_ok = all(np.all(a[:8, :4] == 0.0) for a in jet)
    g = np.broadcast_to(jet[0], (15, 14))
    periodicity_ok = bool(np.max(np.abs(g[8:, 9:] - g[8:, 4:9]), initial=0.0) <= 1e-12)

    w1, w2 = witnesses
    return AdmissibilityReport(
        slip_condition_residual=abs(h1 + hp1),
        h1_value=h1,
        h1_nonzero=abs(h1) > _H1_ZERO_EPS,
        pole_margin_ok=bool(pole_ok),
        support_ok=bool(support_ok),
        periodicity_ok=periodicity_ok,
        witness_a1=w1,
        witness_a2=w2,
    )


def default_field() -> CounterexampleField:
    return CounterexampleField(default_profile(), default_angular(), label="default")


def family_by_label(label: str) -> CounterexampleField:
    """Built-in families: "default", "h1zero", "perturbed:<eps>"."""
    if label == "default":
        return default_field()
    if label == "h1zero":
        return CounterexampleField(h1zero_profile(), default_angular(), label="h1zero")
    if label.startswith("perturbed:"):
        try:
            eps = float(label.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad perturbation size in family label {label!r}") from None
        return CounterexampleField(perturbed_profile(eps), default_angular(), label=label)
    raise ConfigError(f"unknown family label {label!r}")
