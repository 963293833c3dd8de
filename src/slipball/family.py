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
1/sin there.  support_mask is the one support rule and _on_support applies
it: it gathers the in-support nodes once, the profile and angular jets and
the assembly kernels (which take no mask) run on those 1-D arrays alone,
and only the final outputs are scattered back.  The angular factors (sin,
G, g_theta, g_phi) come from OmegaFactors alone.  The unit sphere is
r = 1 of the same rule, support_mask(1.0, theta), and a profile enters it
only as the two numbers h(1), h'(1): boundary_state evaluates the sphere
in one pass, the witness products g_phi G and g_theta G included, and the
scaling sweep gathers the same nodes once for all its profiles.  Jet
functions are ufunc-like: they accept float64 arrays of a common shape and
an order k (0, 1 or 2), and return arrays of that shape: the jet through at
least order k, from analytic derivatives.  Each evaluator asks for the
orders it reads: u the profile value and the first angular partials, omega
and the u partials the profile's first derivative and the angular jet
through order 2.  Callers read jet entries by position, so a jet function
may return more than asked.
"""
import functools
import math
from collections import namedtuple
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

from . import kernels, sphcalc
from .errors import ConfigError
from .sphcalc import SphPoint, _node_arrays

WITNESS_THRESHOLD = 1e-6
_H1_ZERO_EPS = 1e-12


# The nine outputs of CounterexampleField.boundary_state, which every reader reads by name.
SphereState = namedtuple("SphereState", "u_theta u_phi omega_r omega_theta omega_phi "
                                        "curl_v_theta curl_v_phi g_phi_G g_theta_G")


def _maybe_scalar(values, scalar):
    if not scalar:
        return values
    if isinstance(values, tuple):
        return tuple(float(v[0]) for v in values)
    return float(values[0])


def _on_support(support, n_out, compute, *coords):
    """compute(*coords) on the nodes of the boolean `support` only.

    coords are arrays of support's shape.  compute runs at most once, on
    1-D arrays of the support nodes (never empty), and returns n_out 1-D
    arrays on them.  Each is scattered back to support's shape, with exact
    zeros off the support and NaN at nodes where any coordinate is NaN
    (those leave the support).  With every node in the support, compute
    runs on the flattened arrays and its outputs are only reshaped.
    """
    shape = support.shape
    nan_nodes = np.any([np.isnan(c) for c in coords], axis=0)
    support = support & ~nan_nodes
    n_in = np.count_nonzero(support)
    if 0 < n_in == support.size:
        return tuple(v.reshape(shape) for v in compute(*(c.ravel() for c in coords)))
    out = np.zeros((n_out, support.size))
    if n_in:
        idx = np.flatnonzero(support)
        out[:, idx] = compute(*(c.ravel()[idx] for c in coords))
    out[:, nan_nodes.ravel()] = np.nan
    return tuple(o.reshape(shape) for o in out)


class OmegaFactors:
    """The angular factors of u and omega on 1-D arrays of in-support nodes
    (r, theta), from the angular jet g_jet there: sin theta, g_theta, g_phi,
    and G, computed when first asked for (u needs no G, so its g_jet may
    stop at order 1).

    assemble(h, h') completes them with a profile jet on the same nodes, so
    several profiles over one angular function share the angular work.
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
    on a 1-D array of nodes inside the field's support (r > support_inner,
    theta off the pole margins), and never on an empty array.  Only
    check_admissibility probes r <= support_inner, to confirm that fn
    vanishes there.
    """

    fn: Callable
    support_inner: float
    label: str

    def __post_init__(self):
        if not 0.0 < self.support_inner < 1.0:
            raise ConfigError("support_inner must lie in (0, 1)")

    def jet(self, r):
        (r,), scalar = _node_arrays(r)
        return _maybe_scalar(self.fn(r, 2), scalar)


@dataclass(frozen=True)
class AngularFunction:
    """g(theta, phi) with partials to second order, 2pi-periodic in phi.

    g and all stored partials vanish identically for theta within
    pole_margin of 0 or pi.  fn(theta, phi, order) returns, as arrays of
    the inputs' shape, at least (g,) at order 0, (g, g_t, g_p) at order 1,
    and (g, g_t, g_p, g_tt, g_tp, g_pp) at order 2.  The field evaluators call
    it only on 1-D arrays of nodes inside the support (theta off the pole
    margins, and r > support_inner where a radius is given), and never on
    empty arrays.  Only check_admissibility probes the margins and the
    period, to confirm that fn vanishes and repeats there.
    """

    fn: Callable
    pole_margin: float
    label: str

    def __post_init__(self):
        if not 0.0 < self.pole_margin < math.pi / 2:
            raise ConfigError("pole_margin must lie in (0, pi/2)")

    def jet(self, theta, phi):
        (theta, phi), scalar = _node_arrays(theta, phi)
        return _maybe_scalar(self.fn(theta, phi, 2), scalar)


def default_profile() -> RadialProfile:
    """h(r) = chi(r) e^(1-r): h(1) = 1, h'(1) = -1, zero for r <= 0.25."""
    return RadialProfile(kernels.default_profile_jet, 0.25, "default")


def h1zero_profile() -> RadialProfile:
    """h(r) = chi(r) (1-r)^2: h(1) = h'(1) = 0, so the boundary trace of
    curl(u x w) vanishes while the slip conditions still hold."""
    return RadialProfile(kernels.h1zero_profile_jet, 0.25, "h1zero")


def perturbed_profile(eps: float, base: Optional[RadialProfile] = None) -> RadialProfile:
    """base profile times (1 + eps (r - 0.75)^2).

    For an admissible base this breaks the slip identity by exactly
    h_eps(1) + h_eps'(1) = (eps/2) h(1), linear in eps.
    """
    if not math.isfinite(2.0 * eps):  # the factor's second derivative, 2 eps
        raise ConfigError(f"perturbation size must be finite and at most half the largest "
                          f"float, got {eps!r}")
    base = base if base is not None else default_profile()

    def fn(r, order):
        return kernels.product_jet(base.fn(r, order),
                                   kernels.perturbed_factor_jet(r, float(eps), order), order)

    return RadialProfile(fn, base.support_inner, f"perturbed:{eps:g}")


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
        return tuple(np.zeros_like(theta) for _ in range((1, 3, 6)[order]))

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
        self.h_boundary, self.hp_boundary = profile.jet(1.0)[:2]

    def support_mask(self, r, theta, pad=0.0):
        """Nodes within Euclidean distance pad of the support (pad = 0: in it).

        A shift of length pad moves r by at most pad and theta by at most
        arcsin(pad / r), so both margins widen by those; for r <= pad every
        theta is kept.
        """
        d = self.angular.pole_margin
        if pad:
            with np.errstate(divide="ignore"):
                d = d - np.arcsin(np.minimum(1.0, np.divide(pad, r)))
        return (theta > d) & (theta < math.pi - d) & (r > self.profile.support_inner - pad)

    def _assemble(self, n_out, assemble, orders, r, theta, phi):
        """assemble(profile jet, OmegaFactors) on the support nodes of the
        node arrays, scattered back by _on_support; orders are those of the
        profile and the angular jet."""
        h_order, g_order = orders

        def compute(r, theta, phi):
            return assemble(self.profile.fn(r, h_order),
                            OmegaFactors(r, theta, self.angular.fn(theta, phi, g_order)))
        return _on_support(self.support_mask(r, theta), n_out, compute, r, theta, phi)

    def u_components(self, r, theta, phi):
        """(u_r, u_theta, u_phi); u_r is identically zero (NaN at NaN input)."""
        (r, theta, phi), scalar = _node_arrays(r, theta, phi)
        ut, up = self._assemble(2, _u_parts, (0, 1), r, theta, phi)
        return _maybe_scalar((u_radial(ut), ut, up), scalar)

    def omega_components(self, r, theta, phi):
        (r, theta, phi), scalar = _node_arrays(r, theta, phi)
        return _maybe_scalar(
            self._assemble(3, lambda h, w: w.assemble(h[0], h[1]), (1, 2), r, theta, phi), scalar)

    def _u_and_omega(self, r, theta, phi):
        """(u_theta, u_phi, omega_r, omega_theta, omega_phi) on the node
        arrays in one pass: the u and omega that v_components crosses."""
        return self._assemble(5, lambda h, w: (*_u_parts(h, w), *w.assemble(h[0], h[1])),
                              (1, 2), r, theta, phi)

    def v_components(self, r, theta, phi):
        """u x curl(u), from the closed forms of both factors (one pass)."""
        (r, theta, phi), scalar = _node_arrays(r, theta, phi)
        # on the scattered arrays, so that v_phi = -(0 * 0) is -0 off the support
        return _maybe_scalar(kernels.cross_tangential(*self._u_and_omega(r, theta, phi)), scalar)

    def u_raw_partials(self, r, theta, phi):
        """Components of u and their raw-coordinate first partials.

        Returns a dict with keys ut, dut_dr, dut_dtheta, dut_dphi, up,
        dup_dr, dup_dtheta, dup_dphi (u_r and its partials are zero and
        omitted); the values are floats for a scalar point.  No check in
        verify calls it (omega and div u each have one path there: the
        closed forms and the Cartesian oracles); the tests build the jets
        divergence and curl from it, and perfbench/tracer.py wraps it.
        """
        (r, theta, phi), scalar = _node_arrays(r, theta, phi)
        keys = ("ut", "dut_dr", "dut_dtheta", "dut_dphi", "up", "dup_dr", "dup_dtheta", "dup_dphi")
        parts = self._assemble(len(keys), _u_partials, (1, 2), r, theta, phi)
        return {k: _maybe_scalar(v, scalar) for k, v in zip(keys, parts)}

    def boundary_state(self, theta, phi):
        """The SphereState on the unit sphere in one pass from h(1) and
        h'(1): u_theta, u_phi as in u_components(1, ...), omega as
        omega_components(1, ...), the two traces of curl(u x w), and the
        witness products g_phi G and g_theta G."""
        (theta, phi), scalar = _node_arrays(theta, phi)
        h, hp = self.h_boundary, self.hp_boundary

        def compute(theta, phi):
            w = OmegaFactors(np.ones_like(theta), theta, self.angular.fn(theta, phi, 2))
            return (*_u_parts((h,), w), *w.assemble(h, hp),
                    *kernels.boundary_curl_assembly(w.sin, h, hp, w.g_t, w.g_p, w.big_g),
                    w.g_p * w.big_g, w.g_t * w.big_g)
        support = self.support_mask(1.0, theta)
        return SphereState(*_maybe_scalar(_on_support(support, 9, compute, theta, phi), scalar))

    def boundary_curl_theta(self, theta, phi):
        """The closed-form theta trace of curl(u x w): boundary_state's
        curl_v_theta, which verify.neighborhood_radius samples."""
        return self.boundary_state(theta, phi).curl_v_theta

    def boundary_curl_phi(self, theta, phi):
        """The closed-form phi trace: boundary_state's curl_v_phi.  No package
        code calls it; the benchmark tracer and the tests do."""
        return self.boundary_state(theta, phi).curl_v_phi


def u_radial(u_theta):
    """u_r of the family's tangential field: 0, NaN where u_theta is NaN."""
    return np.where(np.isnan(u_theta), np.nan, 0.0)


def _u_parts(h_jet, w):
    return kernels.u_assembly(h_jet[0], w.g_t, w.g_p, w.sin)


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
    on the lattice's nodes, the node of each one's largest |value| (lowest
    flat index on ties), or None if that is <= WITNESS_THRESHOLD."""
    flats = [np.abs(p).ravel() for p in (state.g_phi_G, state.g_theta_G)]
    peaks = [int(np.argmax(flat)) for flat in flats]
    return tuple(None if flat[i] <= WITNESS_THRESHOLD else lattice.point(i)
                 for flat, i in zip(flats, peaks))


def find_witnesses(field: CounterexampleField, n_theta=128, n_phi=256):
    """The witness_points of g_phi G and g_theta G on the n_theta x n_phi
    sphere (GridSpec's size rule); verify reads its own boundary pass."""
    sphcalc.require_cells("n_theta", n_theta)
    sphcalc.require_cells("n_phi", n_phi)
    sphere = sphcalc.midpoint_lattice(n_theta, n_phi)
    with np.errstate(over="ignore", invalid="ignore"):  # only the h-free products are read
        state = field.boundary_state(*sphere.nodes()[1:])
    return witness_points(sphere, state)


def check_admissibility(field: CounterexampleField, witnesses) -> AdmissibilityReport:
    """The hypotheses on (h, g), with the given witnesses (the
    witness_points of g_phi G and g_theta G); it scans no sphere."""
    h1, hp1 = field.h_boundary, field.hp_boundary
    si = field.profile.support_inner
    r_in = np.linspace(0.0, si, 5)
    support_ok = all(np.all(a == 0.0) for a in field.profile.fn(r_in, 2))

    d = field.angular.pole_margin
    theta_in = np.concatenate([np.linspace(0.0, d, 4), np.linspace(math.pi - d, math.pi, 4)])
    phi_s = np.array([0.0, 0.7, math.pi, 5.1])
    th, ph = [np.ascontiguousarray(a.ravel()) for a in np.meshgrid(theta_in, phi_s, indexing="ij")]
    pole_ok = all(np.all(a == 0.0) for a in field.angular.fn(th, ph, 2))

    th_p = np.repeat(np.linspace(0.0, math.pi, 7), 5)
    ph_p = np.tile(np.linspace(0.0, 2.0 * math.pi, 5), 7)
    g0 = field.angular.fn(th_p, ph_p, 2)[0]
    g1 = field.angular.fn(th_p, ph_p + 2.0 * math.pi, 2)[0]
    periodicity_ok = bool(np.max(np.abs(g1 - g0), initial=0.0) <= 1e-12)

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
