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
1/sin there.  The profile and angular jets are computed only on the nodes
inside the support (see _support_jets); the rest hold exact zeros.  Jet
functions are ufunc-like: they accept and return float64 arrays of a common
shape and must supply analytic derivatives (h to second order, g to second
order).
"""
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import kernels
from .errors import NoWitness
from .sphcalc import ScalarJet, SphPoint, SphVec

WITNESS_THRESHOLD = 1e-6
_H1_ZERO_EPS = 1e-12


def _prepare(*coords):
    arrays = np.broadcast_arrays(*(np.asarray(c, dtype=np.float64) for c in coords))
    scalar = arrays[0].ndim == 0
    out = [np.ascontiguousarray(np.atleast_1d(a)) for a in arrays]
    return out, scalar


def _maybe_scalar(values, scalar):
    if not scalar:
        return values
    if isinstance(values, tuple):
        return tuple(float(v[0]) for v in values)
    return float(values[0])


_PROFILE_JETS = 3  # h, h', h''
_ANGULAR_JETS = 6  # g, g_t, g_p, g_tt, g_tp, g_pp


def _support_jets(support, *calls):
    """Jets computed on the support nodes only, zero-filled elsewhere.

    `calls` holds (fn, n_out, args) triples whose args are arrays of the
    shape of the boolean `support`.  Each fn runs at most once, on 1-D
    arrays of the support nodes, and its n_out outputs are scattered into
    zero-filled arrays of that shape.  With every node in the support fn
    runs on the flattened arrays, with no gather or scatter; with none it
    does not run.  Nodes where any argument is NaN join the returned mask
    with NaN jets, so the masked assembly kernels give NaN there and not a
    plausible zero.

    Returns (mask, [jet tuple per call]).
    """
    shape = support.shape
    nan_nodes = np.zeros(shape, dtype=bool)
    for _, _, args in calls:
        for a in args:
            nan_nodes |= np.isnan(a)
    has_nan = bool(nan_nodes.any())
    if has_nan:
        support = support & ~nan_nodes
    n_in = np.count_nonzero(support)
    if 0 < n_in == support.size:
        return support, [tuple(v.reshape(shape) for v in fn(*(a.ravel() for a in args)))
                         for fn, _, args in calls]
    idx = np.flatnonzero(support)
    jets = []
    for fn, n_out, args in calls:
        out = np.zeros((n_out, support.size))
        if n_in:
            for k, v in enumerate(fn(*(a.ravel()[idx] for a in args))):
                out[k, idx] = v
        if has_nan:
            out[:, nan_nodes.ravel()] = np.nan
        jets.append(tuple(o.reshape(shape) for o in out))
    return (support | nan_nodes if has_nan else support), jets


def _polar_jets(angular, theta, phi):
    """(mask, g jet) on the open band pole_margin < theta < pi - pole_margin."""
    d = angular.pole_margin
    band = (theta > d) & (theta < math.pi - d)
    mask, (g_jet,) = _support_jets(band, (angular.fn, _ANGULAR_JETS, (theta, phi)))
    return mask, g_jet


@dataclass(frozen=True)
class RadialProfile:
    """h(r) with derivatives; identically zero for r <= support_inner.

    fn(r) returns (h, h', h'') as arrays of r's shape.  The field
    evaluators call it only on a 1-D array of nodes inside the field's
    support (r > support_inner, theta off the pole margins), and never on
    an empty array.  Only check_admissibility probes r <= support_inner,
    to confirm that fn vanishes there.
    """

    fn: Callable
    support_inner: float
    label: str

    def __post_init__(self):
        if not 0.0 < self.support_inner < 1.0:
            raise ValueError("support_inner must lie in (0, 1)")

    def jet(self, r):
        (r,), scalar = _prepare(r)
        return _maybe_scalar(self.fn(r), scalar)


@dataclass(frozen=True)
class AngularFunction:
    """g(theta, phi) with partials to second order, 2pi-periodic in phi.

    g and all stored partials vanish identically for theta within
    pole_margin of 0 or pi.  fn(theta, phi) returns (g, g_t, g_p, g_tt,
    g_tp, g_pp) as arrays of the inputs' shape.  The field evaluators call
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
            raise ValueError("pole_margin must lie in (0, pi/2)")

    def jet(self, theta, phi):
        (theta, phi), scalar = _prepare(theta, phi)
        return _maybe_scalar(self.fn(theta, phi), scalar)


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
    if not math.isfinite(eps):
        raise ValueError(f"perturbation size must be finite, got {eps!r}")
    base = base if base is not None else default_profile()

    def fn(r):
        h, hp, hpp = base.fn(r)
        q, q1, q2 = kernels.perturbed_factor_jet(r, float(eps))
        return h * q, hp * q + h * q1, hpp * q + 2.0 * hp * q1 + h * q2

    return RadialProfile(fn, base.support_inner, f"perturbed:{eps:g}")


def default_angular() -> AngularFunction:
    """g = psi(theta) sin(phi) with psi a bump: 0 outside [pi/4, 3pi/4],
    1 on [3pi/8, 5pi/8]."""
    return AngularFunction(kernels.default_angular_jet, math.pi / 4, "default")


def cosine_angular() -> AngularFunction:
    """Same bump with azimuthal factor cos(phi) (regression family)."""

    def fn(theta, phi):
        return kernels.default_angular_jet(theta, phi + math.pi / 2)

    return AngularFunction(fn, math.pi / 4, "cosine")


def zero_angular() -> AngularFunction:
    def fn(theta, phi):
        z = np.zeros_like(theta)
        return z, z.copy(), z.copy(), z.copy(), z.copy(), z.copy()

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
        def pt(p):
            return None if p is None else {"r": p.r, "theta": p.theta, "phi": p.phi}

        return {
            "slip_condition_residual": self.slip_condition_residual,
            "h1_value": self.h1_value,
            "h1_nonzero": self.h1_nonzero,
            "pole_margin_ok": self.pole_margin_ok,
            "support_ok": self.support_ok,
            "periodicity_ok": self.periodicity_ok,
            "witness_a1": pt(self.witness_a1),
            "witness_a2": pt(self.witness_a2),
        }


class CounterexampleField:
    """Immutable (profile, angular) pair with all field evaluators.

    Boundary constants h(1), h'(1) are cached at construction and the
    admissibility report is computed eagerly.  Evaluation methods accept
    scalars or arrays (broadcast together) and are pure.
    """

    def __init__(self, profile: RadialProfile, angular: AngularFunction, label=None):
        self.profile = profile
        self.angular = angular
        self.label = label if label is not None else f"{profile.label}+{angular.label}"
        h1, hp1, _ = profile.jet(1.0)
        self.h_boundary = h1
        self.hp_boundary = hp1
        self.admissibility = check_admissibility(self)

    def support_mask(self, r, theta):
        d = self.angular.pole_margin
        return (theta > d) & (theta < math.pi - d) & (r > self.profile.support_inner)

    def _parts(self, r, theta, phi):
        mask, (h_jet, g_jet) = _support_jets(
            self.support_mask(r, theta),
            (self.profile.fn, _PROFILE_JETS, (r,)),
            (self.angular.fn, _ANGULAR_JETS, (theta, phi)))
        return mask, h_jet, g_jet

    def u_components(self, r, theta, phi):
        """(u_r, u_theta, u_phi); u_r is identically zero (NaN at NaN input)."""
        (r, theta, phi), scalar = _prepare(r, theta, phi)
        mask, (h, _, _), (g, g_t, g_p, *_rest) = self._parts(r, theta, phi)
        ut, up = kernels.u_assembly(h, g_t, g_p, np.sin(theta), mask)
        ur = np.where(np.isnan(ut), np.nan, 0.0)
        return _maybe_scalar((ur, ut, up), scalar)

    def omega_components(self, r, theta, phi):
        (r, theta, phi), scalar = _prepare(r, theta, phi)
        mask, (h, hp, _), (g, g_t, g_p, g_tt, g_tp, g_pp) = self._parts(r, theta, phi)
        st, ct = np.sin(theta), np.cos(theta)
        gg = kernels.big_g_values(st, ct, g_t, g_tt, g_pp, mask)
        return _maybe_scalar(kernels.omega_assembly(r, st, h, hp, g_t, g_p, gg, mask),
                             scalar)

    def v_components(self, r, theta, phi):
        """u x curl(u), from the closed forms of both factors."""
        (r, theta, phi), scalar = _prepare(r, theta, phi)
        mask, (h, hp, _), (g, g_t, g_p, g_tt, g_tp, g_pp) = self._parts(r, theta, phi)
        st, ct = np.sin(theta), np.cos(theta)
        gg = kernels.big_g_values(st, ct, g_t, g_tt, g_pp, mask)
        ut, up = kernels.u_assembly(h, g_t, g_p, st, mask)
        wr, wt, wp = kernels.omega_assembly(r, st, h, hp, g_t, g_p, gg, mask)
        return _maybe_scalar(kernels.cross_tangential(ut, up, wr, wt, wp), scalar)

    def u_raw_partials(self, r, theta, phi):
        """Components of u and their raw-coordinate first partials.

        Returns a dict with keys ut, dut_dr, dut_dtheta, dut_dphi, up,
        dup_dr, dup_dtheta, dup_dphi (u_r and its partials are zero and
        omitted); the values are floats for a scalar point.  This is the
        analytic-jet path used by the grid checks.
        """
        (r, theta, phi), scalar = _prepare(r, theta, phi)
        mask, (h, hp, _), (g, g_t, g_p, g_tt, g_tp, g_pp) = self._parts(r, theta, phi)
        st, ct = np.sin(theta), np.cos(theta)
        ss = np.where(mask, st, 1.0)
        z = np.zeros_like(st)

        def sel(expr):
            return np.where(mask, expr, z)

        parts = {
            "ut": sel(-h * g_p / ss),
            "dut_dr": sel(-hp * g_p / ss),
            "dut_dtheta": sel(-h * (g_tp * ss - g_p * ct) / ss**2),
            "dut_dphi": sel(-h * g_pp / ss),
            "up": sel(h * g_t),
            "dup_dr": sel(hp * g_t),
            "dup_dtheta": sel(h * g_tt),
            "dup_dphi": sel(h * g_tp),
        }
        return {k: _maybe_scalar(v, scalar) for k, v in parts.items()}

    def boundary_curl_theta(self, theta, phi):
        (theta, phi), scalar = _prepare(theta, phi)
        mask, (_, g_t, g_p, g_tt, _, g_pp) = _polar_jets(self.angular, theta, phi)
        st, ct = np.sin(theta), np.cos(theta)
        gg = kernels.big_g_values(st, ct, g_t, g_tt, g_pp, mask)
        bt, _ = kernels.boundary_curl_assembly(
            st, self.h_boundary, self.hp_boundary, g_t, g_p, gg, mask)
        return _maybe_scalar(bt, scalar)

    def boundary_curl_phi(self, theta, phi):
        (theta, phi), scalar = _prepare(theta, phi)
        mask, (_, g_t, g_p, g_tt, _, g_pp) = _polar_jets(self.angular, theta, phi)
        st, ct = np.sin(theta), np.cos(theta)
        gg = kernels.big_g_values(st, ct, g_t, g_tt, g_pp, mask)
        _, bp = kernels.boundary_curl_assembly(
            st, self.h_boundary, self.hp_boundary, g_t, g_p, gg, mask)
        return _maybe_scalar(bp, scalar)


def big_G(angular: AngularFunction, theta, phi):
    """G = cos g_theta + sin g_thetatheta + g_phiphi / sin (zero inside the
    pole margin by support)."""
    (theta, phi), scalar = _prepare(theta, phi)
    mask, (_, g_t, _, g_tt, _, g_pp) = _polar_jets(angular, theta, phi)
    st, ct = np.sin(theta), np.cos(theta)
    return _maybe_scalar(kernels.big_g_values(st, ct, g_t, g_tt, g_pp, mask), scalar)


def u_field(field: CounterexampleField, p: SphPoint) -> SphVec:
    ur, ut, up = field.u_components(p.r, p.theta, p.phi)
    return SphVec(ur, ut, up)


def omega_field(field: CounterexampleField, p: SphPoint) -> SphVec:
    wr, wt, wp = field.omega_components(p.r, p.theta, p.phi)
    return SphVec(wr, wt, wp)


def v_field(field: CounterexampleField, p: SphPoint) -> SphVec:
    vr, vt, vp = field.v_components(p.r, p.theta, p.phi)
    return SphVec(vr, vt, vp)


def u_jets(field: CounterexampleField, p: SphPoint):
    """First-order jets of (u_r, u_theta, u_phi) at p, for the operators."""
    g = field.u_raw_partials(p.r, p.theta, p.phi)
    jet_r = ScalarJet(0.0)
    jet_t = ScalarJet(g["ut"], g["dut_dr"], g["dut_dtheta"], g["dut_dphi"])
    jet_p = ScalarJet(g["up"], g["dup_dr"], g["dup_dtheta"], g["dup_dphi"])
    return jet_r, jet_t, jet_p


def boundary_curl_v_theta(field: CounterexampleField, theta, phi):
    return field.boundary_curl_theta(theta, phi)


def boundary_curl_v_phi(field: CounterexampleField, theta, phi):
    """Closed-form candidate for the phi component; gate it against the
    radial-derivative oracle before trusting it in reports."""
    return field.boundary_curl_phi(theta, phi)


def find_witnesses(field: CounterexampleField, n_theta=128, n_phi=256):
    """Scan the boundary grid for points certifying the non-vanishing
    conditions: maximize |g_phi * G| and |g_theta * G|.

    Either entry is None when its maximum stays below threshold; raises
    NoWitness when both do.  Ties break to the lowest theta index, then the
    lowest phi index (row-major argmax).
    """
    if n_theta < 16 or n_phi < 16:
        raise ValueError("witness grid must be at least 16x16")
    dtheta = math.pi / n_theta
    theta = (np.arange(n_theta) + 0.5) * dtheta
    phi = np.arange(n_phi) * (2.0 * math.pi / n_phi)
    th, ph = [np.ascontiguousarray(a) for a in np.meshgrid(theta, phi, indexing="ij")]
    mask, (_, g_t, g_p, g_tt, _, g_pp) = _polar_jets(field.angular, th, ph)
    st, ct = np.sin(th), np.cos(th)
    gg = kernels.big_g_values(st, ct, g_t, g_tt, g_pp, mask)

    def best(product):
        flat = np.abs(product).ravel()
        i = int(np.argmax(flat))
        if flat[i] <= WITNESS_THRESHOLD:
            return None
        it, ip = divmod(i, n_phi)
        return SphPoint(1.0, theta[it], phi[ip])

    w1 = best(g_p * gg)
    w2 = best(g_t * gg)
    if w1 is None and w2 is None:
        raise NoWitness(f"no witness above {WITNESS_THRESHOLD} on {n_theta}x{n_phi} grid")
    return w1, w2


def check_admissibility(field: CounterexampleField) -> AdmissibilityReport:
    h1, hp1 = field.h_boundary, field.hp_boundary
    si = field.profile.support_inner
    r_in = np.linspace(0.0, si, 5)
    support_ok = all(np.all(a == 0.0) for a in field.profile.fn(r_in))

    d = field.angular.pole_margin
    theta_in = np.concatenate([np.linspace(0.0, d, 4), np.linspace(math.pi - d, math.pi, 4)])
    phi_s = np.array([0.0, 0.7, math.pi, 5.1])
    th, ph = [np.ascontiguousarray(a.ravel()) for a in np.meshgrid(theta_in, phi_s, indexing="ij")]
    pole_ok = all(np.all(a == 0.0) for a in field.angular.fn(th, ph))

    th_p = np.repeat(np.linspace(0.0, math.pi, 7), 5)
    ph_p = np.tile(np.linspace(0.0, 2.0 * math.pi, 5), 7)
    g0 = field.angular.fn(th_p, ph_p)[0]
    g1 = field.angular.fn(th_p, ph_p + 2.0 * math.pi)[0]
    periodicity_ok = bool(np.max(np.abs(g1 - g0), initial=0.0) <= 1e-12)

    try:
        w1, w2 = find_witnesses(field)
    except NoWitness:
        w1 = w2 = None

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
            raise ValueError(f"bad perturbation size in family label {label!r}") from None
        return CounterexampleField(perturbed_profile(eps), default_angular(), label=label)
    raise ValueError(f"unknown family label {label!r}")
