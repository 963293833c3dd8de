"""Numerical certification checks and report assembly.

Each check evaluates a residual or a non-vanishing quantity over a grid and
returns a CheckResult with sup and L2 norms, the binding tolerance, the pass
direction, and the witness node of the sup.  Each quantity a check reads
has one evaluation path: the closed forms of the field, or an oracle.
Tolerances: TOL_EXACT_TRACE 1e-12 (exact boundary traces),
TOL_POTENTIAL_REL 1e-7 (u against x x grad(h g), relative to the largest
|u|), TOL_ORACLE_AGREEMENT 1e-4 (the closed-form omega against an FD
curl of u, inside the ball and at the slip spots), TOL_FD 1e-6 (the trace
of the Cartesian FD Jacobian whose curl the agreement check reads, the
independent gate of div u = 0), TRACE_GATE_REL_TOL 1e-5 (each closed-form
trace of curl(u x w) against the radial-derivative oracle, at its gate
nodes and its witness), and NONVANISH_THRESHOLD 1e-1, which non-vanishing
sups must exceed.  The default oracle (one central
difference at step 1e-6) reads 1.5e-10 for the divergence check of the
default, h1zero and perturbed:1e-3 families (680x under
TOL_POTENTIAL_REL), 6.3e-9 for the default family's Cartesian divergence
at the seed's 50 nodes (160x under TOL_FD), 2e-7 for its agreement and
5e-10 for its trace gates; a plain difference at step 1e-4 fails both
divergence tolerances and needs Richardson (tests/test_fd_error.py).
Sample sizes: ORACLE_SPOTS 5 FD-curl spots (slip), GATE_POINTS 50 gate nodes
per trace (persistency), AGREEMENT_POINTS 50 random nodes (oracle
agreement: one Cartesian Jacobian per run, its curl and its trace), and
RADIUS_LEVELS 7 levels of RADIUS_SPLIT 64 rings of RADIUS_DIRECTIONS 16
points (neighborhood_radius, the ungated half-floor ball of the theta
trace): one call of the theta trace alone per level, the first with the
witness, so the radius is resolved to (pi/2) 64^-7 = (pi/2) 2^-42 in 7
calls.

Every grid is a sphcalc.midpoint_lattice (GridSpec.lattice): the interior
lattice of the ball, or the sphere as its r = 1 layer; a grid of the other
kind raises ConfigError.  One boundary_pass evaluates the sphere per run:
the slip, persistency and traction checks and the admissibility witnesses
read it, and one rule (_spread) picks every boundary oracle node, all on the
support, which the shipped families keep more than pi/4 from the poles; the
pass holds no flat nodes, and a picked flat index is read off the lattice's
axes (Lattice.nodes_at).
The oracle alone checks the stencil domain, at every node before it
evaluates the field: an interior grid with a theta row within 2 * step of
a pole, or a custom family whose support reaches a pole, raises
StencilOutOfDomain.  Each check maps the flat index of its sup to the
witness by the lattice's one rule (Lattice.point).
The divergence check works on the lattice axes: h once per r value; g in
one fd_partial call per axis, whose shifted copies of that axis sit beside
the other axis, so the bump runs once per theta value and sin(phi) once
per phi value; sin(theta) once per row; and u in r-slabs of the axes,
each slab's largest component of |u - u_FD| written into the one
lattice-sized difference, which _grid_result reads.  It transforms
nothing to Cartesian: only the agreement check's 50 nodes are.
A row that ANDs a hidden gate into its pass (the agreement check's
Cartesian divergence, the slip check's FD-curl spots, each trace's gate)
names the gate that failed in details.failed_gate (_gate), so a failed
row whose norm_sup meets its tolerance says why.

Everything is deterministic: grids are midpoint lattices, random sample
points come from a seeded generator echoed into the report, and sup/argmax
reductions take the lowest flat index among equal bits.  Values equal only
up to rounding (mirror images of one node) may order differently on
another numpy build or SIMD path, which moves their last bits.
"""
import json
import math
import numbers
from collections import namedtuple
from dataclasses import asdict, dataclass, field as dataclass_field
from datetime import datetime, timezone
from typing import Optional

import numpy as np

from . import family as fam
from . import kernels, oracle, sphcalc
from .errors import ConfigError, DegenerateFit
from .sphcalc import SphPoint

TOL_EXACT_TRACE = 1e-12
TOL_FD = 1e-6
TOL_POTENTIAL_REL = 1e-7
TOL_ORACLE_AGREEMENT = 1e-4
NONVANISH_THRESHOLD = 1e-1
TRACE_GATE_REL_TOL = 1e-5
TRACE_GATE_MAGNITUDE = 1e-2
DEFAULT_SEED = 1234
ORACLE_SPOTS = 5
GATE_POINTS = 50
AGREEMENT_POINTS = 50
RADIUS_DIRECTIONS = 16
RADIUS_SPLIT = 64
RADIUS_LEVELS = 7
# nodes per r-slab of check_divergence_free (3 rows of the shipped grid): u
# and its comparison are slab-sized, so the allocator reuses the slab's
# temporaries instead of faulting in fresh pages; blocks of 4,096 and 8,192
# nodes were slower, and more rows saved 0.6 ms for 0.85 MB more traced peak
SLAB_NODES = 16384


@dataclass(frozen=True)
class GridSpec:
    """Midpoint evaluation lattice (sphcalc.midpoint_lattice).

    Interior grids exclude margin_r from both r = 0 and r = 1 and
    margin_theta from both poles (the polar margin keeps the divergence
    check's theta stencils off the poles).  Boundary grids are the r = 1
    layer and ignore n_r and the margins: theta midpoints cover all of
    [0, pi] so that surface quadrature sees the whole sphere, and phi is
    uniform on [0, 2pi).  Every field's type is checked first; then the
    counts of the lattice the grid builds (not a sphere's n_r) follow
    sphcalc.require_nodes, so a grid of more than sphcalc.MAX_NODES nodes is
    refused when it is built; then the margins' ranges.
    """

    n_r: int = 32
    n_theta: int = 48
    n_phi: int = 96
    margin_r: float = 0.05
    margin_theta: float = 0.05
    boundary_only: bool = False

    def __post_init__(self):
        # counts are stored as int and margins as float, so the report echo
        # is plain JSON and the lattice shape is exact
        for name in ("n_r", "n_theta", "n_phi"):
            sphcalc.store_field(self, name, int)
        for name in ("margin_r", "margin_theta"):
            sphcalc.store_field(self, name, float)
        sphcalc.store_field(self, "boundary_only", bool)
        # the counts of the lattice this grid builds: a sphere reads no n_r
        sphcalc.require_nodes({k: getattr(self, k) for k in (
            ("n_theta", "n_phi") if self.boundary_only else ("n_r", "n_theta", "n_phi"))})
        if not 0.0 < self.margin_r < 0.5:
            raise ConfigError("margin_r must lie in (0, 0.5)")
        if not 0.0 < self.margin_theta < math.pi / 2:
            raise ConfigError("margin_theta must lie in (0, pi/2)")

    def lattice(self, boundary_only: Optional[bool] = None) -> sphcalc.Lattice:
        """The grid's midpoint lattice: the sphere (r = 1) for a boundary
        grid, else the interior lattice within the margins.  boundary_only,
        when given, is the kind the caller needs: a grid of the other kind
        raises ConfigError."""
        if boundary_only is not None and boundary_only != self.boundary_only:
            need = "a boundary grid (boundary_only=True)" if boundary_only else \
                "an interior grid (boundary_only=False)"
            raise ConfigError(f"this check needs {need}, got boundary_only={self.boundary_only}")
        if self.boundary_only:
            return sphcalc.midpoint_lattice(self.n_theta, self.n_phi)
        return sphcalc.midpoint_lattice(self.n_theta, self.n_phi, self.margin_theta,
                                        self.n_r, self.margin_r)

    def to_dict(self):
        """The report echo; the sphere reads only n_theta and n_phi."""
        keys = ("n_theta", "n_phi", "boundary_only") if self.boundary_only else asdict(self)
        return {k: getattr(self, k) for k in keys}


_DEFAULT_BOUNDARY_GRID = GridSpec(n_theta=128, n_phi=256, boundary_only=True)


# The one evaluation of the sphere: the boundary grid's lattice and the
# fam.SphereState of field.boundary_state on its nodes, flat.
BoundaryPass = namedtuple("BoundaryPass", ("lattice",) + fam.SphereState._fields)


def boundary_pass(field: fam.CounterexampleField, grid: GridSpec) -> BoundaryPass:
    """field.boundary_state on the nodes of the boundary grid; an interior
    grid raises ConfigError."""
    lattice = grid.lattice(boundary_only=True)
    state = field.boundary_state(*lattice.axes[1:])  # once per theta row and phi value
    return BoundaryPass(lattice, *(a.ravel() for a in state))


def _spread(indices, k):
    """At most k of the indices, evenly strided from the first: the rule
    that picks every boundary oracle node."""
    return indices[::max(1, indices.size // k)][:k]


@dataclass
class CheckResult:
    """One named residual or non-vanishing check.

    direction "below": pass iff norm_sup <= tolerance (residual check);
    direction "above": pass iff norm_sup >= tolerance (non-vanishing check).
    """

    name: str
    norm_sup: float
    norm_l2: float
    tolerance: float
    direction: str
    passed: bool
    witness: Optional[SphPoint] = None
    details: dict = dataclass_field(default_factory=dict)

    def to_dict(self):
        w = None if self.witness is None else asdict(self.witness)
        return {"name": self.name, "norm_sup": self.norm_sup, "norm_l2": self.norm_l2,
                "tolerance": self.tolerance, "direction": self.direction,
                "pass": bool(self.passed), "witness": w, "details": self.details}


def _grid_result(name, direction, values, lattice, tolerance):
    """CheckResult of the sup of |values| over the lattice's nodes (flat, or
    in the lattice's shape); direction "below" or "above"."""
    values = np.reshape(values, lattice.shape)
    a = np.abs(values)
    i = int(np.argmax(a))
    sup = float(a.flat[i])
    # (v v) w in the one buffer, summed as the product array would be
    np.multiply(values, values, out=a)
    a *= lattice.weights
    l2 = float(np.sqrt(a.sum()))
    passed = sup <= tolerance if direction == "below" else sup >= tolerance
    return CheckResult(name, sup, l2, tolerance, direction, passed, lattice.point(i))


def _gate(res, name, value, tolerance):
    """AND the hidden gate value <= tolerance (a NaN fails) into res.passed
    and return it.  A failed gate is named in details.failed_gate with its
    value and tolerance, so that a row whose norm_sup meets its own
    tolerance still says why it fails; a row whose gates hold gains no key."""
    if value <= tolerance:
        return True
    res.passed = False
    res.details["failed_gate"] = {"name": name, "value": value, "tolerance": tolerance}
    return False


def check_divergence_free(field: fam.CounterexampleField, grid: GridSpec,
                          cfg: oracle.FDConfig = oracle.FDConfig()) -> CheckResult:
    """div u = 0 through the toroidal potential psi = h(r) g(theta, phi).

    u = x x grad(psi) has divergence grad(psi) . curl(x) - x . curl(grad psi)
    = 0 for every C^2 psi (tests/test_symbolic.py proves both), so the check
    confirms that the closed-form u is x x grad(psi): at every node of the
    interior grid it compares u_components with (0, -h D_phi g / sin theta,
    h D_theta g), where D is oracle.fd_partial of g at order 0 along the
    lattice's own theta and phi axes (one call each, on the axes, with g
    exactly 0 off the band of the support) and h is read once on the r
    axis.  norm_sup is the largest component of |u - u_FD| over the
    largest component of |u| (absolute when u vanishes on the lattice),
    below TOL_POTENTIAL_REL; u is evaluated and compared in r-slabs of
    about SLAB_NODES nodes.  The independent Cartesian FD divergence is
    gated by check_oracle_agreement; no Cartesian stencil touches the
    lattice, so the shipped grid runs at every step FDConfig accepts."""
    lattice = grid.lattice(boundary_only=False)
    r, theta, phi = lattice.axes

    def g(_, t, p):
        return fam._on_support(field.support_mask(1.0, t), 1,
                               lambda t, p: field.angular.fn(t, p, 0), t, p)[0]
    g_t, g_p = (oracle.fd_partial(g, 1.0, theta, phi, axis, cfg) for axis in ("theta", "phi"))
    # the equator lies in every band, so this is the radial term of the support
    (h,) = fam._on_support(field.support_mask(r, math.pi / 2), 1,
                           lambda r: field.profile.fn(r, 0), r)
    sin = np.sin(theta)
    diff, scale = np.empty(lattice.shape), 0.0
    rows = max(1, SLAB_NODES // (theta.size * phi.size))
    for lo in range(0, r.size, rows):
        # per r-slab: the largest component of |u - u_FD| into diff, with
        # u_FD = (0, -h g_p / sin theta, h g_t), and the largest |u| so far
        s = slice(lo, lo + rows)
        u_r, u_t, u_p = field.u_components(r[s], theta, phi)
        scale = np.max([scale, *(np.abs(u).max() for u in (u_r, u_t, u_p))])
        np.maximum(np.maximum(np.abs(u_r), np.abs(u_t - -h[s] * g_p / sin)),
                   np.abs(u_p - h[s] * g_t), out=diff[s])
    if scale > 0.0:
        diff /= scale  # in place: no second lattice-sized array
    res = _grid_result("divergence_free", "below", diff, lattice, TOL_POTENTIAL_REL)
    res.details = {"compared": "u against x cross grad(h g), on the lattice axes",
                   "u_sup": float(scale)}
    return res


def check_slip_conditions(field: fam.CounterexampleField, sphere: BoundaryPass,
                          cfg: oracle.FDConfig = oracle.FDConfig()):
    """(u . n, |omega x n|) residuals over the boundary pass, closed forms.

    The omega check is gated by the FD curl of u at ORACLE_SPOTS of the
    sphere's support nodes: their omega_theta and omega_phi must agree
    within TOL_ORACLE_AGREEMENT (oracle_spot_max_abs_err, which
    details.failed_gate names when it fails).
    """
    lattice = sphere.lattice
    res_u = _grid_result("slip_u_dot_n", "below", fam.u_radial(sphere.u_theta), lattice,
                         TOL_EXACT_TRACE)
    res_w = _grid_result("slip_omega_cross_n", "below",
                         np.hypot(sphere.omega_theta, sphere.omega_phi), lattice, TOL_EXACT_TRACE)

    support = field.support_mask(1.0, lattice.axes[1])  # on the theta axis
    spots = _spread(np.flatnonzero(np.broadcast_to(support, lattice.shape)), ORACLE_SPOTS)
    _, ct, cp = oracle.fd_curl_spherical(field.u_components, *lattice.nodes_at(spots), cfg)
    err = float(np.max(np.abs([ct - sphere.omega_theta[spots], cp - sphere.omega_phi[spots]]),
                       initial=0.0))
    # math.hypot, not np.hypot: the two may differ in the last bit
    res_w.details["oracle_spot_sup"] = max(
        [0.0] + [math.hypot(a, b) for a, b in zip(ct.tolist(), cp.tolist())])
    res_w.details["oracle_spot_points"] = int(spots.size)
    res_w.details["oracle_spot_max_abs_err"] = err
    _gate(res_w, "oracle_spot_max_abs_err", err, TOL_ORACLE_AGREEMENT)
    return res_u, res_w


def check_persistency_failure(field: fam.CounterexampleField, sphere: BoundaryPass,
                              cfg: oracle.FDConfig = oracle.FDConfig()):
    """Non-vanishing of the tangential components of curl(u x w) on the sphere.

    The pass direction is inverted: the sup must exceed the threshold for
    the boundary-condition persistency to be contradicted.  Each result is
    the closed form of the boundary pass, gated against the
    radial-derivative oracle at up to GATE_POINTS nodes where it is at least
    TRACE_GATE_MAGNITUDE in size, and at its witness if that large: a failed
    gate fails it (a NaN oracle value too, for run_full_verification to
    report) and is named in details.failed_gate (gate_max_rel_err, else
    rel_discrepancy).  Its details hold the gate numbers and the closed-form
    and oracle values at its witness; a trace with no gate node (h1zero's)
    is not validated, and gate_note says so.  One oracle call, on each
    trace's gate nodes and then its witness, serves both traces.
    Admissibility is the caller's to decide.
    """
    traces = (sphere.curl_v_theta, sphere.curl_v_phi)
    results = [_grid_result(f"persistency_failure_{name}", "above", trace, sphere.lattice,
                            NONVANISH_THRESHOLD)
               for name, trace in zip(("theta", "phi"), traces)]
    # per trace: its gate nodes, then its witness
    nodes = [np.append(_spread(np.flatnonzero(np.abs(trace) >= TRACE_GATE_MAGNITUDE),
                               GATE_POINTS), np.argmax(np.abs(trace))) for trace in traces]
    # (1/r) d_r(r v_theta) and (1/r) d_r(r v_phi) at the nodes of both traces
    d_vt, d_vp = oracle.fd_boundary_radial_derivative(
        lambda r, t, p: field.v_components(r, t, p)[1:],
        *sphere.lattice.nodes_at(np.concatenate(nodes))[1:], cfg)
    n = nodes[0].size
    # at r = 1 the theta trace is -(1/r) d_r(r v_phi), the phi trace (1/r) d_r(r v_theta)
    for res, trace, ref, at in zip(results, traces, (-d_vp[:n], d_vt[n:]), nodes):
        gate, i = at[:-1], at[-1]
        worst = float(np.max(np.abs(ref[:-1] - trace[gate]) / np.abs(trace[gate]), initial=0.0))
        analytic, oracle_val = float(trace[i]), float(ref[-1])
        rel = abs(analytic - oracle_val) / max(abs(analytic), 1e-300)
        ok = _gate(res, "gate_max_rel_err", worst, TRACE_GATE_REL_TOL) and (
            abs(analytic) < TRACE_GATE_MAGNITUDE
            or _gate(res, "rel_discrepancy", rel, TRACE_GATE_REL_TOL))
        res.details = {
            "closed_form_validated": ok and gate.size > 0,
            "gate_points": int(gate.size),
            "gate_max_rel_err": worst,
            "source": "closed_form",
            "analytic_at_witness": analytic,
            "oracle_at_witness": oracle_val,
            "rel_discrepancy": rel,
            "verdict": "persistency violated" if res.passed else "no contradiction exhibited",
            **res.details,  # the failed gate, if any
        }
        if gate.size == 0:
            res.details["gate_note"] = (f"no node reaches |trace| >= {TRACE_GATE_MAGNITUDE:g}, "
                                        f"so no oracle value was compared")
    return tuple(results)


def neighborhood_radius(field: fam.CounterexampleField, witness: SphPoint) -> float:
    """Largest geodesic radius around the witness on which the closed-form
    theta trace of curl(u x w) keeps at least half its witness value: the
    half-floor ball that run_full_verification reports.

    A ring scan of [0, pi/2] in RADIUS_LEVELS levels, one trace call each.
    A level starts from lo (0 at first) and a width (pi/2 at first) and
    samples the RADIUS_SPLIT rings of RADIUS_DIRECTIONS points at radii
    lo + width k / RADIUS_SPLIT, k = 1 .. RADIUS_SPLIT; a ring fails if a
    point is not >= half the witness value (a NaN fails).  lo becomes the
    last radius before the first failing ring (it stays if the first ring
    fails), and width shrinks by RADIUS_SPLIT, so the answer is resolved
    to (pi/2) / RADIUS_SPLIT ** RADIUS_LEVELS = (pi/2) 2^-42.  The first
    call also takes the witness: a witness where the trace vanishes has
    radius 0, and a first level with no failing ring radius pi/2.  A later
    level's last ring is the ring that failed one level up, and it counts
    as failing whatever rounding gives it, so the answer never reaches a
    ring that was seen to fail.
    """
    # the Cartesian unit vectors (e_r, e_theta, e_phi) at the witness, and a
    # frame of its tangent plane: t1 = e_phi, t2 = -e_theta
    wvec, e_t, t1 = np.transpose(kernels.vec_sph_to_cart(witness.theta, witness.phi,
                                                         *np.eye(3)))
    alpha = np.arange(RADIUS_DIRECTIONS) * (2.0 * math.pi / RADIUS_DIRECTIONS)
    dirs = np.outer(np.cos(alpha), t1) - np.outer(np.sin(alpha), e_t)

    lo, width = 0.0, math.pi / 2
    theta, phi = [witness.theta], [witness.phi]  # the first call also takes the witness
    for level in range(RADIUS_LEVELS):
        rhos = lo + width * np.arange(RADIUS_SPLIT + 1) / RADIUS_SPLIT  # rhos[0] is lo
        pts = np.cos(rhos[1:, None, None]) * wvec + np.sin(rhos[1:, None, None]) * dirs
        _, th, ph = kernels.cart_to_sph(*(pts[..., k].ravel() for k in range(3)))
        values = np.abs(field.boundary_curl_theta(np.append(theta, th), np.append(phi, ph)))
        if level == 0:
            if values[0] == 0.0:
                return 0.0
            floor, theta, phi = 0.5 * values[0], [], []
        holds = values[-th.size:].reshape(RADIUS_SPLIT, -1).min(axis=1) >= floor
        if level == 0 and holds.all():
            return math.pi / 2
        holds[-1] = False  # past level 0 it failed one level up (at level 0 some ring fails)
        lo = float(rhos[np.argmin(holds)])  # the last radius before the first failing ring
        width /= RADIUS_SPLIT
    return lo


def check_navier_traction(sphere: BoundaryPass) -> CheckResult:
    """Closed-form sup of the tangential traction |t_tan| on the sphere; it
    gates no verdict.  t . tau = (1/2) (w x n) . tau - K u . tau (unit
    viscosity) with K = 1 on the unit sphere (center of curvature inside);
    at K = 0 (a flat wall) it is half the slip_omega_cross_n residual.  For
    slip-compatible families the first term vanishes, so a nonzero sup
    exhibits the gap between the vorticity-based slip condition and the
    traction-based wall law on the curved boundary."""
    magnitude = np.hypot(0.5 * sphere.omega_phi - sphere.u_theta,  # t_theta
                         -0.5 * sphere.omega_theta - sphere.u_phi)  # t_phi
    res = _grid_result("navier_traction", "above", magnitude, sphere.lattice, NONVANISH_THRESHOLD)
    res.details = {"nu": 1.0, "curvature": 1.0}
    return res


def _agreement_nodes(seed, step):
    """AGREEMENT_POINTS seeded random interior nodes.  A node whose Cartesian
    stencil at step the oracle would reject is redrawn from the same
    generator, so the draws of every seed that fits stay as they are."""
    rng = np.random.default_rng(seed)

    def draw(n):
        return (rng.uniform(0.1, 0.95, n), rng.uniform(0.15, math.pi - 0.15, n),
                rng.uniform(0.0, 2.0 * math.pi, n))

    r, th, ph = draw(AGREEMENT_POINTS)
    bad = ~oracle.cartesian_stencil_fits(r, th, ph, step)
    while bad.any():  # with step <= 1e-2 only a thin tube round the axis is rejected
        r[bad], th[bad], ph[bad] = draw(int(np.count_nonzero(bad)))
        bad = ~oracle.cartesian_stencil_fits(r, th, ph, step)
    return r, th, ph


def _seed(seed) -> int:
    """seed as int if a non-negative integer (not a bool), else ConfigError."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    return int(seed)


def check_oracle_agreement(field: fam.CounterexampleField,
                           cfg: oracle.FDConfig = oracle.FDConfig(),
                           seed: int = DEFAULT_SEED) -> CheckResult:
    """The closed-form omega against the Cartesian FD curl of u at
    AGREEMENT_POINTS random interior points, seed as _seed reads it: the
    gate of the omega that the slip check and the boundary traces read.
    The trace of the same Jacobian, the Cartesian FD divergence of u, which
    reuses no spherical formula, must stay within TOL_FD as well
    (details.cartesian_divergence_sup, and details.failed_gate when it
    does not): the independent gate of the potential identity that
    check_divergence_free compares."""
    seed = _seed(seed)
    r, th, ph = _agreement_nodes(seed, cfg.step)
    wr, wt, wp = field.omega_components(r, th, ph)
    jac = oracle.cartesian_jacobian_grid(field.u_components, r, th, ph, cfg)
    fr, ft, fp = oracle.cartesian_curl_grid(jac, th, ph)
    diff = np.max(np.vstack([np.abs(wr - fr), np.abs(wt - ft), np.abs(wp - fp)]), axis=0)
    i = int(np.argmax(diff))
    sup = float(diff[i])
    rms = float(np.sqrt(np.mean(diff**2)))
    div = float(np.max(np.abs(oracle.cartesian_divergence_grid(jac))))
    res = CheckResult(
        "oracle_agreement_curl", sup, rms, TOL_ORACLE_AGREEMENT, "below",
        sup <= TOL_ORACLE_AGREEMENT, SphPoint(r[i], th[i], ph[i]),
        {"n_points": AGREEMENT_POINTS, "seed": seed, "l2_is_rms_over_samples": True,
         "cartesian_divergence_sup": div, "cartesian_tolerance": TOL_FD})
    _gate(res, "cartesian_divergence_sup", div, TOL_FD)
    return res


@dataclass
class SweepResult:
    rows: list          # (eps, residual) for every requested eps
    included: list      # the rows used in the fit
    slope: float
    intercept: float

    def to_dict(self):
        return {"rows": [{"eps": e, "residual": r} for e, r in self.rows],
                "included": [{"eps": e, "residual": r} for e, r in self.included],
                "slope": self.slope, "intercept": self.intercept}


def scaling_sweep(base_field: fam.CounterexampleField, epsilons,
                  grid: GridSpec = _DEFAULT_BOUNDARY_GRID) -> SweepResult:
    """sup |omega x n| as a function of the profile perturbation size.

    The perturbation multiplies the base profile by (1 + eps (r - 0.75)^2),
    which moves h(1) + h'(1) off zero by (eps/2) h(1); the log-log slope of
    the residual against eps should therefore be 1.  eps = 0 rows (and any
    underflowed residual) are excluded from the fit.  At r = 1, |omega x n| =
    |h(1) + h'(1)| hypot(g_theta, g_phi / sin theta) (tests/test_symbolic.py):
    the rows share one sup of the hypot on the support nodes support_mask(1.0,
    theta), from an order-1 angular jet on the axes; every eps is read in one
    order-1 jet call of the eps-vector profile at r = 1, then one product per
    row, rounded once (a row may be an ulp off the sup).

    Raises ConfigError before any evaluation for an eps perturbed_profile
    refuses (an integer too large for a float by its conversion, with its
    message), or unless two positive eps differ; ConfigError naming the eps
    of a non-finite residual; DegenerateFit when fewer than two rows of
    distinct eps keep a nonzero residual (h(1) = 0, say).
    """
    epsilons = [sphcalc._convert("perturbation size", eps, float) for eps in epsilons]
    profile = fam.perturbed_profile(np.array(epsilons), base_field.profile)
    log_pos = np.log([e for e in epsilons if e > 0.0])
    if log_pos.size < 2:
        raise ConfigError("degenerate fit: need at least two positive eps values")
    if np.ptp(log_pos) == 0.0:
        raise ConfigError("degenerate fit: all eps values identical")
    _, th, ph = grid.lattice(boundary_only=True).axes

    def hypot(theta, phi):
        w = fam.OmegaFactors(1.0, theta, base_field.angular.fn(theta, phi, 1))
        return (np.hypot(w.g_t, w.g_p / w.sin),)
    support = base_field.support_mask(1.0, th)
    residuals = np.zeros(len(epsilons))  # no support node: every row is 0
    if support.any():
        peak = float(np.max(fam._on_support(support, 1, hypot, th, ph)[0]))
        with np.errstate(over="ignore", invalid="ignore"):  # reported just below
            h, hp = profile.fn(np.ones(1), 1)[:2]
            residuals = np.abs(h + hp) * peak
    rows = list(zip(epsilons, residuals.tolist()))
    for eps, residual in rows:
        if not math.isfinite(residual):
            raise ConfigError(f"eps={eps!r} gives a non-finite residual ({residual})")
    included = [(e, r) for e, r in rows if e > 0.0 and r > 1e-300]
    log_e, log_r = np.log(np.reshape(included, (-1, 2))).T
    if log_e.size < 2 or np.ptp(log_e) == 0.0:
        raise DegenerateFit("need at least two positive-eps rows with nonzero residual")
    slope, intercept = np.polyfit(log_e, log_r, 1)
    return SweepResult(rows, included, float(slope), float(intercept))


@dataclass
class VerificationReport:
    family_label: str
    admissibility: fam.AdmissibilityReport
    checks: list
    overall_pass: bool
    grid_echo: dict
    oracle_echo: dict
    timestamp: str

    def to_dict(self, include_timestamp: bool = True) -> dict:
        d = {"family": self.family_label}
        if include_timestamp:
            d["timestamp"] = self.timestamp
        d["admissibility"] = self.admissibility.to_dict()
        d["checks"] = [c.to_dict() for c in self.checks]
        d["overall_pass"] = self.overall_pass
        d["grid"] = self.grid_echo
        d["oracle"] = self.oracle_echo
        return d

    def to_json(self, include_timestamp: bool = True) -> str:
        return json_text(self.to_dict(include_timestamp))


def json_text(value) -> str:
    """value as strict JSON (NaN raises ValueError), indented by 2, with a final
    newline: the one writer of the reports and of eval's output."""
    return json.dumps(value, indent=2, allow_nan=False) + "\n"


def _non_finite(value, path=""):
    """(path, value) of the first non-finite float in a report dict, or None."""
    if isinstance(value, dict):
        for key, v in value.items():
            found = _non_finite(v, f"{path}.{key}" if path else key)
            if found:
                return found
    elif isinstance(value, float) and not math.isfinite(value):
        return path, value
    return None


def run_full_verification(field: fam.CounterexampleField,
                          interior_grid: GridSpec = GridSpec(),
                          boundary_grid: GridSpec = _DEFAULT_BOUNDARY_GRID,
                          cfg: oracle.FDConfig = oracle.FDConfig(),
                          seed: int = DEFAULT_SEED) -> VerificationReport:
    """All checks in fixed order.  The three boundary checks and the one
    fam.check_admissibility (its witnesses those of the pass) read one
    boundary_pass of the boundary grid: a family that fails the slip
    identity (the closed forms of the persistency checks assume it) or has
    no witness point skips both persistency checks without aborting the rest.
    overall_pass needs every check but navier_traction and the three
    admissibility probes (pole margin, support, periodicity).

    Raises ConfigError naming the first check, in that order, whose result
    holds a non-finite number (a family large enough to overflow), since
    the report is strict JSON.
    """
    seed = _seed(seed)  # a bad seed stops the run before any check evaluates the field
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        checks = [check_divergence_free(field, interior_grid, cfg)]
        sphere = boundary_pass(field, boundary_grid)
        adm = fam.check_admissibility(field, fam.witness_points(sphere.lattice, sphere))
        checks.extend(check_slip_conditions(field, sphere, cfg))

        skipped = None
        if not adm.slip_ok:
            skipped = (f"slip condition violated: |h(1)+h'(1)| = "
                       f"{adm.slip_condition_residual:.3e}")
        elif adm.witness_a1 is None and adm.witness_a2 is None:
            skipped = f"family {field.label!r} exhibits no witness point"
        if skipped is None:
            res_t, res_p = check_persistency_failure(field, sphere, cfg)
            if res_t.passed:
                res_t.details["neighborhood_radius_half_floor"] = neighborhood_radius(
                    field, res_t.witness)
            checks.extend([res_t, res_p])
        else:
            checks.extend(CheckResult(name, 0.0, 0.0, NONVANISH_THRESHOLD, "above", False, None,
                                      {"skipped": True, "reason": skipped})
                          for name in ("persistency_failure_theta", "persistency_failure_phi"))

        checks.append(check_oracle_agreement(field, cfg, seed=seed))
        checks.append(check_navier_traction(sphere))
    for c in checks:
        found = _non_finite(c.to_dict())
        if found:
            raise ConfigError(f"check {c.name} gives a non-finite {found[0]} ({found[1]})")

    # every check but the ungated traction, and the admissibility probes: a
    # field cut to zero across a jump is not the smooth field the paper needs
    overall = (adm.pole_margin_ok and adm.support_ok and adm.periodicity_ok
               and all(c.passed for c in checks if c.name != "navier_traction"))
    return VerificationReport(
        family_label=field.label,
        admissibility=adm,
        checks=checks,
        overall_pass=overall,
        grid_echo={"interior": interior_grid.to_dict(), "boundary": boundary_grid.to_dict()},
        oracle_echo={"step": cfg.step, "richardson": cfg.richardson, "seed": seed},
        timestamp=datetime.now(timezone.utc).isoformat(),
    )
