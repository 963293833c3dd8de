"""Numerical certification checks and report assembly.

Each check evaluates a residual or a non-vanishing quantity over a grid and
returns a CheckResult with sup and L2 norms, the binding tolerance, the pass
direction, and the witness node of the sup.  Each quantity a check reads
has one evaluation path: the closed forms of the field, or an oracle.
Tolerances: TOL_EXACT_TRACE 1e-12 (exact boundary traces), TOL_FD 1e-6 (the
Cartesian FD divergence), TOL_ORACLE_AGREEMENT 1e-4 (the closed-form omega
against an FD curl of u, inside the ball and at the slip spots),
TRACE_GATE_REL_TOL 1e-5 (each closed-form trace of curl(u x w) against the
radial-derivative oracle, at its gate nodes and its witness), and
NONVANISH_THRESHOLD 1e-1, which non-vanishing sups must exceed.  The
default oracle (one central difference at step 1e-6) reads 3.3e-8 for the
default family's divergence (30x under TOL_FD), 2e-7 for its agreement and
5e-10 for its trace gates; above a step of about 5e-6 a plain difference
fails TOL_FD and needs Richardson (tests/test_fd_error.py).
Sample sizes: ORACLE_SPOTS 5 FD-curl spots (slip), GATE_POINTS 50 gate nodes
per trace (persistency), AGREEMENT_POINTS 50 random nodes (oracle
agreement), and RADIUS_BISECTIONS 40 bisection steps on RADIUS_RINGS 4 rings
of RADIUS_DIRECTIONS 16 points (neighborhood_radius, the ungated half-floor
ball of the theta trace), RADIUS_BATCH_LEVELS 4 levels per trace call: one
call takes the 15 midpoints the next four steps may visit, so the 40 steps
cost 10 calls after the one for the witness and the radius pi/2, and the
radius keeps its bits; 4 levels timed fastest of 1 to 6 in process (3.2-3.4
ms on the default witness, one level per call 6.4-10 ms).

Every grid is a sphcalc.midpoint_lattice (GridSpec.lattice): the interior
lattice of the ball, or the sphere as its r = 1 layer; a grid of the other
kind raises ConfigError.  One boundary_pass evaluates the sphere per run:
the slip, persistency and traction checks and the admissibility witnesses
read it, and one rule (_spread) picks every boundary oracle node, all on the
support, which the shipped families keep more than pi/4 from the poles.
The oracle alone checks the stencil domain, at every node before it
evaluates the field: a tight interior grid, or a custom family whose support
reaches a pole, raises StencilOutOfDomain.  Each check maps the flat index
of its sup to the witness by the lattice's one rule (Lattice.point).
The divergence check works on the lattice axes: per-axis inputs (the
transform to Cartesian, the reach mask, sin(theta) in the weights) are
computed once per axis value, never once per node.

Everything is deterministic: grids are midpoint lattices, random sample
points come from a seeded generator echoed into the report, and sup/argmax
reductions resolve ties by lowest flat index.
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
TOL_ORACLE_AGREEMENT = 1e-4
NONVANISH_THRESHOLD = 1e-1
TRACE_GATE_REL_TOL = 1e-5
TRACE_GATE_MAGNITUDE = 1e-2
DEFAULT_SEED = 1234
ORACLE_SPOTS = 5
GATE_POINTS = 50
AGREEMENT_POINTS = 50
RADIUS_DIRECTIONS = 16
RADIUS_RINGS = 4
RADIUS_BISECTIONS = 40
RADIUS_BATCH_LEVELS = 4


@dataclass(frozen=True)
class GridSpec:
    """Midpoint evaluation lattice (sphcalc.midpoint_lattice).

    Interior grids exclude margin_r from both r = 0 and r = 1 and
    margin_theta from both poles (the radial margin keeps Cartesian FD
    stencils inside the ball).  Boundary grids are the r = 1 layer and
    ignore n_r and the margins: theta midpoints cover all of [0, pi] so that
    surface quadrature sees the whole sphere, and phi is uniform on [0, 2pi).
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
            sphcalc.require_cells(name, sphcalc.store_field(self, name, int))
        for name in ("margin_r", "margin_theta"):
            sphcalc.store_field(self, name, float)
        sphcalc.store_field(self, "boundary_only", bool)
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


# The one evaluation of the sphere: the boundary grid's lattice, its flat
# theta and phi nodes, and the fam.SphereState of field.boundary_state there.
BoundaryPass = namedtuple("BoundaryPass", ("lattice", "theta", "phi") + fam.SphereState._fields)


def boundary_pass(field: fam.CounterexampleField, grid: GridSpec) -> BoundaryPass:
    """field.boundary_state on the nodes of the boundary grid; an interior
    grid raises ConfigError."""
    lattice = grid.lattice(boundary_only=True)
    _, theta, phi = lattice.nodes()
    return BoundaryPass(lattice, theta, phi, *field.boundary_state(theta, phi))


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
    a = np.abs(values).ravel()
    i = int(np.argmax(a))
    sup = float(a[i])
    l2 = float(np.sqrt(np.sum(values * values * lattice.weights)))
    passed = sup <= tolerance if direction == "below" else sup >= tolerance
    return CheckResult(name, sup, l2, tolerance, direction, passed, lattice.point(i))


def check_divergence_free(field: fam.CounterexampleField, grid: GridSpec,
                          cfg: oracle.FDConfig = oracle.FDConfig()) -> CheckResult:
    """sup |div u| over the interior grid, by the Cartesian FD oracle, which
    reuses no spherical formula (the closed forms are divergence-free by
    construction, as tests/test_symbolic.py proves)."""
    lattice = grid.lattice(boundary_only=False)
    # the lattice axes, broadcast only where the oracle needs every node;
    # the field vanishes off its support, so only nodes whose stencil
    # (reach cfg.step) can touch it are evaluated; pad 2 * step is the
    # slack, and the support itself lies inside it
    reach = field.support_mask(*lattice.axes[:2], pad=2.0 * cfg.step)
    div = oracle.cartesian_divergence_grid(field.u_components, *lattice.axes, cfg, reach)
    return _grid_result("divergence_free", "below", div, lattice, TOL_FD)


def check_slip_conditions(field: fam.CounterexampleField, sphere: BoundaryPass,
                          cfg: oracle.FDConfig = oracle.FDConfig()):
    """(u . n, |omega x n|) residuals over the boundary pass, closed forms.

    The omega check is gated by the FD curl of u at ORACLE_SPOTS of the
    sphere's support nodes: their omega_theta and omega_phi must agree
    within TOL_ORACLE_AGREEMENT (oracle_spot_max_abs_err).
    """
    lattice = sphere.lattice
    res_u = _grid_result("slip_u_dot_n", "below", fam.u_radial(sphere.u_theta), lattice,
                         TOL_EXACT_TRACE)
    res_w = _grid_result("slip_omega_cross_n", "below",
                         np.hypot(sphere.omega_theta, sphere.omega_phi), lattice, TOL_EXACT_TRACE)

    spots = _spread(np.flatnonzero(field.support_mask(1.0, sphere.theta)), ORACLE_SPOTS)
    _, ct, cp = oracle.fd_curl_spherical(
        field.u_components, np.ones(spots.size), sphere.theta[spots], sphere.phi[spots], cfg)
    err = float(np.max(np.abs([ct - sphere.omega_theta[spots], cp - sphere.omega_phi[spots]]),
                       initial=0.0))
    res_w.passed = res_w.passed and err <= TOL_ORACLE_AGREEMENT
    # math.hypot, not np.hypot: the two may differ in the last bit
    res_w.details["oracle_spot_sup"] = max(
        [0.0] + [math.hypot(a, b) for a, b in zip(ct.tolist(), cp.tolist())])
    res_w.details["oracle_spot_points"] = int(spots.size)
    res_w.details["oracle_spot_max_abs_err"] = err
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
    report).  Its details hold the gate numbers and the closed-form and
    oracle values at its witness; a trace with no gate node (h1zero's) is
    not validated, and gate_note says so.  One oracle call serves both gates
    and both witnesses.  Admissibility is the caller's to decide.
    """
    traces = (sphere.curl_v_theta, sphere.curl_v_phi)
    results = [_grid_result(f"persistency_failure_{name}", "above", trace, sphere.lattice,
                            NONVANISH_THRESHOLD)
               for name, trace in zip(("theta", "phi"), traces)]
    gates = [_spread(np.flatnonzero(np.abs(trace) >= TRACE_GATE_MAGNITUDE), GATE_POINTS)
             for trace in traces]
    witnesses = [int(np.argmax(np.abs(trace))) for trace in traces]
    nodes = np.concatenate([*gates, witnesses])
    # (1/r) d_r(r v_theta) and (1/r) d_r(r v_phi) at the gate nodes and the witnesses
    d_vt, d_vp = oracle.fd_boundary_radial_derivative(
        lambda r, t, p: field.v_components(r, t, p)[1:], sphere.theta[nodes],
        sphere.phi[nodes], cfg)
    start = 0
    # at r = 1 the theta trace is -(1/r) d_r(r v_phi), the phi trace (1/r) d_r(r v_theta)
    for res, trace, ref, gate, i, at_witness in zip(results, traces, (-d_vp, d_vt), gates,
                                                    witnesses, (-2, -1)):
        at_gate, start = ref[start:start + gate.size], start + gate.size
        worst = float(np.max(np.abs(at_gate - trace[gate]) / np.abs(trace[gate]), initial=0.0))
        analytic, oracle_val = float(trace[i]), float(ref[at_witness])
        rel = abs(analytic - oracle_val) / max(abs(analytic), 1e-300)
        ok = worst <= TRACE_GATE_REL_TOL and (abs(analytic) < TRACE_GATE_MAGNITUDE
                                              or rel <= TRACE_GATE_REL_TOL)
        res.passed = res.passed and ok
        res.details = {
            "closed_form_validated": ok and gate.size > 0,
            "gate_points": int(gate.size),
            "gate_max_rel_err": worst,
            "source": "closed_form",
            "analytic_at_witness": analytic,
            "oracle_at_witness": oracle_val,
            "rel_discrepancy": rel,
            "verdict": "persistency violated" if res.passed else "no contradiction exhibited",
        }
        if gate.size == 0:
            res.details["gate_note"] = (f"no node reaches |trace| >= {TRACE_GATE_MAGNITUDE:g}, "
                                        f"so no oracle value was compared")
    return tuple(results)


def neighborhood_radius(field: fam.CounterexampleField, witness: SphPoint) -> float:
    """Largest geodesic radius around the witness on which the closed-form
    theta trace of curl(u x w) keeps at least half its witness value: the
    half-floor ball that run_full_verification reports.

    RADIUS_BISECTIONS bisection steps on [0, pi/2], each sampling
    RADIUS_RINGS rings of RADIUS_DIRECTIONS points in the geodesic ball; the
    answer is resolution-limited by the sampling and the step count.  One
    trace call serves the witness and the radius pi/2; each later call
    evaluates all 2^RADIUS_BATCH_LEVELS - 1 midpoints of the next
    RADIUS_BATCH_LEVELS levels of the bisection tree, and the bisection then
    walks its path through them, so the radius has the bits of one step at
    a time.  A witness where the trace vanishes has radius 0.
    """
    # the Cartesian unit vectors (e_r, e_theta, e_phi) at the witness, and a
    # frame of its tangent plane: t1 = e_phi, t2 = -e_theta
    wvec, e_t, t1 = np.transpose(kernels.vec_sph_to_cart(witness.theta, witness.phi,
                                                         *np.eye(3)))
    alpha = np.arange(RADIUS_DIRECTIONS) * (2.0 * math.pi / RADIUS_DIRECTIONS)
    dirs = np.outer(np.cos(alpha), t1) - np.outer(np.sin(alpha), e_t)

    fracs = (np.arange(RADIUS_RINGS) + 1.0) / RADIUS_RINGS

    def ball_mins(rhos, theta=(), phi=()):
        # |trace| at the extra nodes (theta, phi), then its minimum over the
        # RADIUS_RINGS x RADIUS_DIRECTIONS ring points of each radius in
        # rhos, all from one trace call
        a = fracs[:, None, None] * np.array(rhos)[:, None, None, None]
        pts = np.cos(a) * wvec + np.sin(a) * dirs
        _, th, ph = kernels.cart_to_sph(*(pts[..., k].ravel() for k in range(3)))
        values = np.abs(field.boundary_curl_theta(np.append(theta, th), np.append(phi, ph)))
        mins = np.min(values[len(theta):].reshape(len(rhos), -1), axis=1)
        return values[:len(theta)].tolist(), mins.tolist()

    lo, hi = 0.0, math.pi / 2
    (ref,), (hi_min,) = ball_mins([hi], [witness.theta], [witness.phi])
    if ref == 0.0:
        return 0.0
    floor = 0.5 * ref
    if hi_min >= floor:
        return hi
    for done in range(0, RADIUS_BISECTIONS, RADIUS_BATCH_LEVELS):
        levels = min(RADIUS_BATCH_LEVELS, RADIUS_BISECTIONS - done)
        # the bisection tree of the next levels in heap order: the interval
        # at node i splits at its midpoint into nodes 2i + 1 and 2i + 2
        intervals = [(lo, hi)]
        for node in range(2 ** (levels - 1) - 1):
            a, b = intervals[node]
            mid = 0.5 * (a + b)
            intervals += [(a, mid), (mid, b)]
        mids = [0.5 * (a + b) for a, b in intervals]
        _, mins = ball_mins(mids)
        i = 0
        for _ in range(levels):
            if mins[i] >= floor:
                lo, i = mids[i], 2 * i + 2
            else:
                hi, i = mids[i], 2 * i + 1
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
    AGREEMENT_POINTS random interior points: the gate of the omega that the
    slip check and the boundary traces read; seed as _seed reads it."""
    seed = _seed(seed)
    r, th, ph = _agreement_nodes(seed, cfg.step)
    wr, wt, wp = field.omega_components(r, th, ph)
    fr, ft, fp = oracle.cartesian_curl_grid(field.u_components, r, th, ph, cfg)
    diff = np.max(np.vstack([np.abs(wr - fr), np.abs(wt - ft), np.abs(wp - fp)]), axis=0)
    i = int(np.argmax(diff))
    sup = float(diff[i])
    rms = float(np.sqrt(np.mean(diff**2)))
    return CheckResult(
        "oracle_agreement_curl", sup, rms, TOL_ORACLE_AGREEMENT, "below",
        sup <= TOL_ORACLE_AGREEMENT, SphPoint(r[i], th[i], ph[i]),
        {"n_points": AGREEMENT_POINTS, "seed": seed, "l2_is_rms_over_samples": True})


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
    underflowed residual) are excluded from the fit.  The angular factors of
    omega are computed once, on the sphere's support nodes
    base_field.support_mask(1.0, theta); each eps completes them with its
    profile's h(1) and h'(1), the two numbers through which a profile
    enters the sphere.

    Raises ConfigError before any evaluation for an eps perturbed_profile
    refuses, or unless two positive eps differ; ConfigError naming the eps
    of a non-finite residual; DegenerateFit when fewer than two rows of
    distinct eps keep a nonzero residual (h(1) = 0, say).
    """
    profiles = [fam.perturbed_profile(float(eps), base_field.profile) for eps in epsilons]
    log_pos = np.log([float(e) for e in epsilons if e > 0.0])
    if log_pos.size < 2:
        raise ConfigError("degenerate fit: need at least two positive eps values")
    if np.ptp(log_pos) == 0.0:
        raise ConfigError("degenerate fit: all eps values identical")
    _, th, ph = grid.lattice(boundary_only=True).nodes()
    support = base_field.support_mask(1.0, th)
    factors = None
    if support.any():
        th, ph = th[support], ph[support]
        factors = fam.OmegaFactors(np.ones_like(th), th, base_field.angular.fn(th, ph, 2))
    rows = []
    for eps, profile in zip(epsilons, profiles):
        residual = 0.0
        if factors is not None:
            with np.errstate(over="ignore", invalid="ignore"):  # reported just below
                _, wt, wp = factors.assemble(*profile.jet(1.0)[:2])
                residual = float(np.max(np.hypot(wt, wp)))
        if not math.isfinite(residual):
            raise ConfigError(f"eps={float(eps)!r} gives a non-finite residual ({residual})")
        rows.append((float(eps), residual))
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

    by_name = {c.name: c for c in checks}
    overall = all(by_name[n].passed for n in (
        "divergence_free", "slip_u_dot_n", "slip_omega_cross_n",
        "persistency_failure_theta", "persistency_failure_phi",
        "oracle_agreement_curl"))
    return VerificationReport(
        family_label=field.label,
        admissibility=adm,
        checks=checks,
        overall_pass=overall,
        grid_echo={"interior": interior_grid.to_dict(), "boundary": boundary_grid.to_dict()},
        oracle_echo={"step": cfg.step, "richardson": cfg.richardson, "seed": seed},
        timestamp=datetime.now(timezone.utc).isoformat(),
    )
