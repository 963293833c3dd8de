"""Numerical certification checks and report assembly.

Each check evaluates a residual or a non-vanishing quantity over a grid and
returns a CheckResult with sup and L2 norms, the binding tolerance, the pass
direction, and the witness node of the sup.  Each quantity a check reads
has one evaluation path: the closed forms of the field, or an oracle.
Tolerances: TOL_EXACT_TRACE 1e-12 (exact boundary traces), TOL_FD 1e-6 (the
Cartesian FD divergence), TOL_ORACLE_AGREEMENT 1e-4 (the closed-form omega
against the Cartesian FD curl of u), and NONVANISH_THRESHOLD 1e-1, which
non-vanishing sups must exceed.
Sample sizes: ORACLE_SPOTS 5 FD-curl spots (slip), GATE_POINTS 50 phi-gate
nodes (persistency), AGREEMENT_POINTS 50 random nodes (oracle agreement), and
RADIUS_BISECTIONS 40 bisection steps on RADIUS_RINGS 4 rings of
RADIUS_DIRECTIONS 16 points (neighborhood_radius).

Everything is deterministic: grids are midpoint lattices, random sample
points come from a seeded generator echoed into the report, and sup/argmax
reductions resolve ties by lowest flat index.
"""
import json
import math
from dataclasses import asdict, dataclass, field as dataclass_field
from datetime import datetime, timezone
from typing import Optional

import numpy as np

from . import family as fam
from . import kernels, oracle
from .errors import DegenerateFit, NoWitness
from .sphcalc import SphPoint, sphere_midpoint_mesh

TOL_EXACT_TRACE = 1e-12
TOL_FD = 1e-6
TOL_ORACLE_AGREEMENT = 1e-4
NONVANISH_THRESHOLD = 1e-1
PHI_GATE_REL_TOL = 1e-5
PHI_GATE_MAGNITUDE = 1e-2
DEFAULT_SEED = 1234
ORACLE_SPOTS = 5
GATE_POINTS = 50
AGREEMENT_POINTS = 50
RADIUS_DIRECTIONS = 16
RADIUS_RINGS = 4
RADIUS_BISECTIONS = 40


@dataclass(frozen=True)
class GridSpec:
    """Midpoint evaluation lattice.

    Interior grids exclude margin_r from both r = 0 and r = 1 and
    margin_theta from both poles (the radial margin keeps Cartesian FD
    stencils inside the ball).  Boundary grids ignore n_r and the margins:
    theta midpoints cover all of [0, pi] so that surface quadrature sees the
    whole sphere, and phi is uniform on [0, 2pi).
    """

    n_r: int = 32
    n_theta: int = 48
    n_phi: int = 96
    margin_r: float = 0.05
    margin_theta: float = 0.05
    boundary_only: bool = False

    def __post_init__(self):
        for name in ("n_r", "n_theta", "n_phi"):
            if getattr(self, name) < 8:
                raise ValueError(f"{name} must be at least 8")
        if not 0.0 < self.margin_r < 0.5:
            raise ValueError("margin_r must lie in (0, 0.5)")
        if not 0.0 < self.margin_theta < math.pi / 2:
            raise ValueError("margin_theta must lie in (0, pi/2)")

    def require_margins_for(self, cfg: oracle.FDConfig):
        """Raise ValueError unless the FD oracles at cfg.step fit the grid: on
        a boundary grid, oracle.polar_stencil_fits at the first theta row (the
        slip check's first FD-curl spot; its other default spots lie farther
        from the poles); on an interior grid, both margins above twice the step and
        oracle.cartesian_stencil_fits at the nodes nearest the polar axis."""
        if self.boundary_only:
            theta = self.boundary_mesh()["theta"][0]
            if not oracle.polar_stencil_fits(theta, cfg.step):
                raise ValueError(f"boundary grid n_theta={self.n_theta} puts an FD-curl spot "
                                 f"at theta={theta:g}; the oracle at step {cfg.step:g} needs "
                                 f"theta > {2.0 * cfg.step:g}")
            return
        if self.margin_r <= 2.0 * cfg.step or self.margin_theta <= 2.0 * cfg.step:
            raise ValueError("grid margins must exceed twice the oracle step")
        (r_ax, th_ax, ph_ax), _ = self._axes()
        if not np.all(oracle.cartesian_stencil_fits(r_ax[0], th_ax[[0, -1], None], ph_ax,
                                                     cfg.step)):
            raise ValueError(
                f"grid margins margin_r={self.margin_r:g}, margin_theta={self.margin_theta:g} "
                f"leave the innermost interior nodes too close to the polar axis; the "
                f"Cartesian oracle at step {cfg.step:g} needs at least {2.0 * cfg.step:g}")

    def _axes(self):
        """(r, theta, phi) axes of the interior lattice and their spacings."""
        dr = (1.0 - 2.0 * self.margin_r) / self.n_r
        dth = (math.pi - 2.0 * self.margin_theta) / self.n_theta
        dph = 2.0 * math.pi / self.n_phi
        return ((self.margin_r + (np.arange(self.n_r) + 0.5) * dr,
                 self.margin_theta + (np.arange(self.n_theta) + 0.5) * dth,
                 np.arange(self.n_phi) * dph), (dr, dth, dph))

    def interior_mesh(self):
        (r_ax, th_ax, ph_ax), (dr, dth, dph) = self._axes()
        r, th, ph = [np.ascontiguousarray(a.ravel())
                     for a in np.meshgrid(r_ax, th_ax, ph_ax, indexing="ij")]
        weights = r**2 * np.sin(th) * dr * dth * dph
        return {"r": r, "theta": th, "phi": ph, "weights": weights}

    def boundary_mesh(self):
        (dth, dph), th, ph = sphere_midpoint_mesh(self.n_theta, self.n_phi)
        weights = np.sin(th) * dth * dph
        return {"theta": th, "phi": ph, "weights": weights}

    def to_dict(self):
        return asdict(self)


_DEFAULT_BOUNDARY_GRID = GridSpec(n_theta=128, n_phi=256, boundary_only=True)


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


def _grid_result(name, direction, values, weights, tolerance, witness_fn, details=None):
    """CheckResult of the sup of |values|; direction "below" or "above"."""
    a = np.abs(values)
    i = int(np.argmax(a))
    sup = float(a[i])
    l2 = float(np.sqrt(np.sum(values * values * weights)))
    passed = sup <= tolerance if direction == "below" else sup >= tolerance
    return CheckResult(name, sup, l2, tolerance, direction, passed,
                       witness_fn(i), details or {})


def _mesh_witness(mesh):
    """Map a flat mesh index to its node (r = 1 on a boundary mesh)."""
    def witness_fn(i):
        r = mesh["r"][i] if "r" in mesh else 1.0
        return SphPoint(r, mesh["theta"][i], mesh["phi"][i])
    return witness_fn


def check_divergence_free(field: fam.CounterexampleField, grid: GridSpec,
                          cfg: oracle.FDConfig = oracle.FDConfig()) -> CheckResult:
    """sup |div u| over the interior grid, by the Cartesian FD oracle, which
    reuses no spherical formula (the closed forms are divergence-free by
    construction, as tests/test_symbolic.py proves)."""
    grid.require_margins_for(cfg)
    mesh = grid.interior_mesh()
    r, th, ph = mesh["r"], mesh["theta"], mesh["phi"]
    # the field vanishes off its support, so only nodes whose stencil
    # (reach cfg.step) can touch it are evaluated; pad 2 * step is the
    # slack, and the support itself lies inside it
    reach = field.support_mask(r, th, pad=2.0 * cfg.step)
    div = oracle.cartesian_divergence_grid(field.u_components, r, th, ph, cfg, reach)
    return _grid_result("divergence_free", "below", div, mesh["weights"], TOL_FD,
                        _mesh_witness(mesh))


def check_slip_conditions(field: fam.CounterexampleField, grid: GridSpec,
                          cfg: oracle.FDConfig = oracle.FDConfig(),
                          boundary_state=None):
    """(u . n, |omega x n|) residuals over the boundary grid, closed forms.

    ORACLE_SPOTS FD-curl spot evaluations ride along in the details of the
    omega check so the closed-form trace has an oracle partner.
    boundary_state: field.boundary_state(theta, phi) on the mesh, evaluated
    here when not given.
    """
    mesh = grid.boundary_mesh()
    th, ph, w = mesh["theta"], mesh["phi"], mesh["weights"]
    ut, _, _, wt, wp, _, _ = boundary_state or field.boundary_state(th, ph)
    wit = _mesh_witness(mesh)
    res_u = _grid_result("slip_u_dot_n", "below", fam.u_radial(ut), w, TOL_EXACT_TRACE, wit)
    res_w = _grid_result("slip_omega_cross_n", "below", np.hypot(wt, wp), w,
                         TOL_EXACT_TRACE, wit)

    # a boundary grid has at least 64 nodes, so the stride is at least 12
    spots = np.arange(0, th.size, th.size // ORACLE_SPOTS)[:ORACLE_SPOTS]
    _, ct, cp = oracle.fd_curl_spherical(
        field.u_components, np.ones(spots.size), th[spots], ph[spots], cfg)
    # math.hypot, not np.hypot: the two may differ in the last bit
    res_w.details["oracle_spot_sup"] = max(
        [0.0] + [math.hypot(a, b) for a, b in zip(ct.tolist(), cp.tolist())])
    res_w.details["oracle_spot_points"] = ORACLE_SPOTS
    return res_u, res_w


def _witness_details(res, analytic, oracle_val):
    """Closed-form and oracle values at the witness of res, and the verdict."""
    return {
        "analytic_at_witness": analytic,
        "oracle_at_witness": oracle_val,
        "rel_discrepancy": abs(analytic - oracle_val) / max(abs(analytic), 1e-300),
        "verdict": "persistency violated" if res.passed else "no contradiction exhibited",
    }


def check_persistency_failure(field: fam.CounterexampleField, grid: GridSpec,
                              cfg: oracle.FDConfig = oracle.FDConfig(),
                              boundary_state=None):
    """Non-vanishing of the tangential components of curl(u x w) on the sphere.

    The pass direction is inverted: the sup must exceed the threshold for
    the boundary-condition persistency to be contradicted.  Both results
    come from the closed forms, and each carries the closed-form and oracle
    values at its witness and their relative discrepancy.  The phi closed
    form is also gated against the radial-derivative oracle of v_theta at
    up to GATE_POINTS nodes where it is at least 1e-2 in magnitude; a
    failed gate fails the phi result, with the gate numbers in its details
    (a NaN oracle value fails it and leaves gate_max_rel_err NaN, which
    run_full_verification reports as a non-finite result).
    One oracle call serves the gate and both witnesses.  boundary_state is
    as for check_slip_conditions.
    """
    if field.admissibility.witness_a1 is None and field.admissibility.witness_a2 is None:
        raise NoWitness(f"family {field.label!r} exhibits no witness point")
    mesh = grid.boundary_mesh()
    th, ph, w = mesh["theta"], mesh["phi"], mesh["weights"]
    wit = _mesh_witness(mesh)

    bt, bp = (boundary_state or field.boundary_state(th, ph))[5:]
    res_t = _grid_result("persistency_failure_theta", "above", bt, w,
                         NONVANISH_THRESHOLD, wit)
    res_p = _grid_result("persistency_failure_phi", "above", bp, w,
                         NONVANISH_THRESHOLD, wit)
    big = np.flatnonzero(np.abs(bp) >= PHI_GATE_MAGNITUDE)
    gate = big[::max(1, big.size // GATE_POINTS)][:GATE_POINTS]
    i, j = int(np.argmax(np.abs(bt))), int(np.argmax(np.abs(bp)))  # the two witnesses
    nodes = np.append(gate, [i, j])
    # (1/r) d_r(r v_theta) and (1/r) d_r(r v_phi) at the gate nodes and the witnesses
    d_vt, d_vp = oracle.fd_boundary_radial_derivative(
        lambda r, t, p: field.v_components(r, t, p)[1:], th[nodes], ph[nodes], cfg)
    worst = float(np.max(np.abs(d_vt[:-2] - bp[gate]) / np.abs(bp[gate]), initial=0.0))
    ok = worst <= PHI_GATE_REL_TOL

    res_t.details = _witness_details(res_t, float(bt[i]), -float(d_vp[-2]))
    res_p.passed = res_p.passed and ok
    res_p.details = {
        "closed_form_validated": ok,
        "gate_points": int(gate.size),
        "gate_max_rel_err": worst,
        "source": "closed_form",
        **_witness_details(res_p, float(bp[j]), float(d_vt[-1])),
    }
    return res_t, res_p


def neighborhood_radius(field: fam.CounterexampleField, component: str,
                        witness: SphPoint, floor_fraction: float) -> float:
    """Largest geodesic radius around the witness on which the chosen
    curl(v) component keeps at least floor_fraction of its witness value.

    RADIUS_BISECTIONS bisection steps on [0, pi/2], each sampling
    RADIUS_RINGS rings of RADIUS_DIRECTIONS points in the geodesic ball; the
    answer is resolution-limited by the sampling and the step count.
    component is "theta" or "phi" and 0 <= floor_fraction <= 1, else
    ValueError.
    """
    traces = {"theta": field.boundary_curl_theta, "phi": field.boundary_curl_phi}
    if component not in traces:
        raise ValueError(f"component must be 'theta' or 'phi', got {component!r}")
    if not 0.0 <= floor_fraction <= 1.0:
        raise ValueError(f"floor_fraction must lie in [0, 1], got {floor_fraction!r}")
    fc = traces[component]
    ref = abs(fc(witness.theta, witness.phi))
    if ref == 0.0:
        return 0.0
    floor = floor_fraction * ref

    # the Cartesian unit vectors (e_r, e_theta, e_phi) at the witness, and a
    # frame of its tangent plane: t1 = e_phi, t2 = -e_theta
    wvec, e_t, t1 = np.transpose(kernels.vec_sph_to_cart(witness.theta, witness.phi,
                                                         *np.eye(3)))
    t2 = -e_t
    alpha = np.arange(RADIUS_DIRECTIONS) * (2.0 * math.pi / RADIUS_DIRECTIONS)
    dirs = np.outer(np.cos(alpha), t1) + np.outer(np.sin(alpha), t2)

    fracs = (np.arange(RADIUS_RINGS) + 1.0) / RADIUS_RINGS

    def ball_min(rho):
        # all RADIUS_RINGS x RADIUS_DIRECTIONS ring points in one evaluation
        a = fracs[:, None, None] * rho
        pts = np.cos(a) * wvec + np.sin(a) * dirs
        _, th, ph = kernels.cart_to_sph(*(pts[..., k].ravel() for k in range(3)))
        return float(np.min(np.abs(fc(th, ph))))

    def holds(rho):
        m = ball_min(rho)
        return m > 0.0 if floor_fraction == 0.0 else m >= floor

    lo, hi = 0.0, math.pi / 2
    if holds(hi):
        return hi
    for _ in range(RADIUS_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return lo


def check_navier_traction(field: fam.CounterexampleField, grid: GridSpec,
                          nu: float = 1.0, flat_boundary: bool = False,
                          boundary_state=None) -> CheckResult:
    """sup of the tangential traction magnitude |t_tan| on the sphere.

    t . tau = (nu/2) (w x n) . tau - nu K u . tau with K = 1 on the unit
    sphere (center of curvature inside) and K = 0 under the flat-boundary
    override.  For slip-compatible families the first term vanishes, so a
    nonzero sup exhibits the gap between the vorticity-based slip condition
    and the traction-based wall law on the curved boundary.  boundary_state
    is as for check_slip_conditions.
    """
    mesh = grid.boundary_mesh()
    ut, up, _, wt, wp, _, _ = boundary_state or field.boundary_state(mesh["theta"], mesh["phi"])
    curvature = 0.0 if flat_boundary else 1.0
    t_theta = 0.5 * nu * wp - nu * curvature * ut
    t_phi = -0.5 * nu * wt - nu * curvature * up
    magnitude = np.hypot(t_theta, t_phi)
    res = _grid_result("navier_traction", "above", magnitude, mesh["weights"],
                       NONVANISH_THRESHOLD, _mesh_witness(mesh))
    res.details = {"nu": nu, "curvature": curvature}
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


def check_oracle_agreement(field: fam.CounterexampleField,
                           cfg: oracle.FDConfig = oracle.FDConfig(),
                           seed: int = DEFAULT_SEED) -> CheckResult:
    """The closed-form omega against the Cartesian FD curl of u at
    AGREEMENT_POINTS random interior points: the gate of the omega that the
    slip check and the boundary traces read."""
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
                  grid: Optional[GridSpec] = None) -> SweepResult:
    """sup |omega x n| as a function of the profile perturbation size.

    The perturbation multiplies the base profile by (1 + eps (r - 0.75)^2),
    which moves h(1) + h'(1) off zero by (eps/2) h(1); the log-log slope of
    the residual against eps should therefore be 1.  eps = 0 rows (and any
    underflowed residual) are excluded from the fit.  The angular factors of
    omega are computed once, on the sphere's support nodes
    base_field.support_mask(1.0, theta); each eps completes them with its
    profile's h(1) and h'(1), the two numbers through which a profile
    enters the sphere.

    Raises ValueError before any evaluation unless at least two eps are
    positive and not all of those are equal, and ValueError naming the eps
    of a non-finite residual; DegenerateFit when fewer than two rows of
    distinct eps keep a nonzero residual (h(1) = 0, say).
    """
    log_pos = np.log([float(e) for e in epsilons if e > 0.0])
    if log_pos.size < 2:
        raise ValueError("degenerate fit: need at least two positive eps values")
    if np.ptp(log_pos) == 0.0:
        raise ValueError("degenerate fit: all eps values identical")
    grid = grid if grid is not None else _DEFAULT_BOUNDARY_GRID
    mesh = grid.boundary_mesh()
    support = base_field.support_mask(1.0, mesh["theta"])
    factors = None
    if support.any():
        th, ph = mesh["theta"][support], mesh["phi"][support]
        factors = fam.OmegaFactors(np.ones_like(th), th, base_field.angular.fn(th, ph, 2))
    rows = []
    for eps in epsilons:
        residual = 0.0
        if factors is not None:
            profile = fam.perturbed_profile(float(eps), base_field.profile)
            with np.errstate(over="ignore", invalid="ignore"):  # reported just below
                _, wt, wp = factors.assemble(*profile.jet(1.0)[:2])
                residual = float(np.max(np.hypot(wt, wp)))
        if not math.isfinite(residual):
            raise ValueError(f"eps={float(eps)!r} gives a non-finite residual ({residual})")
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
        return json.dumps(self.to_dict(include_timestamp), indent=2, allow_nan=False) + "\n"


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
                          interior_grid: Optional[GridSpec] = None,
                          boundary_grid: Optional[GridSpec] = None,
                          cfg: oracle.FDConfig = oracle.FDConfig(),
                          nu: float = 1.0, seed: int = DEFAULT_SEED) -> VerificationReport:
    """All checks in fixed order; an admissibility failure in the slip
    identity short-circuits the persistency checks (their closed forms
    assume it) without aborting the rest.  The three boundary checks share
    one field.boundary_state call on the boundary mesh.

    Raises ValueError naming the first check, in that order, whose result
    holds a non-finite number (a family large enough to overflow), since
    the report is strict JSON.
    """
    interior_grid = interior_grid if interior_grid is not None else GridSpec()
    boundary_grid = boundary_grid if boundary_grid is not None else _DEFAULT_BOUNDARY_GRID
    adm = field.admissibility
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        checks = [check_divergence_free(field, interior_grid, cfg)]
        mesh = boundary_grid.boundary_mesh()
        state = field.boundary_state(mesh["theta"], mesh["phi"])
        checks.extend(check_slip_conditions(field, boundary_grid, cfg, boundary_state=state))

        skipped = None
        if not adm.slip_ok:
            skipped = (f"slip condition violated: |h(1)+h'(1)| = "
                       f"{adm.slip_condition_residual:.3e}")
        else:
            try:
                res_t, res_p = check_persistency_failure(field, boundary_grid, cfg,
                                                         boundary_state=state)
                if res_t.passed:
                    res_t.details["neighborhood_radius_half_floor"] = neighborhood_radius(
                        field, "theta", res_t.witness, 0.5)
                checks.extend([res_t, res_p])
            except NoWitness as exc:
                skipped = str(exc)
        if skipped is not None:
            checks.extend(CheckResult(name, 0.0, 0.0, NONVANISH_THRESHOLD, "above", False, None,
                                      {"skipped": True, "reason": skipped})
                          for name in ("persistency_failure_theta", "persistency_failure_phi"))

        checks.append(check_oracle_agreement(field, cfg, seed=seed))
        checks.append(check_navier_traction(field, boundary_grid, nu=nu, boundary_state=state))
    for c in checks:
        found = _non_finite(c.to_dict())
        if found:
            raise ValueError(f"check {c.name} gives a non-finite {found[0]} ({found[1]})")

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
