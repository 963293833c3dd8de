"""Numerical certification checks and report assembly.

Each check evaluates a residual or a non-vanishing quantity over a grid and
returns a CheckResult with sup and L2 norms, the binding tolerance, the pass
direction, and the witness node of the sup.  Tolerances come in three
regimes: 1e-12 for closed-form identities that are exact up to rounding,
1e-6 for finite-difference-contaminated residuals, and a 1e-1 threshold
that non-vanishing sups must exceed.

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
from .sphcalc import SphPoint, basis_at, sphere_midpoint_mesh

TOL_CLOSED_FORM = 1e-10
TOL_EXACT_TRACE = 1e-12
TOL_FD = 1e-6
TOL_ORACLE_AGREEMENT = 1e-4
NONVANISH_THRESHOLD = 1e-1
PHI_GATE_REL_TOL = 1e-5
PHI_GATE_MAGNITUDE = 1e-2
DEFAULT_SEED = 1234


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
        """Raise ValueError unless the FD oracles at cfg.step fit the interior
        grid: both margins above twice the step, and the Cartesian stencil
        accepted (oracle.cartesian_stencil_fits) at the innermost nodes, the
        ones nearest the polar axis (margin_r > 2 step already keeps
        r + step below 1)."""
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
        return {"r": r, "theta": th, "phi": ph, "weights": weights,
                "axes": (r_ax, th_ax, ph_ax), "shape": (self.n_r, self.n_theta, self.n_phi)}

    def boundary_mesh(self):
        axes, (dth, dph), th, ph = sphere_midpoint_mesh(self.n_theta, self.n_phi)
        weights = np.sin(th) * dth * dph
        return {"theta": th, "phi": ph, "weights": weights,
                "axes": axes, "shape": (self.n_theta, self.n_phi)}

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


def quadrature_sanity(grid: GridSpec) -> float:
    """Surface L2 norm of the constant 1 (should be sqrt(4 pi))."""
    mesh = grid.boundary_mesh()
    return float(np.sqrt(np.sum(mesh["weights"])))


def _mesh_witness(mesh):
    """Map a flat mesh index to its node (r = 1 on a boundary mesh)."""
    def witness_fn(i):
        node = [ax[k] for ax, k in zip(mesh["axes"], np.unravel_index(i, mesh["shape"]))]
        return SphPoint(*node) if len(node) == 3 else SphPoint(1.0, *node)
    return witness_fn


def check_divergence_free(field: fam.CounterexampleField, grid: GridSpec,
                          cfg: oracle.FDConfig = oracle.FDConfig()) -> CheckResult:
    """sup |div u| over the interior grid, analytic jets and Cartesian FD.

    Reports the larger sup; passes only when the analytic path stays within
    the rounding tolerance and the FD path within the FD tolerance.
    """
    grid.require_margins_for(cfg)
    mesh = grid.interior_mesh()
    r, th, ph = mesh["r"], mesh["theta"], mesh["phi"]

    parts = field.u_raw_partials(r, th, ph)
    zeros = np.zeros_like(r)
    div_analytic = kernels.divergence_parts(
        r, np.sin(th), np.cos(th), zeros, zeros,
        parts["ut"], parts["dut_dtheta"], parts["dup_dphi"])
    # the field vanishes off its support, so only nodes whose stencil
    # (reach cfg.step) can touch it are evaluated; pad 2 * step is the slack
    reach = field.support_mask(r, th, pad=2.0 * cfg.step)
    div_fd = oracle.cartesian_divergence_grid(field.u_components, r, th, ph, cfg, reach)

    sup_analytic = float(np.max(np.abs(div_analytic)))
    sup_fd = float(np.max(np.abs(div_fd)))
    use_fd = sup_fd >= sup_analytic
    values = div_fd if use_fd else div_analytic
    details = {"sup_analytic": sup_analytic, "tolerance_analytic": TOL_CLOSED_FORM,
               "sup_oracle": sup_fd, "tolerance_oracle": TOL_FD}
    res = _grid_result("divergence_free", "below", values, mesh["weights"], TOL_FD,
                       _mesh_witness(mesh), details)
    res.passed = sup_analytic <= TOL_CLOSED_FORM and sup_fd <= TOL_FD
    return res


def check_slip_conditions(field: fam.CounterexampleField, grid: GridSpec,
                          cfg: oracle.FDConfig = oracle.FDConfig(),
                          oracle_spots: int = 5):
    """(u . n, |omega x n|) residuals over the boundary grid, closed forms.

    A handful of FD-curl spot evaluations ride along in the details of the
    omega check so the closed-form trace has an oracle partner.
    """
    mesh = grid.boundary_mesh()
    th, ph, w = mesh["theta"], mesh["phi"], mesh["weights"]
    ones = np.ones_like(th)
    ur, _, _ = field.u_components(ones, th, ph)
    _, wt, wp = field.omega_components(ones, th, ph)
    tangential = np.hypot(wt, wp)
    wit = _mesh_witness(mesh)
    res_u = _grid_result("slip_u_dot_n", "below", ur, w, TOL_EXACT_TRACE, wit)
    res_w = _grid_result("slip_omega_cross_n", "below", tangential, w,
                         TOL_EXACT_TRACE, wit)

    stride = max(1, th.size // max(oracle_spots, 1))
    spots = np.arange(0, th.size, stride)[:oracle_spots]
    _, ct, cp = oracle.fd_curl_spherical(
        field.u_components, np.ones(spots.size), th[spots], ph[spots], cfg)
    # math.hypot, not np.hypot: the two may differ in the last bit
    res_w.details["oracle_spot_sup"] = max(
        [0.0] + [math.hypot(a, b) for a, b in zip(ct.tolist(), cp.tolist())])
    res_w.details["oracle_spot_points"] = min(oracle_spots, th.size)
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
                              gate_points: int = 50):
    """Non-vanishing of the tangential components of curl(u x w) on the sphere.

    The pass direction is inverted: the sup must exceed the threshold for
    the boundary-condition persistency to be contradicted.  Both results
    come from the closed forms, and each carries the closed-form and oracle
    values at its witness and their relative discrepancy.  The phi closed
    form is also gated against the radial-derivative oracle of v_theta at
    up to gate_points nodes where it is at least 1e-2 in magnitude; a
    failed gate fails the phi result, with the gate numbers in its details.
    One oracle call serves the gate and both witnesses.
    """
    if field.admissibility.witness_a1 is None and field.admissibility.witness_a2 is None:
        raise NoWitness(f"family {field.label!r} exhibits no witness point")
    mesh = grid.boundary_mesh()
    th, ph, w = mesh["theta"], mesh["phi"], mesh["weights"]
    wit = _mesh_witness(mesh)

    bt, bp = field.boundary_curl(th, ph)
    res_t = _grid_result("persistency_failure_theta", "above", bt, w,
                         NONVANISH_THRESHOLD, wit)
    res_p = _grid_result("persistency_failure_phi", "above", bp, w,
                         NONVANISH_THRESHOLD, wit)
    big = np.flatnonzero(np.abs(bp) >= PHI_GATE_MAGNITUDE)
    gate = big[::max(1, big.size // gate_points)][:gate_points]
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
        "gate_max_rel_err": worst if math.isfinite(worst) else None,
        "source": "closed_form",
        **_witness_details(res_p, float(bp[j]), float(d_vt[-1])),
    }
    if not math.isfinite(worst):  # a NaN oracle value fails the gate; JSON has no NaN
        res_p.details["gate_max_rel_err_defined"] = False
    return res_t, res_p


def neighborhood_radius(field: fam.CounterexampleField, component: str,
                        witness: SphPoint, floor_fraction: float,
                        n_directions: int = 16, n_rings: int = 4,
                        iterations: int = 40) -> float:
    """Largest geodesic radius around the witness on which the chosen
    curl(v) component keeps at least floor_fraction of its witness value.

    Bisection on [0, pi/2], sampling rings of the geodesic ball; the answer
    is resolution-limited by the sampling and iteration count.  component
    is "theta" or "phi"; anything else raises ValueError.
    """
    traces = {"theta": field.boundary_curl_theta, "phi": field.boundary_curl_phi}
    if component not in traces:
        raise ValueError(f"component must be 'theta' or 'phi', got {component!r}")
    fc = traces[component]
    ref = abs(fc(witness.theta, witness.phi))
    if ref == 0.0:
        return 0.0
    floor = floor_fraction * ref

    # a frame of the tangent plane at the witness: t1 = e_phi, t2 = -e_theta
    wvec, e_t, t1 = basis_at(witness)
    t2 = -e_t
    alpha = np.arange(n_directions) * (2.0 * math.pi / n_directions)
    dirs = np.outer(np.cos(alpha), t1) + np.outer(np.sin(alpha), t2)

    fracs = (np.arange(n_rings) + 1.0) / n_rings

    def ball_min(rho):
        # all n_rings x n_directions ring points in one evaluation
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
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return lo


def check_navier_traction(field: fam.CounterexampleField, grid: GridSpec,
                          nu: float = 1.0, flat_boundary: bool = False) -> CheckResult:
    """sup of the tangential traction magnitude |t_tan| on the sphere.

    t . tau = (nu/2) (w x n) . tau - nu K u . tau with K = 1 on the unit
    sphere (center of curvature inside) and K = 0 under the flat-boundary
    override.  For slip-compatible families the first term vanishes, so a
    nonzero sup exhibits the gap between the vorticity-based slip condition
    and the traction-based wall law on the curved boundary.
    """
    mesh = grid.boundary_mesh()
    th, ph, w = mesh["theta"], mesh["phi"], mesh["weights"]
    ones = np.ones_like(th)
    _, ut, up = field.u_components(ones, th, ph)
    _, wt, wp = field.omega_components(ones, th, ph)
    curvature = 0.0 if flat_boundary else 1.0
    t_theta = 0.5 * nu * wp - nu * curvature * ut
    t_phi = -0.5 * nu * wt - nu * curvature * up
    magnitude = np.hypot(t_theta, t_phi)
    res = _grid_result("navier_traction", "above", magnitude, w,
                       NONVANISH_THRESHOLD, _mesh_witness(mesh))
    res.details = {"nu": nu, "curvature": curvature}
    return res


def _agreement_nodes(n_points, seed, step):
    """Seeded random interior nodes.  A node whose Cartesian stencil at step
    the oracle would reject is redrawn from the same generator, so the
    draws of every seed that fits stay as they are."""
    rng = np.random.default_rng(seed)

    def draw(n):
        return (rng.uniform(0.1, 0.95, n), rng.uniform(0.15, math.pi - 0.15, n),
                rng.uniform(0.0, 2.0 * math.pi, n))

    r, th, ph = draw(n_points)
    bad = ~oracle.cartesian_stencil_fits(r, th, ph, step)
    while bad.any():  # with step <= 1e-2 only a thin tube round the axis is rejected
        r[bad], th[bad], ph[bad] = draw(int(np.count_nonzero(bad)))
        bad = ~oracle.cartesian_stencil_fits(r, th, ph, step)
    return r, th, ph


def check_oracle_agreement(field: fam.CounterexampleField,
                           cfg: oracle.FDConfig = oracle.FDConfig(),
                           n_points: int = 50, seed: int = DEFAULT_SEED) -> CheckResult:
    """Analytic curl of u against the Cartesian FD path at random interior points."""
    r, th, ph = _agreement_nodes(n_points, seed, cfg.step)

    parts = field.u_raw_partials(r, th, ph)
    zeros = np.zeros_like(r)
    cr, ct, cp = kernels.curl_parts(
        r, np.sin(th), np.cos(th), zeros, zeros,
        parts["ut"], parts["dut_dr"], parts["dut_dphi"],
        parts["up"], parts["dup_dr"], parts["dup_dtheta"])
    fr, ft, fp = oracle.cartesian_curl_grid(field.u_components, r, th, ph, cfg)
    diff = np.max(np.vstack([np.abs(cr - fr), np.abs(ct - ft), np.abs(cp - fp)]), axis=0)

    wr, wt, wp = field.omega_components(r, th, ph)
    closed_dev = float(max(np.max(np.abs(cr - wr)), np.max(np.abs(ct - wt)),
                           np.max(np.abs(cp - wp))))

    i = int(np.argmax(diff))
    sup = float(diff[i])
    rms = float(np.sqrt(np.mean(diff**2)))
    return CheckResult(
        "oracle_agreement_curl", sup, rms, TOL_ORACLE_AGREEMENT, "below",
        sup <= TOL_ORACLE_AGREEMENT, SphPoint(r[i], th[i], ph[i]),
        {"n_points": n_points, "seed": seed, "l2_is_rms_over_samples": True,
         "max_jets_vs_closed_form": closed_dev})


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
    omega are computed once, on the polar band nodes; each eps evaluates
    only its profile's jet there.

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
    factors = fam.OmegaFactors.on_sphere(base_field.angular, mesh["theta"], mesh["phi"])
    rows = []
    for eps in epsilons:
        residual = 0.0
        if factors is not None:
            profile = fam.perturbed_profile(float(eps), base_field.profile)
            with np.errstate(over="ignore", invalid="ignore"):  # reported just below
                h, hp, _ = profile.fn(factors.r)
                _, wt, wp = factors.assemble(h, hp)
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


def run_full_verification(field: fam.CounterexampleField,
                          interior_grid: Optional[GridSpec] = None,
                          boundary_grid: Optional[GridSpec] = None,
                          cfg: oracle.FDConfig = oracle.FDConfig(),
                          nu: float = 1.0, seed: int = DEFAULT_SEED) -> VerificationReport:
    """All checks in fixed order; an admissibility failure in the slip
    identity short-circuits the persistency checks (their closed forms
    assume it) without aborting the rest."""
    interior_grid = interior_grid if interior_grid is not None else GridSpec()
    boundary_grid = boundary_grid if boundary_grid is not None else _DEFAULT_BOUNDARY_GRID
    adm = field.admissibility
    checks = [check_divergence_free(field, interior_grid, cfg)]
    checks.extend(check_slip_conditions(field, boundary_grid, cfg))

    skipped = None
    if not adm.slip_ok:
        skipped = (f"slip condition violated: |h(1)+h'(1)| = "
                   f"{adm.slip_condition_residual:.3e}")
    else:
        try:
            res_t, res_p = check_persistency_failure(field, boundary_grid, cfg)
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
    checks.append(check_navier_traction(field, boundary_grid, nu=nu))

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
