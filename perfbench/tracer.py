"""Outside-in tracer for the slipball package.

`install` wraps the package's public functions at their module or class
attribute, so that every call records a span (layer, name, start, end,
parent id) in memory; `restore` puts the original functions back.  Nothing
inside the package is edited.  Install before any field is built:
`default_profile()` and `default_angular()` capture the kernel function
objects when they construct `RadialProfile` / `AngularFunction`.

A span's self time is its duration minus the part of it that its child
spans cover.  Counting work (nodes, bytes, support hits) happens outside
the measured spans; the one costly count, the support-mask test of each
field evaluation, runs in a span of its own layer, `trace`, so the self
times of all layers still add up to the root span.
"""
import functools
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

import numpy as np

LAYERS = ("cli", "verify", "oracle", "family", "kernels", "trace")

KERNELS = (
    "default_profile_jet", "h1zero_profile_jet", "perturbed_factor_jet",
    "default_angular_jet",
    "big_g_values", "u_assembly", "omega_assembly", "cross_tangential",
    "boundary_curl_assembly",
    "sph_to_cart", "cart_to_sph", "vec_sph_to_cart", "vec_cart_to_sph",
    "divergence_parts", "curl_parts",
)
# CounterexampleField evaluators: (method, whether it takes r before theta, phi)
EVALUATORS = (
    ("u_components", True), ("omega_components", True), ("v_components", True),
    ("u_raw_partials", True),
    ("boundary_curl_theta", False), ("boundary_curl_phi", False),
)
FAMILY_FUNCTIONS = ("find_witnesses", "check_admissibility", "family_by_label")
ORACLE_FUNCTIONS = (
    "cartesian_jacobian_grid", "cartesian_divergence_grid", "cartesian_curl_grid",
    "fd_curl_spherical", "fd_partial", "fd_boundary_radial_derivative",
)
VERIFY_FUNCTIONS = (
    "check_divergence_free", "check_slip_conditions", "check_persistency_failure",
    "neighborhood_radius", "check_oracle_agreement", "check_navier_traction",
    "scaling_sweep", "run_full_verification",
)


def _metric_units():
    units = {}
    for k in KERNELS:
        units.update({f"kernels.{k}.calls": "count", f"kernels.{k}.nodes": "count",
                      f"kernels.{k}.self_s": "s"})
    units["kernels.bytes_computed"] = "B"
    for m, _ in EVALUATORS:
        f = f"family.CounterexampleField.{m}"
        units.update({f + ".calls": "count", f + ".nodes": "count", f + ".self_s": "s"})
    units.update({"family.find_witnesses.calls": "count",
                  "family.find_witnesses.nodes": "count",
                  "family.find_witnesses.self_s": "s"})
    for f in FAMILY_FUNCTIONS[1:]:
        units.update({f"family.{f}.calls": "count", f"family.{f}.self_s": "s"})
    units.update({"family.scalar_calls": "count", "family.support_hit_ratio": "1"})
    for f in ORACLE_FUNCTIONS:
        units.update({f"oracle.{f}.calls": "count", f"oracle.{f}.self_s": "s",
                      f"oracle.{f}.total_s": "s"})
    units.update({"oracle.field_evals": "count", "oracle.field_nodes": "count"})
    for f in VERIFY_FUNCTIONS:
        units[f"verify.{f}.s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update({"trace.root_s": "s", "trace.overhead_s": "s"})
    return units


# Every per-layer metric the traced run reports, with its unit.  Counts and
# times are per op (mean over the traced ops); ratios are over all of them.
METRIC_UNITS = _metric_units()


@dataclass
class Span:
    id: int
    parent: Optional[int]
    layer: str
    name: str
    start: float
    end: float = 0.0
    nodes: int = 0
    nbytes: int = 0
    support_hits: int = 0
    under_oracle: bool = False
    evaluator: bool = False


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self._originals = []

    def open(self, layer, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), None if parent is None else parent.id, layer, name,
                    self.clock(),
                    under_oracle=parent is not None
                    and (parent.layer == "oracle" or parent.under_oracle))
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span.end = self.clock()
        self._stack.pop()

    def take(self):
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, owner, attr, layer, name, count=None):
        original = vars(owner)[attr]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self.open(layer, name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                count(span, args, kwargs, result)
            return result

        self._originals.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self):
        """Wrap the traced functions of the `slipball` package."""
        from slipball import cli, family, kernels, oracle, verify

        if self._originals:
            raise RuntimeError("tracer already installed")
        self._wrap(cli, "main", "cli", "main")
        for f in VERIFY_FUNCTIONS:
            self._wrap(verify, f, "verify", f)
        for f in ORACLE_FUNCTIONS:
            self._wrap(oracle, f, "oracle", f)
        for m, radial in EVALUATORS:
            self._wrap(family.CounterexampleField, m, "family", "CounterexampleField." + m,
                       self._count_evaluation(radial))
        witness_signature = inspect.signature(family.find_witnesses)

        def count_witness_grid(span, args, kwargs, result):
            grid = witness_signature.bind(*args, **kwargs)
            grid.apply_defaults()
            span.nodes = grid.arguments["n_theta"] * grid.arguments["n_phi"]

        self._wrap(family, "find_witnesses", "family", "find_witnesses", count_witness_grid)
        for f in FAMILY_FUNCTIONS[1:]:
            self._wrap(family, f, "family", f)
        for k in KERNELS:
            self._wrap(kernels, k, "kernels", k, _count_arrays)

    def restore(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _count_evaluation(self, radial):
        def count(span, args, kwargs, result):
            field, coords = args[0], args[1:]
            theta = coords[1] if radial else coords[0]
            r = coords[0] if radial else 1.0
            probe = self.open("trace", "support_mask")
            try:
                mask = np.broadcast_to(field.support_mask(np.asarray(r), np.asarray(theta)),
                                       np.broadcast_shapes(*(np.shape(c) for c in coords)))
                span.nodes = int(mask.size)
                span.support_hits = int(np.count_nonzero(mask))
            finally:
                self.close(probe)
            span.evaluator = True
        return count


def _array_nbytes(value):
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, tuple):
        return sum(_array_nbytes(v) for v in value)
    return 0


def _count_arrays(span, args, kwargs, result):
    arrays = [a for a in args if isinstance(a, np.ndarray)]
    span.nodes = max((a.size for a in arrays), default=1)
    span.nbytes = sum(a.nbytes for a in arrays) + _array_nbytes(result)


def _covered(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Map span id -> duration minus the time its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - _covered(children[s.id], s.start, s.end)
            for s in spans}


def accumulate(totals, spans):
    """Add one op's spans to the running `totals` (a defaultdict(float))."""
    selfs = self_times(spans)
    for s in spans:
        key = f"{s.layer}.{s.name}"
        duration = s.end - s.start
        totals[key + ".calls"] += 1
        totals[key + ".nodes"] += s.nodes
        totals[key + ".self_s"] += selfs[s.id]
        totals[key + ".total_s"] += duration
        totals[s.layer + ".self_s"] += selfs[s.id]
        totals["kernels.bytes_computed"] += s.nbytes
        if s.parent is None:
            totals["trace.root_s"] += duration
        if s.evaluator:
            totals["family.evaluated_nodes"] += s.nodes
            totals["family.support_hits"] += s.support_hits
            totals["family.scalar_calls"] += s.nodes == 1
            if s.under_oracle:
                totals["oracle.field_evals"] += 1
                totals["oracle.field_nodes"] += s.nodes
    return totals


def metrics(totals, n_ops, overhead_s):
    """The per-layer metrics of METRIC_UNITS, per op, from accumulated totals."""
    out = {}
    for name, unit in METRIC_UNITS.items():
        if name == "family.support_hit_ratio":
            value = totals["family.support_hits"] / max(totals["family.evaluated_nodes"], 1)
        elif name == "trace.overhead_s":
            value = overhead_s
        elif name.startswith("verify.") and name.endswith(".s"):
            value = totals[name[:-2] + ".total_s"] / n_ops
        else:
            value = totals[name] / n_ops
        out[name] = {"value": value, "unit": unit}
    return out


def spans_to_json(spans):
    return [{"id": s.id, "parent": s.parent, "layer": s.layer, "name": s.name,
             "start": s.start, "end": s.end, "nodes": s.nodes} for s in spans]
