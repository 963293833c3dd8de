"""Command-line front end.

Subcommands: verify (full certification run -> table + JSON report),
eval (field components at one point), sample (CSV grid export), and
sweep (slip-residual scaling in the perturbation size).

Exit codes: 0 success, 1 usage/config error, 2 check failure.  stdout
carries data and reports only; diagnostics go to stderr.  Options given on
the command line override values from the JSON config file, which overrides
the built-in defaults.
"""
import argparse
import copy
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import family as fam
from . import verify
from .errors import ConfigError, DegenerateFit, SlipballError
from .oracle import FDConfig
from .sphcalc import SphPoint

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2

SLOPE_BAND = (0.95, 1.05)

_DEFAULTS = {
    "family": "default",
    "grid": {k: v for k, v in asdict(verify.GridSpec()).items() if k != "boundary_only"},
    "boundary_grid": {k: getattr(verify._DEFAULT_BOUNDARY_GRID, k) for k in ("n_theta", "n_phi")},
    "sample_grid": {"n_theta": 64, "n_phi": 128},
    "oracle": asdict(FDConfig()),
    "epsilons": [1e-1, 1e-2, 1e-3, 1e-4],
    "nu": 1.0,
    "seed": verify.DEFAULT_SEED,
    "report": None,
    "out": None,
    "timestamp": True,
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the contract reserves 2 for
    failed checks, so remap usage errors to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# The JSON values a config leaf accepts, by the type of its default.
_LEAF_KINDS = {
    bool: ("a boolean", lambda v: isinstance(v, bool)),
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a number", _is_number),
    str: ("a string", lambda v: isinstance(v, str)),
    type(None): ("a string or null", lambda v: v is None or isinstance(v, str)),
    list: ("a list of numbers", lambda v: isinstance(v, list) and all(map(_is_number, v))),
}


def _merge_config(base, incoming, path=""):
    for key, value in incoming.items():
        if key not in base:
            raise ConfigError(f"unknown config key {path + key!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {path + key!r} must be an object")
            _merge_config(base[key], value, path + key + ".")
            continue
        kind, accepts = _LEAF_KINDS[type(base[key])]
        if not accepts(value):
            raise ConfigError(f"config key {path + key!r} must be {kind}, got {value!r}")
        base[key] = value


def load_config(path):
    cfg = copy.deepcopy(_DEFAULTS)
    if path is not None:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path!r} line {exc.lineno}: {exc.msg}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config {path!r} must hold a JSON object")
        _merge_config(cfg, data)
    return cfg


# flags that set a key of a config section: (args attribute, (section, key))
_SECTION_FLAGS = (
    ("grid_nr", ("grid", "n_r")), ("grid_ntheta", ("grid", "n_theta")),
    ("grid_nphi", ("grid", "n_phi")),
    ("grid_margin_r", ("grid", "margin_r")),
    ("grid_margin_theta", ("grid", "margin_theta")),
    ("boundary_ntheta", ("boundary_grid", "n_theta")),
    ("boundary_nphi", ("boundary_grid", "n_phi")),
    ("oracle_step", ("oracle", "step")),
)


def _apply_overrides(cfg, args):
    for key in ("family", "report", "out", "nu", "seed"):
        v = getattr(args, key, None)
        if v is not None:
            cfg[key] = v
    for attr, (sect, key) in _SECTION_FLAGS:
        v = getattr(args, attr, None)
        if v is not None:
            cfg[sect][key] = v
    if getattr(args, "no_richardson", False):
        cfg["oracle"]["richardson"] = False
    if getattr(args, "no_timestamp", False):
        cfg["timestamp"] = False
    if getattr(args, "epsilons", None) is not None:
        try:
            cfg["epsilons"] = [float(tok) for tok in args.epsilons.split(",") if tok.strip()]
        except ValueError:
            raise ConfigError(f"cannot parse --epsilons {args.epsilons!r}") from None
    return cfg


def _boundary_spec(section):
    return verify.GridSpec(n_theta=section["n_theta"], n_phi=section["n_phi"],
                           boundary_only=True)


_PIECES = {"grid": lambda section: verify.GridSpec(**section),
           "boundary_grid": _boundary_spec, "sample_grid": _boundary_spec,
           "oracle": lambda section: FDConfig(**section)}


def _build_pieces(cfg, *sections):
    """The family, then one object per named config section, built in that
    order; the first bad value raises ConfigError."""
    try:
        return [fam.family_by_label(cfg["family"])] + [_PIECES[k](cfg[k]) for k in sections]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _fmt(x):
    return f"{x:.17g}"


def _print_report_table(report):
    print(f"family: {report.family_label}")
    adm = report.admissibility
    print(f"admissibility: slip_residual={adm.slip_condition_residual:.3e} "
          f"h1={adm.h1_value:g} pole_margin_ok={adm.pole_margin_ok} "
          f"support_ok={adm.support_ok} periodicity_ok={adm.periodicity_ok}")
    header = f"{'check':32s} {'norm_sup':>12s} {'norm_l2':>12s} {'tolerance':>10s} {'dir':>6s} {'pass':>5s}"
    print(header)
    print("-" * len(header))
    for c in report.checks:
        print(f"{c.name:32s} {c.norm_sup:12.4e} {c.norm_l2:12.4e} "
              f"{c.tolerance:10.1e} {c.direction:>6s} {'yes' if c.passed else 'NO':>5s}")
    print(f"overall: {'PASS' if report.overall_pass else 'FAIL'}")


def cmd_verify(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    field, interior, boundary, fd = _build_pieces(cfg, "grid", "boundary_grid", "oracle")
    if not math.isfinite(cfg["nu"]):
        raise ConfigError(f"nu must be finite, got {cfg['nu']}")
    try:
        interior.require_margins_for(fd)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    report = verify.run_full_verification(
        field, interior, boundary, fd, nu=cfg["nu"], seed=cfg["seed"])
    _print_report_table(report)
    if cfg["report"]:
        with open(cfg["report"], "w") as fh:
            fh.write(report.to_json(include_timestamp=cfg["timestamp"]))
        print(f"report written to {cfg['report']}", file=sys.stderr)
    return EXIT_OK if report.overall_pass else EXIT_CHECK_FAILED


def cmd_eval(args) -> int:
    cfg = _apply_overrides(load_config(None), args)
    if args.r > 1.0 + 1e-12:
        print(f"error: point r={args.r} outside the closed unit ball", file=sys.stderr)
        return EXIT_USAGE
    try:
        field = fam.family_by_label(cfg["family"])
        p = SphPoint(args.r, args.theta, args.phi)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    ur, ut, up = field.u_components(p.r, p.theta, p.phi)
    wr, wt, wp = field.omega_components(p.r, p.theta, p.phi)
    vr, vt, vp = field.v_components(p.r, p.theta, p.phi)
    out = {
        "family": field.label,
        "point": {"r": p.r, "theta": p.theta, "phi": p.phi},
        "u": {"r": ur, "theta": ut, "phi": up},
        "omega": {"r": wr, "theta": wt, "phi": wp},
        "v": {"r": vr, "theta": vt, "phi": vp},
    }
    if abs(p.r - 1.0) <= 1e-12:
        bt, bp = field.boundary_curl(p.theta, p.phi)
        out["boundary"] = {"curl_v_theta": bt, "curl_v_phi": bp}
    print(json.dumps(out, indent=2))
    return EXIT_OK


_SAMPLE_FIELDS = ("u", "omega", "v", "curl_v_boundary")


def _sample_rows(field, selector, on_surface, interior, sample_boundary):
    if on_surface:
        mesh = sample_boundary.boundary_mesh()
        r, th, ph = np.ones_like(mesh["theta"]), mesh["theta"], mesh["phi"]
    else:
        mesh = interior.interior_mesh()
        r, th, ph = mesh["r"], mesh["theta"], mesh["phi"]
    if selector == "curl_v_boundary":  # on the surface only
        return "r,theta,phi,curl_v_theta,curl_v_phi", (r, th, ph, *field.boundary_curl(th, ph))
    getter = {"u": field.u_components, "omega": field.omega_components,
              "v": field.v_components}[selector]
    return "r,theta,phi,c_r,c_theta,c_phi", (r, th, ph, *getter(r, th, ph))


def cmd_sample(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    if args.field not in _SAMPLE_FIELDS:
        print(f"error: unknown field selector {args.field!r} "
              f"(choose from {', '.join(_SAMPLE_FIELDS)})", file=sys.stderr)
        return EXIT_USAGE
    if args.on not in ("surface", "volume"):
        print(f"error: unknown region selector {args.on!r}", file=sys.stderr)
        return EXIT_USAGE
    if args.field == "curl_v_boundary" and args.on == "volume":
        print("error: curl_v_boundary is only defined on the surface", file=sys.stderr)
        return EXIT_USAGE
    if args.on == "surface" and any(getattr(args, attr) is not None
                                    for attr, (sect, _) in _SECTION_FLAGS if sect == "grid"):
        print("error: --grid-* flags set the volume grid (--on volume); the surface "
              "grid is the config's sample_grid", file=sys.stderr)
        return EXIT_USAGE
    out_path = cfg["out"]
    if not out_path:
        print("error: --out is required for sample", file=sys.stderr)
        return EXIT_USAGE
    field, interior, sample_boundary = _build_pieces(cfg, "grid", "sample_grid")
    header, cols = _sample_rows(field, args.field, args.on == "surface",
                                interior, sample_boundary)
    with open(out_path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in zip(*cols):
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    print(f"{cols[0].size} rows written to {out_path}", file=sys.stderr)
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    epsilons = cfg["epsilons"]
    if len(epsilons) < 4:
        print(f"error: need at least 4 epsilons, got {len(epsilons)}", file=sys.stderr)
        return EXIT_USAGE
    if not all(math.isfinite(e) for e in epsilons):
        print(f"error: epsilons must be finite, got {epsilons}", file=sys.stderr)
        return EXIT_USAGE
    field, boundary = _build_pieces(cfg, "boundary_grid")
    try:
        sweep = verify.scaling_sweep(field, epsilons, boundary)
    except DegenerateFit as exc:
        print(f"error: degenerate fit: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"{'eps':>14s} {'residual':>22s}  in_fit")
    included = set(sweep.included)
    for eps, res in sweep.rows:
        print(f"{_fmt(eps):>14s} {_fmt(res):>22s}  {'yes' if (eps, res) in included else 'no'}")
    print(f"slope {sweep.slope:.6f} (target 1.00 +/- 0.05)")
    if cfg["report"]:
        with open(cfg["report"], "w") as fh:
            json.dump({"family": field.label, **sweep.to_dict()}, fh, indent=2)
            fh.write("\n")
    ok = SLOPE_BAND[0] <= sweep.slope <= SLOPE_BAND[1]
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def build_parser() -> _Parser:
    parser = _Parser(prog="slipball",
                     description="Certify slip-boundary velocity fields on the unit ball.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--family", help="family label: default, h1zero, perturbed:<eps>")

    pv = sub.add_parser("verify", help="run the full certification")
    add_common(pv)
    pv.add_argument("--report", help="write the JSON report here")
    pv.add_argument("--no-timestamp", action="store_true",
                    help="omit the timestamp for byte-reproducible reports")
    pv.add_argument("--grid-nr", type=int)
    pv.add_argument("--grid-ntheta", type=int)
    pv.add_argument("--grid-nphi", type=int)
    pv.add_argument("--grid-margin-r", type=float)
    pv.add_argument("--grid-margin-theta", type=float)
    pv.add_argument("--boundary-ntheta", type=int)
    pv.add_argument("--boundary-nphi", type=int)
    pv.add_argument("--oracle-step", type=float)
    pv.add_argument("--no-richardson", action="store_true")
    pv.add_argument("--nu", type=float)
    pv.add_argument("--seed", type=int)
    pv.set_defaults(func=cmd_verify)

    pe = sub.add_parser("eval", help="evaluate the fields at one point")
    pe.add_argument("--family")
    pe.add_argument("--r", type=float, required=True)
    pe.add_argument("--theta", type=float, required=True)
    pe.add_argument("--phi", type=float, required=True)
    pe.set_defaults(func=cmd_eval)

    ps = sub.add_parser("sample", help="export a field on a grid as CSV")
    add_common(ps)
    ps.add_argument("--field", required=True,
                    help="u, omega, v, or curl_v_boundary")
    ps.add_argument("--on", default="surface", help="surface or volume")
    ps.add_argument("--out", help="output CSV path")
    ps.add_argument("--grid-nr", type=int)
    ps.add_argument("--grid-ntheta", type=int)
    ps.add_argument("--grid-nphi", type=int)
    ps.add_argument("--grid-margin-r", type=float)
    ps.add_argument("--grid-margin-theta", type=float)
    ps.set_defaults(func=cmd_sample)

    pw = sub.add_parser("sweep", help="slip-residual scaling in the perturbation size")
    add_common(pw)
    pw.add_argument("--epsilons", help="comma-separated perturbation sizes")
    pw.add_argument("--report", help="write sweep rows + slope as JSON here")
    pw.add_argument("--boundary-ntheta", type=int)
    pw.add_argument("--boundary-nphi", type=int)
    pw.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse raises SystemExit for --help (code 0) and usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SlipballError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
