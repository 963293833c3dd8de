"""Command-line front end.

Subcommands: verify (full certification run -> table + JSON report),
eval (field components at one point), sample (CSV grid export), and
sweep (slip-residual scaling in the perturbation size).

Exit codes: 0 success, 1 usage/config error, 2 check failure.  stdout
carries data and reports only; diagnostics go to stderr.  Flags (each declared
once, in `_FLAGS`) override the JSON config file, which overrides the built-in
defaults.  The package raises `ConfigError` where it reads bad input, an
output path that cannot be written included, before any computation (a
non-finite result raises it after).  Nothing here converts it: `main`, the
one handler, prints every `SlipballError` as one `error: ...` line and
exits 1.  A sweep whose residuals vanish is a failed check: exit 2.
"""
import argparse
import contextlib
import copy
import errno
import functools
import json
import os
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
    "seed": verify.DEFAULT_SEED,
    "report": None,
    "out": None,
    "timestamp": True,
}


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# The JSON values a config leaf accepts, by the type of its default, and the
# numbers in an accepted value that the package reads as floats (None: none).
_LEAF_KINDS = {
    bool: ("a boolean", lambda v: isinstance(v, bool), None),
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool), None),
    float: ("a number", _is_number, lambda v: [v]),
    str: ("a string", lambda v: isinstance(v, str), None),
    type(None): ("a string or null", lambda v: v is None or isinstance(v, str), None),
    list: ("a list of numbers", lambda v: isinstance(v, list) and all(map(_is_number, v)), list),
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
        kind, accepts, floats = _LEAF_KINDS[type(base[key])]
        if not accepts(value):
            raise ConfigError(f"config key {path + key!r} must be {kind}, got {value!r}")
        try:  # once, here: a JSON integer may be too large for a float
            for number in floats(value) if floats else ():
                float(number)
        except OverflowError:
            raise ConfigError(f"config key {path + key!r} holds an integer too large "
                              f"for a float") from None
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
        except ValueError as exc:  # json's int() refuses more than sys.get_int_max_str_digits()
            raise ConfigError(f"config {path!r} holds an integer of more than "
                              f"{sys.get_int_max_str_digits()} digits") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config {path!r} must hold a JSON object")
        _merge_config(cfg, data)
    return cfg


# Each flag that sets one config key, by config section ("" holds the
# top-level keys).  Its dest is the key's dotted path and its type that of the
# key's default; a boolean key gets a switch that flips its default.
_FLAGS = {
    "": {"--family": "family", "--report": "report", "--out": "out",
         "--epsilons": "epsilons", "--no-timestamp": "timestamp", "--seed": "seed"},
    "grid": {"--grid-nr": "n_r", "--grid-ntheta": "n_theta", "--grid-nphi": "n_phi",
             "--grid-margin-r": "margin_r", "--grid-margin-theta": "margin_theta"},
    "boundary_grid": {"--boundary-ntheta": "n_theta", "--boundary-nphi": "n_phi"},
    "oracle": {"--oracle-step": "step", "--richardson": "richardson"},
}
_DESTS = {flag: f"{section}.{key}".lstrip(".")
          for section, flags in _FLAGS.items() for flag, key in flags.items()}


def _slot(cfg, dest):
    """The dict holding the config key at dotted path `dest`, and that key."""
    section, _, key = dest.rpartition(".")
    return (cfg[section] if section else cfg), key


def _apply_overrides(cfg, args):
    """Write into cfg each config flag given; the namespace holds only those,
    under their dotted config paths."""
    given = vars(args)
    for dest in given.keys() & _DESTS.values():
        section, key = _slot(cfg, dest)
        section[key] = given[dest]
    if "epsilons" in given:
        try:
            cfg["epsilons"] = [float(tok) for tok in given["epsilons"].split(",")]
        except ValueError:
            raise ConfigError(f"cannot parse --epsilons {given['epsilons']!r}") from None
    return cfg


_surface_grid = functools.partial(verify.GridSpec, boundary_only=True)
_PIECES = {"grid": verify.GridSpec, "boundary_grid": _surface_grid,
           "sample_grid": _surface_grid, "oracle": FDConfig}


def _build_pieces(cfg, *sections):
    """The family, then one object per named config section, built in that
    order; the first bad value raises ConfigError."""
    return [fam.family_by_label(cfg["family"])] + [_PIECES[k](**cfg[k]) for k in sections]


def _fmt(x):
    return f"{x:.17g}"


def _unwritable(path, exc):
    return ConfigError(f"cannot write {path!r}: {exc.strerror or exc}")


@contextlib.contextmanager
def _output(path):
    """Reserve the output file at path before any computation: yields
    write(chunks), which puts the text chunks (any iterable of str, a
    generator too), in order, at path.

    A temporary file is created beside path up front, so a path that cannot
    be written (or names a directory) is a ConfigError before the command
    computes anything; write(chunks) fills it and os.replace-s it onto path,
    so an existing file stays as it is until then.  The temporary file is
    removed if write is not called.  A None path yields None; an empty path
    cannot be written.
    """
    if path is None:
        yield None
        return
    if not path:  # checked here: the temporary file would land in the working directory
        raise _unwritable(path, FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT)))
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
    try:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        fh = open(tmp, "x", newline="")
    except OSError as exc:
        raise _unwritable(path, exc) from exc

    def write(chunks):
        try:
            with fh:
                fh.writelines(chunks)
            os.replace(tmp, path)
        except OSError as exc:
            raise _unwritable(path, exc) from exc

    try:
        yield write
    finally:
        fh.close()
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


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


def cmd_verify(args, cfg) -> int:
    field, interior, boundary, fd = _build_pieces(cfg, "grid", "boundary_grid", "oracle")
    with _output(cfg["report"]) as write:
        report = verify.run_full_verification(field, interior, boundary, fd, seed=cfg["seed"])
        _print_report_table(report)
        if write:
            write([report.to_json(include_timestamp=cfg["timestamp"])])
            print(f"report written to {cfg['report']}", file=sys.stderr)
    return EXIT_OK if report.overall_pass else EXIT_CHECK_FAILED


def _evaluators(field):
    return {"u": field.u_components, "omega": field.omega_components, "v": field.v_components}


def cmd_eval(args, cfg) -> int:
    if args.r > 1.0 + 1e-12:
        raise ConfigError(f"point r={args.r} outside the closed unit ball")
    [field] = _build_pieces(cfg)
    p = SphPoint(args.r, args.theta, args.phi)
    out = {"family": field.label, "point": asdict(p)}
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        for name, components in _evaluators(field).items():
            out[name] = dict(zip(("r", "theta", "phi"), components(p.r, p.theta, p.phi)))
        if abs(p.r - 1.0) <= 1e-12:
            state = field.boundary_state(p.theta, p.phi)
            out["boundary"] = {k: getattr(state, k) for k in ("curl_v_theta", "curl_v_phi")}
    found = verify._non_finite(out)
    if found:
        raise ConfigError(f"family {field.label} gives a non-finite {found[0]} ({found[1]}) "
                          f"at this point")
    print(verify.json_text(out), end="")
    return EXIT_OK


_SAMPLE_FIELDS = ("u", "omega", "v", "curl_v_boundary")


def _sample_rows(field, selector, grid):
    """The CSV header and columns of the field on the grid; ConfigError
    naming the first column that holds a non-finite value."""
    lattice = grid.lattice()  # evaluated on its axes, once per axis value, then raveled
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        if selector == "curl_v_boundary":  # on the surface only
            state = field.boundary_state(*lattice.axes[1:])
            header, values = "curl_v_theta,curl_v_phi", (state.curl_v_theta, state.curl_v_phi)
        else:
            header, values = "c_r,c_theta,c_phi", _evaluators(field)[selector](*lattice.axes)
    values = [v.ravel() for v in values]
    for name, v in zip(header.split(","), values):
        bad = ~np.isfinite(v)
        if bad.any():
            raise ConfigError(f"family {field.label} gives a non-finite {selector} column "
                              f"{name} ({float(v[bad][0])}) on this grid")
    return "r,theta,phi," + header, (*lattice.nodes(), *values)


def _csv_lines(header, cols):
    """The CSV text line by line, each with its newline, so that no list of
    rows or joined string is built."""
    yield header + "\n"
    for row in zip(*cols):
        yield ",".join(map(_fmt, row)) + "\n"


def cmd_sample(args, cfg) -> int:
    if args.field not in _SAMPLE_FIELDS:
        raise ConfigError(f"unknown field selector {args.field!r} "
                          f"(choose from {', '.join(_SAMPLE_FIELDS)})")
    if args.on not in ("surface", "volume"):
        raise ConfigError(f"unknown region selector {args.on!r}")
    if args.field == "curl_v_boundary" and args.on == "volume":
        raise ConfigError("curl_v_boundary is only defined on the surface")
    if args.on == "surface" and any(dest.startswith("grid.") for dest in vars(args)):
        raise ConfigError("--grid-* flags set the volume grid (--on volume); the surface "
                          "grid is the config's sample_grid")
    out_path = cfg["out"]
    if not out_path:
        raise ConfigError("--out is required for sample")
    field, interior, sample_boundary = _build_pieces(cfg, "grid", "sample_grid")
    with _output(out_path) as write:
        header, cols = _sample_rows(field, args.field,
                                    sample_boundary if args.on == "surface" else interior)
        write(_csv_lines(header, cols))
    print(f"{cols[0].size} rows written to {out_path}", file=sys.stderr)
    return EXIT_OK


def cmd_sweep(args, cfg) -> int:
    epsilons = cfg["epsilons"]
    if len(epsilons) < 4:
        raise ConfigError(f"need at least 4 epsilons, got {len(epsilons)}")
    field, boundary = _build_pieces(cfg, "boundary_grid")
    with _output(cfg["report"]) as write:
        try:
            sweep = verify.scaling_sweep(field, epsilons, boundary)
        except DegenerateFit as exc:  # vanishing residuals: the scaling check fails
            print(f"error: degenerate fit: {exc}", file=sys.stderr)
            return EXIT_CHECK_FAILED
        print(f"{'eps':>14s} {'residual':>22s}  in_fit")
        included = set(sweep.included)
        for eps, res in sweep.rows:
            print(f"{_fmt(eps):>14s} {_fmt(res):>22s}  "
                  f"{'yes' if (eps, res) in included else 'no'}")
        print(f"slope {sweep.slope:.6f} (target 1.00 +/- 0.05)")
        if write:
            write([verify.json_text({"family": field.label, **sweep.to_dict()})])
    ok = SLOPE_BAND[0] <= sweep.slope <= SLOPE_BAND[1]
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _add_flags(p, *flags, help=None):
    """Add config flags to subparser p; each is absent from the namespace
    unless given."""
    for flag in flags:
        section, key = _slot(_DEFAULTS, _DESTS[flag])
        default = section[key]
        kind = ({"action": "store_false" if default else "store_true"}
                if isinstance(default, bool) else
                {"type": type(default) if _is_number(default) else None,
                 "metavar": flag[2:].replace("-", "_").upper()})
        p.add_argument(flag, dest=_DESTS[flag], default=argparse.SUPPRESS, help=help, **kind)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slipball", description="Certify slip-boundary velocity fields on the unit ball.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file (flags override it)")
        _add_flags(p, "--family", help="family label: default, h1zero, perturbed:<eps>")

    pv = sub.add_parser("verify", help="run the full certification")
    add_common(pv)
    _add_flags(pv, "--report", help="write the JSON report here")
    _add_flags(pv, "--no-timestamp", help="omit the timestamp for byte-reproducible reports "
               "on one numpy build and SIMD path (see README)")
    _add_flags(pv, *_FLAGS["grid"], *_FLAGS["boundary_grid"], "--oracle-step")
    _add_flags(pv, "--richardson", help="Richardson-extrapolate every FD oracle: twice the field "
               "evaluations, worth it only with --oracle-step of about 1e-5 or above")
    _add_flags(pv, "--seed")
    pv.set_defaults(func=cmd_verify)

    pe = sub.add_parser("eval", help="evaluate the fields at one point")
    _add_flags(pe, "--family")
    for coordinate in ("--r", "--theta", "--phi"):
        pe.add_argument(coordinate, type=float, required=True)
    pe.set_defaults(func=cmd_eval)

    ps = sub.add_parser("sample", help="export a field on a grid as CSV")
    add_common(ps)
    ps.add_argument("--field", required=True,
                    help="u, omega, v, or curl_v_boundary")
    ps.add_argument("--on", default="surface", help="surface or volume")
    _add_flags(ps, "--out", help="output CSV path")
    _add_flags(ps, *_FLAGS["grid"])
    ps.set_defaults(func=cmd_sample)

    pw = sub.add_parser("sweep", help="slip-residual scaling in the perturbation size")
    add_common(pw)
    _add_flags(pw, "--epsilons", help="comma-separated perturbation sizes")
    _add_flags(pw, "--report", help="write sweep rows + slope as JSON here")
    _add_flags(pw, *_FLAGS["boundary_grid"])
    pw.set_defaults(func=cmd_sweep)
    return parser


# Built once per process: it reads no argv, and parse_args keeps no state in it.
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        cfg = _apply_overrides(load_config(vars(args).get("config")), args)
        return args.func(args, cfg)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on bad usage; 2 means a failed
        # check here, so bad usage falls through to exit 1
        if not exc.code:
            return EXIT_OK
    except SlipballError as exc:
        print(f"error: {exc}", file=sys.stderr)
    return EXIT_USAGE


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
