"""The CLI contract as a property, over a small argv grammar.

Each example draws a subcommand and config flags from cli._FLAGS, each
with a good value or a typed bad one (0, a negative, 10**30, NaN, inf,
1e308, an empty or a non-numeric string), and runs cli.main in process.
Whatever the argv:

* the exit code is 0, 1 or 2;
* on exit 1, stdout is empty and stderr holds one `error:` line, its last
  (after argparse's usage text, for a usage error);
* no output holds a traceback;
* every report written parses as strict JSON (no NaN or Infinity).

Grids stay small: verify and a volume sample start from 8x8x8 (and a
32x64 sphere for verify), which a drawn count may only shrink to a
refusal or move to another small count.

A second property draws a JSON config file of the same leaves in place of
the flags, each good or bad: the bad ones also hold integers above 2**1024,
integers of more than 4300 digits (past Python's int-parsing limit), NaN
and Infinity, and values of the wrong JSON type.  The same contract holds.
"""
import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from slipball import cli

SUBCOMMANDS = ("verify", "sweep", "sample", "eval")
SMALL_INTERIOR = ["--grid-nr", "8", "--grid-ntheta", "8", "--grid-nphi", "8"]
SMALL_SPHERE = ["--boundary-ntheta", "32", "--boundary-nphi", "64"]
# the config flags each subcommand takes (any other is a usage error)
TAKES = {"verify": {"", "grid", "boundary_grid", "oracle"},
         "sweep": {"", "boundary_grid"}, "sample": {"", "grid"}, "eval": {""}}
NOT_TAKEN = {"verify": {"--out", "--epsilons"}, "sweep": {"--out", "--no-timestamp", "--seed"},
             "sample": {"--report", "--epsilons", "--no-timestamp", "--seed"},
             "eval": {"--report", "--out", "--epsilons", "--no-timestamp", "--seed"}}
BAD_NUMBERS = ["0", "-3", "-1e-3", str(10 ** 30), "nan", "inf", "-inf", "1e308", "", "abc"]
GOOD = {"--grid-nr": ["8", "12"], "--grid-ntheta": ["8", "12"], "--grid-nphi": ["8", "16"],
        "--boundary-ntheta": ["16", "32"], "--boundary-nphi": ["32", "64"],
        "--grid-margin-r": ["0.05", "0.2"], "--grid-margin-theta": ["0.05", "0.3"],
        "--oracle-step": ["1e-6", "1e-4", "1e-2"], "--seed": ["0", "7"],
        "--family": ["default", "h1zero", "perturbed:1e-3"],
        "--epsilons": ["1e-1,1e-2,1e-3,1e-4", "0.5,0.25,0.125,0.0625,1e-5"]}
BAD_TEXT = {"--family": ["bogus", "perturbed:nan", "perturbed:inf", "perturbed:1e308",
                         "perturbed:0", "perturbed:-1", "perturbed:abc", "perturbed:1e300"],
            "--epsilons": ["0,0,0,0", "nan,1e-2,1e-3,1e-4", "inf,1e-2,1e-3,1e-4",
                           "1e308,1e-2,1e-3,1e-4", "-1,1e-2,1e-3,1e-4", "1e-1,,1e-3,1e-4",
                           "1e-1,1e-2", str(10 ** 30) + ",1e-2,1e-3,1e-4"]}
POINTS = st.one_of(st.sampled_from(["0.3", "0.5", "0.7", "1"]),
                   st.sampled_from(["1.2"] + BAD_NUMBERS))


def strict_json(text):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=refuse)


def flag_values(flag, where):
    """The argv of one config flag: a switch alone, else --flag=value (so
    that a negative value reaches the flag's type), the value good or bad
    with even odds.  A path is good (in where), or empty, a directory, or
    in a missing directory."""
    section, key = cli._slot(cli._DEFAULTS, cli._DESTS[flag])
    if isinstance(section[key], bool):
        return st.just(flag)
    if flag in ("--report", "--out"):
        good = [os.path.join(where, flag[2:] + ".out")]
        bad = ["", where, os.path.join(where, "missing", "x.out")]
    else:
        good, bad = GOOD[flag], BAD_TEXT.get(flag, []) + BAD_NUMBERS
    return st.one_of(st.sampled_from(good), st.sampled_from(bad)).map(
        lambda value: f"{flag}={value}")


@st.composite
def argvs(draw, where):
    command = draw(st.sampled_from(SUBCOMMANDS))
    argv = [command]
    if command == "verify":
        argv += SMALL_INTERIOR + SMALL_SPHERE
    elif command == "sample":
        on = draw(st.sampled_from(["surface", "volume"]))
        field = draw(st.sampled_from(["u", "omega", "v", "curl_v_boundary", "bogus"]))
        argv += ["--field", field, "--on", on, "--out", os.path.join(where, "s.csv")]
        argv += SMALL_INTERIOR if on == "volume" else []
    elif command == "eval":
        argv += [f"{c}={draw(POINTS)}" for c in ("--r", "--theta", "--phi")]
    every = sorted(cli._DESTS)
    taken = [f for f in every if any(f in cli._FLAGS[s] for s in TAKES[command])
             and f not in NOT_TAKEN[command]]
    flags = draw(st.lists(st.sampled_from(taken), max_size=3, unique=True))
    if draw(st.integers(0, 9)) == 0:  # now and then a flag of another subcommand
        flags.append(draw(st.sampled_from(every)))
    return argv + [draw(flag_values(flag, where)) for flag in flags]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_every_argv_keeps_the_cli_contract(data):
    with tempfile.TemporaryDirectory() as where:
        argv = data.draw(argvs(where), label="argv")
        code, out, err = run(argv)
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in out and "Traceback" not in err, argv
        if code == 1:
            assert out == "", argv
            lines = err.splitlines()
            errors = [line for line in lines if "error:" in line]
            assert len(errors) == 1 and lines[-1] == errors[0], (argv, err)
            if not lines[0].startswith("usage:"):
                assert lines == errors and errors[0].startswith("error: "), (argv, err)
        report = os.path.join(where, "report.out")
        if os.path.isfile(report):
            assert code != 1, argv
            strict_json(open(report).read())


# The config leaves, as JSON text: the good values (small grids) and the bad
# ones every leaf may also take.  A config starts from the small grids and
# good output paths, then redraws some leaves.
HUGE = str(2 ** 1100)
DIGITS = "1" + "0" * 4400  # json.loads refuses an int of this many digits
CONFIG_BAD = ["0", "-3", "-1e-3", str(10 ** 30), HUGE, DIGITS, "-" + DIGITS, "NaN",
              "Infinity", "-Infinity", "1e308", '""', '"abc"', "true", "null", "[]", "{}"]
CONFIG_GOOD = {
    "family": ['"default"', '"h1zero"', '"perturbed:1e-3"'],
    "grid.n_r": ["8", "12"], "grid.n_theta": ["8", "12"], "grid.n_phi": ["8", "16"],
    "grid.margin_r": ["0.05", "0.2"], "grid.margin_theta": ["0.05", "0.3"],
    "boundary_grid.n_theta": ["16", "32"], "boundary_grid.n_phi": ["32", "64"],
    "sample_grid.n_theta": ["16", "32"], "sample_grid.n_phi": ["32", "64"],
    "oracle.step": ["1e-6", "1e-4", "1e-2"], "oracle.richardson": ["true", "false"],
    "epsilons": ["[1e-1, 1e-2, 1e-3, 1e-4]", "[0.5, 0.25, 0.125, 0.0625, 1e-5]"],
    "seed": ["0", "7", HUGE], "timestamp": ["true", "false"],
}
CONFIG_BAD_TEXT = {
    "family": ['"bogus"', '"perturbed:nan"', '"perturbed:1e300"'],
    "epsilons": ["[0, 0, 0, 0]", "[NaN, 1e-2, 1e-3, 1e-4]", "[Infinity, 1e-2, 1e-3, 1e-4]",
                 f"[{HUGE}, 1e-2, 1e-3, 1e-4]", f"[{DIGITS}, 1e-2, 1e-3, 1e-4]",
                 "[1e-1, 1e-2]", '[1e-1, "1e-2", 1e-3, 1e-4]'],
}
SMALL_CONFIG = {"grid.n_r": "8", "grid.n_theta": "8", "grid.n_phi": "8",
                "boundary_grid.n_theta": "32", "boundary_grid.n_phi": "64",
                "sample_grid.n_theta": "16", "sample_grid.n_phi": "32"}


def config_text(leaves):
    """The JSON text of a config whose leaves, by dotted path, hold JSON
    text (json.dumps cannot write an int of more than 4300 digits)."""
    sections = {}
    for path, value in leaves.items():
        section, _, key = path.rpartition(".")
        sections.setdefault(section, {})[key] = value
    top = sections.pop("", {})
    items = [f'"{k}": {v}' for k, v in top.items()]
    items += [f'"{s}": {{' + ", ".join(f'"{k}": {v}' for k, v in keys.items()) + "}"
              for s, keys in sections.items()]
    return "{" + ", ".join(items) + "}"


@st.composite
def configs(draw, where):
    """argv and config text: the command's own arguments on argv, every
    config flag's leaf in the file."""
    command = draw(st.sampled_from(["verify", "sweep", "sample"]))
    argv = [command]
    if command == "sample":
        argv += ["--field", draw(st.sampled_from(["u", "curl_v_boundary"])),
                 "--on", draw(st.sampled_from(["surface", "volume"]))]
    leaves = dict(SMALL_CONFIG)
    leaves["report"] = leaves["out"] = json.dumps(os.path.join(where, "report.out"))
    paths = ["report", "out"] + sorted(CONFIG_GOOD)
    for path in draw(st.lists(st.sampled_from(paths), max_size=3, unique=True)):
        if path in ("report", "out"):
            good = [leaves[path]]
            bad = ['""', json.dumps(where), json.dumps(os.path.join(where, "missing", "x"))]
        else:
            good, bad = CONFIG_GOOD[path], CONFIG_BAD_TEXT.get(path, []) + CONFIG_BAD
        leaves[path] = draw(st.one_of(st.sampled_from(good), st.sampled_from(bad)))
    return argv, config_text(leaves)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_every_config_file_keeps_the_cli_contract(data):
    with tempfile.TemporaryDirectory() as where:
        argv, text = data.draw(configs(where), label="argv, config")
        config = os.path.join(where, "config.json")
        with open(config, "w") as fh:
            fh.write(text)
        code, out, err = run(argv + ["--config", config])
        assert code in (0, 1, 2), (argv, text, code)
        assert "Traceback" not in out and "Traceback" not in err, (argv, text)
        if code == 1:
            assert out == "", (argv, text)
            assert err.splitlines() == [err.strip()] and err.startswith("error: "), (argv, err)
        report = os.path.join(where, "report.out")
        if os.path.isfile(report):
            assert code != 1, (argv, text)
            if argv[0] != "sample":  # sample writes its CSV there
                strict_json(open(report).read())
