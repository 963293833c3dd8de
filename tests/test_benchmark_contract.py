"""The names perfbench/tracer.py wraps must exist in the package.

The tracer looks each name up with vars(owner)[name], so a rename in
slipball would make a traced benchmark run (--trace 1) fail with KeyError.
"""
import importlib.util
import inspect
from pathlib import Path

import pytest

from slipball import family, kernels, oracle, verify

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("tuple_name, owner", [
    ("KERNELS", kernels), ("FAMILY_FUNCTIONS", family), ("ORACLE_FUNCTIONS", oracle),
    ("VERIFY_FUNCTIONS", verify),
])
def test_traced_functions_exist(tracer, tuple_name, owner):
    names = getattr(tracer, tuple_name)
    assert names
    missing = [n for n in names if not callable(vars(owner).get(n))]
    assert missing == []


def test_traced_evaluators_exist_with_their_signature(tracer):
    cls = family.CounterexampleField
    for method, radial in tracer.EVALUATORS:
        assert method in vars(cls)
        params = list(inspect.signature(vars(cls)[method]).parameters)
        assert params == (["self", "r", "theta", "phi"] if radial
                          else ["self", "theta", "phi"])


def test_verify_runs_every_traced_oracle_function(tracer, monkeypatch, capsys):
    # the traced benchmark asserts that a verify op calls each of these names
    # (the spherical *_grid functions run their stencils under them)
    from slipball import cli

    calls = {name: 0 for name in tracer.ORACLE_FUNCTIONS}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(oracle, name, counting(name, vars(oracle)[name]))
    code = cli.main(["verify", "--grid-nr", "8", "--grid-ntheta", "8", "--grid-nphi", "8",
                     "--boundary-ntheta", "32", "--boundary-nphi", "64"])
    capsys.readouterr()
    assert code == 0
    assert [n for n, c in calls.items() if c == 0] == []
