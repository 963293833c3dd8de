"""The names perfbench/tracer.py wraps must exist in the package.

The tracer looks each name up with vars(owner)[name], so a rename in
slipball would make a traced benchmark run (--trace 1) fail with KeyError.
The benchmark worker also records slipball.BACKEND in its environment block.
The wrapped functions must also accept the calls the package makes through
the wrappers, and the tracer's two-argument support_mask probe must keep
returning the support itself.
"""
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

import slipball
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


def test_backend_is_the_numpy_kernel_set():
    assert slipball.BACKEND == "numpy"


def test_traced_evaluators_exist_with_their_signature(tracer):
    cls = family.CounterexampleField
    for method, radial in tracer.EVALUATORS:
        assert method in vars(cls)
        params = list(inspect.signature(vars(cls)[method]).parameters)
        assert params == (["self", "r", "theta", "phi"] if radial
                          else ["self", "theta", "phi"])


def test_find_witnesses_keeps_its_grid_parameters_with_defaults(tracer):
    # the tracer's count_witness_grid binds n_theta and n_phi by name and
    # applies their defaults; verify no longer calls find_witnesses, so no
    # traced verify op would show a rename or a dropped default
    params = inspect.signature(family.find_witnesses).parameters
    for name in ("n_theta", "n_phi"):
        assert params[name].default is not inspect.Parameter.empty
    t = tracer.Tracer()
    t.install()
    try:
        field = family.default_field()
        family.find_witnesses(field)
        family.find_witnesses(field, n_theta=8, n_phi=16)
    finally:
        t.restore()
    spans = [s for s in t.take() if s.name == "find_witnesses"]
    assert [s.nodes for s in spans] == [
        params["n_theta"].default * params["n_phi"].default, 8 * 16]


def test_verify_runs_every_traced_oracle_function(tracer, monkeypatch, capsys):
    # a traced verify op books per-layer metrics under each of these names,
    # and nothing in perfbench checks that a verify op calls them: this test does
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


def parent_support_mask(field, r, theta):
    """support_mask as the tracer's two-argument call has always seen it."""
    d = field.angular.pole_margin
    return (theta > d) & (theta < np.pi - d) & (r > field.profile.support_inner)


def test_tracer_support_mask_call_returns_the_support(tracer):
    # tracer._count_evaluation calls field.support_mask(np.asarray(r), np.asarray(theta))
    field = family.default_field()
    rng = np.random.default_rng(3)
    r = np.concatenate([rng.uniform(0.0, 1.0, 4000), [0.0, 0.25, 1.0, np.nan]])
    theta = np.concatenate([rng.uniform(0.0, np.pi, 4000), [1.0, 1.0, np.pi / 4, 1.0]])
    cases = [(r, theta), (1.0, theta), (0.5, 1.0), (np.nan, 1.0),
             (r[:, None], theta[None, :8])]
    for rr, tt in cases:
        inspect.signature(field.support_mask).bind(np.asarray(rr), np.asarray(tt))
        got = field.support_mask(np.asarray(rr), np.asarray(tt))
        want = parent_support_mask(field, np.asarray(rr), np.asarray(tt))
        assert np.array_equal(got, want)

    t = tracer.Tracer()
    t.install()
    try:
        field.u_components(r, theta, np.zeros_like(r))
        field.boundary_curl_theta(theta, np.zeros_like(theta))
    finally:
        t.restore()
    spans = [s for s in t.take() if s.evaluator]
    assert [s.support_hits for s in spans] == [
        int(np.count_nonzero(parent_support_mask(field, r, theta))),
        int(np.count_nonzero(parent_support_mask(field, 1.0, theta)))]


def test_traced_oracle_and_verify_names_bind_their_calls(tracer, capsys):
    # run a coarse verify and a sweep under the installed tracer: every
    # wrapped oracle and verify function is called through its wrapper, with
    # the arguments the package passes, and the original binds them
    from slipball import cli

    bound = {}
    originals = {(mod, n): vars(mod)[n]
                 for mod, names in ((oracle, tracer.ORACLE_FUNCTIONS),
                                    (verify, tracer.VERIFY_FUNCTIONS)) for n in names}
    t = tracer.Tracer()
    t.install()
    try:
        for (mod, name), original in originals.items():
            traced = vars(mod)[name]

            def recording(*args, _traced=traced, _original=original, _name=name, **kwargs):
                inspect.signature(_original).bind(*args, **kwargs)
                bound[_name] = bound.get(_name, 0) + 1
                return _traced(*args, **kwargs)

            setattr(mod, name, recording)
        codes = [cli.main(["verify", "--no-timestamp", "--grid-nr", "8", "--grid-ntheta", "8",
                           "--grid-nphi", "8", "--boundary-ntheta", "32",
                           "--boundary-nphi", "64"]),
                 cli.main(["sweep", "--boundary-ntheta", "32", "--boundary-nphi", "64"])]
    finally:
        t.restore()  # puts back the originals, over the recording wrappers too
    capsys.readouterr()
    assert codes == [0, 0]
    assert all(vars(mod)[n] is original for (mod, n), original in originals.items())
    spans = {s.name for s in t.take()}
    assert sorted(n for _, n in originals if n not in bound) == []
    assert sorted(n for _, n in originals if n not in spans) == []


def test_traced_verify_records_the_jet_kernels_with_their_order(tracer, capsys):
    # the fields a traced op builds capture the wrapped jet kernels, which
    # must pass the order each evaluator asks for on to the originals
    from slipball import cli

    orders = {"default_profile_jet": [], "default_angular_jet": []}
    originals = {name: vars(kernels)[name] for name in orders}
    t = tracer.Tracer()
    t.install()
    try:
        for name, log in orders.items():
            traced, original = vars(kernels)[name], originals[name]

            def recording(*args, _traced=traced, _original=original, _log=log, **kwargs):
                bound = inspect.signature(_original).bind(*args, **kwargs)
                bound.apply_defaults()
                _log.append(bound.arguments["order"])
                return _traced(*args, **kwargs)

            setattr(kernels, name, recording)
        code = cli.main(["verify", "--no-timestamp", "--grid-nr", "8", "--grid-ntheta", "8",
                         "--grid-nphi", "8", "--boundary-ntheta", "32", "--boundary-nphi", "64"])
    finally:
        t.restore()
    capsys.readouterr()
    assert code == 0
    spans = [s for s in t.take() if s.layer == "kernels"]
    for name, log in orders.items():
        assert sum(s.name == name for s in spans) == len(log) > 0
    # u asks for the profile value and the first angular partials only;
    # the divergence check reads g at order 0 on the theta x phi plane
    assert sorted(set(orders["default_profile_jet"])) == [0, 1, 2]
    assert sorted(set(orders["default_angular_jet"])) == [0, 1, 2]
