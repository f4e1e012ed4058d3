"""Property test of the CLI's input surface.  Each case runs one subcommand
in process, in a fresh directory, with each spec field it offers set by a
flag or by its ``--config`` file.  Up to two fields take a bad value: a
range end, 0, -1, NaN, +-inf, 5e-324 or 2**70, no value, or through the
config a value of the wrong JSON type; a bad source is a malformed
shorthand or a small JSON file with edge entries.  The other fields take
values that run in milliseconds: n <= 4, N <= 16, runs <= 2, eps in
[0.3, 0.99] (n >= 2 and eps in [0.05, 0.35] for paired instances) and
grid steps of at least 0.1.  Every case exits 0, or exits 2
with one ``error:`` line on stderr after allocating little, and raises
nothing else."""

import contextlib
import io
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from condtest.cli import main
from condtest.harness import FIELDS, KINDS

_COMMANDS = [kind for kind in KINDS.values() if kind.command is not None]
_EDGE_FLOATS = [0.0, -0.0, 1.0, -1.0, math.nan, math.inf, -math.inf, 5e-324, 2.0 ** 70]
_GOOD_EPS = st.floats(0.3, 0.99)
# The walk refuses these at every n: eps_L would lie below 2^-33.
_BAD_EPS = _EDGE_FLOATS + [1e-10, 1.2e-151]

# field -> (values that run in milliseconds, values to refuse)
_VALUES = {
    "n": (st.sampled_from([1, 2, 3, 4]), st.sampled_from([0, -1, 21, 2 ** 70])),
    "N": (st.sampled_from([1, 2, 3, 4, 5, 16]), st.sampled_from([0, -1, 2 ** 20 + 1, 2 ** 70])),
    "eps": (_GOOD_EPS, st.sampled_from(_BAD_EPS)),
    "runs": (st.sampled_from([1, 2]), st.sampled_from([0, -1])),
    "seed": (st.sampled_from([0, 1, 2 ** 64 - 1, 2 ** 70]), st.just(-1)),
    "grid_step": (st.sampled_from([1.0, 0.5, 0.25, 0.2, 0.1]),
                  st.sampled_from(_EDGE_FLOATS + [1e-300, 1e-4, 0.28])),
    "n_list": (st.lists(st.sampled_from([1, 2, 3, 4]), min_size=1, max_size=2),
               st.one_of(st.lists(st.sampled_from([0, -1, 21, 2 ** 70]), min_size=1, max_size=2),
                         st.sampled_from(["", ",", "a", "2,,3"]))),
    "eps_list": (st.lists(_GOOD_EPS, min_size=1, max_size=2),
                 st.one_of(st.lists(st.sampled_from(_BAD_EPS), min_size=1, max_size=2),
                           st.sampled_from(["", ",", "a"]))),
    "experiment_id": (st.sampled_from(["x", ".", "-"]), st.sampled_from(["", "a/b"])),
}
# A paired instance needs n >= 2 and a pair bias eps / sqrt(n) below 1/4.
_PAIRED_GOOD = {"n": st.sampled_from([2, 3, 4]), "eps": st.floats(0.05, 0.35)}
# A config value that no field's rule accepts.
_WRONG_TYPES = st.sampled_from([True, None, "0.5", [1], {"a": 1}])
# Entries of a bad source file's lists and trees.
_ENTRIES = st.sampled_from([0.0, 0.25, 1.0, -0.0, 1e-320, math.nan, math.inf, -1.0, 2 ** 70,
                            True, "0.5", None, []])
_BAD_FORMS = {
    "probs": st.lists(_ENTRIES, max_size=8),
    "tree": st.one_of(st.dictionaries(st.sampled_from(["1:", "2:0", "2:1", "2:5", "x", "5:"]),
                                      _ENTRIES, max_size=4), st.just([0.5])),
    "biases": st.lists(st.sampled_from([1, -1, 0, 2, 1.0, True]), max_size=3),
}


def _text(value) -> str:
    """A flag's text for ``value``, a list comma-separated; floats by repr,
    so that 5e-324 and nan survive."""
    if isinstance(value, list):
        return ",".join(map(_text, value))
    return repr(value) if isinstance(value, float) else str(value)


def _file(files: dict, payload) -> str:
    """The name of a new JSON file holding ``payload``, kept in ``files``."""
    name = f"source{len(files)}.json"
    files[name] = json.dumps(payload)
    return name


def _weights(draw, size: int) -> list:
    weights = draw(st.lists(st.sampled_from([0, 1, 2, 4]), min_size=size, max_size=size))
    total = sum(weights)
    return [w / total for w in weights] if total else [1.0 / size] * size


def _good_source(draw, files: dict, pmf: bool, size: int) -> str:
    """A source over ``size`` (n, or N for a pmf) that loads."""
    if pmf:
        form = draw(st.sampled_from(["uniform", "block", "file"]))
        if form == "block":
            a = draw(st.integers(1, size))
            return f"block:{a},{draw(st.integers(a, size))}"
        return form if form == "uniform" else _file(files, {"pmf": _weights(draw, size)})
    forms = ["uniform", "bernoulli:0.5", "bernoulli:0", "bernoulli:1", "bernoulli:5e-324",
             "point", "probs", "tree"] + ["biases"] * (size % 2 == 0)
    form = draw(st.sampled_from(forms))
    if form == "point":
        return "point:" + "".join(draw(st.lists(st.sampled_from("01"), min_size=size,
                                                max_size=size)))
    if form == "probs":
        return _file(files, {"n": size, "probs": _weights(draw, 2 ** size)})
    if form == "tree":
        return _file(files, {"n": size, "tree": {
            f"{i}:{w:0{i - 1}b}" if i > 1 else "1:":
            draw(st.sampled_from([0.0, 1e-320, 0.25, 0.5, 1.0]))
            for i in range(1, size + 1) for w in range(2 ** (i - 1))}})
    if form == "biases":
        return _file(files, {"n": size, "eps": 0.2, "biases": draw(st.lists(
            st.sampled_from([1, -1]), min_size=size // 2, max_size=size // 2))})
    return form


def _bad_source(draw, files: dict, pmf: bool) -> str:
    """A malformed shorthand, a missing file or a JSON file with edge entries."""
    if pmf:
        source = draw(st.sampled_from(["block:0,1", "block:2,1", "block:1", "block:1,99",
                                       "block:a,b", "missing.json", "", "file"]))
        return source if source != "file" else _file(files, {"pmf": draw(st.one_of(
            st.lists(_ENTRIES, max_size=6), st.just("x")))})
    source = draw(st.sampled_from(["point:", "point:01x", "bernoulli:1.5", "bernoulli:-0.1",
                                   "bernoulli:nan", "bernoulli:inf", "bernoulli:", "bernoulli:x",
                                   "missing.json", "", "file"]))
    if source != "file":
        return source
    payload = {"n": draw(st.sampled_from([1, 2, 0, -1, 21, 1.5, "2", None]))}
    for form in draw(st.sets(st.sampled_from(sorted(_BAD_FORMS)), max_size=2)):
        payload[form] = draw(_BAD_FORMS[form])
    if "biases" in payload:
        payload["eps"] = draw(st.sampled_from([0.2, 0.0, math.nan, "0.2"]))
    return _file(files, payload)


@st.composite
def cli_cases(draw):
    """(argv, the --config payload or None, the source files by name)."""
    kind = draw(st.sampled_from(_COMMANDS))
    pmf = kind.command == "test-interval"
    options = [name for name in kind.options if name != "out"]
    bad = draw(st.sets(st.sampled_from(options), max_size=2)) if draw(st.booleans()) else ()
    argv, config, files, good = [kind.command], {}, {}, {}
    for name in options:
        how = draw(st.sampled_from(["flag", "config", "wrong type", "unset"] if name in bad
                                   else ["flag", "flag", "config"]))
        if how == "unset":
            continue
        if how == "wrong type":
            config[draw(st.sampled_from([name, name.replace("_", "-")]))] = draw(_WRONG_TYPES)
            continue
        if name in ("tau", "mu"):
            size = good.get("N", 4) if pmf else good.get("n", 2)
            value = _bad_source(draw, files, pmf) if name in bad else \
                _good_source(draw, files, pmf, size)
        else:
            good_values, bad_values = _VALUES[name]
            if kind.command == "adversarial-distance":
                good_values = _PAIRED_GOOD.get(name, good_values)
            value = draw(bad_values if name in bad else good_values)
        if name not in bad:
            good[name] = value
        if how == "config":
            config[name] = value
        else:
            argv.append(f"{FIELDS[name].flag}={_text(value)}")
    out = draw(st.sampled_from(["flag", "flag", "flag", "flag", "config", "default", "bad"]))
    if out == "flag":
        argv.append("--out=out")
    elif out != "default":
        config["out"] = "out" if out == "config" else draw(st.sampled_from(["", 5, ["a"]]))
    if draw(st.integers(0, 9)) == 0:  # a key that names no flag of the subcommand
        config[draw(st.sampled_from(["p", "q", "N", "n_list", "bogus"]))] = 0.5
    return argv, config if config or draw(st.booleans()) else None, files


# The most a refused case may allocate (traced by tracemalloc).
_REFUSED_PEAK = 2 ** 20


@settings(max_examples=300, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cli_cases())
# Each of these once ended in a traceback, a RuntimeWarning or a run of
# 1.35e24 y-draws.
@example((["adversarial-distance", f"--n={2 ** 70}", "--eps=0.2", "--out=out"], None, {}))
@example((["test-equivalence", "--n=2", "--eps=0.5", "--tau=uniform", "--mu=bernoulli:5e-324",
           "--out=out"], None, {}))
@example((["test-equivalence", "--n=2", "--eps=1e-10", "--tau=uniform", "--mu=uniform",
           "--out=out"], None, {}))
def test_cli_input_surface(case):
    argv, config, files = case
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for name, text in files.items():
            Path(name).write_text(text)
        if config is not None:
            Path("config.json").write_text(json.dumps(config))
            argv = argv + ["--config=config.json"]
        tracemalloc.start()
        try:
            with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    err = stderr.getvalue()
    assert code in (0, 2), (argv, config)
    if code == 0:
        assert err == "", (argv, config, err)
    else:
        assert err.startswith("error:") and err.count("\n") == 1, (argv, config, err)
        assert peak < _REFUSED_PEAK, (argv, config, peak)
