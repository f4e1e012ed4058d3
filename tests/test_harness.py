"""Experiment harness: drivers, CSV emission, replay stability, and the CLI."""

import dataclasses
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import condtest
from condtest import adversarial, harness
from condtest.cli import build_parser, main, spec_from_args
from condtest.distcore import DistributionTable, DomainError
from condtest.harness import (
    ExperimentSpec,
    HarnessError,
    emit_plot_data,
    load_distribution,
    load_interval_pmf,
    rate_lower_bound,
    run_experiment,
    summarize,
)


# ----------------------------------------------------------------------
# distribution sources


def test_load_distribution_shorthands():
    u = load_distribution("uniform", 3)
    assert u.n == 3
    p = load_distribution("point:101")
    assert p.probs[0b101] == 1.0
    b = load_distribution("bernoulli:0.2", 2)
    np.testing.assert_allclose(b.marginals(), [0.2, 0.2])
    b2 = load_distribution("bernoulli:0.2,0.9")
    np.testing.assert_allclose(b2.marginals(), [0.2, 0.9])


def test_load_distribution_files(tmp_path):
    from condtest.adversarial import AdversarialInstance
    inst = AdversarialInstance(4, 0.2, (1, -1))
    f = tmp_path / "inst.json"
    f.write_text(json.dumps(dataclasses.asdict(inst)))
    np.testing.assert_allclose(load_distribution(str(f)).probs,
                               inst.table().probs, atol=1e-15)
    g = tmp_path / "table.json"
    g.write_text(json.dumps({"n": 2, "probs": [0.25] * 4}))
    assert load_distribution(str(g)).n == 2


def test_load_distribution_errors():
    with pytest.raises(HarnessError):
        load_distribution("uniform")  # no n
    with pytest.raises(HarnessError):
        load_distribution("point:10x")
    with pytest.raises(HarnessError):
        load_distribution("/no/such/file.json")


def test_load_distribution_refuses_another_dimension(tmp_path):
    """A source whose n differs from the one asked for is refused, from a
    shorthand, a dense table, a conditional tree or a paired-bias instance;
    the same sources load when the dimensions agree."""
    from condtest.adversarial import AdversarialInstance
    files = {"dense.json": json.dumps({"n": 2, "probs": [0.25] * 4}),
             "tree.json": json.dumps({"n": 2, "tree": {"1:": 0.5, "2:0": 0.5, "2:1": 0.5}}),
             "pairs.json": json.dumps(dataclasses.asdict(AdversarialInstance(2, 0.2, (1,))))}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    sources = ["point:01", "bernoulli:0.1,0.2"] + [str(tmp_path / name) for name in files]
    for source in sources:
        assert load_distribution(source, 2).n == 2
        with pytest.raises(HarnessError, match="has n=2, expected n=3"):
            load_distribution(source, 3)


def test_load_distribution_parses_each_file_once(tmp_path, monkeypatch):
    """A dense table, a conditional tree and a paired-bias instance are each
    built from the one parse of their file, to the table they state."""
    from condtest.adversarial import AdversarialInstance
    inst = AdversarialInstance(4, 0.2, (1, -1))
    files = {"dense.json": ({"n": 2, "probs": [0.1, 0.2, 0.3, 0.4]}, [0.1, 0.2, 0.3, 0.4]),
             "tree.json": ({"n": 2, "tree": {"1:": 0.25, "2:0": 0.5, "2:1": 1.0}},
                           [0.375, 0.375, 0.0, 0.25]),
             "pairs.json": (dataclasses.asdict(inst), inst.table().probs)}
    loads = json.loads
    for name, (payload, expected) in files.items():
        (tmp_path / name).write_text(json.dumps(payload))
        calls = []

        def counting_loads(*args, **kwargs):
            calls.append(args)
            return loads(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(json, "loads", counting_loads)
            table = load_distribution(str(tmp_path / name))
        assert len(calls) == 1, name
        np.testing.assert_array_equal(table.probs, expected)


def test_load_interval_pmf():
    np.testing.assert_allclose(load_interval_pmf("uniform", 8), 1 / 8)
    blk = load_interval_pmf("block:1,4", 8)
    np.testing.assert_allclose(blk[:4], 0.25)
    np.testing.assert_allclose(blk[4:], 0.0)
    with pytest.raises(HarnessError):
        load_interval_pmf("block:0,4", 8)
    with pytest.raises(HarnessError):
        load_interval_pmf("block:5,3", 8)


def test_load_interval_pmf_file(tmp_path):
    f = tmp_path / "pmf.json"
    f.write_text(json.dumps({"pmf": [0.5, 0.5]}))
    np.testing.assert_allclose(load_interval_pmf(str(f), 2), 0.5)
    with pytest.raises(HarnessError):
        load_interval_pmf(str(f), 4)


@pytest.mark.parametrize("command, size, loader, payload", [
    ("test-equivalence", ["--n", "6"], "load_distribution",
     lambda rng: {"n": 6, "probs": rng.dirichlet(np.ones(64)).tolist()}),
    ("test-interval", ["--N", "50"], "load_interval_pmf",
     lambda rng: {"pmf": rng.dirichlet(np.ones(50)).tolist()}),
])
def test_self_test_loads_its_source_once(command, size, loader, payload, tmp_path,
                                         monkeypatch, capsys):
    """``--tau X --mu X`` loads X once and both oracles share it; tau and mu
    from two paths load twice, and when the two files hold the same bytes
    the run writes the same CSV bytes as the shared-source run."""
    text = json.dumps(payload(np.random.default_rng(4)))
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        path.write_text(text)
    load, calls = getattr(harness, loader), []

    def counting(source, *args):
        calls.append(source)
        return load(source, *args)

    monkeypatch.setattr(harness, loader, counting)
    csv = {}
    for tag, (tau, mu), loads in [("shared", paths[:1] * 2, 1), ("twin", paths, 2)]:
        calls.clear()
        assert main([command, *size, "--eps", "0.4", "--tau", str(tau), "--mu", str(mu),
                     "--runs", "3", "--seed", "7", "--out", str(tmp_path / tag),
                     "--id", "run"]) == 0
        assert len(calls) == loads, tag
        csv[tag] = (tmp_path / tag / "run.csv").read_bytes()
    assert csv["shared"] == csv["twin"]
    assert csv["shared"].count(b"\n") == 4  # header and three repetitions


# ----------------------------------------------------------------------
# statistics


def test_rate_lower_bound_values():
    assert rate_lower_bound(0, 60) == 0.0
    # all 60 successes: lb solves lb^60 = 0.01
    assert rate_lower_bound(60, 60) == pytest.approx(0.01 ** (1 / 60), abs=1e-12)
    assert rate_lower_bound(59, 60) < rate_lower_bound(60, 60)
    with pytest.raises(HarnessError):
        rate_lower_bound(5, 4)


# The CSV sha256 of the seven CLI scenarios, each run with --out DIR, where the
# key is the CSV's path under DIR.  The CI's console-script step reads the
# same file.
CLI_PINS = {name: (pin["argv"], pin["sha256"]) for name, pin
            in json.loads((Path(__file__).parent / "cli_pins.json").read_text()).items()}

_BLOCKED_SCIPY_RUN = """
import hashlib, json, sys
sys.modules["scipy"] = None  # any import of scipy or a submodule now fails
from pathlib import Path
from condtest import cli
out, pins = Path(sys.argv[1]), json.loads(sys.argv[2])
digests = {}
for name, (argv, _) in pins.items():
    assert cli.main(argv + ["--out", str((out / name).parent)]) == 0
    digests[name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
loaded = sorted(m for m, module in sys.modules.items()
                if m.split(".")[0] == "scipy" and module is not None)
print(json.dumps({"digests": digests, "scipy": loaded}))
"""


@pytest.mark.parametrize("module", ["condtest", "condtest.cli"])
def test_import_leaves_scipy_stats_unloaded(module):
    """Every CLI call imports condtest.cli; SciPy would add about 0.3 s to
    each.  A fresh interpreter, with SciPy importable, shows that the import
    pulls in no scipy module at all, scipy.stats and scipy.special included."""
    env = dict(os.environ, PYTHONPATH=str(Path(condtest.__file__).parents[1]))
    loaded = json.loads(subprocess.run(
        [sys.executable, "-c",
         f"import json, sys, {module}; print(json.dumps(sorted(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True).stdout)
    assert module in loaded
    assert "scipy.stats" not in loaded
    assert "scipy.special" not in loaded
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []


def test_runtime_runs_with_scipy_blocked(tmp_path):
    """The runtime needs NumPy only.  A fresh interpreter with SciPy blocked
    imports condtest.cli, runs the seven CI-pinned scenarios through
    ``cli.main``, writes their pinned CSV bytes, and ends with no scipy
    module loaded: a deferred import would fail or show up here."""
    env = dict(os.environ, PYTHONPATH=str(Path(condtest.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", _BLOCKED_SCIPY_RUN, str(tmp_path), json.dumps(CLI_PINS)],
        env=env, capture_output=True, text=True, check=True)
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["digests"] == {name: digest for name, (_, digest) in CLI_PINS.items()}
    assert report["scipy"] == []


# ----------------------------------------------------------------------
# the shorthand memo


@pytest.mark.parametrize("name", list(CLI_PINS))
def test_cli_pin_is_stable_on_a_warm_memo(name, tmp_path):
    """Each pinned scenario, run twice in one process, writes its pinned
    bytes both times; the second run resolves every shorthand source from the
    memo."""
    argv, digest = CLI_PINS[name]
    infos = []
    for tag in ("cold", "warm"):
        out = tmp_path / tag
        assert main(argv + ["--out", str((out / name).parent)]) == 0
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, tag
        infos.append(harness._shorthand_memo.cache_info())
    cold, warm = infos
    assert warm.misses == cold.misses
    uses_sources = any(flag in argv for flag in ("--tau", "--mu", "--n-list"))
    assert (warm.hits > cold.hits) == uses_sources


def test_sweep_builds_each_uniform_table_once(tmp_path, monkeypatch, capsys):
    """A sweep over two n and two eps builds the uniform table of each n once,
    not once per (n, eps)."""
    build, built = DistributionTable.uniform, []

    def counting(cls, n):
        built.append(n)
        return build(n)

    monkeypatch.setattr(DistributionTable, "uniform", classmethod(counting))
    assert main(["sweep", "--n-list", "8,16", "--eps-list", "0.3,0.5",
                 "--out", str(tmp_path)]) == 0
    assert built == [8, 16]


def test_file_source_is_read_on_every_call(tmp_path):
    """A file rewritten between two calls is read anew: no file source is
    kept, whatever its path."""
    table, pmf = tmp_path / "table.json", tmp_path / "pmf.json"
    for probs in ([0.25, 0.75], [0.5, 0.5], [1.0, 0.0]):
        table.write_text(json.dumps({"n": 1, "probs": probs}))
        pmf.write_text(json.dumps({"pmf": probs}))
        np.testing.assert_array_equal(load_distribution(str(table), 1).probs, probs)
        np.testing.assert_array_equal(load_interval_pmf(str(pmf), 2), probs)
    assert harness._shorthand_memo.cache_info().currsize == 0


@pytest.mark.parametrize("load, source, size", [
    (load_distribution, "point:012", None),
    (load_distribution, "bernoulli:x", 2),
    (load_distribution, "bernoulli:1.5", 2),
    (load_distribution, "uniform", None),
    (load_interval_pmf, "block:1", 8),
    (load_interval_pmf, "block:5,3", 8),
])
def test_bad_shorthand_raises_on_every_call(load, source, size):
    """An error is never kept: a bad shorthand is refused on every call."""
    for _ in range(3):
        with pytest.raises((HarnessError, DomainError)):
            load(source, size)
    info = harness._shorthand_memo.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 3, 0)


def test_shorthand_is_resolved_once_and_shared():
    """A shorthand resolves to one object per (source, size), read-only,
    and the same name at another size, or for the other loader, is another
    entry."""
    table = load_distribution("uniform", 3)
    assert load_distribution("uniform", 3) is table
    assert load_distribution("uniform", 4) is not table
    pmf = load_interval_pmf("uniform", 8)
    assert load_interval_pmf("uniform", 8) is pmf and not pmf.flags.writeable
    assert not load_interval_pmf("block:2,3", 8).flags.writeable
    info = harness._shorthand_memo.cache_info()
    assert (info.hits, info.misses) == (2, 4)


def test_shorthand_memo_is_capped():
    """More distinct shorthands than the cap leave the cap's worth of
    entries, the most recently used; the oldest is resolved again."""
    cap = harness.SHORTHAND_MEMO_CAP
    sources = [f"bernoulli:{k / 100}" for k in range(1, cap + 4)]
    tables = [load_distribution(source, 2) for source in sources]
    assert harness._shorthand_memo.cache_info().currsize == cap
    assert load_distribution(sources[-1], 2) is tables[-1]
    assert load_distribution(sources[0], 2) is not tables[0]
    assert harness._shorthand_memo.cache_info().currsize == cap


# ----------------------------------------------------------------------
# spec validation and drivers


def test_spec_validation():
    with pytest.raises(HarnessError):
        ExperimentSpec(kind="nope")
    with pytest.raises(HarnessError):
        ExperimentSpec(kind="equivalence", runs=0)
    spec = ExperimentSpec(kind="product", seed=7)
    assert spec.experiment_id == "product-seed7"


def test_equivalence_driver_deterministic_and_accepting():
    spec = ExperimentSpec(kind="equivalence", n=4, eps=0.4, runs=3, seed=11,
                          tau="uniform", mu="uniform")
    rows1, summary1 = run_experiment(spec, write=False)
    rows2, _ = run_experiment(spec, write=False)
    assert rows1 == rows2
    assert summary1["accepts"] == 3
    assert summary1["median_total_queries"] > 0


def test_driver_missing_arguments(monkeypatch):
    """run_experiment refuses a spec that leaves any field its kind reads
    unset, and names that field, before the kind's driver runs."""
    with pytest.raises(HarnessError):
        run_experiment(ExperimentSpec(kind="equivalence", n=4), write=False)
    with pytest.raises(HarnessError):
        run_experiment(ExperimentSpec(kind="scaling-sweep"), write=False)
    _refuse_drivers(monkeypatch, *harness.KINDS)
    values = {"n": 4, "N": 8, "eps": 0.5, "tau": "uniform", "mu": "uniform", "p": 0.5,
              "q": 0.5, "n_list": (4,), "eps_list": (0.5,)}
    unset = 0
    for name, kind in harness.KINDS.items():
        for field in set(kind.fields) & values.keys():  # grid_step has a default
            spec = ExperimentSpec(kind=name, **{k: v for k, v in values.items() if k != field})
            with pytest.raises(HarnessError, match=f"unset: {field}$"):
                run_experiment(spec, write=False)
            unset += 1
    assert unset == 18


def test_single_bit_driver_counts_both_sides():
    spec = ExperimentSpec(kind="single-bit", p=0.5, q=0.5, eps=0.5, runs=2)
    rows, summary = run_experiment(spec, write=False)
    import math
    per_side = 64 * math.ceil(24 / 0.5)
    assert all(r["total_queries"] == 2 * per_side for r in rows)
    assert summary["accept_rate"] in (0.0, 0.5, 1.0)


def test_inequality_grid_driver_has_no_violations():
    rows, summary = run_experiment(ExperimentSpec(kind="inequality-grid"),
                                   write=False)
    assert summary["rows"] == 101 * 99
    assert summary["violations"] == 0


def test_adversarial_distance_driver():
    spec = ExperimentSpec(kind="adversarial-distance", n=4, eps=0.2, runs=2,
                          seed=3)
    rows, summary = run_experiment(spec, write=False)
    assert all(r["method"] == "exact-grid" for r in rows)
    assert summary["min_grid_distance"] > 0.01
    spec_big = ExperimentSpec(kind="adversarial-distance", n=8, eps=0.3,
                              runs=1, seed=3)
    rows_big, _ = run_experiment(spec_big, write=False)
    assert rows_big[0]["method"] == "pairwise-lower-bound"


def test_adversarial_distance_n_cap(tmp_path, capsys):
    """n = MAX_PAIRED_N runs, one paired instance of 2^19 signs; one more
    exits 2 with one error line naming the range."""
    cap = adversarial.MAX_PAIRED_N
    argv = ["adversarial-distance", "--eps", "0.2", "--runs", "1", "--out", str(tmp_path),
            "--id", "cap", "--n"]
    assert main(argv + [str(cap)]) == 0
    row = (tmp_path / "cap.csv").read_text().splitlines()[1].split(",")
    assert row[1] == str(cap) and len(row[3]) == cap // 2
    capsys.readouterr()
    assert main(argv + [str(cap + 1)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: n must be an integer in [1, {cap}], got {cap + 1}\n"


def _adversarial_csv(tmp_path, tag) -> bytes:
    assert main(["adversarial-distance", "--n", "4", "--eps", "0.2", "--runs", "12",
                 "--seed", "5", "--out", str(tmp_path / tag), "--id", "run"]) == 0
    return (tmp_path / tag / "run.csv").read_bytes()


def test_adversarial_distance_searches_each_instance_once(tmp_path, monkeypatch, capsys):
    """A --runs 12 call at n = 4, where only 4 sign patterns exist, runs the
    grid search once per distinct biases; its CSV bytes equal those of the
    same call with the memo emptied before every rep, which searches 12
    times."""
    search, searched = adversarial.distance_to_grid_products, []

    def counting(table, step):
        searched.append(table.probs.tobytes())
        return search(table, step)

    monkeypatch.setattr(adversarial, "distance_to_grid_products", counting)
    memoized = _adversarial_csv(tmp_path, "memo")
    biases = {line.split(b",")[3] for line in memoized.splitlines()[1:]}
    assert len(searched) == len(set(searched)) == len(biases) < 12
    assert adversarial._instance_memo.cache_info().hits == 12 - len(biases)

    lookup = adversarial.instance_distances

    def fresh(instance, step):
        adversarial._instance_memo.cache_clear()
        return lookup(instance, step)

    monkeypatch.setattr(adversarial, "instance_distances", fresh)
    searched.clear()
    assert _adversarial_csv(tmp_path, "fresh") == memoized
    assert len(searched) == 12


_EPS_CLI_ARGV = [
    ["test-equivalence", "--n", "2", "--tau", "uniform", "--mu", "uniform", "--eps"],
    ["test-product", "--n", "2", "--mu", "uniform", "--eps"],
    ["test-interval", "--N", "4", "--tau", "uniform", "--mu", "uniform", "--eps"],
    ["sweep", "--n-list", "2", "--eps-list"],
]


@pytest.mark.parametrize("eps", ["1e-10", "1.2e-151"])
@pytest.mark.parametrize("argv", _EPS_CLI_ARGV)
def test_cli_refuses_eps_below_the_draw_budget(argv, eps, tmp_path, capsys):
    """An eps whose eps_L lies below the run budget's 2^-33 exits 2 with one
    error line that names the eps given, and no traceback: at 1e-10 the
    accept path would take 1.35e24 y-draws at n = 2."""
    assert main(argv + [eps, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: epsilon {eps} is too small")
    assert err.count("\n") == 1


@pytest.mark.parametrize("eps", ["1e-155", "1e-160"])
@pytest.mark.parametrize("argv", _EPS_CLI_ARGV)
def test_cli_refuses_eps_without_a_finite_schedule(argv, eps, tmp_path, capsys):
    """The same refusal where the schedule has no finite draw count."""
    test_cli_refuses_eps_below_the_draw_budget(argv, eps, tmp_path, capsys)


# (argv without --runs, the call's (n, eps) points)
_RUNS_CLI_ARGV = [
    (["test-equivalence", "--n", "1", "--eps", "0.9", "--tau", "uniform", "--mu", "uniform"], 1),
    (["sweep", "--n-list", "1,2", "--eps-list", "0.9,0.7"], 4),
]


@pytest.mark.parametrize("argv, points", _RUNS_CLI_ARGV, ids=["equivalence", "sweep"])
def test_repetitions_at_the_bound_are_accepted(argv, points):
    """A call of exactly ``MAX_REPETITIONS`` repetitions, --runs times a
    sweep's (n, eps) points, makes a spec (which is not run)."""
    runs = harness.MAX_REPETITIONS // points
    spec = spec_from_args(build_parser().parse_args(argv + ["--runs", str(runs)]))
    assert spec.runs * points == harness.MAX_REPETITIONS


@pytest.mark.parametrize("argv, points", _RUNS_CLI_ARGV, ids=["equivalence", "sweep"])
def test_repetitions_above_the_bound_are_refused(argv, points, tmp_path, monkeypatch, capsys):
    """One run more exits 2 with one error line and no traceback, before a
    source is loaded or a file written."""
    loaded = []
    monkeypatch.setattr(harness, "load_distribution", lambda *args: loaded.append(args))
    runs = harness.MAX_REPETITIONS // points + 1
    assert main(argv + ["--runs", str(runs), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: repetitions") and err.count("\n") == 1
    assert not loaded and not any(tmp_path.iterdir())


def test_scaling_sweep_driver():
    spec = ExperimentSpec(kind="scaling-sweep", n_list=(2, 4), eps_list=(0.5,),
                          runs=3, seed=9)
    rows, _ = run_experiment(spec, write=False)
    assert [(r["n"], r["eps"]) for r in rows] == [(2, 0.5), (4, 0.5)]
    assert rows[0]["median_queries"] <= rows[1]["median_queries"]


def test_long_eps_sweep_holds_bounded_memory():
    """Each of 100 eps values at n = 2 runs at its own inner, and the walk
    keeps bracket grids for the latest 16 inner values only: once the
    first 20 values have run, the other 80 add less than 1 MiB of traced
    memory (one 64 KiB grid pair per inner, uncapped, would add 5 MiB)."""
    def sweep(eps_list):
        run_experiment(ExperimentSpec(kind="scaling-sweep", n_list=(2,), eps_list=eps_list),
                       write=False)

    eps_list = tuple(np.linspace(0.05, 0.95, 100).tolist())
    tracemalloc.start()
    try:
        sweep(eps_list[:20])
        warm = tracemalloc.get_traced_memory()[0]
        sweep(eps_list[20:])
        grown = tracemalloc.get_traced_memory()[0] - warm
    finally:
        tracemalloc.stop()
    assert grown < 2 ** 20


# ----------------------------------------------------------------------
# emission


def test_emit_plot_data_replay_stable():
    spec = ExperimentSpec(kind="equivalence", n=3, eps=0.5, runs=2, seed=5,
                          tau="uniform", mu="uniform")
    rows, _ = run_experiment(spec, write=False)
    text1 = emit_plot_data(spec.kind, rows)
    rows_again, _ = run_experiment(spec, write=False)
    assert emit_plot_data(spec.kind, rows_again) == text1
    header = text1.splitlines()[0].split(",")
    assert header[0] == "experiment_id" and header[-1] == "total_queries"
    assert len(text1.splitlines()) == 3


def test_emit_plot_data_of_no_rows_is_the_header():
    assert emit_plot_data("equivalence", []).splitlines() == [
        "experiment_id,kind,rep,seed,n,eps,verdict,unconditional,prefix,"
        "subcube,marginal,interval,total_queries"]


def test_single_bit_csv_leaves_the_unset_n_empty(tmp_path):
    """The single-bit kind sets no n: its CSV's n cell is empty, not None."""
    spec = ExperimentSpec(kind="single-bit", p=0.5, q=0.5, eps=0.5, runs=2, out=str(tmp_path))
    rows, _ = run_experiment(spec)
    lines = (tmp_path / "single-bit-seed0.csv").read_text().splitlines()
    assert len(lines) == 3
    for rep, (line, row) in enumerate(zip(lines[1:], rows)):
        cells = line.split(",")
        assert cells[:6] == ["single-bit-seed0", "single-bit", str(rep), f"0/{rep}", "", "0.5"]
        assert cells[6] == row["verdict"] and cells[-1] == "6144"


def test_summarize_recomputable_from_rows():
    spec = ExperimentSpec(kind="equivalence", n=2, eps=0.6, runs=4, seed=2,
                          tau="uniform", mu="point:00")
    rows, summary = run_experiment(spec, write=False)
    accepts = sum(1 for r in rows if r["verdict"] == "accept")
    assert summary["accepts"] == accepts
    assert summary["accept_rate"] == accepts / 4
    assert summary["reject_rate_lb99"] == rate_lower_bound(4 - accepts, 4)
    again = summarize(spec.kind, rows)
    for key, value in again.items():
        assert summary[key] == value
    assert summarize(spec.kind, []) == {"rows": 0}


def test_run_experiment_writes_artifacts(tmp_path):
    spec = ExperimentSpec(kind="equivalence", n=2, eps=0.5, runs=2, seed=1,
                          tau="uniform", mu="uniform", out=str(tmp_path),
                          experiment_id="smoke")
    rows, summary = run_experiment(spec)
    csv_text = (tmp_path / "smoke.csv").read_text()
    assert csv_text == emit_plot_data(spec.kind, rows)
    payload = json.loads((tmp_path / "smoke.json").read_text())
    assert payload["spec"]["kind"] == "equivalence"
    assert payload["summary"]["accepts"] == summary["accepts"]
    assert "wall_time_s" in payload["summary"]


# ----------------------------------------------------------------------
# command line


def test_cli_spec_from_args_parses_lists():
    args = build_parser().parse_args(
        ["sweep", "--n-list", "2,4", "--eps-list", "0.3,0.5", "--runs", "2"])
    spec = spec_from_args(args)
    assert spec.kind == "scaling-sweep"
    assert spec.n_list == (2, 4)
    assert spec.eps_list == (0.3, 0.5)
    assert spec.runs == 2 and spec.seed == 0


def test_cli_end_to_end(tmp_path, capsys):
    rc = main(["test-equivalence", "--n", "2", "--eps", "0.5", "--tau",
               "uniform", "--mu", "uniform", "--runs", "2", "--seed", "3",
               "--out", str(tmp_path), "--id", "clirun"])
    assert rc == 0
    out = capsys.readouterr().out
    assert (tmp_path / "clirun.csv").exists()
    assert (tmp_path / "clirun.json").exists()
    summary = json.loads(out[:out.rindex("}") + 1])
    assert summary["kind"] == "equivalence"


def test_cli_error_exit_code(capsys):
    rc = main(["test-equivalence", "--eps", "0.5"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "eps": 0.5, "tau": "uniform",
                               "mu": "uniform", "runs": 1, "seed": 4,
                               "out": str(tmp_path / "a")}))
    rc = main(["test-equivalence", "--config", str(cfg), "--runs", "3",
               "--id", "cfgrun"])
    assert rc == 0
    payload = json.loads((tmp_path / "a" / "cfgrun.json").read_text())
    assert payload["spec"]["runs"] == 3  # flag beats config
    assert payload["spec"]["seed"] == 4  # config beats default
    capsys.readouterr()


def test_cli_rejects_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "eps": 0.5, "tau": "uniform",
                               "mu": "uniform", "bogus": 1}))
    rc = main(["test-equivalence", "--config", str(cfg)])
    assert rc == 2
    assert "unrecognized" in capsys.readouterr().err


def test_cli_refuses_config_keys_of_other_kinds(tmp_path, capsys):
    """A config key that names a spec field the subcommand does not offer is
    refused like any other unknown key, and nothing is written."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"tau": "point:1", "N": 5, "p": 0.3}))
    out = tmp_path / "out"
    rc = main(["test-product", "--n", "2", "--eps", "0.5", "--mu", "uniform",
               "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "error: unrecognized option in config or flags: N, p, tau\n"
    assert not out.exists()


def test_check_inequalities_offers_no_runs(tmp_path, capsys):
    """The inequality grid is always 101 x 99 rows, so its subcommand takes no
    --runs: argparse exits 2 on the flag, and a config that sets runs is
    refused as an unknown option.  --seed stays, since it names the file."""
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(["check-inequalities", "--runs", "3"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --runs 3" in capsys.readouterr().err
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"runs": 3}))
    assert main(["check-inequalities", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: unrecognized option in config or flags: runs\n"
    assert spec_from_args(build_parser().parse_args(["check-inequalities", "--seed", "4"])).seed == 4


# One valid value for every ExperimentSpec field but kind.
_FIELD_VALUES = {"n": 2, "eps": 0.5, "N": 8, "runs": 1, "seed": 0, "tau": "uniform",
                 "mu": "uniform", "p": 0.5, "q": 0.5, "grid_step": 0.5, "n_list": "2",
                 "eps_list": "0.5", "out": "out", "experiment_id": "x"}


@pytest.mark.parametrize("command", [k.command for k in harness.KINDS.values() if k.command])
def test_cli_config_takes_exactly_the_subcommand_flags(command, tmp_path):
    """Every subcommand's --config accepts, under its underscore or hyphen
    spelling, the key of each of its flags and no other spec field."""
    assert _FIELD_VALUES.keys() == harness.FIELDS.keys()
    flags = vars(build_parser().parse_args([command])).keys() - {"command", "config"}
    cfg = tmp_path / "c.json"
    accepted = set()
    for key, value in _FIELD_VALUES.items():
        for spelling in {key, key.replace("_", "-")}:
            cfg.write_text(json.dumps({spelling: value}))
            try:
                spec_from_args(build_parser().parse_args([command, "--config", str(cfg)]))
            except HarnessError as err:
                assert str(err) == f"unrecognized option in config or flags: {key}"
                continue
            accepted.add(key)
    assert accepted == flags
    kind = next(k for k in harness.KINDS.values() if k.command == command)
    assert flags == set(kind.fields) | {"seed", "out", "experiment_id"}


def test_cli_reports_the_directory_it_wrote(monkeypatch, tmp_path, capsys):
    """The last line names the files where run_experiment wrote them: --out,
    else $CONDTEST_OUT_DIR."""
    argv = ["test-equivalence", "--n", "2", "--eps", "0.5", "--tau", "uniform",
            "--mu", "uniform", "--id", "where"]
    monkeypatch.setenv("CONDTEST_OUT_DIR", str(tmp_path / "env"))
    for extra, directory in (([], tmp_path / "env"),
                             (["--out", str(tmp_path / "flag")], tmp_path / "flag")):
        assert main(argv + extra) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == f"wrote {directory / 'where'}.csv and .json"
        assert (directory / "where.csv").exists() and (directory / "where.json").exists()


def test_experiment_kind_registry_is_complete(capsys):
    """Every kind in ``harness.KINDS`` with a command has that subcommand,
    which offers exactly the spec fields the kind reads plus the common
    flags, makes a spec of that kind and has working help; single-bit runs
    from Python only and has no subcommand."""
    common = {"command", "seed", "out", "config", "experiment_id"}
    commands = [kind.command for kind in harness.KINDS.values() if kind.command]
    assert len(set(commands)) == len(harness.KINDS) - 1 == 6
    for name, kind in harness.KINDS.items():
        if kind.command is None:
            continue
        args = build_parser().parse_args([kind.command])
        assert set(vars(args)) == set(kind.fields) | common, name
        assert spec_from_args(args).kind == name
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([kind.command, "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: condtest {kind.command}")
    assert harness.KINDS["single-bit"].command is None
    for argv in (["single-bit"], ["single-bit", "--p", "0.5", "--q", "0.5", "--eps", "0.5"]):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert "invalid choice: 'single-bit'" in capsys.readouterr().err


# Source and config files for the bad-input cases below, written into the
# test's directory; "@name" in an argv stands for the file's path.
BAD_INPUT_FILES = {
    "five.json": "5",
    "no-pmf.json": json.dumps({"probs": [0.5, 0.5]}),
    "list.json": "[1, 2]",
    "seed.json": json.dumps({"seed": "x"}),
    "grid-step.json": json.dumps({"grid_step": "0.1"}),
    "runs.json": json.dumps({"runs": "3"}),
    "N.json": json.dumps({"N": 8.5}),
    "tree-no-n.json": json.dumps({"tree": {"1:": 0.5}}),
    "tree-number.json": json.dumps({"n": 1, "tree": 5}),
    "tree-empty.json": json.dumps({"n": 1, "tree": {}}),
    "pairs-no-n.json": json.dumps({"eps": 0.2, "biases": [1]}),
    "biases-number.json": json.dumps({"n": 2, "eps": 0.2, "biases": 3}),
    "n-list-number.json": json.dumps({"n_list": 5, "eps_list": [0.5]}),
    "tau-number.json": json.dumps({"tau": 5}),
    "n2.json": json.dumps({"n": 2, "probs": [0.25, 0.25, 0.25, 0.25]}),
    "tree-bad-bit.json": json.dumps({"n": 2, "tree": {"1:": 0.5, "2:0": 0.5, "2:1": 0.5,
                                                      "2:5": 0.3}}),
    # JSON values of the wrong type: each used to raise a TypeError or to be
    # coerced (1.7 -> 1, "1" -> 1, true -> 1.0, "0.5" -> 0.5) and run
    "probs-object.json": json.dumps({"n": 1, "probs": {"a": 1}}),
    "probs-objects.json": json.dumps({"n": 1, "probs": [{}, 1]}),
    "pmf-object.json": json.dumps({"pmf": {"a": 1}}),
    "n-float.json": json.dumps({"n": 1.7, "probs": [0.5, 0.5]}),
    "n-str.json": json.dumps({"n": "1", "probs": [0.5, 0.5]}),
    "n-bool.json": json.dumps({"n": True, "probs": [0.5, 0.5]}),
    "probs-bool.json": json.dumps({"n": 1, "probs": [True, False]}),
    "biases-float.json": json.dumps({"n": 2, "eps": 0.2, "biases": [1.9]}),
    "pairs-n-float.json": json.dumps({"n": 2.5, "eps": 0.2, "biases": [1]}),
    "tree-bool.json": json.dumps({"n": 1, "tree": {"1:": True}}),
    "tree-str.json": json.dumps({"n": 1, "tree": {"1:": "0.5"}}),
}
_EQ = ["test-equivalence", "--n", "2", "--eps", "0.5", "--tau", "uniform"]
_EQ1 = ["test-equivalence", "--n", "1", "--eps", "0.5", "--tau", "uniform"]
_INTERVAL = ["test-interval", "--N", "8", "--eps", "0.5", "--tau", "uniform"]


@pytest.mark.parametrize("argv", [
    ["adversarial-distance", "--n", "1", "--eps", "0.2"],
    ["adversarial-distance", "--n", "4", "--eps", "0.2", "--grid-step", "0"],
    ["adversarial-distance", "--n", "4", "--eps", "0.2", "--grid-step", "-0.5"],
    ["adversarial-distance", "--n", "2", "--eps", "0.2", "--grid-step", "0.28"],
    ["adversarial-distance", "--n", "4", "--eps", "0.2", "--grid-step", "0.0001"],
    ["adversarial-distance", "--n", "4", "--eps", "0.2", "--grid-step", "1e-300"],
    ["test-equivalence", "--n", "2", "--eps", "1.5", "--tau", "uniform",
     "--mu", "uniform"],
    ["test-interval", "--N", "0", "--eps", "0.3", "--tau", "uniform",
     "--mu", "uniform"],
    ["sweep", "--n-list", "8,x", "--eps-list", "0.5"],
    ["test-equivalence", "--n", "2", "--eps", "0.5", "--tau", "uniform",
     "--mu", "uniform", "--config", "/nonexistent/condtest-config.json"],
    _EQ + ["--mu", "@"],
    _INTERVAL + ["--mu", "@"],
    _EQ + ["--mu", "@five.json"],
    _INTERVAL + ["--mu", "@no-pmf.json"],
    _EQ + ["--mu", "uniform", "--config", "@list.json"],
    _EQ + ["--mu", "uniform", "--config", "@seed.json"],
    ["adversarial-distance", "--n", "4", "--eps", "0.2", "--config", "@grid-step.json"],
    _EQ + ["--mu", "uniform", "--config", "@runs.json"],
    ["test-interval", "--eps", "0.5", "--tau", "uniform", "--mu", "uniform",
     "--config", "@N.json"],
    _EQ + ["--mu", "@no-pmf.json"],
    _EQ + ["--mu", "@tree-no-n.json"],
    _EQ + ["--mu", "@tree-number.json"],
    ["test-equivalence", "--n", "1", "--eps", "0.5", "--tau", "uniform",
     "--mu", "@tree-empty.json"],
    _EQ + ["--mu", "@pairs-no-n.json"],
    _EQ + ["--mu", "@biases-number.json"],
    ["sweep", "--config", "@n-list-number.json"],
    ["test-equivalence", "--n", "1", "--eps", "0.5", "--mu", "uniform",
     "--config", "@tau-number.json"],
    ["test-equivalence", "--n", "3", "--eps", "0.5", "--tau", "point:0101",
     "--mu", "point:0101"],
    ["test-product", "--n", "5", "--eps", "0.5", "--mu", "bernoulli:0.1,0.2"],
    ["test-equivalence", "--n", "3", "--eps", "0.5", "--tau", "@n2.json", "--mu", "@n2.json"],
    ["test-equivalence", "--n", "2", "--eps", "0.5", "--mu", "uniform",
     "--tau", "@tree-bad-bit.json"],
    _EQ1 + ["--mu", "@probs-object.json"],
    _EQ1 + ["--mu", "@probs-objects.json"],
    _INTERVAL + ["--mu", "@pmf-object.json"],
    _EQ1 + ["--mu", "@n-float.json"],
    _EQ1 + ["--mu", "@n-str.json"],
    _EQ1 + ["--mu", "@n-bool.json"],
    _EQ1 + ["--mu", "@probs-bool.json"],
    _EQ + ["--mu", "@biases-float.json"],
    _EQ + ["--mu", "@pairs-n-float.json"],
    _EQ1 + ["--mu", "@tree-bool.json"],
    _EQ1 + ["--mu", "@tree-str.json"],
    ["test-equivalence", "--n", "3", "--eps", "1e-5", "--tau", "uniform", "--mu", "uniform"],
], ids=["n1", "step0", "step-neg", "step-0.28", "step-fine", "step-1e-300", "eps1.5", "N0", "n-list", "missing-config",
        "dir-table", "dir-interval", "json-number", "json-no-pmf", "config-list",
        "config-seed-str", "config-grid-step-str", "config-runs-str",
        "config-N-float", "json-probs-no-n", "json-tree-no-n", "json-tree-number",
        "json-tree-missing-key", "json-pairs-no-n", "json-biases-number", "config-n-list-number",
        "config-tau-number", "point-n-mismatch", "bernoulli-n-mismatch",
        "json-n-mismatch", "json-tree-bad-bit", "json-probs-object", "json-probs-objects",
        "json-pmf-object", "json-n-float", "json-n-str", "json-n-bool", "json-probs-bool",
        "json-biases-float", "json-pairs-n-float", "json-tree-bool", "json-tree-str",
        "refused-allocation"])
def test_cli_bad_input_fails_fast(argv, tmp_path, capsys):
    for name, text in BAD_INPUT_FILES.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / arg[1:]) if arg.startswith("@") else arg for arg in argv]
    rc = main(argv + ["--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv, payload, found", [
    (_EQ1, {"n": 1, "probs": [0.5, 0.5], "tree": {"1:": 0.9}}, "'probs', 'tree'"),
    (_EQ, {"n": 2, "eps": 0.2, "biases": [1], "probs": [0.25] * 4}, "'probs', 'biases'"),
], ids=["probs-tree", "biases-probs"])
def test_cli_refuses_a_table_stated_two_ways(argv, payload, found, tmp_path, capsys):
    """A distribution file states its table by exactly one of "probs",
    "tree" and "biases"; a file with two is refused, naming both, rather
    than run on one of them."""
    source = tmp_path / "two.json"
    source.write_text(json.dumps(payload))
    assert main(argv + ["--mu", str(source), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.rstrip().endswith(f"found {found}")
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("config", [None, {"out": ""}], ids=["flag", "config"])
def test_cli_refuses_an_empty_output_directory(config, monkeypatch, tmp_path, capsys):
    """An empty --out (or "out": "" in a config) is refused; it does not fall
    back to $CONDTEST_OUT_DIR."""
    monkeypatch.setenv("CONDTEST_OUT_DIR", str(tmp_path / "env"))
    argv = ["adversarial-distance", "--n", "2", "--eps", "0.2", "--grid-step", "0.5"]
    if config is None:
        argv += ["--out", ""]
    else:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "cfg.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: out must be a non-empty string")
    assert not (tmp_path / "env").exists()


@pytest.mark.parametrize("argv, source", [
    (_INTERVAL + ["--mu", "block:1"], "block:1"),
    (_INTERVAL + ["--mu", "block:1,x"], "block:1,x"),
    (_EQ + ["--mu", "bernoulli:x"], "bernoulli:x"),
], ids=["block-one-end", "block-not-a-number", "bernoulli-not-a-number"])
def test_cli_bad_shorthand_is_named(argv, source, tmp_path, capsys):
    """A shorthand source that does not parse is refused with its own text,
    not with Python's unpacking or conversion message."""
    rc = main(argv + ["--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad ") and repr(source) in err


@pytest.mark.parametrize("key, value", [("runs", "3"), ("seed", "x"), ("grid_step", "0.1")])
def test_cli_config_value_of_wrong_type_is_named(key, value, tmp_path, capsys):
    """A config value of the wrong type is refused with its own name, not as
    an unrecognized option."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    rc = main(["adversarial-distance", "--n", "4", "--eps", "0.2", "--config", str(cfg),
               "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key.replace('_', ' ')} must be") and "unrecognized" not in err


def test_spec_rejects_empty_interval_domain():
    with pytest.raises(HarnessError):
        ExperimentSpec(kind="interval", N=0, eps=0.3, tau="uniform", mu="uniform")


# ----------------------------------------------------------------------
# up-front validation


@pytest.mark.parametrize("fields", [
    {"kind": "equivalence", "n": 0, "eps": 0.5},
    {"kind": "equivalence", "n": 21, "eps": 0.5},
    {"kind": "product", "n": 2.5, "eps": 0.5},
    {"kind": "equivalence", "n": 4, "eps": 0.0},
    {"kind": "equivalence", "n": 4, "eps": 1.0},
    {"kind": "interval", "N": 8, "eps": float("nan")},
    {"kind": "adversarial-distance", "n": 4, "eps": -0.2},
    {"kind": "single-bit", "p": 0.5, "q": 0.5, "eps": 1.5},
    {"kind": "scaling-sweep", "n_list": (4, 0), "eps_list": (0.5,)},
    {"kind": "scaling-sweep", "n_list": (4, 30), "eps_list": (0.5,)},
    {"kind": "scaling-sweep", "n_list": (4,), "eps_list": (0.5, 1.5)},
    {"kind": "equivalence", "n": 4, "eps": 0.5, "runs": "3"},
    {"kind": "equivalence", "n": 4, "eps": 0.5, "runs": 2.0},
    {"kind": "equivalence", "n": 4, "eps": 0.5, "seed": "x"},
    {"kind": "equivalence", "n": 4, "eps": 0.5, "seed": -1},
    {"kind": "interval", "N": "8", "eps": 0.5},
    {"kind": "interval", "N": 8.5, "eps": 0.5},
    {"kind": "interval", "N": 2 ** 20 + 1, "eps": 0.5},
    {"kind": "adversarial-distance", "n": 4, "eps": 0.2, "grid_step": "0.1"},
    {"kind": "equivalence", "n": 4, "eps": 0.5, "tau": 5},
    {"kind": "equivalence", "n": 4, "eps": 0.5, "mu": ["uniform"]},
    {"kind": "equivalence", "n": True, "eps": 0.5},
    {"kind": "interval", "N": True, "eps": 0.5},
    {"kind": "equivalence", "n": 4, "eps": 0.5, "runs": True},
    {"kind": "equivalence", "n": 4, "eps": 0.5, "seed": False},
    {"kind": "single-bit", "p": 0.5, "q": 0.5, "eps": True},
    {"kind": "adversarial-distance", "n": 4, "eps": 0.2, "grid_step": True},
    {"kind": "scaling-sweep", "n_list": (4, True), "eps_list": (0.5,)},
    {"kind": "single-bit", "p": 0.5, "q": 0.5, "eps": 0.5, "eps_list": (True,)},
    {"kind": "equivalence", "n": 2, "eps": 0.5, "out": 5},
    {"kind": "equivalence", "n": 2, "eps": 0.5, "out": ""},
    {"kind": "equivalence", "n": 2, "eps": 0.5, "experiment_id": ["a"]},
    {"kind": "single-bit", "p": 2.0, "q": 0.5, "eps": 0.5},
    {"kind": "single-bit", "p": "x", "q": 0.5, "eps": 0.5},
    {"kind": "single-bit", "p": 0.5, "q": True, "eps": 0.5},
    {"kind": "single-bit", "p": float("nan"), "q": 0.5, "eps": 0.5},
], ids=["n0", "n21", "n-float", "eps0", "eps1", "eps-nan", "eps-neg", "single-bit-eps",
        "n-list-0", "n-list-30", "eps-list", "runs-str", "runs-float", "seed-str",
        "seed-neg", "N-str", "N-float", "N-over-cells", "grid-step-str", "tau-int", "mu-list",
        "n-bool", "N-bool", "runs-bool", "seed-bool", "eps-bool", "grid-step-bool",
        "n-list-bool", "eps-list-bool", "out-int", "out-empty", "experiment-id-list", "single-bit-p-2",
        "single-bit-p-str", "single-bit-q-bool", "single-bit-p-nan"])
def test_spec_rejects_bad_values_up_front(fields):
    with pytest.raises(HarnessError):
        ExperimentSpec(**{"tau": "uniform", "mu": "uniform", **fields})


def test_single_bit_probability_refused_before_any_repetition(monkeypatch):
    """The single-bit kind's p and q are checked with the spec, so a bad one
    is named before the driver draws anything."""
    _refuse_drivers(monkeypatch, "single-bit")
    for p in (2.0, "x"):
        with pytest.raises(HarnessError, match="^p must lie in \\[0, 1\\]"):
            run_experiment(ExperimentSpec(kind="single-bit", p=p, q=0.5, eps=0.5), write=False)


def test_spec_is_frozen_and_replace_checks_anew():
    """A spec's fields cannot be assigned after its checks ran, and
    ``dataclasses.replace``, the sweep's path, runs them again."""
    spec = ExperimentSpec(kind="single-bit", p=0.5, q=0.5, eps=0.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.p = 2.0
    with pytest.raises(HarnessError, match="^p must lie in \\[0, 1\\], got 2.0"):
        dataclasses.replace(spec, p=2.0)
    assert spec.p == 0.5


def test_spec_takes_any_field_from_python():
    """Only the command line limits a kind to its own fields: the sweep
    makes its self-tests by replacing fields of its own spec."""
    spec = ExperimentSpec(kind="product", n=2, eps=0.5, mu="uniform", tau="point:1", N=5, p=0.3)
    assert (spec.tau, spec.N, spec.p) == ("point:1", 5, 0.3)
    sweep = ExperimentSpec(kind="scaling-sweep", n_list="2,4", eps_list=[0.5])
    assert (sweep.n_list, sweep.eps_list) == ((2, 4), (0.5,))


def _never_run(spec):
    raise AssertionError("a driver ran for a spec that should have been refused")


def _refuse_drivers(monkeypatch, *names):
    """Replace the driver of each named kind in ``harness.KINDS`` by
    ``_never_run``."""
    for name in names:
        monkeypatch.setitem(harness.KINDS, name,
                            dataclasses.replace(harness.KINDS[name], run=_never_run))


def test_oversized_n_refused_before_any_driver_or_allocation(monkeypatch, tmp_path, capsys):
    """n = 30 would need 2^30 cells; the spec refuses it before a driver
    runs or numpy allocates anything."""
    def refuse(*args, **kwargs):
        raise AssertionError("allocated before checking n")
    for name in ("full", "zeros", "ones", "empty", "kron"):
        monkeypatch.setattr(np, name, refuse)
    _refuse_drivers(monkeypatch, "equivalence")
    rc = main(["test-equivalence", "--n", "30", "--eps", "0.5", "--tau", "uniform",
               "--mu", "uniform", "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: n must be")


def test_oversized_N_refused_before_any_driver_or_allocation(monkeypatch, tmp_path, capsys):
    """N = 10^9 would need GiBs for its pmf, cdf and padded node arrays; the
    spec refuses any N above 2^MAX_DENSE_N, the cell budget of a dense
    table, before a driver runs or numpy allocates anything."""
    def refuse(*args, **kwargs):
        raise AssertionError("allocated before checking N")
    for name in ("full", "zeros", "ones", "empty", "kron"):
        monkeypatch.setattr(np, name, refuse)
    _refuse_drivers(monkeypatch, "interval")
    rc = main(["test-interval", "--N", "1000000000", "--eps", "0.3", "--tau", "uniform",
               "--mu", "uniform", "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: N must be")


@pytest.mark.parametrize("mode", ["sampled", "collapsed"])
@pytest.mark.parametrize("argv", [
    ["test-equivalence", "--n", "4", "--eps", "0.3", "--tau", "uniform", "--mu", "uniform"],
    ["test-product", "--n", "8", "--eps", "0.5", "--mu", "uniform"],
    ["test-interval", "--N", "200", "--eps", "0.3", "--tau", "uniform", "--mu", "uniform"],
    ["sweep", "--n-list", "2,4", "--eps-list", "0.3"],
], ids=["equivalence", "product", "interval", "sweep"])
def test_cli_refuses_the_retired_mode_flag(argv, mode, monkeypatch, tmp_path, capsys):
    """The tester has one execution path, so there is no --mode to pass."""
    _refuse_drivers(monkeypatch, "equivalence", "product", "interval", "scaling-sweep")
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--mode", mode, "--out", str(tmp_path)])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --mode" in capsys.readouterr().err


def test_sweep_has_no_kind_flag(monkeypatch, tmp_path, capsys):
    """A sweep runs the equivalence tester; there is no --kind to choose."""
    _refuse_drivers(monkeypatch, "scaling-sweep")
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", "--kind", "equivalence", "--n-list", "2,4", "--eps-list", "0.3",
              "--out", str(tmp_path)])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --kind" in capsys.readouterr().err


def test_cli_refuses_a_mode_key_in_the_config(monkeypatch, tmp_path, capsys):
    _refuse_drivers(monkeypatch, "equivalence")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "auto"}))
    rc = main(["test-equivalence", "--n", "4", "--eps", "0.3", "--tau", "uniform",
               "--mu", "uniform", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == "error: unrecognized option in config or flags: mode\n"


def _readme_commands():
    """Every ``condtest ...`` command in README's "Command line" block, with
    backslash continuations joined."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("condtest ")]


def test_readme_commands_parse():
    """The README's commands name only existing flags and pass the up-front
    checks; none of them is run."""
    commands = _readme_commands()
    assert len(commands) == 6
    for argv in commands:
        spec_from_args(build_parser().parse_args(argv))


def test_cli_tiny_conditional_does_not_overflow(tmp_path, capsys):
    """mu's conditional 1e-294 gives alpha = 1.7e-307, inside the range where
    SciPy's binom.pmf overflows; the run completes and rejects."""
    mu = tmp_path / "mu.json"
    mu.write_text(json.dumps({"n": 1, "probs": [1.0, 1e-294]}))
    rc = main(["test-equivalence", "--n", "1", "--eps", "0.5", "--tau", "uniform",
               "--mu", str(mu), "--out", str(tmp_path), "--id", "tiny"])
    assert rc == 0
    capsys.readouterr()
    assert (tmp_path / "tiny.csv").read_text().splitlines()[1].split(",")[6] == "reject"

