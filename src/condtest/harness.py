"""Experiment harness: seeded repetition driver, aggregate statistics, and
plot-ready CSV/JSON emission.

Replay contract: a spec plus master seed determines every byte of the CSV
output.  Per-repetition RNG streams are spawned from the master seed with
``numpy``'s SeedSequence, so repetitions are order-independent; wall-clock
time is reported only in the JSON summary, never in the CSV.

Each experiment kind is one entry of ``KINDS``: its CLI subcommand, the spec
fields it reads, its driver, CSV columns and summary fold, and whether it
holds dense 2^n tables.  Rows are plain dicts of the kind's columns;
``summarize(kind, rows)`` and ``emit_plot_data(kind, rows)`` take the kind
from ``run_experiment``, and ``rate_lower_bound(successes, trials)`` bounds
the summaries' rates at ``CONFIDENCE``.  Adding a kind means writing its
driver and adding its entry; the spec checks, ``summarize``,
``emit_plot_data`` and the CLI read everything else from the table.  Each spec field states its default,
value rule and CLI flag once, in ``ExperimentSpec`` (see ``FIELDS``).

A shorthand distribution source (``uniform``, ``point:...``,
``bernoulli:...``, ``block:a,b``) is resolved once per process for each
distinct (source, size): ``_shorthand_memo`` keeps the table, with the level
sums, node array and cdf it derives (about 32 MB at n = 20), or the pmf, for
at most ``SHORTHAND_MEMO_CAP`` sources, least recently used first out, and
``_shorthand_memo.cache_clear()`` empties it.  A file source is read anew on
every call.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import numbers
import os
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import adversarial, distcore, oracles, testers
from .distcore import is_number

# The one-sided confidence of every rate bound in a summary (its *_lb99 keys).
CONFIDENCE = 0.99
CONFIDENCE_METHOD = f"clopper-pearson one-sided {CONFIDENCE}"


class HarnessError(Exception):
    pass


# ----------------------------------------------------------------------
# spec fields


class _Field(NamedTuple):
    """A spec field's rule and, if a subcommand offers it, its flag, argparse type and help."""
    rule: Callable[[str, object, str], object]  # (name, value, kind) -> the value held
    flag: str | None = None
    type: Callable | None = None
    help: str | None = None


def _spec(default, *rule_and_flag):
    """An ExperimentSpec field: its default and, as metadata, its _Field."""
    return field(default=default, metadata={"spec": _Field(*rule_and_flag)})


def _value(must: str, accepts: Callable[[object, str], bool], label: str | None = None):
    """The rule that keeps a value for which ``accepts(value, kind)`` holds;
    of any other, its error says the field (or ``label``) "must <must>"."""
    def rule(name, value, kind):
        if not accepts(value, kind):
            raise HarnessError(f"{label or name} must {must}, got {value!r}")
        return value
    return rule


def _integer(lo: int, top: Callable[[str], float] | None = None):
    """The rule: an integer >= lo and, if ``top`` is given, <= top(kind)."""
    def rule(name, value, kind):
        hi = math.inf if top is None else top(kind)
        if not (is_number(value, numbers.Integral) and lo <= value <= hi):
            must = f">= {lo}" if top is None else f"in [{lo}, {hi}]"
            raise HarnessError(f"{name} must be an integer {must}, got {value!r}")
        return value
    return rule


def _comma_list(item: str):
    """The rule: a list, or a comma-separated string cast by field ``item``'s
    flag type, held as a tuple whose entries each meet ``item``'s rule."""
    def rule(name, value, kind):
        label = name.replace("_", "-")
        if isinstance(value, str):
            try:
                value = [FIELDS[item].type(x) for x in value.split(",")]
            except ValueError:
                raise HarnessError(f"bad {label} {value!r}") from None
        elif not isinstance(value, (list, tuple)):
            raise HarnessError(f"{label} must be a comma-separated string or a list, got {value!r}")
        return tuple(FIELDS[item].rule(item, x, kind) for x in value)
    return rule


# Dense kinds hold 2^n cells: refuse n before anything is built.  A paired
# instance's cost is linear in n (``adversarial.MAX_PAIRED_N``).
_n = _integer(1, lambda kind: distcore.MAX_DENSE_N if KINDS[kind].dense
              else adversarial.MAX_PAIRED_N)
# The interval tester pads [N] to 2^ceil(log2 N) cells: a dense table's budget.
_N = _integer(1, lambda kind: 2 ** distcore.MAX_DENSE_N if kind == "interval" else math.inf)
# The single-bit chi-square test also takes eps = 1.
_eps = _value("lie in (0, 1)", lambda v, kind: is_number(v) and (
    0.0 < v < 1.0 or kind == "single-bit" and v == 1.0))
_probability = _value("lie in [0, 1]", lambda v, kind: is_number(v) and 0.0 <= v <= 1.0)
_source = _value("be a file or shorthand", lambda v, kind: isinstance(v, str))
_directory = _value("be a non-empty string", lambda v, kind: isinstance(v, str) and v != "")
# The id names the files <id>.csv and <id>.json inside the output directory.
_name = _value("be a non-empty name with no path separator", lambda v, kind: (
    isinstance(v, str) and v != "" and "/" not in v and os.sep not in v))


# The most repetitions one call runs: --runs, times a sweep's (n, eps) points.
# Each repetition's row is kept until the call ends, about 1 KB of RSS (an
# n = 1 self-test peaks at 48 MiB at 10,000 runs and 139 MiB at 100,000), so
# the rows of 2^20 repetitions take about 1 GiB.
MAX_REPETITIONS = 1 << 20


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment.  Each field but kind states its default and its _Field
    (``FIELDS``); a field that is set must pass its rule, and the call's
    repetitions must not exceed ``MAX_REPETITIONS``.  Frozen, so every
    value it holds has passed: ``dataclasses.replace`` checks anew."""
    kind: str
    n: int | None = _spec(None, _n, "--n", int, "dimension: the domain is {0,1}^n")
    eps: float | None = _spec(None, _eps, "--eps", float, "distance parameter")
    N: int | None = _spec(None, _N, "--N", int, "domain size: the domain is [N]")
    runs: int = _spec(1, _integer(1), "--runs", int)
    seed: int = _spec(0, _integer(0), "--seed", int)
    tau: str | None = _spec(None, _source, "--tau", str, "distribution source (file or shorthand)")
    mu: str | None = _spec(None, _source, "--mu", str, "distribution source (file or shorthand)")
    p: float | None = _spec(None, _probability)
    q: float | None = _spec(None, _probability)
    grid_step: float = _spec(0.01, _value("be a number", lambda v, kind: is_number(v), "grid step"),
                             "--grid-step", float, "grid step 1/k of the product search")
    n_list: tuple = _spec((), _comma_list("n"), "--n-list", str,
                          "comma-separated dimensions, e.g. 4,8,16")
    eps_list: tuple = _spec((), _comma_list("eps"), "--eps-list", str,
                            "comma-separated distances, e.g. 0.3,0.5")
    out: str | None = _spec(None, _directory, "--out", None,
                            "output directory (default: $CONDTEST_OUT_DIR or ./condtest-out)")
    experiment_id: str | None = _spec(None, _name, "--id")

    def __post_init__(self):
        if self.kind not in KINDS:
            raise HarnessError(f"unknown experiment kind {self.kind!r}; "
                               f"expected one of {tuple(KINDS)}")
        for name, spec_field in FIELDS.items():
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, spec_field.rule(name, value, self.kind))
        points = len(self.n_list) * len(self.eps_list) if self.kind == "scaling-sweep" else 1
        if self.runs * points > MAX_REPETITIONS:
            raise HarnessError(f"repetitions (runs, times a sweep's (n, eps) points) must be "
                               f"at most {MAX_REPETITIONS}, got {self.runs * points}")
        if self.experiment_id is None:
            object.__setattr__(self, "experiment_id", f"{self.kind}-seed{self.seed}")


FIELDS: dict[str, _Field] = {f.name: f.metadata["spec"] for f in fields(ExperimentSpec)
                             if f.name != "kind"}


# ----------------------------------------------------------------------
# distribution sources


def read_json_object(path: str, what: str) -> dict:
    """The object the JSON file at ``path`` holds, parsed once; a file that
    cannot be read or holds no JSON object raises HarnessError."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError) as err:  # ValueError: not JSON
        raise HarnessError(f"cannot read {what} file {path}: {err}") from None
    if not isinstance(payload, dict):
        raise HarnessError(f"{what} file {path} must hold a JSON object")
    return payload


def load_distribution(source: str, n: int | None = None) -> distcore.DistributionTable:
    """Resolve a binary-domain distribution source.

    Accepts the shorthands ``uniform`` (requires n), ``point:<bitstring>``,
    ``bernoulli:<p>`` (repeated n times) or ``bernoulli:p1,p2,...``, each
    resolved once per process (``_shorthand_memo``), or a path to a JSON file
    holding exactly one of a dense table ("probs"), a conditional tree
    ("tree") or a paired-bias instance ("biases"), read on every call.  With
    ``n`` given, a source of another dimension raises HarnessError.
    """
    if source == "uniform" or source.startswith(("point:", "bernoulli:")):
        table = _shorthand_memo(_distribution_shorthand, source, n)
    else:
        table = _distribution_file(source)
    if n is not None and table.n != n:
        raise HarnessError(f"distribution source {source!r} has n={table.n}, expected n={n}")
    return table


def _distribution_shorthand(source: str, n: int | None) -> distcore.DistributionTable:
    if source == "uniform":
        if n is None:
            raise HarnessError("'uniform' needs an explicit n")
        return distcore.DistributionTable.uniform(n)
    if source.startswith("point:"):
        spec = source[len("point:"):]
        if not spec or any(c not in "01" for c in spec):
            raise HarnessError(f"bad point-mass spec {source!r}")
        bits = [int(c) for c in spec]
        return distcore.DistributionTable.point_mass(bits)
    try:
        ps = [float(x) for x in source[len("bernoulli:"):].split(",")]
    except ValueError:
        raise HarnessError(f"bad Bernoulli spec {source!r}; expected "
                           "bernoulli:p or bernoulli:p1,p2,...") from None
    if len(ps) == 1 and n is not None:
        ps = ps * n
    return distcore.DistributionTable.bernoulli_product(ps)


def _distribution_file(source: str) -> distcore.DistributionTable:
    if not Path(source).exists():
        raise HarnessError(f"distribution source {source!r} is neither a "
                           "shorthand nor an existing file")
    payload = read_json_object(source, "distribution")
    forms = [key for key in ("probs", "tree", "biases") if key in payload]
    if len(forms) != 1:
        raise HarnessError(f"distribution file {source} must hold exactly one of 'probs', "
                           f"'tree' and 'biases', found {', '.join(map(repr, forms)) or 'none'}")
    if "biases" in payload:
        return adversarial.AdversarialInstance.from_dict(payload).table()
    return distcore.DistributionTable.from_dict(payload)


def load_interval_pmf(source: str, N: int) -> np.ndarray:
    """Resolve a pmf over [N]: ``uniform`` or ``block:a,b`` (uniform on the
    sub-range [a, b]), each a read-only array resolved once per process
    (``_shorthand_memo``), or a JSON file with a "pmf" array, read on every
    call."""
    if source == "uniform" or source.startswith("block:"):
        return _shorthand_memo(_pmf_shorthand, source, N)
    if not Path(source).exists():
        raise HarnessError(f"pmf source {source!r} is neither a shorthand "
                           "nor an existing file")
    payload = read_json_object(source, "pmf")
    pmf = distcore.json_array(payload.get("pmf"),
                              f"pmf file {source} needs a \"pmf\" list of numbers")
    if pmf.shape != (N,):
        raise HarnessError(f"pmf has shape {pmf.shape}, expected ({N},)")
    return pmf


def _pmf_shorthand(source: str, N: int) -> np.ndarray:
    if source == "uniform":
        pmf = np.full(N, 1.0 / N)
    else:
        try:
            a, b = (int(x) for x in source[len("block:"):].split(","))
        except ValueError:  # not two integers
            raise HarnessError(f"bad block spec {source!r}; expected block:a,b") from None
        if not 1 <= a <= b <= N:
            raise HarnessError(f"bad block [{a}, {b}] for N={N}")
        pmf = np.zeros(N)
        pmf[a - 1:b] = 1.0 / (b - a + 1)
    pmf.setflags(write=False)  # shared by every later call
    return pmf


# The most shorthand sources one process keeps resolved.  An entry keeps a
# table and what it derives (cells, level sums, node array and cdf: about
# 32 MB at n = 20) or a pmf over [N] (8 MB at N = 2^20), so four hold the tau
# and mu of two calls and at most about 128 MB.
SHORTHAND_MEMO_CAP = 4


@functools.lru_cache(maxsize=SHORTHAND_MEMO_CAP)
def _shorthand_memo(read, source: str, size: int | None):
    """``read(source, size)``, once per process for each distinct key; an
    error is raised again on every call, since lru_cache keeps no exception.
    ``cache_info()`` gives its hits and misses."""
    return read(source, size)


# ----------------------------------------------------------------------
# statistics


def rate_lower_bound(successes, trials):
    """One-sided Clopper-Pearson lower bound on a binomial rate at
    ``CONFIDENCE`` = 0.99: the 0.01 quantile of Beta(successes, trials -
    successes + 1), which is the rate x at which Pr[Bin(trials, x) >=
    successes] reaches 0.01.  0 for no successes and 0.01^(1 / trials) for
    all of them, where that tail is x^trials.  Otherwise a search on the
    tail (``testers._binom_tails``) cuts [0, 1] into 16 parts 13 times, a
    bisection of 52 halvings; each cut compares the upper tail, the side
    that is the smaller at the quantile, so that it keeps its relative
    precision, and the midpoint of the last part, 2^-52 wide, is the bound.
    Checked within 1e-15 of the exact quantile for every trials <= 60.
    ``successes`` and ``trials`` may be arrays of one shape, giving an
    array."""
    successes, trials = np.broadcast_arrays(np.asarray(successes), np.asarray(trials))
    shape = successes.shape
    # 1-D throughout, so a scalar takes the array arithmetic of a batch
    successes, trials = successes.ravel(), trials.ravel()
    if not ((0 <= successes) & (successes <= trials)).all():
        raise HarnessError("successes out of range")
    bound = np.where(successes == 0, 0.0, np.power(1.0 - CONFIDENCE, 1.0 / np.maximum(trials, 1)))
    search = (successes > 0) & (successes < trials)
    if search.any():
        k, n = successes[search][:, None], trials[search][:, None]
        lo, hi = np.zeros(k.shape), np.ones(k.shape)
        for _ in range(13):
            step = (hi - lo) / 16.0
            above = testers._binom_tails(k, n, lo + step * np.arange(1.0, 16.0))[1]
            # the cut points short of the quantile come first
            cuts = (above < 1.0 - CONFIDENCE).sum(axis=1, keepdims=True)
            lo, hi = lo + step * cuts, lo + step * (cuts + 1)
        bound[search] = (0.5 * (lo + hi))[:, 0]
    return float(bound[0]) if not shape else bound.reshape(shape)


def _fmt(value) -> str:
    if value is None:  # a field the kind does not set
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


# ----------------------------------------------------------------------
# per-kind drivers


def _repeat(spec: ExperimentSpec, row_of) -> list[dict]:
    """One row per repetition: rep's row is ``row_of(rep, child)``, on its
    stream, the rep-th SeedSequence child of the seed.  Each child is spawned
    when its rep starts; the children are those of one ``spawn(spec.runs)``."""
    parent = np.random.SeedSequence(spec.seed)
    return [row_of(rep, parent.spawn(1)[0]) for rep in range(spec.runs)]


def _repeat_verdicts(spec: ExperimentSpec, n, verdict_of) -> list[dict]:
    """One verdict row per repetition: repetition rep's verdict is
    ``verdict_of(child)`` on its stream (``_repeat``); ``n`` fills the size
    column."""
    def row_of(rep, child):
        verdict = verdict_of(child)
        q = verdict.queries_used
        return dict(zip(_VERDICT_HEADER, (
            spec.experiment_id, spec.kind, rep, f"{spec.seed}/{rep}", n, spec.eps,
            verdict.decision, *(q.get(cls.value, 0) for cls in oracles.QueryClass),
            q.get("total", 0))))
    return _repeat(spec, row_of)


def _run_two_sources(spec: ExperimentSpec, size, load, oracle, test) -> list[dict]:
    """``test`` of tau against mu, sources of ``size`` that ``load`` reads and
    ``oracle`` serves.  A self-test loads its source once for both oracles,
    and every rep shares what was loaded: a table's level sums, conditionals
    and cdf are built on its first use, once per process for a shorthand
    and once per call for a file, but each interval view lays out its own
    padded table of the shared pmf."""
    tau = load(spec.tau, size)
    mu = tau if spec.mu == spec.tau else load(spec.mu, size)

    def verdict_of(child):
        s_tau, s_mu, s_test = child.spawn(3)
        return test(oracle(tau, seed=s_tau), oracle(mu, seed=s_mu), spec.eps, seed=s_test)
    return _repeat_verdicts(spec, size, verdict_of)


def _run_equivalence(spec: ExperimentSpec) -> list[dict]:
    return _run_two_sources(spec, spec.n, load_distribution, oracles.TableOracle,
                            testers.equivalence_test)


def _run_product(spec: ExperimentSpec) -> list[dict]:
    mu_table = load_distribution(spec.mu, spec.n)

    def verdict_of(child):
        s_mu, s_test = child.spawn(2)
        return testers.product_test(oracles.TableOracle(mu_table, seed=s_mu), spec.eps,
                                    seed=s_test)
    return _repeat_verdicts(spec, spec.n, verdict_of)


def _run_interval(spec: ExperimentSpec) -> list[dict]:
    return _run_two_sources(spec, spec.N, load_interval_pmf, oracles.IntervalOracle,
                            testers.interval_equivalence_test)


def _run_single_bit(spec: ExperimentSpec) -> list[dict]:
    def verdict_of(child):
        rng = np.random.default_rng(child)
        return testers.single_bit_chi2_test(testers.BitSampler.from_probability(spec.p, rng),
                                            testers.BitSampler.from_probability(spec.q, rng),
                                            spec.eps)
    return _repeat_verdicts(spec, spec.n, verdict_of)


def _run_inequality_grid(spec: ExperimentSpec) -> list[dict]:
    p, q = np.meshgrid(np.arange(101) / 100.0, np.arange(1, 100) / 100.0, indexing="ij")
    chi2 = distcore.single_bit_divergence(distcore.DivergenceKind.CHI2, p, q)
    kl = distcore.single_bit_divergence(distcore.DivergenceKind.KL, p, q)
    bound = kl / (12.0 * np.log2(np.maximum(1.0 / q, 1.0 / (1.0 - q))))
    columns = (p, q, chi2, bound, chi2 < bound - 1e-12)
    return [{"p": pv, "q": qv, "chi2": c, "kl_bound": b, "violation": int(v)}
            for pv, qv, c, b, v in zip(*(column.ravel().tolist() for column in columns))]


def _run_adversarial_distance(spec: ExperimentSpec) -> list[dict]:
    def row_of(rep, child):
        inst = adversarial.sample_paired_instance(spec.n, spec.eps, np.random.default_rng(child))
        grid, dtv_pom = adversarial.instance_distances(inst, spec.grid_step)
        return {
            "rep": rep, "n": spec.n, "eps": spec.eps,
            "biases": "".join("+" if b > 0 else "-" for b in inst.biases),
            "method": grid.method, "grid_step": grid.step,
            "grid_distance": grid.distance,
            "dtv_product_of_marginals": dtv_pom,
        }
    return _repeat(spec, row_of)


def _run_scaling_sweep(spec: ExperimentSpec) -> list[dict]:
    rows = []
    for n in spec.n_list:
        for eps in spec.eps_list:
            # the uniform self-test at (n, eps), on the sweep's seed and runs
            self_test = replace(spec, n=n, eps=eps, tau="uniform", mu="uniform")
            totals = [row["total_queries"] for row in _run_equivalence(self_test)]
            rows.append({
                "n": n, "eps": eps, "runs": spec.runs,
                "median_queries": float(np.median(totals)),
                "p25": float(np.percentile(totals, 25)),
                "p75": float(np.percentile(totals, 75)),
            })
    return rows


def _verdict_summary(rows: list[dict]) -> dict:
    accepts = sum(1 for r in rows if r["verdict"] == "accept")
    total = len(rows)
    return {
        "accepts": accepts,
        "rejects": total - accepts,
        "accept_rate": accepts / total,
        "accept_rate_lb99": rate_lower_bound(accepts, total),
        "reject_rate_lb99": rate_lower_bound(total - accepts, total),
        "median_total_queries": float(np.median([r["total_queries"] for r in rows])),
    }


@dataclass(frozen=True)
class _Kind:
    command: str | None  # CLI subcommand; None for a kind run from Python only
    help: str | None
    fields: tuple  # the ExperimentSpec fields it reads; run_experiment needs each set
    run: Callable[[ExperimentSpec], list]  # the driver: spec -> rows
    columns: tuple  # CSV header, in order
    summary: Callable[[list], dict]  # rows -> the summary's kind-specific entries
    dense: bool = False  # holds 2^n-cell tables, so n <= distcore.MAX_DENSE_N

    @property
    def options(self) -> tuple:
        """The spec fields a spec of this kind may set, which are also its
        CLI flags: its own, then those every kind takes."""
        return self.fields + ("seed", "out", "experiment_id")


# the columns of a verdict row; one per query class, in QueryClass order
_VERDICT_HEADER = ("experiment_id", "kind", "rep", "seed", "n", "eps", "verdict",
                   *(cls.value for cls in oracles.QueryClass), "total_queries")

KINDS: dict[str, _Kind] = {
    "equivalence": _Kind(
        "test-equivalence", "equivalence tester accept/reject experiment",
        ("n", "eps", "tau", "mu", "runs"), _run_equivalence, _VERDICT_HEADER, _verdict_summary,
        dense=True),
    "product": _Kind(
        "test-product", "product tester experiment",
        ("n", "eps", "mu", "runs"), _run_product, _VERDICT_HEADER, _verdict_summary, dense=True),
    "interval": _Kind(
        "test-interval", "interval-oracle equivalence experiment",
        ("N", "eps", "tau", "mu", "runs"), _run_interval, _VERDICT_HEADER, _verdict_summary),
    "single-bit": _Kind(
        None, None, ("p", "q", "eps", "runs"), _run_single_bit, _VERDICT_HEADER, _verdict_summary),
    "inequality-grid": _Kind(
        "check-inequalities", "chi-square vs KL divergence grid check",
        (), _run_inequality_grid, ("p", "q", "chi2", "kl_bound", "violation"),
        lambda rows: {"violations": int(sum(r["violation"] for r in rows))}),
    "adversarial-distance": _Kind(
        "adversarial-distance", "distance of paired-bias instances to product distributions",
        ("n", "eps", "grid_step", "runs"), _run_adversarial_distance,
        ("rep", "n", "eps", "biases", "method", "grid_step", "grid_distance",
         "dtv_product_of_marginals"),
        lambda rows: {"min_grid_distance": min(r["grid_distance"] for r in rows)}),
    "scaling-sweep": _Kind(
        "sweep", "query-count scaling sweep",
        ("n_list", "eps_list", "runs"), _run_scaling_sweep,
        ("n", "eps", "runs", "median_queries", "p25", "p75"), lambda rows: {}, dense=True),
}


# ----------------------------------------------------------------------
# aggregation and emission


def summarize(kind: str, rows: list[dict]) -> dict:
    """Pure fold over a run's rows of ``kind``; recomputable from the
    emitted CSV."""
    if not rows:
        return {"rows": 0}
    return {"kind": kind, "rows": len(rows), "confidence_method": CONFIDENCE_METHOD,
            **KINDS[kind].summary(rows)}


def emit_plot_data(kind: str, rows: list[dict]) -> str:
    """Render a run's rows of ``kind`` as CSV text with the kind's frozen
    column schema; no rows give the header alone.  An unset value (None)
    is an empty cell.  Deterministic: identical rows give identical bytes.
    """
    columns = KINDS[kind].columns
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row[c]) for c in columns])
    return buf.getvalue()


def out_dir(spec: ExperimentSpec) -> Path:
    """The directory run_experiment writes into: ``spec.out``, else
    $CONDTEST_OUT_DIR, else ./condtest-out."""
    return Path(spec.out or os.environ.get("CONDTEST_OUT_DIR", "condtest-out"))


def run_experiment(spec: ExperimentSpec, write: bool = True):
    """Execute a spec: repetition rows, aggregate summary, optional emission.

    A spec that leaves one of its kind's fields unset, or sets a field its
    kind does not take (one outside ``KINDS[kind].options`` whose value is
    not its default), raises HarnessError before anything runs.
    Returns (rows, summary).  With ``write``, creates the output directory
    (``out_dir``) before the run and then writes <id>.csv (replay-stable) and
    <id>.json (summary plus wall time and the spec) into it; a directory
    that cannot be created or written raises HarnessError naming it."""
    kind = KINDS[spec.kind]
    unset = [name for name in kind.fields if getattr(spec, name) in (None, ())]
    if unset:
        raise HarnessError(f"{spec.kind} needs {', '.join(kind.fields)}; "
                           f"unset: {', '.join(unset)}")
    foreign = sorted(f.name for f in fields(spec) if f.name not in ("kind", *kind.options)
                     and getattr(spec, f.name) != f.default)
    if foreign:
        raise HarnessError(f"unrecognized option for {spec.kind}: {', '.join(foreign)}")
    directory = out_dir(spec)
    if write:
        try:
            directory.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            raise HarnessError(f"cannot create output directory {directory}: {err}") from None
    start = time.perf_counter()
    rows = kind.run(spec)
    wall = time.perf_counter() - start
    summary = summarize(spec.kind, rows)
    summary["wall_time_s"] = wall
    if write:
        payload = {"spec": vars(spec), "summary": summary}
        try:
            (directory / f"{spec.experiment_id}.csv").write_text(emit_plot_data(spec.kind, rows))
            (directory / f"{spec.experiment_id}.json").write_text(
                json.dumps(payload, indent=2, default=str) + "\n")
        except OSError as err:
            raise HarnessError(f"cannot write into output directory {directory}: {err}") from None
    return rows, summary
