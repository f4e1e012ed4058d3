"""Wrapper-based layer tracer for the benchmark's traced run.

``install`` replaces the public functions and methods listed in ``TARGETS``
with timing wrappers, everywhere the ``condtest`` modules hold a reference to
them.  Nothing under ``src/`` is edited: the spans are recorded from the
benchmark's side of each layer boundary.

Every call records its duration and its self time (duration minus the time of
the traced calls made inside it).  Ordinary calls become spans with parent
links.  The hot boundaries, called hundreds of thousands of times per
repetition, are aggregated into (count, total, self) per (name, parent name)
instead.  Everything stays in memory until ``dump`` writes it out;
``layer_metrics`` folds a dump into the per-layer figures.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from pathlib import Path

# (layer, module, attribute, hot).  "*.name" means that method on every class
# of the module that defines it.  cli.main is the root span, so the layers'
# self times add up to the wall time of each CLI invocation.
TARGETS = [
    ("harness", "cli", "main", False),
    ("harness", "harness", "run_experiment", False),
    ("harness", "harness", "load_distribution", False),
    ("harness", "harness", "load_interval_pmf", False),
    ("harness", "harness", "summarize", False),
    ("harness", "harness", "emit_plot_data", False),
    ("distcore", "distcore", "DistributionTable.__init__", False),
    ("distcore", "distcore", "DistributionTable.level_sums", True),
    ("distcore", "distcore", "DistributionTable.marginals", False),
    ("distcore", "distcore", "tv_distance", False),
    ("distcore", "distcore", "product_of_marginals", False),
    ("oracles", "oracles", "QueryCounter.add", True),
    ("oracles", "oracles", "*.exact_bit_prob", True),
    ("oracles", "oracles", "*.sample_full_indices_uncounted", True),
    ("testers", "testers", "equivalence_test", False),
    ("testers", "testers", "interval_equivalence_test", False),
    ("testers", "testers", "blackbox_survive_prob", True),
    ("testers", "testers", "chi2_trial_compare_probs", True),
    ("adversarial", "adversarial", "sample_paired_instance", False),
    ("adversarial", "adversarial", "AdversarialInstance.table", False),
    ("adversarial", "adversarial", "distance_to_grid_products", False),
    ("adversarial", "adversarial", "distance_to_product_of_marginals", False),
]

LAYERS = ("harness", "distcore", "oracles", "testers", "adversarial")
TESTER_ENTRY_POINTS = ("testers:equivalence_test", "testers:interval_equivalence_test")


def _levels_and_draws(verdict) -> tuple[int, int]:
    """Levin levels reached and y-draws consumed, from a verdict's trace."""
    levels = draws = 0
    for record in verdict.trace:
        if "t" not in record:
            continue
        levels += 1
        rejected_at = record["rejected_at"]
        draws += record["outer"] if rejected_at is None else rejected_at + 1
    return levels, draws


def _observe_verdict(counters, args, kwargs, result) -> None:
    levels, draws = _levels_and_draws(result)
    counters["levels"] += levels
    counters["draws_used"] += draws


def _observe_pull(counters, args, kwargs, result) -> None:
    counters["draws_pulled"] += kwargs["k"] if "k" in kwargs else args[1]


def _observe_grid(counters, args, kwargs, result) -> None:
    table = args[0]
    step = kwargs.get("step", args[1] if len(args) > 1 else 0.01)
    # Same grid as distance_to_grid_products: {0, step, ..., 1}.
    grid = math.ceil((1.0 + step / 2) / step)
    counters["grid_candidates"] += grid ** table.n


# Keyed by the TARGETS attribute.
_OBSERVERS = {
    "equivalence_test": _observe_verdict,
    "interval_equivalence_test": _observe_verdict,
    "*.sample_full_indices_uncounted": _observe_pull,
    "distance_to_grid_products": _observe_grid,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, parent name, name, start, duration, self)
        self.aggregates: dict[tuple, list] = {}  # (name, parent name) -> [count, total, self]
        self.counters = {"levels": 0, "draws_used": 0, "draws_pulled": 0,
                         "grid_candidates": 0}
        self._stack: list[list] = []  # frames: [name, child seconds, span id]
        self._ids = itertools.count(1)

    def wrap(self, fn, name: str, hot: bool, observe=None):
        stack, spans, aggregates = self._stack, self.spans, self.aggregates
        counters, ids, clock = self.counters, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0, None if hot else next(ids)]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if parent is not None:
                    parent[1] += duration
                parent_name = parent[0] if parent is not None else None
                if hot:
                    record = aggregates.get((name, parent_name))
                    if record is None:
                        record = aggregates[(name, parent_name)] = [0, 0.0, 0.0]
                    record[0] += 1
                    record[1] += duration
                    record[2] += duration - frame[1]
                else:
                    spans.append((frame[2], parent[2] if parent is not None else None,
                                  parent_name, name, start, duration, duration - frame[1]))
            if observe is not None:
                observe(counters, args, kwargs, result)
            return result

        return traced

    def dump(self, path: Path) -> None:
        Path(path).write_text(json.dumps({
            "spans": [dict(zip(("id", "parent", "parent_name", "name", "start",
                                "duration", "self"), span)) for span in self.spans],
            "aggregates": [{"name": name, "parent_name": parent, "count": rec[0],
                            "total": rec[1], "self": rec[2]}
                           for (name, parent), rec in self.aggregates.items()],
            "counters": self.counters,
        }))


def install(tracer: Tracer) -> None:
    """Wrap every target, replacing each module-level reference to it."""
    import condtest
    from condtest import adversarial, cli, distcore, harness, oracles, testers

    modules = {"cli": cli, "harness": harness, "distcore": distcore,
               "oracles": oracles, "testers": testers, "adversarial": adversarial}
    namespaces = [vars(m) for m in (condtest, *modules.values())]
    for layer, module_name, attribute, hot in TARGETS:
        module = modules[module_name]
        observe = _OBSERVERS.get(attribute)
        owner_name, _, attr = attribute.rpartition(".")
        if owner_name == "*":
            owners = [cls for cls in vars(module).values()
                      if isinstance(cls, type) and cls.__module__ == module.__name__
                      and attr in vars(cls)]
        elif owner_name:
            owners = [getattr(module, owner_name)]
        else:
            original = getattr(module, attr)
            wrapped = tracer.wrap(original, f"{layer}:{attr}", hot, observe)
            for namespace in namespaces:
                for key, value in list(namespace.items()):
                    if value is original:
                        namespace[key] = wrapped
            continue
        for cls in owners:
            setattr(cls, attr, tracer.wrap(vars(cls)[attr],
                                           f"{layer}:{cls.__name__}.{attr}", hot, observe))


def layer_metrics(dump: dict, units: int, wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer figures per work unit, from a dump of a run that completed
    ``units`` work units in ``wall_s`` traced seconds."""
    calls = dump["spans"] + dump["aggregates"]

    def layer(name):
        return name.split(":", 1)[0] if name else None

    def inclusive(call):
        return call["total"] if "total" in call else call["duration"]

    def total(predicate):
        return sum(inclusive(c) for c in calls if predicate(c["name"]))

    def count(predicate):
        return sum(c.get("count", 1) for c in calls if predicate(c["name"]))

    self_s = {name: 0.0 for name in LAYERS}
    for c in calls:
        self_s[layer(c["name"])] += c["self"]
    outermost_distcore = sum(
        inclusive(c) for c in calls
        if layer(c["name"]) == "distcore" and layer(c["parent_name"]) != "distcore")

    counters = dump["counters"]
    survive_calls = count(lambda n: n == "testers:blackbox_survive_prob")
    misses = count(lambda n: n == "testers:chi2_trial_compare_probs")
    pulled = counters["draws_pulled"]
    attributed = sum(self_s.values())
    per = 1.0 / units
    metrics = {f"{name}.self_s": (v * per, "s/unit") for name, v in self_s.items()}
    metrics.update({
        "harness.load_s": (total(lambda n: n.startswith("harness:load_")) * per, "s/unit"),
        "harness.emit_s": (total(lambda n: n in ("harness:summarize",
                                                 "harness:emit_plot_data")) * per, "s/unit"),
        "distcore.table_s": (outermost_distcore * per, "s/unit"),
        "oracles.meter_adds": (count(lambda n: n == "oracles:QueryCounter.add") * per,
                               "count/unit"),
        "oracles.meter_s": (total(lambda n: n == "oracles:QueryCounter.add") * per, "s/unit"),
        "oracles.exact_prob_calls": (count(lambda n: n.endswith(".exact_bit_prob")) * per,
                                     "count/unit"),
        "oracles.exact_prob_s": (total(lambda n: n.endswith(".exact_bit_prob")) * per,
                                 "s/unit"),
        "oracles.draws_pulled": (pulled * per, "count/unit"),
        "testers.loop_self_s": (sum(c["self"] for c in calls
                                    if c["name"] in TESTER_ENTRY_POINTS) * per, "s/unit"),
        "testers.calculus_s": (total(lambda n: n == "testers:blackbox_survive_prob") * per,
                               "s/unit"),
        "testers.survive_calls": (survive_calls * per, "count/unit"),
        "testers.calculus_misses": (misses * per, "count/unit"),
        "testers.calculus_hit_ratio": (1.0 - misses / survive_calls if survive_calls else 0.0,
                                       "ratio"),
        "testers.draws_used": (counters["draws_used"] * per, "count/unit"),
        "testers.draw_use_ratio": (counters["draws_used"] / pulled if pulled else 0.0,
                                   "ratio"),
        "testers.levels": (counters["levels"] * per, "count/unit"),
        "adversarial.grid_s": (total(lambda n: n == "adversarial:distance_to_grid_products")
                               * per, "s/unit"),
        "adversarial.grid_candidates": (counters["grid_candidates"] * per, "count/unit"),
        "trace.wall_s": (wall_s * per, "s/unit"),
        "trace.unattributed_share": (1.0 - attributed / wall_s, "ratio"),
    })
    return metrics
