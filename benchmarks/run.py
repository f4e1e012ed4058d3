"""condtest benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all [--seed N] [--seconds S]
    python3 benchmarks/run.py --workload NAME|all --update-pins

Run it from the root of a checkout.  The benchmark writes its inputs from
``--seed`` into a temporary directory under ``.bench_tmp/``, then runs the
``condtest`` CLI (``cli.main``) once per unit in a fresh child interpreter
(``worker.py``) until ``--seconds`` reference seconds of work are measured
(``calibrate.py``).

``--trace 0`` reports the end-to-end metrics: work units per second, set-up
time (median of three interpreter starts to ``condtest.cli`` imported) and the
child's peak RSS.  ``--trace 1`` runs the same units under the layer tracer
(``tracer.py``), replays them untraced in a second child to measure the
tracing overhead and to compare CSV bytes, and reports per-layer metrics per
work unit.  Either way every unit's CSV is checked (``checks.py``); the last
line of standard output is the JSON result.  ``--workload all`` runs every
workload both ways.  ``--update-pins`` rewrites ``pins.json``, the CSV sha256
of the first units of each workload at seed 0.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import inputs
import tracer as layer_tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
CALIBRATOR = HERE / "calibrate.py"
PINS = HERE / "pins.json"
PIN_SEED = 0
SETUP_SAMPLES = 3
RUN_DEADLINE_S = 170.0
PIN_DEADLINE_S = 600.0
RANDOM_TABLES = 64


class BenchmarkError(Exception):
    pass


@dataclass(frozen=True)
class Workload:
    command: tuple[str, ...]
    work_unit: str
    check: dict
    max_units: int
    pin_units: int


WORKLOADS = {
    "equiv-uniform-n16": Workload(
        ("test-equivalence", "--n", "16", "--eps", "0.3", "--tau", "uniform",
         "--mu", "uniform"),
        "tester repetition", {"kind": "verdict", "n": 16, "eps": 0.3, "meter_copies": 1},
        max_units=2000, pin_units=24),
    # eps 0.5 rather than 0.3: a table takes about 2.5 s instead of 9 s, so a
    # run averages over about eight tables rather than two or three.
    "equiv-random-n8": Workload(
        ("test-equivalence", "--n", "8", "--eps", "0.5", "--tau", "{table}",
         "--mu", "{table}"),
        "tester repetition", {"kind": "verdict", "n": 8, "eps": 0.5, "meter_copies": 1},
        max_units=RANDOM_TABLES, pin_units=12),
    # [200] is padded to [256]: 8 bits, and every query is metered twice, on
    # the interval-backed prefix view and on the interval oracle under it.
    "interval-near-reject": Workload(
        ("test-interval", "--N", str(inputs.INTERVAL_N), "--eps", "0.3",
         "--tau", "{tau}", "--mu", "{mu}"),
        "tester repetition", {"kind": "verdict", "n": 8, "eps": 0.3, "meter_copies": 2},
        max_units=5000, pin_units=60),
    "adversarial-grid-n4": Workload(
        ("adversarial-distance", "--n", "4", "--eps", "0.2", "--grid-step", "0.02"),
        "searched table", {"kind": "adversarial"},
        max_units=500, pin_units=32),
}


def _write_inputs(name: str, seed: int, in_dir: Path) -> tuple[dict, list[str], list[dict]]:
    """Path substitutions, per-unit tables and the manifest for one run."""
    if name == "equiv-random-n8":
        entries = inputs.random_tables(seed, RANDOM_TABLES, in_dir)
        return {}, [e["tau"] for e in entries], entries
    if name == "interval-near-reject":
        pair = inputs.interval_pair(seed, in_dir)
        return {"{tau}": pair["tau"], "{mu}": pair["mu"]}, [], [pair]
    return {}, [], []


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    for pipe in (proc.stdin, proc.stdout):
        if pipe is not None:
            pipe.close()


class BenchRun:
    """One benchmark run's temporary directory, child environment and
    calibration process (``calibrate.py``).  A watchdog kills every child
    still running at the deadline, which ends any read from it."""

    def __init__(self, prefix: str, deadline_s: float):
        tmp_root = ROOT / ".bench_tmp"
        tmp_root.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{prefix}-", dir=tmp_root))
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                        MKL_NUM_THREADS="1", PYTHONHASHSEED="0", TMPDIR=str(self.tmp),
                        CONDTEST_OUT_DIR=str(self.tmp / "out"))
        self._children: list[subprocess.Popen] = []
        self._lock = threading.Lock()
        self._expired = False
        self._watchdog = threading.Timer(deadline_s, self._expire)
        self._calibrator = None

    def _expire(self) -> None:
        with self._lock:
            self._expired = True
            for proc in self._children:
                if proc.poll() is None:
                    proc.kill()

    def _start(self, args: list[str]) -> subprocess.Popen:
        with self._lock:
            if self._expired:
                raise BenchmarkError("the run ran past its deadline")
            proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=self.env,
                                    stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                    text=True)
            self._children.append(proc)
        return proc

    def _read_line(self, proc: subprocess.Popen, what: str) -> str:
        line = proc.stdout.readline()
        if self._expired:
            raise BenchmarkError(f"{what} ran past the run deadline")
        return line

    def __enter__(self) -> "BenchRun":
        self._watchdog.start()
        self._calibrator = self._start([str(CALIBRATOR)])
        self.speed()  # waits for its imports and warms the kernel up
        return self

    def __exit__(self, *exc) -> None:
        self._watchdog.cancel()
        self._watchdog.join()
        for proc in self._children:
            _stop(proc)
        shutil.rmtree(self.tmp, ignore_errors=True)

    def speed(self) -> float:
        """The machine's speed factor now, from the calibration process."""
        try:
            self._calibrator.stdin.write("\n")
            self._calibrator.stdin.flush()
        except OSError as err:
            raise BenchmarkError(f"calibrator failed: {err}") from None
        line = self._read_line(self._calibrator, "calibrator")
        if not line:
            raise BenchmarkError("calibrator exited")
        return float(line)

    def spawn(self, args: list[str]) -> float:
        """Run the worker to completion, answering its calibration requests;
        return the raw seconds from its start to its ``ready`` line."""
        start = time.perf_counter()
        proc = self._start([str(WORKER), *args])
        try:
            line = self._read_line(proc, "worker")
            ready = time.perf_counter() - start
            if line.strip() != "ready":
                raise BenchmarkError("worker failed before importing condtest.cli")
            while line := self._read_line(proc, "worker"):
                if line.strip() != "calibrate":
                    raise BenchmarkError(f"unexpected worker output {line!r}")
                proc.stdin.write(f"{self.speed()!r}\n")
                proc.stdin.flush()
            proc.wait()
        except OSError as err:
            raise BenchmarkError(f"worker failed: {err}") from None
        finally:
            _stop(proc)
        if proc.returncode != 0:
            raise BenchmarkError(f"worker exited with code {proc.returncode}")
        return ready

    def measure(self, job: dict, tag: str) -> tuple[dict, float]:
        """Run one job; return its result and the worker's raw set-up seconds."""
        job_path, result_path = self.tmp / f"job-{tag}.json", self.tmp / f"result-{tag}.json"
        job_path.write_text(json.dumps(job))
        ready = self.spawn([str(job_path), str(result_path)])
        return json.loads(result_path.read_text()), ready

    def job(self, name: str, seed: int, seconds, max_units=None, pins=(),
            trace_path=None) -> dict:
        workload = WORKLOADS[name]
        in_dir = self.tmp / "inputs"
        in_dir.mkdir(exist_ok=True)
        paths, tables, manifest = _write_inputs(name, seed, in_dir)
        out_dir = self.tmp / "out"
        argv = [paths.get(a, a) for a in workload.command]
        argv += ["--runs", "1", "--seed", "{seed}", "--id", "{id}", "--out", str(out_dir)]
        return {
            "argv": argv, "seed_base": seed * 100_000, "tables": tables,
            "max_units": max_units or workload.max_units,
            "seconds": seconds, "out_dir": str(out_dir),
            "trace_path": str(trace_path) if trace_path else None,
            "check": {"rows": 1, **workload.check}, "pins": list(pins),
            "manifest": manifest,
        }


def _load_pins(name: str, seed: int) -> list[str]:
    if seed != PIN_SEED or not PINS.exists():
        return []
    return json.loads(PINS.read_text()).get(name, [])


def _hygiene_errors(result: dict) -> list[str]:
    threads = result["threads"]
    if threads is not None and threads != 1:
        return [f"worker ran {threads} OS threads, expected 1"]
    return []


def _work_per_s(units: list[dict], key: str = "reference_seconds") -> float:
    """Units per second; every unit is one CLI call with ``--runs 1``."""
    return len(units) / sum(u[key] for u in units)


def _harmonic(a: float, b: float) -> float:
    return 2.0 / (1.0 / a + 1.0 / b)


@dataclass
class Outcome:
    metrics: dict[str, tuple[float, str]]
    units: list[dict]
    errors: list[str]
    notes: list[str]
    manifest: list[dict]


def _run_end_to_end(bench: BenchRun, name: str, seed: int, seconds: float) -> Outcome:
    # Set-up samples: set-up-only children between two speed readings, then
    # the measuring child at the speed read right after its start.
    setup = []
    speed_before = bench.speed()
    for _ in range(SETUP_SAMPLES - 1):
        raw = bench.spawn(["--setup-only"])
        speed_after = bench.speed()
        setup.append((raw, raw * _harmonic(speed_before, speed_after)))
        speed_before = speed_after
    job = bench.job(name, seed, seconds, pins=_load_pins(name, seed))
    result, raw = bench.measure(job, "run")
    setup.append((raw, raw * result["start_speed"]))
    units = result["units"]
    metrics = {
        "work_per_s": (_work_per_s(units), "1/s"),
        "setup_s": (statistics.median(s[1] for s in setup), "s"),
        "peak_rss_mib": (result["peak_rss_kib"] / 1024.0, "MiB"),
    }
    notes = [f"raw (uncalibrated): {_work_per_s(units, 'seconds'):.6g} work/s, "
             f"set-up {statistics.median(s[0] for s in setup):.6g} s"]
    return Outcome(metrics, units, _hygiene_errors(result), notes, job["manifest"])


def _run_traced(bench: BenchRun, name: str, seed: int, seconds: float) -> Outcome:
    pins = _load_pins(name, seed)
    trace_path = bench.tmp / "trace.json"
    # Half the seconds traced, the rest for the untraced replay of the same units.
    job = bench.job(name, seed, seconds / 2, pins=pins, trace_path=trace_path)
    traced, _ = bench.measure(job, "traced")
    units = traced["units"]
    shutil.rmtree(bench.tmp / "out")
    replay_job = dict(job, seconds=None, max_units=len(units), trace_path=None)
    replay, _ = bench.measure(replay_job, "replay")
    for unit, again in zip(units, replay["units"]):
        unit["errors"] += [e for e in again["errors"] if e not in unit["errors"]]
        if unit.get("sha256") != again.get("sha256"):
            unit["errors"].append("traced and untraced CSV bytes differ")
    traced_s = sum(u["seconds"] for u in units)
    metrics = layer_tracer.layer_metrics(json.loads(trace_path.read_text()), len(units),
                                         traced_s)
    metrics["trace.overhead_ratio"] = (_work_per_s(replay["units"]) / _work_per_s(units),
                                       "ratio")
    notes = [f"traced {_work_per_s(units):.6g} work/s, untraced replay "
             f"{_work_per_s(replay['units']):.6g} work/s (calibrated)"]
    return Outcome(metrics, units, _hygiene_errors(traced) + _hygiene_errors(replay),
                   notes, job["manifest"])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; prints a readable report and returns the result."""
    with BenchRun(name, RUN_DEADLINE_S) as bench:
        measure = _run_traced if trace else _run_end_to_end
        outcome = measure(bench, name, seed, seconds)
    units = outcome.units
    failed = sum(1 for u in units if u["errors"])
    print(f"== {name}  seed={seed}  seconds={seconds:g}  trace={int(trace)}")
    for entry in outcome.manifest[:1]:
        print(f"   inputs: dtv(tau, mu) = {entry['dtv']:.6e}  "
              f"({len(outcome.manifest)} pair(s))")
    print(f"   units: {len(units)}  (work unit: {WORKLOADS[name].work_unit})  "
          f"failed: {failed}  error_rate: {failed / len(units):g}")
    if units[0].get("sha256"):
        print(f"   csv sha256 of unit 0: {units[0]['sha256']}")
    for unit in units:
        for error in unit["errors"]:
            print(f"   FAIL {unit['id']}: {error}")
    for error in outcome.errors:
        print(f"   FAIL run: {error}")
    for note in outcome.notes:
        print(f"   {note}")
    for metric, (value, unit) in outcome.metrics.items():
        print(f"   {metric:<30} {value:>16.6g} {unit}")
    return {"correct": failed == 0 and not outcome.errors, "attempted": len(units),
            "failed": failed,
            "metrics": {m: {"value": v, "unit": u} for m, (v, u) in outcome.metrics.items()}}


def update_pins(names: list[str]) -> None:
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    for name in names:
        with BenchRun(f"pins-{name}", PIN_DEADLINE_S) as bench:
            job = bench.job(name, PIN_SEED, None, max_units=WORKLOADS[name].pin_units)
            result, _ = bench.measure(job, "pins")
        bad = [u for u in result["units"] if u["errors"]]
        if bad:
            raise BenchmarkError(f"{name}: unit {bad[0]['id']} failed: {bad[0]['errors']}")
        pins[name] = [u["sha256"] for u in result["units"]]
        print(f"{name}: pinned {len(pins[name])} units")
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=PIN_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-pins", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "condtest" / "cli.py").is_file():
        print(f"error: no condtest sources under {ROOT / 'src'}; run the benchmark "
              "from a full checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        if args.update_pins:
            update_pins(names)
            return 0
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        else:
            results = {(name, trace): run_workload(name, args.seed, args.seconds, trace)
                       for name in names for trace in (False, True)}
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{name}/{metric}": value
                            for (name, _), r in results.items()
                            for metric, value in r["metrics"].items()},
            }
    except (BenchmarkError, inputs.InputError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
