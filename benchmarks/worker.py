"""Benchmark child process: one fresh interpreter per measured run.

    python3 benchmarks/worker.py --setup-only
    python3 benchmarks/worker.py JOB.json RESULT.json

Both forms import ``condtest.cli`` from the checkout's ``src`` and then print
``ready``; the parent times interpreter start to that line as set-up.  With a
job, the worker then calls ``cli.main`` once per unit until the job's seconds
are measured, optionally under the layer tracer, and afterwards checks every
unit's CSV and writes the result.  Units share the process, so they share
``testers._PROB_CACHE`` as the repetitions of one CLI call would.

Between units the worker prints ``calibrate`` and blocks until the parent
answers with the machine's speed factor, timed in a separate process whose
state the program never touches (see ``calibrate.py``).
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import checks
import tracer as layer_tracer

SRC = Path(__file__).resolve().parent.parent / "src"
# Units are timed in batches of at least this many seconds between two kernel
# timings, which keeps the kernel to about a tenth of the run.
CALIBRATION_INTERVAL_S = 1.0
# A run also stops after this many times its seconds of raw work, which bounds
# its wall time when the machine is slow.
RAW_SECONDS_CAP = 1.25


def _import_cli():
    sys.path.insert(0, str(SRC))
    from condtest import cli
    if SRC not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"condtest was imported from {cli.__file__}, not from {SRC}")
    return cli


def _speed() -> float:
    print("calibrate", flush=True)
    return float(sys.stdin.readline())


def _unit_argv(job: dict, k: int) -> list[str]:
    tokens = {"{seed}": str(job["seed_base"] + k), "{id}": f"u{k}",
              "{table}": job["tables"][k] if job["tables"] else ""}
    return [tokens.get(arg, arg) for arg in job["argv"]]


def _calibrate(pending: list[dict], speed_before: float) -> tuple[float, float]:
    """Give the pending units their reference seconds, at the mean kernel time
    of the timings before and after them; return the new speed factor and the
    one applied."""
    speed_after = _speed()
    speed = 2.0 / (1.0 / speed_before + 1.0 / speed_after)
    for unit in pending:
        unit["reference_seconds"] = unit["seconds"] * speed
    pending.clear()
    return speed_after, speed


def _run_units(cli, job: dict) -> tuple[list[dict], float]:
    """Run units until ``job["seconds"]`` reference seconds are measured.

    Counting reference rather than raw seconds keeps the number of units
    independent of the machine's momentary speed, which matters where later
    units reuse the calculus cached by earlier ones.  Also returns the speed
    factor measured right after start-up."""
    units, pending = [], []
    sink = io.StringIO()
    start_speed = speed_before = speed = _speed()
    measured = raw = 0.0
    seconds = job["seconds"]
    for k in range(job["max_units"]):
        if units and seconds is not None and (
                measured >= seconds or raw >= RAW_SECONDS_CAP * seconds):
            break
        argv = _unit_argv(job, k)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                code = cli.main(argv)
            error = None if code == 0 else f"exit code {code}"
        except Exception:  # a failing unit is counted, and the run goes on
            error = traceback.format_exc(limit=-3)
        duration = time.perf_counter() - start
        sink.seek(0)
        sink.truncate()
        unit = {"id": f"u{k}", "seconds": duration, "errors": [error] if error else []}
        units.append(unit)
        pending.append(unit)
        raw += duration
        measured += duration * speed
        if sum(u["seconds"] for u in pending) >= CALIBRATION_INTERVAL_S:
            speed_before, speed = _calibrate(pending, speed_before)
            measured = sum(u["reference_seconds"] for u in units)
    if pending:
        _calibrate(pending, speed_before)
    return units, start_speed


def _os_threads() -> int | None:
    try:
        status = Path("/proc/self/status").read_text()
    except OSError:
        return None
    for line in status.splitlines():
        if line.startswith("Threads:"):
            return int(line.split()[1])
    return None


def _check_units(units: list[dict], job: dict) -> None:
    spec = dict(job["check"])
    if spec["kind"] == "verdict":
        from condtest.testers import expected_equivalence_queries
        total = expected_equivalence_queries(spec["n"], spec["eps"])["total"]
        spec["expected_total"] = spec["meter_copies"] * total
    pins = job["pins"]
    for k, unit in enumerate(units):
        path = Path(job["out_dir"]) / f"{unit['id']}.csv"
        if not path.exists():
            unit["errors"].append(f"{path.name} was not written")
            continue
        data = path.read_bytes()
        unit["sha256"] = checks.sha256(data)
        unit["errors"] += checks.check_csv(data, spec, pins[k] if k < len(pins) else None)


def main(argv: list[str]) -> int:
    cli = _import_cli()
    print("ready", flush=True)
    if argv[1:] == ["--setup-only"]:
        return 0
    job = json.loads(Path(argv[1]).read_text())
    tracer = None
    if job["trace_path"]:
        tracer = layer_tracer.Tracer()
        layer_tracer.install(tracer)
    units, start_speed = _run_units(cli, job)
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    threads = _os_threads()
    if tracer is not None:
        tracer.dump(Path(job["trace_path"]))
    _check_units(units, job)
    Path(argv[2]).write_text(json.dumps({"units": units, "peak_rss_kib": peak_rss_kib,
                                         "threads": threads, "start_speed": start_speed}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
