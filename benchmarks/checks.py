"""Output checks on the CSV each benchmark unit writes.

A unit fails when its CSV differs from the pinned sha256 (pins exist for the
default seed only), or when a row breaks an invariant that holds for any
seed:

* verdict rows: the per-class query columns sum to ``total_queries``; an
  accepting row carries exactly the accept-path total of
  ``expected_equivalence_queries(n, eps)``, and a rejecting row at most that;
* adversarial-distance rows at n=4, eps=0.2: the grid distance is at least
  0.01, the paired family's claimed distance from every product.
"""

from __future__ import annotations

import csv
import hashlib
import io

QUERY_CLASSES = ("unconditional", "prefix", "subcube", "marginal", "interval")
MIN_GRID_DISTANCE = 0.01


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _verdict_errors(row: dict, expected_total: int) -> list[str]:
    total = int(row["total_queries"])
    errors = []
    if sum(int(row[c]) for c in QUERY_CLASSES) != total:
        errors.append(f"rep {row['rep']}: query classes do not sum to {total}")
    if row["verdict"] == "accept":
        if total != expected_total:
            errors.append(f"rep {row['rep']}: accepted with {total} queries, "
                          f"expected {expected_total}")
    elif row["verdict"] == "reject":
        if total > expected_total:
            errors.append(f"rep {row['rep']}: rejected after {total} queries, "
                          f"more than the accept path's {expected_total}")
    else:
        errors.append(f"rep {row['rep']}: unknown verdict {row['verdict']!r}")
    return errors


def _adversarial_errors(row: dict) -> list[str]:
    distance = float(row["grid_distance"])
    if distance < MIN_GRID_DISTANCE:
        return [f"rep {row['rep']}: grid distance {distance} < {MIN_GRID_DISTANCE}"]
    return []


def check_csv(data: bytes, spec: dict, pin: str | None) -> list[str]:
    """Errors found in one unit's CSV; ``spec`` holds the check kind, the
    expected row count and, for verdict rows, the accept-path total."""
    errors = []
    if pin is not None and sha256(data) != pin:
        errors.append(f"csv sha256 {sha256(data)} differs from the pinned {pin}")
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    if len(rows) != spec["rows"]:
        errors.append(f"{len(rows)} rows, expected {spec['rows']}")
    for row in rows:
        if spec["kind"] == "verdict":
            errors += _verdict_errors(row, spec["expected_total"])
        else:
            errors += _adversarial_errors(row)
    return errors
