"""Error of the survive calculus against exact arithmetic at large N.

    python scripts/exact_calculus_error.py [--rows R] [--n-draws N ...]

For each N (default 196,608 and 786,432 at inner 891, and 1,572,864 at inner
1076, the largest N of an n = 16, eps = 0.3 run) it draws R seeded near
rows, pairs whose survive value lies in (1e-6, 1 - 1e-6), and prints the
largest |alpha - exact|, |beta - exact| and |survive - exact| of the NumPy
calculus (``condtest.testers``).  The exact values are 40-digit mpmath sums
over all N + 1 outcomes (``tests/conftest.py``); a row takes about 10 s at
N = 196,608, 50 s at 786,432 and 3 minutes at 1,572,864 on a 2-core Intel
Xeon.  Tier 1 checks the same bounds at N <= 12,288
(``test_calculus_matches_exact_reference``).
Exits 1 when the NumPy calculus's largest |survive - exact| exceeds the
README's 1e-13 bound, and 0 otherwise.  Needs the test extra (SciPy, mpmath,
pytest).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from conftest import exact_calculus, near_rows  # noqa: E402

from condtest import testers  # noqa: E402

DEFAULT_ROWS = ((196_608, 891), (786_432, 891), (1_572_864, 1076))
# The README's bound on |survive - exact| for the NumPy calculus.
SURVIVE_BOUND = 1e-13


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=2, help="near rows per N")
    parser.add_argument("--n-draws", type=int, nargs="*",
                        help="N values (inner 891), instead of the default three")
    args = parser.parse_args(argv)
    levels = [(n, 891) for n in args.n_draws] if args.n_draws else DEFAULT_ROWS
    print("| N | inner | rows | NumPy |Δalpha| | |Δbeta| | |Δsurvive| | s/row |")
    print("|---|---|---|---|---|---|---|")
    worst = 0.0
    for n_draws, inner in levels:
        errors = [0.0] * 3
        start = time.perf_counter()
        rows = near_rows(n_draws, inner, args.rows, seed=n_draws)
        for p, q in rows:
            exact = exact_calculus(n_draws, p, q, inner)
            alpha, beta = testers.chi2_trial_compare_probs(n_draws, p, q)
            ours = (alpha, beta, testers.blackbox_survive_prob(n_draws, p, q, inner))
            for j in range(3):
                errors[j] = max(errors[j], abs(float(ours[j] - exact[j])))
        per_row = (time.perf_counter() - start) / len(rows)
        cells = " | ".join(f"{e:.1e}" for e in errors)
        print(f"| {n_draws:,} | {inner} | {len(rows)} | {cells} | {per_row:.0f} |", flush=True)
        worst = max(worst, errors[2])
    if worst > SURVIVE_BOUND:
        print(f"error: the NumPy calculus's |survive - exact| reaches {worst:.1e}, "
              f"above the {SURVIVE_BOUND:.0e} bound", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
