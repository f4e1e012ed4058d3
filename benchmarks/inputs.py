"""Seeded input generator for the benchmark workloads.

Everything the program reads is written here from the workload seed, so the
same seed gives the same files byte for byte.  Each (tau, mu) pair comes with
its exact total-variation distance, which the run reports; the interval pair
must fall in the "near but distinct" range the interval workload assumes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

RANDOM_N = 8
INTERVAL_N = 200
# The interval tester pads [200] to [256]; bit 1 splits it at 128.
INTERVAL_HALF = 128
# mu moves TILT of mass from tau's upper half to its lower half, scaling each
# half as a whole.  Only the root conditional differs, so dtv = TILT exactly
# and the repetitions reject at much the same depth on every seed.  (A random
# mixture perturbation spreads the difference over the tree unevenly: its
# cost per repetition varied fivefold between seeds.)
TILT = 2e-3
NEAR_DTV_RANGE = (1e-3, 5e-3)


class InputError(Exception):
    pass


def _dirichlet(rng: np.random.Generator, size: int) -> np.ndarray:
    probs = rng.dirichlet(np.ones(size))
    return probs / probs.sum()


def _exact_dtv(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * math.fsum(abs(float(a) - float(b)) for a, b in zip(p, q))


def random_tables(seed: int, count: int, out_dir: Path) -> list[dict]:
    """``count`` Dirichlet(1) tables over {0,1}^8, one file each."""
    entries = []
    for k, child in enumerate(np.random.SeedSequence([seed, 1]).spawn(count)):
        probs = _dirichlet(np.random.default_rng(child), 1 << RANDOM_N)
        path = out_dir / f"table-{k}.json"
        path.write_text(json.dumps({"n": RANDOM_N, "probs": probs.tolist()}))
        entries.append({"tau": str(path), "mu": str(path), "dtv": 0.0})
    return entries


def interval_pair(seed: int, out_dir: Path) -> dict:
    """A Dirichlet pmf over [200] and a 0.2% tilt of it between halves."""
    tau = _dirichlet(np.random.default_rng(np.random.SeedSequence([seed, 2])), INTERVAL_N)
    low = float(tau[:INTERVAL_HALF].sum())
    mu = tau.copy()
    mu[:INTERVAL_HALF] *= (low + TILT) / low
    mu[INTERVAL_HALF:] *= (1.0 - low - TILT) / (1.0 - low)
    mu /= mu.sum()
    dtv = _exact_dtv(tau, mu)
    lo, hi = NEAR_DTV_RANGE
    if not lo <= dtv <= hi:
        raise InputError(f"interval pair at dtv {dtv:.3e} is outside the "
                         f"near-but-distinct range [{lo:g}, {hi:g}]")
    paths = {}
    for name, pmf in (("tau", tau), ("mu", mu)):
        paths[name] = str(out_dir / f"interval-{name}.json")
        Path(paths[name]).write_text(json.dumps({"pmf": pmf.tolist()}))
    return {**paths, "dtv": dtv}
