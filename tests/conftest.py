"""Shared helpers for the test suite."""

import math

import numpy as np
import pytest
from scipy.stats import binom

from condtest.adversarial import GridProductDistance
from condtest.distcore import DistributionTable
from condtest.testers import CHI2_THRESHOLD, CHI2_TRIALS


def random_table(rng, n, zeros=False):
    """A random dense distribution over {0,1}^n; with ``zeros`` roughly a
    quarter of the atoms are forced to zero probability."""
    w = rng.random(1 << n)
    if zeros:
        w[rng.random(1 << n) < 0.25] = 0.0
        if w.sum() == 0.0:
            w[0] = 1.0
    return DistributionTable(n, w / w.sum())


def positive_table(rng, n):
    """A random table with full support (needed for finite KL)."""
    w = rng.random(1 << n) + 0.05
    return DistributionTable(n, w / w.sum())


def _factor_table(k, grid):
    """(g^k, 2^k) array of product-cell probabilities over all grid-marginal
    assignments to k coordinates, rows in mixed-radix grid order."""
    if k == 0:
        return np.ones((1, 1))
    single = np.stack([1.0 - grid, grid], axis=1)
    out = single
    for _ in range(k - 1):
        out = np.einsum("ia,jb->ijab", out, single).reshape(
            out.shape[0] * grid.shape[0], out.shape[1] * 2)
    return out


def brute_force_grid_distance(table, step):
    """Reference for ``distance_to_grid_products``: scores all g^n grid
    products, split into a first and a second half of the coordinates, and
    keeps the first minimum in grid order."""
    n = table.n
    grid = np.round(np.arange(0.0, 1.0 + step / 2, step), 12)
    g = grid.shape[0]
    h1, h2 = n // 2, n - n // 2
    left = _factor_table(h1, grid)
    right = _factor_table(h2, grid)
    target = table.probs.reshape(1 << h1, 1 << h2)
    best = np.inf
    best_pair = (0, 0)
    for i in range(left.shape[0]):
        l1 = np.abs(target[None, :, :]
                    - left[i][None, :, None] * right[:, None, :]).sum(axis=(1, 2))
        j = int(np.argmin(l1))
        if l1[j] < best:
            best = float(l1[j])
            best_pair = (i, j)

    def _decode(flat, k):
        digits = []
        for _ in range(k):
            digits.append(float(grid[flat % g]))
            flat //= g
        return digits[::-1]
    marginals = tuple(_decode(best_pair[0], h1) + _decode(best_pair[1], h2))
    return GridProductDistance(best / 2.0, step, "exact-grid", marginals)


def full_support_calculus(n_draws, p, q, inner):
    """Reference for ``chi2_trial_compare_probs`` and ``blackbox_survive_prob``,
    one (p, q) at a time, summed over all N + 1 outcomes of Y: returns
    (alpha, beta, survive)."""
    k = np.arange(n_draws + 1)
    pmf_q = binom.pmf(k, n_draws, q)
    alpha = min(float(np.dot(pmf_q, binom.sf(k, n_draws, p))), 1.0)
    beta = min(float(np.dot(pmf_q, binom.cdf(k - 1, n_draws, p))), 1.0)
    gamma = 0.0
    if alpha < 1.0:
        a = np.arange(CHI2_THRESHOLD + 1)
        pa = binom.pmf(a, CHI2_TRIALS, alpha)
        pb = binom.cdf(CHI2_THRESHOLD, CHI2_TRIALS - a, min(beta / (1.0 - alpha), 1.0))
        gamma = min(max(float(np.dot(pa, pb)), 0.0), 1.0)
    return alpha, beta, float(binom.sf(math.ceil(inner / 2) - 1, inner, gamma))


@pytest.fixture
def rng():
    return np.random.default_rng(20260824)
