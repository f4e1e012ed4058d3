"""Randomized testers: contracts, schedules, and agreement with the literal
black box."""

import functools
import itertools
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import binom, chisquare

from condtest import distcore, oracles, testers
from condtest.distcore import MAX_DENSE_N, DistributionTable, DomainError, TupleDomain
from condtest.harness import rate_lower_bound
from condtest.oracles import (
    BinaryEncodedOracle,
    IntervalBackedPrefixOracle,
    IntervalOracle,
    ProductMarginalOracle,
    QueryClass,
    TableOracle,
    TupleTableOracle,
)
from condtest.testers import (
    CHI2_SAMPLE_FACTOR,
    CHI2_THRESHOLD,
    CHI2_TRIALS,
    MIN_EPS_L,
    BitSampler,
    Verdict,
    blackbox_survive_prob,
    chi2_accept_prob,
    chi2_trial_compare_probs,
    equivalence_test,
    equivalence_test_general,
    expected_equivalence_queries,
    interval_equivalence_test,
    levin_schedule,
    product_test,
    product_test_general,
    single_bit_chi2_test,
    slice_divergence_threshold,
)
from conftest import (
    EXACT_DPS,
    exact_accept_prob,
    exact_binom_pmfs,
    exact_binom_tail,
    exact_calculus,
    exact_tail_reaches,
    full_support_calculus,
    near_rows,
    random_table,
    reference_walk,
)


# ----------------------------------------------------------------------
# single-bit chi-square test


def test_chi2_constant_samplers_always_accept(rng):
    v = single_bit_chi2_test(BitSampler.from_probability(0.0, rng),
                             BitSampler.from_probability(0.0, rng), 0.5)
    assert v.accepted
    assert v.trace[0]["A"] == 0 and v.trace[0]["B"] == 0


def test_chi2_sample_budget(rng):
    sp = BitSampler.from_probability(1.0, rng)
    sq = BitSampler.from_probability(1.0, rng)
    verdict = single_bit_chi2_test(sp, sq, 0.1)
    assert sp.count == 64 * math.ceil(24 / 0.1)
    assert sq.count == sp.count
    assert verdict.queries_used == {"samples_per_source": sp.count,
                                    "total": 2 * 64 * math.ceil(24 / 0.1)}


def test_chi2_equal_sources_mostly_accept(rng):
    accepts = 0
    for _ in range(60):
        sp = BitSampler.from_probability(0.5, rng)
        sq = BitSampler.from_probability(0.5, rng)
        accepts += single_bit_chi2_test(sp, sq, 0.1).accepted
    assert accepts >= 40


def test_chi2_far_sources_mostly_reject(rng):
    rejects = 0
    for _ in range(60):
        sp = BitSampler.from_probability(0.2, rng)
        sq = BitSampler.from_probability(0.8, rng)
        rejects += not single_bit_chi2_test(sp, sq, 0.18).accepted
    assert rejects >= 40


def test_chi2_eps_validation(rng):
    with pytest.raises(ValueError):
        single_bit_chi2_test(BitSampler.from_probability(0.0, rng),
                             BitSampler.from_probability(0.0, rng), 0.0)


# ----------------------------------------------------------------------
# work-balance procedure


def test_levin_schedule_values():
    rows = levin_schedule(0.5)
    assert [r[0] for r in rows] == [1, 2]
    assert rows[0] == (1, 0.5, 8, 192)
    assert rows[1] == (2, 0.25, 4, 192)


# ----------------------------------------------------------------------
# survive probability calculus


def test_trial_compare_probs_symmetric_case():
    alpha, beta = chi2_trial_compare_probs(50, 0.3, 0.3)
    assert alpha == pytest.approx(beta, abs=1e-12)
    assert alpha < 0.5


def test_trial_compare_probs_against_enumeration():
    n_draws, p, q = 12, 0.7, 0.4
    alpha = beta = 0.0
    for x in range(n_draws + 1):
        for y in range(n_draws + 1):
            w = binom.pmf(x, n_draws, p) * binom.pmf(y, n_draws, q)
            if x > y:
                alpha += w
            elif x < y:
                beta += w
    a, b = chi2_trial_compare_probs(n_draws, p, q)
    assert a == pytest.approx(alpha, abs=1e-10)
    assert b == pytest.approx(beta, abs=1e-10)


def test_accept_prob_against_monte_carlo(rng):
    alpha, beta = 0.35, 0.4
    gamma = chi2_accept_prob(alpha, beta)
    draws = rng.random((20000, 64))
    a_counts = (draws < alpha).sum(axis=1)
    b_counts = (draws >= 1 - beta).sum(axis=1)
    emp = np.mean((a_counts <= 40) & (b_counts <= 40))
    assert gamma == pytest.approx(emp, abs=0.01)


def test_survive_prob_edges():
    assert blackbox_survive_prob(10, 0.0, 0.0, 33) == pytest.approx(1.0)
    # identical sources at large N still accept with high probability
    assert blackbox_survive_prob(1000, 0.5, 0.5, 99) > 0.99
    # far sources: gamma tiny, survival vanishes
    assert blackbox_survive_prob(1000, 0.05, 0.95, 99) < 1e-6


def test_survive_prob_is_a_probability_when_accept_prob_rounds_above_one():
    # A conditional of an n=8 Dirichlet table: the accept probability summed
    # to 1.0000000000000009, and binom.sf of it was NaN, which no u >= NaN
    # could ever reject.
    p = 0.003619341795181441
    assert chi2_accept_prob(*full_support_calculus(48, p, p, 891)[:2]) <= 1.0
    survive = blackbox_survive_prob(48, p, p, 891)
    assert math.isfinite(survive) and 0.0 <= survive <= 1.0
    assert survive == 1.0


def _calculus_corpus():
    """Seeded (p, q) rows per N: q at 0, 1, tiny, near 1, 0.5 and random;
    p = q, p just above q and p random."""
    rng = np.random.default_rng(20261018)
    corpus = {}
    for n_draws in (2, 7, 48, 385, 3072, 49152, 200000):
        rows = []
        for q in (0.0, 1.0, 1e-9, 1.0 - 1e-9, 0.5, *rng.random(2).tolist()):
            rows += [(q, q), (min(q + 1e-3, 1.0), q), (float(rng.random()), q)]
        corpus[n_draws] = rows
    return corpus


CALCULUS_CORPUS = _calculus_corpus()


@pytest.mark.parametrize("n_draws", list(CALCULUS_CORPUS))
def test_windowed_calculus_matches_full_support(n_draws):
    for p, q in CALCULUS_CORPUS[n_draws]:
        alpha, beta = chi2_trial_compare_probs(n_draws, p, q)
        ref_alpha, ref_beta, ref_survive = full_support_calculus(n_draws, p, q, 891)
        assert abs(alpha - ref_alpha) <= 1e-14, (p, q)
        assert abs(beta - ref_beta) <= 1e-14, (p, q)
        assert abs(blackbox_survive_prob(n_draws, p, q, 891) - ref_survive) <= 1e-12, (p, q)


@pytest.mark.parametrize("n_draws", list(CALCULUS_CORPUS))
def test_calculus_rows_do_not_depend_on_batch(n_draws):
    p, q = np.array(CALCULUS_CORPUS[n_draws]).T
    alpha, beta = chi2_trial_compare_probs(n_draws, p, q)
    survive = blackbox_survive_prob(n_draws, p, q, 891)
    reversed_survive = blackbox_survive_prob(n_draws, p[::-1], q[::-1], 891)[::-1]
    assert np.array_equal(reversed_survive, survive)
    for r in range(p.shape[0]):
        assert chi2_trial_compare_probs(n_draws, p[r], q[r]) == (alpha[r], beta[r])
        assert blackbox_survive_prob(n_draws, p[r:r + 1], q[r:r + 1], 891)[0] == survive[r]
        assert blackbox_survive_prob(n_draws, p[r], q[r], 891) == survive[r]


def test_calculus_where_scipy_pmf_overflows():
    """SciPy's binom.pmf raises OverflowError for a probability in about
    [5.6e-309, 1.7e-306]: q there in the trial comparison, alpha there in the
    accept probability.  Those rows agree with the limit at 0, and the other
    rows of the same batch keep their own values."""
    assert 0.0 <= blackbox_survive_prob(48, 0.5, 1e-307, 192) <= 1.0
    for q in (1e-307, 5.6e-309, 1.7e-306):
        alpha, beta = chi2_trial_compare_probs(48, 0.55, q)
        assert alpha == pytest.approx(chi2_trial_compare_probs(48, 0.55, 0.0)[0], abs=1e-15)
        assert beta <= 1e-300
    for alpha in (1.7e-307, 5.6e-309, 1e-306):
        assert chi2_accept_prob(alpha, 0.3) == pytest.approx(chi2_accept_prob(0.0, 0.3),
                                                             abs=1e-15)
    p, q = np.array([0.5, 0.55, 0.5, 0.3]), np.array([1e-307, 0.5, 0.45, 0.0])
    survive = blackbox_survive_prob(48, p, q, 192)
    for r in range(1, 4):
        assert survive[r] == blackbox_survive_prob(48, p[r], q[r], 192)
    gamma = chi2_accept_prob(np.array([1.7e-307, 0.2, 0.0]), np.array([0.3, 0.3, 0.3]))
    assert gamma[1] == chi2_accept_prob(0.2, 0.3) and gamma[2] == chi2_accept_prob(0.0, 0.3)


KERNEL_P = np.concatenate([np.random.default_rng(8).uniform(size=6), np.geomspace(1e-300, 1e-3, 6),
                           [0.0, 1.0, 1.0 - 1e-16, 1e-294, 1e-307, 5e-309, 1e-310, np.nan]])


def _exact_cells(n, p):
    """(k, exact pmf) on which ``test_binom_kernel_matches_exact_reference``
    compares: every k in [0, n] up to n = 3072; above, the window
    [np - s, np + s] (s = sqrt(n ln(2e18) / 2), the calculus's own), the
    three cells at each end and 64 seeded cells elsewhere."""
    if n <= 3072:
        return np.arange(n + 1), exact_binom_pmfs(n, p)
    half = math.ceil(math.sqrt(n * math.log(2e18) / 2.0))
    first, last = max(math.floor(n * p) - half, 0), min(math.floor(n * p) + half, n)
    k = np.arange(first, last + 1)
    pmf = exact_binom_pmfs(n, p, first, last)
    others = {0, 1, 2, n - 2, n - 1, n, *np.random.default_rng(n).integers(0, n + 1, 64).tolist()}
    others = sorted(others - set(k.tolist()))
    return (np.concatenate([k, others]).astype(np.int64),
            pmf + [exact_binom_pmfs(n, p, j, j)[0] for j in others])


@pytest.mark.parametrize("n", [24, 40, 48, 64, 192, 3072, 196608])
def test_binom_kernel_matches_exact_reference(n):
    """The pmf and both tails on k in [-3, n + 3] at p random, log-spaced in
    [1e-300, 1e-3] and {0, 1, 1 - 1e-16, 1e-294, 1e-307, 5e-309, 1e-310,
    NaN} (SciPy's Boost pmf overflowed at 1e-307 and 5e-309, measured before
    that path was removed from the tests): 0 outside the
    support, all mass at k = 0 or n for p = 0 or 1, NaN for a NaN p, and
    against the 40-digit reference the pmf within 4e-15 (1 + |ln pmf|) pmf
    above 1e-290 (exp's error at its argument) and 1e-300 below, and each
    tail within 4e-15 (1 + |ln tail|) tail + 1e-18 (the window leaves out
    at most 5e-19).  Above n = 3072 the reference covers the cells of
    ``_exact_cells`` and the tails the edges and every 32nd cell of the
    window, whose exact tails leave out the mass beyond the window."""
    column = KERNEL_P[:, None]
    k = np.arange(-3, n + 4)
    pmf = testers._loader_pmf(k, n, column)
    outside = (k < 0) | (k > n)
    assert (pmf[:-1, outside] == 0.0).all() and np.isnan(pmf[-1]).all()
    assert (pmf[KERNEL_P == 0.0] == (k == 0)).all() and (pmf[KERNEL_P == 1.0] == (k == n)).all()
    edges = np.array([-3, -1, 0, n + 1, n + 3])
    below, above = testers._binom_tails(edges, n, column)
    assert np.isnan(below[-1]).all() and np.isnan(above[-1]).all()
    assert (below[:-1] == (edges > n)).all() and (above[:-1] == (edges <= 0)).all()
    for row, p in enumerate(KERNEL_P[:-1]):
        cells, exact = _exact_cells(n, p)
        ref = np.array([float(x) for x in exact])
        ours = pmf[row, cells + 3]
        normal = ref > 1e-290
        tol = 4e-15 * (1.0 + np.abs(np.log(ref[normal]))) * ref[normal]
        assert (np.abs(ours[normal] - ref[normal]) <= tol).all(), p
        assert (np.abs(ours[~normal] - ref[~normal]) <= 1e-300).all(), p
        # Pr[X >= k] over the first run of consecutive cells: suffix sums.
        run = cells[:np.append(np.flatnonzero(np.diff(cells) != 1), cells.size - 1)[0] + 1]
        with mpmath.workdps(40):
            tail = list(itertools.accumulate(exact[:run.size][::-1]))[::-1]
            exact_above = np.array([float(x) for x in tail])
            exact_below = np.array([float(max(1 - x, 0)) for x in tail])
        # every 32nd cell of the window above n = 3072
        every = 32 if n > 3072 else 1
        below, above = testers._binom_tails(run[::every], n, p)
        for ours_tail, ref_tail in ((below, exact_below[::every]), (above, exact_above[::every])):
            log = np.log(np.maximum(ref_tail, 1e-300))
            tol = 4e-15 * (1.0 + np.abs(log)) * ref_tail + 1e-18
            assert (np.abs(ours_tail - ref_tail) <= tol).all(), p


def test_loader_split_products_are_exact_at_every_schedule_n():
    """``_loader_pmf`` carries N p as N p_hi + N p_lo, p's Veltkamp halves.
    Every schedule N = 24 * 2^t = 3 * 2^(t + 3) has two significant bits,
    so both products are exact at every level t = 1..50 (the deepest at
    the run budget is 34), for seeded p and edge values, against Fraction
    products."""
    p = np.concatenate([np.random.default_rng(9).uniform(size=200), KERNEL_P[6:-1],
                        [0.5, 1 / 3, 2.0 ** -26, 1e-16, 2.2250738585072014e-308, 5e-324,
                         np.nextafter(0.5, 1.0), np.nextafter(1.0, 0.0)]])
    c = testers._SPLIT * p
    p_hi = c - (c - p)
    halves = list(zip(p_hi.tolist(), (p - p_hi).tolist()))
    assert all(Fraction(hi) + Fraction(lo) == Fraction(x) for (hi, lo), x in zip(halves, p))
    for t in range(1, 51):
        n = testers._trial_draws(2.0 ** -t)
        assert n == 3 * 2 ** (t + 3)
        assert all(Fraction(n * hi) == n * Fraction(hi) and Fraction(n * lo) == n * Fraction(lo)
                   for hi, lo in halves), t


def test_chi2_accept_prob_matches_exact_reference():
    """The accept probability, whose tally for B runs over one trial count
    per value of A, against its 40-digit value at seeded (alpha, beta) and
    at the edges alpha in {0, 1}, beta in {0, 1 - alpha}: within 5e-16."""
    rng = np.random.default_rng(2)
    alpha = rng.random(48)
    beta = rng.random(48) * (1.0 - alpha)
    alpha = np.concatenate([alpha, [0.0, 0.0, 1.0, 0.5, 0.3, 1e-307, 0.2, 0.999]])
    beta = np.concatenate([beta, [0.0, 1.0, 0.0, 0.5, 0.7, 0.3, 1e-300, 0.0]])
    exact = np.array([float(exact_accept_prob(a, b)) for a, b in zip(alpha, beta)])
    assert np.abs(chi2_accept_prob(alpha, beta) - exact).max() <= 5e-16


def test_rate_lower_bound_matches_exact_quantile():
    """The Clopper-Pearson bound at confidence 0.99 lies within 1e-15 of the
    exact quantile for every trials <= 60 and successes 1..trials: the tail
    Pr[Bin(trials, x) >= successes], in exact integer arithmetic, is at most
    0.01 at x = bound - 1e-15 and at least that at x = bound + 1e-15.  An
    array of successes gives the values of scalar calls."""
    target = 1 - Fraction(0.99)
    for trials in range(1, 61):
        successes = np.arange(1, trials + 1)
        bounds = rate_lower_bound(successes, trials)
        for k, bound in zip(successes.tolist(), bounds.tolist()):
            assert not exact_tail_reaches(k, trials, max(bound - 1e-15, 0.0), target) or (
                bound - 1e-15 <= 0.0), (k, trials)
            assert exact_tail_reaches(k, trials, min(bound + 1e-15, 1.0), target), (k, trials)
        assert rate_lower_bound(trials // 2 + 1, trials) == bounds[trials // 2]


@pytest.mark.parametrize("n_draws, rows", [(48, 4), (192, 4), (1536, 3), (12288, 2)])
def test_calculus_matches_exact_reference(n_draws, rows):
    """alpha, beta and survive at seeded near rows (survive in
    (1e-6, 1 - 1e-6), inner = 891) against their 40-digit values: alpha and
    beta within 1e-15 and survive within 1e-13, the per-decision bound the
    module docstring states.  Measured: 1.4e-16 and 2.1e-14; the Boost
    kernel path missed by up to 2.4e-15 and 1.0e-13 on the same rows,
    measured before that path was removed from the tests.
    ``scripts/exact_calculus_error.py`` runs the larger N."""
    for p, q in near_rows(n_draws, 891, rows, seed=n_draws):
        alpha, beta = chi2_trial_compare_probs(n_draws, p, q)
        survive = blackbox_survive_prob(n_draws, p, q, 891)
        exact = exact_calculus(n_draws, p, q, 891)
        assert abs(alpha - exact[0]) <= 1e-15 and abs(beta - exact[1]) <= 1e-15, (p, q)
        assert abs(survive - exact[2]) <= 1e-13, (p, q)


def _bracket_rows():
    """CALCULUS_CORPUS's rows, p and q at 0, 1, 1e-307 and 1 - 1e-16, and
    pairs one ulp apart, whose KL rounds to a negative value one way."""
    edges = (0.0, 1.0, 1e-307, 1.0 - 1e-16)
    rows = [row for rows in CALCULUS_CORPUS.values() for row in rows]
    rows += [(p, q) for p in edges for q in edges]
    for x in (1e-3, 0.1, 0.123456, 0.3, 0.5):
        rows += [(x, np.nextafter(x, 1.0)), (x, np.nextafter(x, 0.0))]
    return np.array(rows).T


def _bracket_levels():
    """n_draws -> the inner repetitions of the n = 1, 8 and 16 schedules'
    levels (eps = 0.5) at that n_draws."""
    levels = {}
    for n in (1, 8, 16):
        for _, eps_prime, _, inner in levin_schedule(slice_divergence_threshold(n, 0.5) / n):
            levels.setdefault(math.ceil(CHI2_SAMPLE_FACTOR / eps_prime), set()).add(inner)
    return {n_draws: sorted(inners) for n_draws, inners in sorted(levels.items())}


BRACKET_LEVELS = _bracket_levels()


@pytest.mark.parametrize("n_draws", list(BRACKET_LEVELS))
def test_survive_bracket_holds(n_draws, monkeypatch):
    """Each step of the closed-form bracket against the exact calculus:
    max(alpha, beta) within the Pinsker and Hoeffding bounds, and
    lo <= blackbox_survive_prob <= hi at every level with this n_draws."""
    p, q = _bracket_rows()
    compared = []  # the (alpha, beta) behind each exact value, kept as computed

    def compare(*args):
        compared.append(chi2_trial_compare_probs(*args))
        return compared[-1]

    monkeypatch.setattr(testers, "chi2_trial_compare_probs", compare)
    kl, gap = testers._min_kl(p, q), p - q
    a, m = testers._compare_bounds(n_draws, kl, gap)
    assert np.isfinite(a).all() and np.isfinite(m).all()
    for inner in BRACKET_LEVELS[n_draws]:
        survive = blackbox_survive_prob(n_draws, p, q, inner)
        larger = np.maximum(*compared[-1])
        assert (m - 1e-12 <= larger).all() and (larger <= a + 1e-12).all()
        lo, hi = testers._survive_bounds(n_draws, kl, gap, inner)
        assert np.isfinite(lo).all() and np.isfinite(hi).all()
        assert (lo <= survive).all() and (survive <= hi).all()


def test_survive_prob_matches_literal_black_box(rng):
    """The closed form against the literal black box: ``inner`` chi-square
    tests on Ber(p) vs Ber(q) bits, survived when the majority tally is
    non-negative.  Judged at one-sided 99% on each side."""
    p, q, eps, inner, runs = 0.55, 0.5, 0.5, 5, 4000
    survive = blackbox_survive_prob(math.ceil(CHI2_SAMPLE_FACTOR / eps), p, q, inner)
    assert 0.1 < survive < 0.9
    survived = 0
    for _ in range(runs):
        tally = sum(1 if single_bit_chi2_test(BitSampler.from_probability(p, rng),
                                              BitSampler.from_probability(q, rng),
                                              eps).accepted else -1
                    for _ in range(inner))
        survived += tally >= 0
    assert binom.ppf(0.01, runs, survive) <= survived <= binom.isf(0.01, runs, survive)


# ----------------------------------------------------------------------
# equivalence tester


def test_equivalence_accept_and_exact_budget():
    tab = DistributionTable.bernoulli_product([0.5])
    v = equivalence_test(TableOracle(tab, seed=1), TableOracle(tab, seed=2),
                         0.5, seed=3)
    assert v.accepted
    expect = expected_equivalence_queries(1, 0.5)
    assert v.queries_used["prefix"] == expect["tau"]
    assert v.queries_used["marginal"] == expect["mu"]
    assert v.queries_used["total"] == expect["total"]


@pytest.mark.parametrize("n, eps, tau, mu", [
    (1, 0.5, 13_037_471_229, 13_037_469_696),
    (8, 0.3, 2_255_844_679_288, 2_255_844_581_376),
    (16, 0.3, 6_236_288_811_595, 6_236_288_581_632),
    (20, 0.1, 137_883_021_660_625, 137_883_018_341_376),
])
def test_accept_path_budget_is_pinned(n, eps, tau, mu):
    """The accept-path budget, as literals: the walk and
    ``expected_equivalence_queries`` bill through the same level charge, so
    comparing them to each other does not check that charge."""
    assert expected_equivalence_queries(n, eps) == {"tau": tau, "mu": mu, "total": tau + mu}


def test_accept_path_count_in_closed_form():
    """The accept-path total over n log2(2n/eps) t_max inner / eps^2 lies in
    [589,824, 651,085] for n = 1..20 and nine eps from 0.9 to 0.01, so the
    count is Theta(n log^3(n/eps) / eps^2), the paper's O~(n/eps^2).  Each
    of the t_max levels bills about 2^(3 - t) / eps_L draws, each running
    ``inner`` black boxes of 64 trials of 24 * 2^t samples from each source,
    and 1 / eps_L = 24 n log2(2n/eps) / eps^2: the constant below.  The
    schedule's ceilings and tau's prefix query per draw add the rest, at
    most 651,084.03 (at n = 1, eps = 0.9)."""
    constant = (2  # tau and mu each pay every trial's samples (_level_charges)
                * 8  # level t draws ceil(2^(3 - t) / eps_L) outer y-draws (levin_schedule)
                * testers.CHI2_TRIALS  # trials per black-box run
                * CHI2_SAMPLE_FACTOR  # N = ceil(24 / eps') samples per trial, eps' = 2^-t
                * 24)  # rho = eps^2 / (24 log2(2n/eps)) (slice_divergence_threshold)
    assert constant == 589_824
    ratios = []
    for n in range(1, 21):
        for eps in (0.9, 0.7, 0.5, 0.3, 0.2, 0.1, 0.05, 0.02, 0.01):
            schedule = levin_schedule(slice_divergence_threshold(n, eps) / n)
            t_max, inner = len(schedule), schedule[0][3]
            total = expected_equivalence_queries(n, eps)["total"]
            ratios.append(total / (n * math.log2(2 * n / eps) * t_max * inner / eps ** 2))
    assert 589_824 <= min(ratios) and max(ratios) <= 651_085


def _table_number(x: float) -> str:
    """A README table entry: 3 significant digits below 100, a whole number
    with thousands separators below 10^6, else 3 significant digits as
    "1.23e13"."""
    if x < 100:
        return f"{x:.3g}"
    if x < 1e6:
        return f"{round(x):,}"
    mantissa, exponent = f"{x:.3g}".split("e")
    return f"{mantissa}e{int(exponent)}"


def test_query_count_table_matches_the_code():
    """Every number of README's tables of the accept-path count set against
    the paper's bounds, recomputed from ``expected_equivalence_queries``;
    and an accepting interval run bills that count as interval queries on
    its base, its total twice that."""
    def row(cells):
        return "| " + " | ".join(cells) + " |"

    walk = [row(["n", "eps", "queries", "n/ε²", "queries ÷ n/ε²", "n²/ε²", "√n/ε²"]),
            "|" + "---|" * 7]
    for n, eps in ((1, 0.5), (4, 0.5), (8, 0.3), (16, 0.3), (16, 0.1), (20, 0.05)):
        total, linear = expected_equivalence_queries(n, eps)["total"], n / eps ** 2
        walk.append(row([str(n), str(eps)] + [_table_number(x) for x in (
            total, linear, total / linear, n * linear, math.sqrt(n) / eps ** 2)]))
    interval = [row(["N", "n = ceil(log2 N)", "eps", "interval queries", "log2(N)/ε²",
                     "queries ÷ log2(N)/ε²"]), "|" + "---|" * 6]
    for big_n, eps in ((200, 0.3), (1000, 0.3), (1000, 0.1), (10 ** 6, 0.3)):
        n = distcore.code_bits(big_n)
        total, bound = expected_equivalence_queries(n, eps)["total"], math.log2(big_n) / eps ** 2
        interval.append(row([f"{big_n:,}", str(n), str(eps)]
                            + [_table_number(x) for x in (total, bound, total / bound)]))
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for table in (walk, interval):
        assert "\n".join(table) + "\n" in readme
    pmf = np.full(200, 1 / 200)
    v = interval_equivalence_test(IntervalOracle(pmf, seed=1), IntervalOracle(pmf, seed=2), 0.3,
                                  seed=3)
    assert v.accepted
    assert v.queries_used["interval"] == expected_equivalence_queries(8, 0.3)["total"]
    assert v.queries_used["total"] == 2 * v.queries_used["interval"]


def test_equivalence_determinism():
    tab = DistributionTable.uniform(3)

    def run():
        return equivalence_test(TableOracle(tab, seed=5),
                                TableOracle(tab, seed=6),
                                0.4, seed=7)

    a, b = run(), run()
    assert a.accepted == b.accepted
    assert a.queries_used == b.queries_used
    assert a.trace == b.trace


def test_equivalence_zero_probability_rejects_fast():
    tau = TableOracle(DistributionTable.uniform(2), seed=1)
    mu = TableOracle(DistributionTable.point_mass([0, 0]), seed=2)
    v = equivalence_test(tau, mu, 0.5, seed=3)
    assert not v.accepted
    assert v.queries_used["total"] <= 10


def test_equivalence_dimension_mismatch():
    with pytest.raises(ValueError):
        equivalence_test(TableOracle(DistributionTable.uniform(2), seed=0),
                         TableOracle(DistributionTable.uniform(3), seed=0),
                         0.5)


def _never_called(*args):
    raise AssertionError("the exact survive calculus was called")


def _literal(run, monkeypatch):
    """``run()`` with the walk replaced by the reference walk on the literal
    black box, the reference tester, which must never call the exact survive
    calculus."""
    with monkeypatch.context() as patch:
        patch.setattr(testers, "_run_equivalence", functools.partial(reference_walk, literal=True))
        patch.setattr(testers, "blackbox_survive_prob", _never_called)
        return run()


def test_walk_and_literal_tester_agree_on_budget_and_verdict(monkeypatch):
    tab = DistributionTable.bernoulli_product([0.6])

    def run():
        return equivalence_test(TableOracle(tab, seed=0), TableOracle(tab, seed=1),
                                0.9, seed=2)

    walk = run()
    literal = _literal(run, monkeypatch)
    assert literal.accepted == walk.accepted is True
    assert literal.queries_used == walk.queries_used
    assert literal.trace == walk.trace


def test_walk_and_literal_tester_follow_the_exact_rejection_law(monkeypatch):
    """n = 1, tau = Ber(0.5), mu = Ber(p*) with p* chosen so that a level-1
    draw survives with probability 1/2: the index of the rejecting draw is
    geometric, P(j) = 2^-(j+1).  The histograms over j = 0, 1, 2, >= 3 of the
    literal black box and of the tester are each judged against that law by
    a chi-square test at one-sided 99%."""
    eps, runs = 0.9, 100
    _, eps_prime, _, inner = levin_schedule(slice_divergence_threshold(1, eps))[0]
    n_draws = math.ceil(CHI2_SAMPLE_FACTOR / eps_prime)
    p_star = brentq(lambda p: blackbox_survive_prob(n_draws, p, 0.5, inner) - 0.5,
                    0.5, 0.9, xtol=1e-15)
    survive = blackbox_survive_prob(n_draws, p_star, 0.5, inner)
    law = np.array([1 - survive, (1 - survive) * survive,
                    (1 - survive) * survive ** 2, survive ** 3])
    tau = DistributionTable.bernoulli_product([0.5])
    mu = DistributionTable.bernoulli_product([p_star])

    def histogram():
        counts = np.zeros(4, dtype=int)
        for run in range(runs):
            v = equivalence_test(TableOracle(tau, seed=3 * run),
                                 TableOracle(mu, seed=3 * run + 1),
                                 eps, seed=3 * run + 2)
            assert not v.accepted and v.trace[0]["t"] == 1
            counts[min(v.trace[0]["rejected_at"], 3)] += 1
        return counts

    for mode, counts in (("literal", _literal(histogram, monkeypatch)),
                         ("walk", histogram())):
        assert chisquare(counts, runs * law).pvalue >= 0.01, (mode, counts)


_LOW_HALF = np.array([1 / 3, 1 / 3, 1 / 3, 0.0, 0.0, 0.0])
_RGB = TupleDomain((("r", "g", "b"), (0, 1)))

# Pairs whose first y-draw (seed 0, tester and literal black box alike) lands
# on a prefix that mu gives zero mass.
ZERO_PROBABILITY_PAIRS = {
    "table": lambda eps, seed: equivalence_test(
        TableOracle(DistributionTable.uniform(2), seed=1),
        TableOracle(DistributionTable.point_mass([0, 0]), seed=2), eps, seed=seed),
    "padded-interval": lambda eps, seed: interval_equivalence_test(
        IntervalOracle(_LOW_HALF, seed=1), IntervalOracle(_LOW_HALF[::-1], seed=2), eps,
        seed=seed),
    "tuple": lambda eps, seed: equivalence_test_general(
        TupleTableOracle(_RGB, [0.25, 0.25, 0.25, 0.25, 0.0, 0.0], seed=1),
        TupleTableOracle(_RGB, [0.0, 0.0, 0.0, 0.0, 0.5, 0.5], seed=2), eps, seed=seed),
}


@pytest.mark.parametrize("name", list(ZERO_PROBABILITY_PAIRS))
def test_zero_probability_reject_metered_alike_by_walk_and_literal_tester(name, monkeypatch):
    def run():
        return ZERO_PROBABILITY_PAIRS[name](0.5, seed=0)

    literal, walk = _literal(run, monkeypatch), run()
    assert not literal.accepted and not walk.accepted
    assert walk.trace[0] == {"t": 1, "rejected_at": 0, "zero_probability_reject": True}
    assert literal.trace[0] == walk.trace[0]
    assert literal.queries_used == walk.queries_used


def _near(p, q, d=0.02):
    return (1 - d) * np.asarray(p) + d * np.asarray(q)


def _probs(seed, size):
    w = np.random.default_rng(seed).random(size) + 0.05
    return w / w.sum()


def _dirichlet(seed, size):
    return np.random.default_rng(seed).dirichlet(np.ones(size))


def _thin_pair(seed):
    """A table over {0,1}^3 with one sibling pair of cells at 2e-3 each, and
    the same table with that pair removed (a prefix mu gives zero mass)."""
    rng = np.random.default_rng(seed)
    tau = rng.dirichlet(np.full(8, 3.0))
    c = 2 * int(rng.integers(0, 4))
    tau[c] = tau[c + 1] = 2e-3
    tau /= tau.sum()
    mu = tau.copy()
    mu[c] = mu[c + 1] = 0.0
    return tau, mu / mu.sum()


REPLAY_CASES = {
    "uniform": lambda: equivalence_test(
        TableOracle(DistributionTable.uniform(3), seed=1),
        TableOracle(DistributionTable.uniform(3), seed=2), 0.5, seed=3),
    "point-mass-reject": lambda: equivalence_test(
        TableOracle(DistributionTable.point_mass([0, 1, 1]), seed=4),
        TableOracle(DistributionTable.point_mass([1, 0, 0]), seed=5), 0.5, seed=6),
    "product": lambda: product_test(
        TableOracle(DistributionTable(3, _near(
            DistributionTable.bernoulli_product([0.3, 0.6, 0.5]).probs,
            [0.5, 0, 0, 0, 0, 0, 0, 0.5])), seed=7),
        0.5, seed=8),
    "random-full-support": lambda: equivalence_test(
        TableOracle(DistributionTable(3, _probs(9, 8)), seed=10),
        TableOracle(DistributionTable(3, _near(_probs(9, 8), _probs(11, 8))), seed=12),
        0.5, seed=13),
    "padded-interval": lambda: interval_equivalence_test(
        IntervalOracle([0.1, 0.2, 0.3, 0.15, 0.15, 0.1], seed=14),
        IntervalOracle(_near([0.1, 0.2, 0.3, 0.15, 0.15, 0.1],
                             [0.5, 0, 0, 0, 0, 0.5]), seed=15),
        0.5, seed=16),
    "tuple": lambda: equivalence_test_general(
        TupleTableOracle(_RGB, _probs(17, 6), seed=18),
        TupleTableOracle(_RGB, _near(_probs(17, 6), _probs(21, 6)), seed=19),
        0.5, seed=20),
    # 63 (i, prefix) keys, all with distinct conditionals.
    "dirichlet-self-n6": lambda: equivalence_test(
        TableOracle(DistributionTable(6, _dirichlet(22, 64)), seed=23),
        TableOracle(DistributionTable(6, _dirichlet(22, 64)), seed=24), 0.5, seed=25),
    # Rejects at draw 200 of a 1038-draw level.
    "near-n5-mid-chunk": lambda: equivalence_test(
        TableOracle(DistributionTable(5, _probs(27, 32)), seed=127),
        TableOracle(DistributionTable(5, _near(_probs(27, 32), _probs(77, 32), 0.005)),
                    seed=227),
        0.5, seed=327),
    "interval-N200": lambda: interval_equivalence_test(
        IntervalOracle(_probs(30, 200), seed=31),
        IntervalOracle(_near(_probs(30, 200), _probs(32, 200)), seed=33), 0.5, seed=34),
    # The dead prefix is first drawn at draw 1397 of level 2's 2065.
    "dead-prefix-mid-chunk": lambda: equivalence_test(
        TableOracle(DistributionTable(3, _thin_pair(7009)[0]), seed=9),
        TableOracle(DistributionTable(3, _thin_pair(7009)[1]), seed=59), 0.5, seed=108),
}


def _queries(prefix, marginal, interval=0):
    counts = {"unconditional": 0, "prefix": prefix, "subcube": 0,
              "marginal": marginal, "interval": interval}
    return counts | {"total": sum(counts.values())}


_N3_OUTERS = [4130, 2065, 1033, 517, 259, 130, 65, 33, 17, 9, 5, 3]


def _records(inner, outers, rejected_at=None):
    """Level records t = 1..len(outers), the last one rejecting at ``rejected_at``."""
    return [{"t": t, "eps_prime": 2.0 ** -t, "outer": outer, "inner": inner,
             "rejected_at": rejected_at if t == len(outers) else None}
            for t, outer in enumerate(outers, 1)]


def _levels(last_t, rejected_at=None):
    """The n=3, eps=0.5 schedule's level records 1..last_t."""
    return _records(769, _N3_OUTERS[:last_t], rejected_at)


# (accepted, queries_used, trace), recorded before the charging rule moved
# into the oracles (the last four before the survive calculus was windowed
# and batched); any shift of a tester or oracle RNG stream changes them.
REPLAY_PINS = {
    "uniform": (True, _queries(126244954186, 126244945920),
                _levels(12)),
    "point-mass-reject": (False, _queries(1, 1),
                          [{"t": 1, "rejected_at": 0, "zero_probability_reject": True}]),
    "product": (False, _queries(39574394960, 19787194368),
                _levels(3, 28)),
    "random-full-support": (False, _queries(29406764099, 29406756864),
                            _levels(4, 6)),
    "padded-interval": (False, _queries(19532064821, 19532058624, 39064123445),
                        _levels(3, 1)),
    "tuple": (False, _queries(120348491680, 120348475392),
              _levels(7, 9)),
    "dirichlet-self-n6": (True, _queries(373460357772, 373460336640),
                          _records(856, [10564, 5282, 2641, 1321, 661, 331, 166, 83, 42,
                                         21, 11, 6, 3])),
    "near-n5-mid-chunk": (False, _queries(67912221061, 67912206336),
                          _records(834, [8299, 4150, 2075, 1038], 200)),
    "interval-N200": (False, _queries(44615593430, 44615577600, 89231171030),
                      _records(891, [15360, 7680], 469)),
    "dead-prefix-mid-chunk": (False, _queries(16357041560, 16357036033),
                              _levels(1) + [{"t": 2, "rejected_at": 1397,
                                             "zero_probability_reject": True}]),
}


@pytest.mark.parametrize("name", list(REPLAY_CASES))
def test_collapsed_replay_is_pinned(name):
    v = REPLAY_CASES[name]()
    assert (v.accepted, v.queries_used, v.trace) == REPLAY_PINS[name]


def test_literal_tester_rejects_far_pair(monkeypatch):
    tau = TableOracle(DistributionTable.bernoulli_product([0.05]), seed=4)
    mu = TableOracle(DistributionTable.bernoulli_product([0.95]), seed=5)
    v = _literal(lambda: equivalence_test(tau, mu, 0.5, seed=6), monkeypatch)
    assert not v.accepted


def test_trace_ends_with_the_pinned_record():
    """A verdict's trace is one level record per Levin level the walk ran:
    an accepting run's ends with the schedule's last level at eps_L =
    rho(n, eps) / n."""
    tab = DistributionTable.uniform(8)
    v = equivalence_test(TableOracle(tab, seed=1), TableOracle(tab, seed=2),
                         0.3, seed=3)
    schedule = levin_schedule(slice_divergence_threshold(8, 0.3) / 8)
    assert v.accepted and [record["t"] for record in v.trace] == [row[0] for row in schedule]
    t, eps_prime, outer, inner = schedule[-1]
    assert v.trace[-1] == {"t": t, "eps_prime": eps_prime, "outer": outer, "inner": inner,
                           "rejected_at": None}


def test_slice_divergence_threshold_value():
    # eps^2 / (24 log2(2n/eps)) at n = 8, eps = 0.3
    expect = 0.09 / (24 * math.log2(16 / 0.3))
    assert slice_divergence_threshold(8, 0.3) == pytest.approx(expect)


def _uniform_tuples(seed):
    return TupleTableOracle(_RGB, np.full(6, 1 / 6), seed=seed)


def _two_roots(make, test):
    tau, mu = make(1), make(2)
    return (tau, mu), lambda eps: test(tau, mu, eps, seed=3)


def _one_root(mu, test):
    return (mu,), lambda eps: test(mu, eps, seed=3)


# tester -> a factory of (fresh root oracles, the tester called on them at a given eps)
WALK_TESTERS = {
    "equivalence": lambda: _two_roots(lambda s: TableOracle(DistributionTable.uniform(2), seed=s),
                                      equivalence_test),
    "equivalence-general": lambda: _two_roots(_uniform_tuples, equivalence_test_general),
    "interval": lambda: _two_roots(lambda s: IntervalOracle(np.full(4, 0.25), seed=s),
                                   interval_equivalence_test),
    "interval-N1": lambda: _two_roots(lambda s: IntervalOracle([1.0], seed=s),
                                      interval_equivalence_test),
    "product": lambda: _one_root(TableOracle(DistributionTable.uniform(2), seed=1), product_test),
    "product-general": lambda: _one_root(_uniform_tuples(1), product_test_general),
}


@pytest.mark.parametrize("eps", [0.0, 1.0, 1.5, -0.1, math.nan])
@pytest.mark.parametrize("tester", list(WALK_TESTERS))
def test_walk_testers_refuse_eps_outside_unit_interval(tester, eps, monkeypatch):
    """Each walk tester refuses eps outside (0, 1), NaN included, before it
    builds a view or bills a query; the interval tester's N = 1 shortcut
    too."""
    for view in ("BinaryEncodedOracle", "IntervalBackedPrefixOracle", "ProductMarginalOracle"):
        monkeypatch.setattr(testers, view, None)  # building one raises TypeError
    roots, run = WALK_TESTERS[tester]()
    with pytest.raises(ValueError, match=r"epsilon must lie in \(0,1\), got"):
        run(eps)
    assert [sum(root.counter.counts.values()) for root in roots] == [0] * len(roots)


# eps_L = rho(n, eps) / n at n <= 3 is below MIN_EPS_L = 2^-33 for each.
# Below the draw budget with a finite schedule: at 1e-10 the accept path
# would take 1.35e24 y-draws at n = 2, at 1.2e-151 1.34e307.
_BELOW_BUDGET = [1e-10, 1.2e-151]
# Far below it, with no finite schedule: at 1e-155 eps_L is subnormal, so
# that 2 / eps_L overflows; at 1e-160 it is 0.
_NO_FINITE_SCHEDULE = [1e-155, 1e-160]


@pytest.mark.parametrize("eps", _BELOW_BUDGET)
@pytest.mark.parametrize("tester", list(WALK_TESTERS))
def test_walk_testers_refuse_eps_below_the_draw_budget(tester, eps, monkeypatch):
    """An eps in (0, 1) whose eps_L is below the draw budget's MIN_EPS_L is
    refused with the eps that was given, before a view is built or a query
    billed; the interval tester's N = 1 shortcut too."""
    for view in ("BinaryEncodedOracle", "IntervalBackedPrefixOracle", "ProductMarginalOracle"):
        monkeypatch.setattr(testers, view, None)  # building one raises TypeError
    roots, run = WALK_TESTERS[tester]()
    with pytest.raises(ValueError, match=rf"^epsilon {eps} is too small"):
        run(eps)
    assert [sum(root.counter.counts.values()) for root in roots] == [0] * len(roots)


@pytest.mark.parametrize("eps", _NO_FINITE_SCHEDULE)
@pytest.mark.parametrize("tester", list(WALK_TESTERS))
def test_walk_testers_refuse_eps_without_a_finite_schedule(tester, eps, monkeypatch):
    """The same refusal where the schedule has no finite draw count."""
    test_walk_testers_refuse_eps_below_the_draw_budget(tester, eps, monkeypatch)


@pytest.mark.parametrize("eps", _BELOW_BUDGET)
def test_budget_refuses_eps_below_the_draw_budget(eps):
    with pytest.raises(ValueError, match=rf"^epsilon {eps} is too small"):
        expected_equivalence_queries(2, eps)


@pytest.mark.parametrize("eps", _NO_FINITE_SCHEDULE)
def test_budget_refuses_eps_without_a_finite_schedule(eps):
    test_budget_refuses_eps_below_the_draw_budget(eps)


def test_levin_schedule_at_the_draw_budget():
    """eps_L = MIN_EPS_L = 2^-33 is accepted: levels t = 1..34 with 2^(36-t)
    outer draws each, so the accept path's y-draws sum to 2^36 - 4 < 2^53."""
    schedule = levin_schedule(MIN_EPS_L)
    assert [row[0] for row in schedule] == list(range(1, 35))
    assert sum(outer for _, _, outer, _ in schedule) == 2 ** 36 - 4 < 2 ** 53


def _point_tuples(seed):
    """One cell whose binary encoding has MAX_DENSE_N + 1 bits."""
    return TupleTableOracle(TupleDomain(((0,),) * (MAX_DENSE_N + 1)), [1.0], seed=seed)


def _padded_interval(seed):
    """[N] for N = 2^MAX_DENSE_N + 1, padded to MAX_DENSE_N + 1 bits."""
    N = (1 << MAX_DENSE_N) + 1
    return IntervalOracle(np.full(N, 1.0 / N), seed=seed)


# tester -> a factory of (root oracles whose walk needs n = MAX_DENSE_N + 1, the tester)
OVERSIZED_WALKS = {
    "equivalence-general": lambda: _two_roots(_point_tuples, equivalence_test_general),
    "interval": lambda: _two_roots(_padded_interval, interval_equivalence_test),
    "product-general": lambda: _one_root(_point_tuples(1), product_test_general),
}


@pytest.mark.parametrize("tester", list(OVERSIZED_WALKS))
def test_walk_testers_refuse_oversized_n_before_allocating(tester, monkeypatch):
    """The walk holds 2^n - 1 node conditionals per oracle: above MAX_DENSE_N
    it refuses n before it allocates them or bills a query."""
    roots, run = OVERSIZED_WALKS[tester]()

    def refuse(*args, **kwargs):
        raise AssertionError("allocated before checking n")
    for name in ("full", "zeros", "ones", "empty"):
        monkeypatch.setattr(np, name, refuse)
    with pytest.raises(DomainError, match=f"n <= {MAX_DENSE_N}, got n={MAX_DENSE_N + 1}"):
        run(0.5)
    assert [sum(root.counter.counts.values()) for root in roots] == [0] * len(roots)


# ----------------------------------------------------------------------
# product tester


def test_product_accepts_uniform():
    v = product_test(TableOracle(DistributionTable.uniform(4), seed=1),
                     0.4, seed=2)
    assert v.accepted
    assert v.queries_used["subcube"] == v.queries_used["interval"] == 0


def test_product_uses_prefix_queries_only():
    base = TableOracle(DistributionTable.bernoulli_product([0.7, 0.4]), seed=3)
    v = product_test(base, 0.5, seed=4)
    assert v.accepted
    assert base.counter.counts.get(QueryClass.SUBCUBE, 0) == 0
    assert base.counter.counts.get(QueryClass.INTERVAL, 0) == 0
    assert base.counter.counts.get(QueryClass.UNCONDITIONAL, 0) == 0


def test_product_rejects_correlated_pair():
    # maximally correlated two bits: far from any product
    tab = DistributionTable(2, [0.5, 0.0, 0.0, 0.5])
    v = product_test(TableOracle(tab, seed=5), 0.3, seed=6)
    assert not v.accepted


# ----------------------------------------------------------------------
# general alphabets and intervals


def test_general_equivalence_accept_and_reject():
    dom = TupleDomain((("a", "b", "c"), ("a", "b", "c")))
    uni = np.full(9, 1 / 9)
    v = equivalence_test_general(TupleTableOracle(dom, uni, seed=1),
                                 TupleTableOracle(dom, uni, seed=2),
                                 0.5, seed=3)
    assert v.accepted
    point = np.zeros(9)
    point[4] = 1.0
    v = equivalence_test_general(TupleTableOracle(dom, uni, seed=4),
                                 TupleTableOracle(dom, point, seed=5),
                                 0.5, seed=6)
    assert not v.accepted


def test_general_refuses_domains_of_equal_bit_width():
    """Both domains encode to 2 bits, yet they are not the same domain: the
    test refuses them before any query is billed."""
    tau = TupleTableOracle(TupleDomain(((0, 1, 2),)), [0.5, 0.25, 0.25], seed=1)
    mu = TupleTableOracle(TupleDomain(((0, 1), ("x", "y"))), [0.25] * 4, seed=2)
    with pytest.raises(ValueError, match="share a domain"):
        equivalence_test_general(tau, mu, 0.5, seed=3)
    assert sum(tau.counter.counts.values()) == sum(mu.counter.counts.values()) == 0


def test_general_matches_binary_on_binary_domain():
    """The identity encoding reproduces the plain binary tester exactly, and
    so does the interval view of [2^n]: one law, three query models."""
    probs = np.array([0.1, 0.2, 0.3, 0.4])
    dom = TupleDomain(((0, 1), (0, 1)))
    v_gen = equivalence_test_general(TupleTableOracle(dom, probs, seed=8),
                                     TupleTableOracle(dom, probs, seed=9),
                                     0.6, seed=10)
    tab = DistributionTable(2, probs)
    v_bin = equivalence_test(TableOracle(tab, seed=8), TableOracle(tab, seed=9),
                             0.6, seed=10)
    assert v_gen.accepted == v_bin.accepted
    # the encoded view bills its base oracle once per translated query, so
    # the grand total is exactly twice the plain binary tester's
    assert v_gen.queries_used["total"] == 2 * v_bin.queries_used["total"]
    assert [row.get("rejected_at") for row in v_gen.trace] == \
           [row.get("rejected_at") for row in v_bin.trace]
    # 40 seeded pairs at n = 1..8 (self-tests, 1% mixtures, and tables with
    # zero cells), each served as tables, as interval oracles over [2^n] and
    # as tuple oracles over binary alphabets: the three views have equal node
    # arrays and draw the same codes, so the walks give the same verdict and
    # trace, and each wrapped form bills exactly twice the table's total.
    # The product views over a table and over the binary tuple domain have
    # equal node arrays too, so the two product tests give the same verdict
    # and trace, but for the last record: only the table's root sees prefix
    # queries alone.
    g = np.random.default_rng(31)
    rejects = 0
    for k in range(40):
        n = 1 + k % 8
        tau = random_table(g, n, zeros=k % 3 == 2).probs
        if k % 3 == 0:
            mu = tau
        elif k % 3 == 1:
            mu = 0.99 * tau + 0.01 * g.dirichlet(np.ones(1 << n))
        else:
            mu = random_table(g, n, zeros=True).probs
        seeds = g.integers(1 << 32, size=3)
        domain = TupleDomain(((0, 1),) * n)
        for probs, seed in ((tau, seeds[0]), (mu, seeds[1])):
            views = [TableOracle(DistributionTable(n, probs), seed=seed),
                     IntervalBackedPrefixOracle(IntervalOracle(probs, seed=seed)),
                     BinaryEncodedOracle(TupleTableOracle(domain, probs, seed=seed))]
            nodes, draws = views[0].node_bit_probs(), views[0].sample_full_indices_uncounted(4096)
            for view in views[1:]:
                assert (np.isnan(view.node_bit_probs()) == np.isnan(nodes)).all(), k
                assert (view.node_bit_probs() == nodes)[~np.isnan(nodes)].all(), k
                assert view.sample_full_indices_uncounted(4096).tolist() == draws.tolist(), k
        tables = equivalence_test(TableOracle(DistributionTable(n, tau), seed=seeds[0]),
                                  TableOracle(DistributionTable(n, mu), seed=seeds[1]),
                                  0.5, seed=seeds[2])
        for wrapped in (
                interval_equivalence_test(IntervalOracle(tau, seed=seeds[0]),
                                          IntervalOracle(mu, seed=seeds[1]), 0.5, seed=seeds[2]),
                equivalence_test_general(TupleTableOracle(domain, tau, seed=seeds[0]),
                                         TupleTableOracle(domain, mu, seed=seeds[1]),
                                         0.5, seed=seeds[2])):
            assert (wrapped.accepted, wrapped.trace) == (tables.accepted, tables.trace), k
            assert wrapped.queries_used["total"] == 2 * tables.queries_used["total"], k
        rejects += not tables.accepted
        for probs, seed in ((tau, seeds[0]), (mu, seeds[1])):
            nodes = ProductMarginalOracle(TableOracle(DistributionTable(n, probs))).node_bit_probs()
            tuples = ProductMarginalOracle(BinaryEncodedOracle(TupleTableOracle(domain, probs)))
            assert (np.isnan(tuples.node_bit_probs()) == np.isnan(nodes)).all(), k
            assert (tuples.node_bit_probs() == nodes)[~np.isnan(nodes)].all(), k
            binary = product_test(TableOracle(DistributionTable(n, probs), seed=seed), 0.5,
                                  seed=seeds[2])
            general = product_test_general(TupleTableOracle(domain, probs, seed=seed), 0.5,
                                           seed=seeds[2])
            assert (general.accepted, general.trace) == (binary.accepted, binary.trace), k
            assert binary.queries_used["subcube"] == 0 < general.queries_used["subcube"], k
    assert 0 < rejects < 40


def test_tuple_testers_at_eighteen_encoded_bits():
    """Alphabets of 5, 9, 17 and 33 symbols encode to 18 bits, most codes
    naming no cell.  A Dirichlet self-test accepts at exactly twice the
    binary accept-path total (each query is billed on the view and on the
    tuple oracle), and so does the product test on a product of Dirichlet
    marginals over the same domain."""
    rng = np.random.default_rng(0)
    sizes = (5, 9, 17, 33)
    domain = TupleDomain(tuple(tuple(range(k)) for k in sizes))
    total = 2 * expected_equivalence_queries(18, 0.5)["total"]
    assert total == 7_945_811_913_316
    probs = rng.dirichlet(np.ones(domain.size()))
    v = equivalence_test_general(TupleTableOracle(domain, probs, seed=1),
                                 TupleTableOracle(domain, probs, seed=2), 0.5, seed=3)
    assert v.accepted and v.queries_used["total"] == total
    product = functools.reduce(np.multiply.outer, [rng.dirichlet(np.ones(k)) for k in sizes])
    v = product_test_general(TupleTableOracle(domain, product.ravel(), seed=4), 0.5, seed=5)
    assert v.accepted and v.queries_used["total"] == total


def test_product_test_general_sums_the_encoding_once(monkeypatch):
    """The encoding's node array and the product view both read the prefix
    sums of the encoding's one table: a product test over a 9 x 17 x 5 x 3
    domain (14 bits, 4 + 5 + 3 + 2) sums the 2^14 codes pairwise once."""
    domain = TupleDomain(tuple(tuple(range(k)) for k in (9, 17, 5, 3)))
    full, level_sums = [], distcore.level_sums

    def counted(cells):
        full.append(cells.shape == (1 << domain.total_bits,))
        return level_sums(cells)
    for module in (distcore, oracles):
        monkeypatch.setattr(module, "level_sums", counted)
    probs = np.random.default_rng(0).dirichlet(np.ones(domain.size()))
    product_test_general(TupleTableOracle(domain, probs, seed=1), 0.5, seed=2)
    assert sum(full) == 1 and len(full) > 1


def test_interval_walk_never_rejects_a_tiny_live_prefix():
    """mu gives elements 2 and 3 of [4] mass 1e-20 each, below the rounding
    of 1 - 2e-20: every prefix tau draws has positive mu mass, so no level
    may end in a zero-probability reject, which the literal tester's
    marginal queries would never meet."""
    mu = [1 - 2e-20, 1e-20, 1e-20, 0.0]
    for seed in range(20):
        v = interval_equivalence_test(IntervalOracle(np.full(4, 0.25), seed=seed),
                                      IntervalOracle(mu, seed=100 + seed), 0.5, seed=200 + seed)
        assert not any("zero_probability_reject" in row for row in v.trace), seed


def test_interval_vacuous_single_atom():
    one = IntervalOracle([1.0], seed=0)
    v = interval_equivalence_test(one, IntervalOracle([1.0], seed=1),
                                  0.5, seed=2)
    assert v.accepted and v.trace == []
    assert v.queries_used["total"] == 0


def test_interval_accept_uniform():
    u = np.full(16, 1 / 16)
    v = interval_equivalence_test(IntervalOracle(u, seed=1),
                                  IntervalOracle(u, seed=2),
                                  0.4, seed=3)
    assert v.accepted
    assert v.queries_used["interval"] > 0
    assert v.queries_used["subcube"] == 0


def test_interval_reject_disjoint_blocks():
    left = np.zeros(16)
    left[:8] = 1 / 8
    right = np.zeros(16)
    right[8:] = 1 / 8
    v = interval_equivalence_test(IntervalOracle(left, seed=4),
                                  IntervalOracle(right, seed=5),
                                  0.5, seed=6)
    assert not v.accepted


def test_interval_padding_non_power_of_two():
    u6 = np.full(6, 1 / 6)
    v = interval_equivalence_test(IntervalOracle(u6, seed=7),
                                  IntervalOracle(u6, seed=8),
                                  0.6, seed=9)
    assert v.accepted
    with pytest.raises(ValueError):
        interval_equivalence_test(IntervalOracle(u6, seed=0),
                                  IntervalOracle(np.full(8, 1 / 8), seed=1),
                                  0.5)


def test_verdict_class_totals_consistent():
    tab = DistributionTable.uniform(2)
    v = equivalence_test(TableOracle(tab, seed=1), TableOracle(tab, seed=2),
                         0.5, seed=3)
    per_class = sum(c for name, c in v.queries_used.items() if name != "total")
    assert per_class == v.queries_used["total"]
    assert isinstance(v, Verdict) and v.decision == "accept"


# ----------------------------------------------------------------------
# the node-array walk against the per-key reference walk


def _tuple_probs(rng, size, zeros=0.0):
    w = rng.random(size) + 0.05
    w[rng.random(size) < zeros] = 0.0
    if w.sum() == 0.0:
        w[0] = 1.0
    return w / w.sum()


def _interior_gap(rng, N):
    """A pmf over [N] whose interior block carries 2e-3 in total, and the
    same pmf with that block at zero mass."""
    w = rng.random(N) + 0.05
    lo, width = int(rng.integers(1, max(2, N // 2))), max(1, N // 4)
    w[lo:lo + width] = 0.0
    gap = w / w.sum()
    thin = 0.998 * gap
    thin[lo:lo + width] = 2e-3 / width
    return thin, gap


def _walk_corpus():
    """kind -> list of seeded walk runs, each a function of a seed
    offset that builds fresh oracles and runs one tester.  Every oracle kind
    the walk serves appears, with self, near and far pairs, and with mu
    giving drawn prefixes zero mass (dead-prefix rejects)."""
    corpus = {kind: [] for kind in ("table", "table-dead", "table-band", "product",
                                    "interval", "tuple", "general-product")}
    for n in range(2, 7):
        for seed in (1, 2):
            p, q = _probs(100 * n + seed, 1 << n), _probs(200 * n + seed, 1 << n)
            for mu in (p, _near(p, q), q):
                corpus["table"].append(lambda s, n=n, p=p, mu=mu: equivalence_test(
                    TableOracle(DistributionTable(n, p), seed=s),
                    TableOracle(DistributionTable(n, mu), seed=s + 1), 0.5, seed=s + 2))
    for seed in range(14):
        tau, mu = _thin_pair(7000 + seed)
        corpus["table-dead"].append(lambda s, tau=tau, mu=mu: equivalence_test(
            TableOracle(DistributionTable(3, tau), seed=s),
            TableOracle(DistributionTable(3, mu), seed=s + 1), 0.5, seed=s + 2))
    # n = 8 Dirichlet tables against a 0.1% mixture: many draws fall inside
    # their closed-form bracket, so the walk settles those pairs exactly.
    for seed in range(1300, 1304):
        tau = _dirichlet(seed, 256)
        mu = _near(tau, _dirichlet(seed + 50, 256), 0.001)
        corpus["table-band"].append(lambda s, tau=tau, mu=mu: equivalence_test(
            TableOracle(DistributionTable(8, tau), seed=s),
            TableOracle(DistributionTable(8, mu), seed=s + 1), 0.5, seed=s + 2))
    for seed in range(10):
        n = 3 + seed % 3
        gen = np.random.default_rng(300 + seed)
        mu = gen.random(1 << n) * (gen.random(1 << n) > 0.3)
        mu[0] += 0.01
        tau = _near(mu / mu.sum(), _probs(400 + seed, 1 << n), 0.01)
        corpus["table-dead"].append(lambda s, n=n, tau=tau, mu=mu / mu.sum(): equivalence_test(
            TableOracle(DistributionTable(n, tau), seed=s),
            TableOracle(DistributionTable(n, mu), seed=s + 1), 0.5, seed=s + 2))
    for n in range(2, 6):
        for d in (0.0, 0.02, 0.3):
            probs = _near(DistributionTable.bernoulli_product(
                np.random.default_rng(500 + n).random(n)).probs, _probs(600 + n, 1 << n), d)
            corpus["product"].append(lambda s, n=n, probs=probs: product_test(
                TableOracle(DistributionTable(n, probs), seed=s), 0.5, seed=s + 1))
    for N in (2, 3, 5, 7, 12, 33, 100, 200, 300):
        p, q = _probs(800 + N, N), _probs(900 + N, N)
        for tau, mu in ((p, p), (p, _near(p, q)), _interior_gap(np.random.default_rng(N), N)):
            corpus["interval"].append(lambda s, tau=tau, mu=mu: interval_equivalence_test(
                IntervalOracle(tau, seed=s), IntervalOracle(mu, seed=s + 1),
                0.5, seed=s + 2))
    _, gap = _interior_gap(np.random.default_rng(999), 40)
    corpus["interval"].append(lambda s: interval_equivalence_test(
        IntervalOracle(gap, seed=s), IntervalOracle(gap, seed=s + 1), 0.5, seed=s + 2))
    domains = [TupleDomain((("r", "g", "b"), (0, 1))),
               TupleDomain((tuple("abcde"), (0, 1, 2))),
               TupleDomain(((0, 1, 2), (0, 1), tuple("xyz")))]
    for k, dom in enumerate(domains):
        gen = np.random.default_rng(1000 + k)
        size = dom.size()
        p, q = _tuple_probs(gen, size), _tuple_probs(gen, size)
        # thin: the cells of one first-coordinate symbol carry 2e-3 in total
        # under tau and nothing under mu, so that prefix is dead under mu.
        thin = p.reshape(dom.sizes[0], -1).copy()
        thin[1] = 2e-3 / thin[1].size
        thin = (thin / thin.sum()).ravel()
        dead = thin.reshape(dom.sizes[0], -1).copy()
        dead[1] = 0.0
        dead = (dead / dead.sum()).ravel()
        for tau, mu in ((p, p), (p, _near(p, q)), (p, q),
                        (p, _tuple_probs(gen, size, zeros=0.4)), (thin, dead)):
            corpus["tuple"].append(lambda s, dom=dom, tau=tau, mu=mu: equivalence_test_general(
                TupleTableOracle(dom, tau, seed=s), TupleTableOracle(dom, mu, seed=s + 1),
                0.5, seed=s + 2))
        marginals = [_tuple_probs(gen, m) for m in dom.sizes]
        product = marginals[0]
        for marginal in marginals[1:]:
            product = np.outer(product, marginal).ravel()
        for probs in (_tuple_probs(gen, size), _tuple_probs(gen, size, 0.2), product,
                      _near(product, _tuple_probs(gen, size), 0.05)):
            corpus["general-product"].append(lambda s, dom=dom, probs=probs: product_test_general(
                TupleTableOracle(dom, probs, seed=s), 0.5, seed=s + 1))
    return corpus


WALK_CORPUS = _walk_corpus()


@pytest.mark.parametrize("kind", list(WALK_CORPUS))
def test_walk_matches_per_key_reference(kind, monkeypatch):
    runs = WALK_CORPUS[kind]
    got = [run(11 * k) for k, run in enumerate(runs)]
    monkeypatch.setattr(testers, "_run_equivalence", reference_walk)
    for k, (run, v) in enumerate(zip(runs, got)):
        ref = run(11 * k)
        assert (v.accepted, v.queries_used, v.trace) == (ref.accepted, ref.queries_used,
                                                         ref.trace), (kind, k)


def test_walk_does_not_depend_on_chunk_size(monkeypatch):
    """Every WALK_CORPUS run gives the same (accepted, queries_used, trace) in
    chunks of 97 draws, which end inside levels and put some rejecting and
    dead draws past the first chunk, as in the walk's own chunks."""
    runs = [(kind, k, run) for kind, group in WALK_CORPUS.items()
            for k, run in enumerate(group)]
    default = [run(11 * k) for kind, k, run in runs]
    monkeypatch.setattr(testers, "_CHUNK", 97)
    endings = set()
    for (kind, k, run), v in zip(runs, default):
        odd = run(11 * k)
        assert (odd.accepted, odd.queries_used, odd.trace) == (v.accepted, v.queries_used,
                                                               v.trace), (kind, k)
        last = [record for record in v.trace if "t" in record][-1]
        if v.accepted:
            endings.add("accept")
        elif last["rejected_at"] >= 97:
            endings.add("dead" if last.get("zero_probability_reject") else "reject")
    assert endings == {"accept", "reject", "dead"}


def test_walk_does_not_depend_on_coordinate_block_size(monkeypatch):
    """Every WALK_CORPUS run gives the same (accepted, queries_used, trace)
    with blocks of 1,000 coordinates, which the walk's 4096-draw chunks
    straddle, so a searched chunk replays its i across block starts."""
    runs = [(kind, k, run) for kind, group in WALK_CORPUS.items()
            for k, run in enumerate(group)]
    default = [run(11 * k) for kind, k, run in runs]
    monkeypatch.setattr(testers, "_COORDINATE_BLOCK", 1000)
    for (kind, k, run), v in zip(runs, default):
        small = run(11 * k)
        assert (small.accepted, small.queries_used, small.trace) == (v.accepted, v.queries_used,
                                                                     v.trace), (kind, k)


@pytest.mark.parametrize("n", [3, 8, 10, 16])
def test_level_draws_in_chunks_keep_the_stream(n):
    """A level's i as one int32 ``integers`` call and its u one ``_CHUNK`` at
    a time give the same values, and leave the generator in the same state,
    as int64 ``integers(size=outer)`` followed by ``random(outer)``, level
    after level on one generator, for sizes at and across chunk ends."""
    chunk = testers._CHUNK
    whole, chunked = np.random.default_rng(n), np.random.default_rng(n)
    for outer in (1, chunk - 1, chunk, chunk + 1, 3 * chunk + 17, 5):
        i_whole, u_whole = whole.integers(1, n + 1, size=outer), whole.random(outer)
        i_chunked = chunked.integers(1, n + 1, size=outer, dtype=np.int32)
        u_chunked = np.concatenate([chunked.random(min(chunk, outer - first))
                                    for first in range(0, outer, chunk)])
        assert i_chunked.tolist() == i_whole.tolist()
        assert u_chunked.tolist() == u_whole.tolist()
        assert chunked.bit_generator.state == whole.bit_generator.state


def _full_state(rng) -> dict:
    """``rng``'s full bit-generator state, comparable with ``==``: an
    MT19937's key array as a list."""
    state = rng.bit_generator.state
    return state | {"state": {key: value.tolist() if isinstance(value, np.ndarray) else value
                              for key, value in state["state"].items()}}


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 10, 16, 20])
@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937],
                         ids=["pcg64", "mt19937"])
def test_skipped_coordinates_match_eager_draws(bit_generator, n, buffered):
    """``_CoordinateCursor`` against one int32 ``integers(size=outer)`` call
    per level, level after level on one generator and one cursor, for sizes
    at and across chunk ends and the 114,978 draws of an n = 16, eps = 0.3
    level: each chunk's u and replayed i equal the eager ones, a cursor
    settled after each level leaves the generator in the eager one's full
    state, and on copies of both the next ``random`` and int32 ``integers``
    draws agree.  A PCG64 at a power-of-two n moves past the coordinates
    (one output each, none at n = 1, with the buffered half carried); any
    other case draws and drops them a block at a time."""
    chunk = testers._CHUNK
    lazy, eager = (np.random.Generator(bit_generator(3)) for _ in range(2))
    if buffered:
        # An odd number of int32 draws leaves a PCG64 holding a buffered half.
        for rng in (lazy, eager):
            rng.integers(0, 7, size=5, dtype=np.int32)
    cursor = testers._CoordinateCursor(lazy, n)
    assert cursor.skips == (bit_generator is np.random.PCG64 and n not in (3, 10, 20))
    for outer in (1, chunk - 1, chunk, chunk + 1, 3 * chunk + 17, 114_978):
        coordinates = cursor.level(outer)
        i_whole = eager.integers(1, n + 1, size=outer, dtype=np.int32)
        for first in range(0, outer, chunk):
            last = min(first + chunk, outer)
            assert lazy.random(last - first).tolist() == eager.random(last - first).tolist()
            assert coordinates(first, last).tolist() == i_whole[first:last].tolist()
        cursor.settle()
        assert _full_state(lazy) == _full_state(eager)
        # Copies, so that the walk's own generator draws nothing it has not counted.
        lazy_copy, eager_copy = (np.random.Generator(bit_generator(0)) for _ in range(2))
        lazy_copy.bit_generator.state = lazy.bit_generator.state
        eager_copy.bit_generator.state = eager.bit_generator.state
        assert lazy_copy.random() == eager_copy.random()
        assert (lazy_copy.integers(0, 1000, dtype=np.int32)
                == eager_copy.integers(0, 1000, dtype=np.int32))


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("bit_generator, n", [(np.random.MT19937, 8), (np.random.PCG64, 3),
                                              (np.random.PCG64, 10), (np.random.PCG64, 20),
                                              (np.random.PCG64, 4), (np.random.PCG64, 16)],
                         ids=["mt19937-8", "pcg64-3", "pcg64-10", "pcg64-20", "pcg64-4",
                              "pcg64-16"])
def test_coordinate_cursor_blocks_match_bulk_draws(bit_generator, n, buffered, monkeypatch):
    """Each chunk replays the values of one bulk int32
    ``integers(size=outer)`` call per level from the level's one start,
    dropping a block at a time what comes before it: read first at the
    level's last chunk, then in order, then backwards, with blocks of 5,000
    that 4096-draw chunks straddle.  After ``settle`` the generator holds
    the bulk draws' full state, level after level.  A PCG64 at n = 4 and
    n = 16 skips the coordinates at the level (its start is an output count
    and a buffered half); the other cases draw and drop them."""
    monkeypatch.setattr(testers, "_COORDINATE_BLOCK", 5000)
    chunk = testers._CHUNK
    lazy, eager = (np.random.Generator(bit_generator(5)) for _ in range(2))
    if buffered:
        for rng in (lazy, eager):
            rng.integers(0, 7, size=5, dtype=np.int32)
    cursor = testers._CoordinateCursor(lazy, n)
    assert cursor.skips == (n in (4, 16))
    for outer in (1, 4999, 5000, 5001, 3 * chunk + 17, 23_456):
        coordinates = cursor.level(outer)
        i_whole = eager.integers(1, n + 1, size=outer, dtype=np.int32)
        assert lazy.random(outer).tolist() == eager.random(outer).tolist()
        chunks = [(first, min(first + chunk, outer)) for first in range(0, outer, chunk)]
        for first, last in chunks[-1:] + chunks + chunks[::-1]:
            assert coordinates(first, last).tolist() == i_whole[first:last].tolist()
        cursor.settle()
        assert _full_state(lazy) == _full_state(eager)


def test_uniform_self_test_walk_holds_little_memory():
    """A uniform n = 16, eps = 0.3 self-test walk, its node arrays built
    before tracing starts, peaks below 320 KiB: its level-1 coordinates
    alone would take 460 KB, so the walk moves its rng past them instead of
    drawing them, and finds K with boolean masks, not a 2^n float gather."""
    tab = DistributionTable.uniform(16)
    tau, mu = TableOracle(tab, seed=1), TableOracle(tab, seed=2)
    tau.node_bit_probs(), mu.node_bit_probs()
    eps_l = slice_divergence_threshold(16, 0.3) / 16
    rng = np.random.default_rng(3)
    tracemalloc.start()
    try:
        verdict = testers._run_equivalence(tau, mu, eps_l, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.accepted
    assert peak < 320 * 1024


def _walk_peak(tau, mu, eps, seed=3):
    """(verdict, peak traced bytes) of one walk of ``tau`` against ``mu`` on
    the walk generator ``np.random.default_rng(seed)``, their node arrays
    built before tracing starts."""
    tau.node_bit_probs(), mu.node_bit_probs()
    eps_l = slice_divergence_threshold(tau.n, eps) / tau.n
    rng = np.random.default_rng(seed)
    tracemalloc.start()
    try:
        verdict = testers._run_equivalence(tau, mu, eps_l, rng)
        return verdict, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_walk_with_an_mt19937_tau_holds_little_memory():
    """The uniform n = 16, eps = 0.3 self-test with tau drawing from an
    MT19937, which ``skip_full_draws`` cannot advance, peaks below 320 KiB:
    the run's one skip of all 229,963 certified draws generates their
    uniforms a bounded block at a time (at once they would take 1.8 MB)."""
    tab = DistributionTable.uniform(16)
    verdict, peak = _walk_peak(TableOracle(tab, seed=np.random.Generator(np.random.MT19937(1))),
                               TableOracle(tab, seed=2), 0.3)
    assert verdict.accepted
    assert peak < 320 * 1024


def test_sparse_self_test_walk_holds_little_memory():
    """An n = 16 point-mass self-test, 65,519 of whose 65,535 nodes are NaN
    (zero-mass prefixes), peaks below 320 KiB: the floor pass finds K with
    boolean masks and indexes only the nodes tau can reach whose pair is
    unequal, none here, not every node where the two arrays differ (NaN !=
    NaN), whose indices alone would take 512 KiB."""
    tab = DistributionTable.point_mass([1, 0] * 8)
    tau, mu = TableOracle(tab, seed=1), TableOracle(tab, seed=2)
    assert np.isnan(tau.node_bit_probs()).sum() == 65_519
    verdict, peak = _walk_peak(tau, mu, 0.3)
    assert verdict.accepted
    assert peak < 320 * 1024


def test_non_power_of_two_walk_holds_one_coordinate_block():
    """A uniform n = 5, eps = 0.02 self-test, whose level 1 draws 10.8
    million coordinates (41 MiB as int32), peaks at about one block of them
    plus 1 MiB: the walk draws and drops its coordinates a block at a time,
    keeping only the state each block starts from."""
    tab = DistributionTable.uniform(5)
    verdict, peak = _walk_peak(TableOracle(tab, seed=1), TableOracle(tab, seed=2), 0.02)
    assert verdict.accepted and verdict.trace[0]["outer"] > 10 ** 7
    assert peak < 4 * testers._COORDINATE_BLOCK + (1 << 20)


def test_mt19937_walk_keeps_one_state_per_level(monkeypatch):
    """With an MT19937 walk generator and blocks of 1,000 coordinates, a
    uniform n = 5, eps = 0.05 self-test, whose level 1 spans about 1,470
    blocks, peaks below 512 KiB: each level keeps one generator state (about
    3 KB), not one per block, which would take over 4 MB at level 1."""
    monkeypatch.setattr(testers, "_COORDINATE_BLOCK", 1000)
    tab = DistributionTable.uniform(5)
    verdict, peak = _walk_peak(TableOracle(tab, seed=1), TableOracle(tab, seed=2), 0.05,
                               seed=np.random.Generator(np.random.MT19937(3)))
    assert verdict.accepted and verdict.trace[0]["outer"] > 1400 * 1000
    assert peak < 512 * 1024


def test_band_pairs_reach_the_exact_calculus(monkeypatch):
    """The near pairs of WALK_CORPUS's "table-band" kind leave some draws
    inside their bracket, and the walk settles them with the exact calculus;
    their runs are checked against the reference walk above."""
    rows = []

    def survive(n_draws, p, q, inner):
        rows.append(len(p))
        return blackbox_survive_prob(n_draws, p, q, inner)

    monkeypatch.setattr(testers, "_SURVIVE_MEMO", {})
    monkeypatch.setattr(testers, "blackbox_survive_prob", survive)
    for k, run in enumerate(WALK_CORPUS["table-band"]):
        run(11 * k)
    assert sum(rows) > 0


def test_self_test_decided_by_brackets_alone(monkeypatch):
    """tau = mu: every pair's bracket lies above all the run's u, so a
    Dirichlet n = 8 self-test never needs the exact calculus."""
    monkeypatch.setattr(testers, "_SURVIVE_MEMO", {})
    monkeypatch.setattr(testers, "blackbox_survive_prob", _never_called)
    tab = DistributionTable(8, _dirichlet(1400, 256))
    v = equivalence_test(TableOracle(tab, seed=1), TableOracle(tab, seed=2), 0.5, seed=3)
    expect = expected_equivalence_queries(8, 0.5)
    assert v.accepted
    assert (v.queries_used["prefix"], v.queries_used["marginal"]) == (expect["tau"], expect["mu"])


def test_first_stop_is_the_exact_rule(monkeypatch):
    """``_first_stop`` against "the first draw with u >= its exact survive
    value (dead: -1)", with the memo cold and again warm.  The chunks repeat
    nodes inside the band, end the band just before a bracket or dead stop
    or at the chunk's end, and draw settled nodes after the band.

    Eight nodes at N = 96, inner = 554: node 0 an equal pair (lo just below
    1), nodes 1-4 and 7 near pairs whose bracket spans about [0, 1] and whose
    survive values lie near 0.95, 0.79, 0.50, 0.21 (node 7 is node 3's pair
    again), node 5 a far pair (hi = 1e-12) and node 6 dead."""
    p_mu = np.array([0.5, 0.5, 0.5, 0.5, 0.5, 0.5, np.nan, 0.5])
    p_tau = np.array([0.5, 0.52853, 0.52903, 0.52953, 0.53003, 0.9, 0.4, 0.52953])
    exact = np.array([-1.0 if np.isnan(p) else blackbox_survive_prob(96, p, q, 554)
                      for p, q in zip(p_mu, p_tau)])
    lo, hi = testers._survive_bounds(96, testers._min_kl(p_mu, p_tau), p_mu - p_tau, 554)
    assert (lo[1:5] < 1e-3).all() and (hi[1:5] > 1 - 1e-3).all()
    assert 0.1 < exact[4] < exact[1] < 0.99 and hi[5] < 1e-6 < 1 - 1e-6 < lo[0]

    def below(node):
        return exact[node] - 0.01

    def above(node):
        return exact[node] + 0.01

    chunks = [
        ([1, 0, 1, 2, 5], [below(1), 0.3, above(1), below(2), 0.5]),  # repeat stops: 2
        ([3, 2, 6, 3], [below(3), above(2), 0.2, 0.9]),  # last band draw, then dead: 1
        ([0, 4, 4, 0, 4], [0.9, below(4), above(4), 0.1, below(4)]),  # repeat, no hard stop: 2
        ([2, 7], [below(2), above(7)]),  # last draw of the chunk, node 3's pair: 1
        ([0, 1, 3, 7, 1], [0.5, below(1), below(3), below(7), below(1)]),  # none
        ([6, 1], [0.0, below(1)]),  # dead first: 0
        ([1, 3, 5, 1, 3], [below(1), below(3), 0.4, above(1), above(3)]),  # bracket stop: 2
    ]
    rng = np.random.default_rng(5)
    for _ in range(200):
        nodes = rng.choice(8, size=12, p=[0.2, 0.15, 0.15, 0.15, 0.15, 0.02, 0.02, 0.16])
        u = np.clip(exact[nodes] + rng.normal(0.0, 0.05, size=12), 0.0, 0.999)
        chunks.append((nodes, u))

    def expected(nodes, u):
        stops = np.flatnonzero(u >= exact[nodes])
        return int(stops[0]) if stops.size else None

    chunks = [(np.asarray(nodes), np.asarray(u)) for nodes, u in chunks]
    truth = [expected(nodes, u) for nodes, u in chunks]
    assert truth[:7] == [2, 1, 2, 1, None, 0, 2]
    assert {None, 0} < set(truth)
    memo = {}
    monkeypatch.setattr(testers, "_SURVIVE_MEMO", memo)
    node_kl = np.full(8, np.nan)
    cold = [testers._first_stop(p_mu, p_tau, node_kl, nodes, u, 96, 554)
            for nodes, u in chunks]
    assert cold == truth
    # The memo holds each band pair's exact value as a float, keyed by
    # (N, p, q, inner); the warm pass reads it and computes nothing.
    assert memo and all(isinstance(value, float) for value in memo.values())
    assert memo == {(96, p, q, 554): blackbox_survive_prob(96, p, q, 554)
                    for _, p, q, _ in memo}
    monkeypatch.setattr(testers, "blackbox_survive_prob", _never_called)
    warm = [testers._first_stop(p_mu, p_tau, node_kl, nodes, u, 96, 554)
            for nodes, u in chunks]
    assert warm == truth


def test_survive_memo_evicts_its_oldest_quarter(monkeypatch):
    """With the memo's cap at 8, three calls of five new (p, q) rows each
    fill it: each full insert drops the two oldest entries first, the memo
    never holds more than 8, and every value is the survive probability
    computed afresh."""
    memo, inserted = {}, []
    monkeypatch.setattr(testers, "_SURVIVE_MEMO", memo)
    monkeypatch.setattr(testers, "_SURVIVE_MEMO_CAP", 8)
    for call in range(3):
        # increasing p, so the rows are new keys in sorted order
        p = 0.5 + 0.001 * np.arange(5 * call, 5 * call + 5)
        q = np.full(5, 0.5)
        got = testers._exact_survive(96, p, q, 554)
        np.testing.assert_array_equal(got, [blackbox_survive_prob(96, a, b, 554)
                                            for a, b in zip(p, q)])
        inserted += [(96, a, b, 554) for a, b in zip(p.tolist(), q.tolist())]
        assert len(memo) <= 8
        assert list(memo) == inserted[-len(memo):]
    assert len(memo) == 7  # 15 inserts, four evictions of two


# ----------------------------------------------------------------------
# the per-level survive floor


def _no_floors(p_mu, p_tau, n_draws, inner):
    """A floor of -1 at every level, which certifies no chunk, no level
    certain and no min-KL found."""
    return [-1.0] * len(n_draws), [False] * len(n_draws), None


def test_walk_does_not_depend_on_the_floor(monkeypatch):
    """Every WALK_CORPUS run gives the same (accepted, queries_used, trace)
    with the floor at -1, which certifies no chunk, and leaves tau's RNG in
    the same state: a certified chunk consumes the uniforms its search
    would have."""
    runs = [(k, run) for group in WALK_CORPUS.values() for k, run in enumerate(group)]
    walk, states, skipped = testers._run_equivalence, [], []

    def recording(tau, mu, *args):
        verdict = walk(tau, mu, *args)
        states.append(tau.rng.bit_generator.state)
        return verdict

    def skip(self, k):
        skipped.append(k)
        self.rng.random(k)

    monkeypatch.setattr(testers, "_run_equivalence", recording)
    monkeypatch.setattr(oracles.BinaryPrefixOracle, "skip_full_draws", skip)
    floored = [run(11 * k) for k, run in runs]
    floored_states, states[:] = states[:], []
    chunks = len(skipped)
    assert chunks and len(floored_states) == len(runs)
    monkeypatch.setattr(testers, "_survive_floors", _no_floors)
    for (k, run), v, state in zip(runs, floored, floored_states):
        off = run(11 * k)
        assert (off.accepted, off.queries_used, off.trace) == (v.accepted, v.queries_used,
                                                               v.trace), k
        assert states[-1] == state, k
    assert len(skipped) == chunks


def test_walk_skips_certified_chunks_then_searches_within_a_level(monkeypatch):
    """n = 8, tau a 1e-4 mixture of mu: level 1 certifies its first chunk
    and searches its second, so the walk skips the certified draws before
    it searches, within one level.  The run rejects at level 5, with the
    verdict, queries, trace and tau's stream of the walk without the floor
    and the verdict, queries and trace of the per-key reference walk."""
    g = np.random.default_rng(2)
    mu = g.dirichlet(np.ones(256))
    noise = g.dirichlet(np.ones(256))
    tau = (1 - 1e-4) * mu + 1e-4 * noise
    tau /= tau.sum()
    states, levels = [], []  # per level, its skips and searches in order

    def run():
        tau_oracle = TableOracle(DistributionTable(8, tau), seed=2)
        v = equivalence_test(tau_oracle, TableOracle(DistributionTable(8, mu), seed=3), 0.5,
                             seed=4)
        states.append(tau_oracle.rng.bit_generator.state)
        return v.accepted, v.queries_used, v.trace

    def recorded(name, method):
        def record(self, *args):
            levels[-1].append(name)
            return method(self, *args)
        return record

    def level(self, outer):
        levels.append([])
        return coordinates(self, outer)

    coordinates = testers._CoordinateCursor.level
    monkeypatch.setattr(testers._CoordinateCursor, "level", level)
    for name in ("skip_full_draws", "sample_full_indices_uncounted"):
        method = getattr(oracles.BinaryPrefixOracle, name)
        monkeypatch.setattr(oracles.BinaryPrefixOracle, name, recorded(name, method))
    floored = run()
    assert any(["skip_full_draws", "sample_full_indices_uncounted"] == lv[k:k + 2]
               for lv in levels for k in range(len(lv)))
    assert not floored[0] and floored[2][-1]["t"] == 5
    monkeypatch.setattr(testers, "_survive_floors", _no_floors)
    assert run() == floored
    assert states[1] == states[0]
    monkeypatch.setattr(testers, "_run_equivalence", reference_walk)
    assert run() == floored


def _dead_half(seed):
    """n = 8: mu is Dirichlet on the x1 = 0 half-cube and gives x1 = 1 zero
    mass; tau = (1 - 1e-4) mu plus 1e-4 spread uniformly over the x1 = 1
    half, so every node below x1 = 1 is reachable and dead, while the live
    nodes are all but equal under tau and mu."""
    mu = np.zeros(256)
    mu[:128] = _dirichlet(seed, 128)
    tau = (1.0 - 1e-4) * mu
    tau[128:] = 1e-4 / 128
    return tau, mu


def test_floor_keeps_dead_rejects(monkeypatch):
    """A dead node tau can reach stops the walk at every u, so the floor
    certifies nothing there: the walk matches the per-key reference walk,
    which has no floor, and some runs end in a dead reject."""
    runs = []
    for seed in range(20):
        tau, mu = _dead_half(1500 + seed)
        runs.append(lambda s, tau=tau, mu=mu: equivalence_test(
            TableOracle(DistributionTable(8, tau), seed=s),
            TableOracle(DistributionTable(8, mu), seed=s + 1), 0.5, seed=s + 2))
    got = [run(11 * k) for k, run in enumerate(runs)]
    monkeypatch.setattr(testers, "_run_equivalence", reference_walk)
    for k, (run, v) in enumerate(zip(runs, got)):
        ref = run(11 * k)
        assert (v.accepted, v.queries_used, v.trace) == (ref.accepted, ref.queries_used,
                                                         ref.trace), k
    assert any(v.trace[-1].get("zero_probability_reject") for v in got)


def _interval_tilt(seed):
    """A Dirichlet pmf over [200] and the same pmf with 2e-3 of mass moved
    from the upper half of its padded [256] to the lower half: only the
    root conditional differs."""
    tau = _dirichlet(seed, 200)
    low = tau[:128].sum()
    mu = np.concatenate([tau[:128] * ((low + 2e-3) / low),
                         tau[128:] * ((1.0 - low - 2e-3) / (1.0 - low))])
    return tuple(IntervalBackedPrefixOracle(IntervalOracle(pmf / pmf.sum())) for pmf in (tau, mu))


def _table_views(tau, mu):
    return TableOracle(DistributionTable(8, tau)), TableOracle(DistributionTable(8, mu))


# name -> (tau's view, mu's view), each over eight bits
FLOOR_PAIRS = {
    "self-test": lambda: _table_views(*[_dirichlet(1600, 256)] * 2),
    "near": lambda: _table_views((1 - 1e-4) * _dirichlet(1601, 256) + 1e-4 * _dirichlet(1602, 256),
                                 _dirichlet(1601, 256)),
    "interval-tilt": lambda: _interval_tilt(1603),
    "dead": lambda: _table_views(*_dead_half(1604)),
}


@pytest.mark.parametrize("name", list(FLOOR_PAIRS))
def test_floor_lies_below_every_reachable_lower_end(name):
    """At every level of the eps = 0.5 schedule, the survive floor is at
    most the bracket's lower end of every live node tau can reach, so a u
    below it survives on any of them; where tau can reach a dead node,
    every floor is below 0 and certifies no u."""
    tau, mu = FLOOR_PAIRS[name]()
    p_tau, p_mu = tau.node_bit_probs(), mu.node_bit_probs()
    live = ~np.isnan(p_tau) & ~np.isnan(p_mu)
    schedule = levin_schedule(testers._levin_eps(8, 0.5))
    draws = [testers._trial_draws(eps_prime) for _, eps_prime, _, _ in schedule]
    inner = schedule[0][3]
    floors, _, _ = testers._survive_floors(p_mu, p_tau, draws, inner)
    assert len(floors) == len(schedule)
    for t, (n_draws, floor) in enumerate(zip(draws, floors), start=1):
        lo, _ = testers._survive_bounds(n_draws, testers._min_kl(p_mu[live], p_tau[live]),
                                        p_mu[live] - p_tau[live], inner)
        assert floor <= lo.min(), (t, floor, lo.min())
    if name == "dead":
        assert (~np.isnan(p_tau) & np.isnan(p_mu)).any()
        assert max(floors) < 0.0
    else:
        assert max(floors) > 0.9


class _Uncomparable(np.ndarray):
    """A node array that refuses elementwise comparison."""

    def __ne__(self, other):
        raise AssertionError("the node arrays were compared")


@pytest.mark.parametrize("table", [DistributionTable.uniform(8),
                                   DistributionTable.point_mass([1, 0] * 4),
                                   DistributionTable(8, _dirichlet(1605, 256))],
                         ids=["uniform", "point-mass", "dirichlet"])
def test_floor_of_one_node_array_skips_the_comparison(table):
    """The two oracles of a self-test on one table share one node array, and
    the floor pass then takes K = 0 without comparing its 2^n - 1 pairs: its
    floors and known set are those of the comparing pass over a copy of the
    array, zero-mass (NaN) nodes included."""
    p = TableOracle(table, seed=1).node_bit_probs()
    assert TableOracle(table, seed=2).node_bit_probs() is p
    schedule = levin_schedule(testers._levin_eps(8, 0.5))
    draws = [testers._trial_draws(eps_prime) for _, eps_prime, _, _ in schedule]
    inner = schedule[0][3]
    one = p.view(_Uncomparable)
    floors, _, known = testers._survive_floors(one, one, draws, inner)
    copy_floors, _, copy_known = testers._survive_floors(p, p.copy(), draws, inner)
    assert floors == copy_floors
    assert known[0].tolist() == copy_known[0].tolist() == []
    assert known[1].tolist() == copy_known[1].tolist() == []


def test_uniform_self_test_searches_no_draw(monkeypatch):
    """n = 16 uniform self-test: K = 0, so every level is certain and no tau
    draw is searched, and the run still bills the accept-path totals."""
    def no_search(*args):
        raise AssertionError("a tau draw was searched")

    monkeypatch.setattr(oracles, "inverse_cdf", no_search)
    tab = DistributionTable.uniform(16)
    v = equivalence_test(TableOracle(tab, seed=1), TableOracle(tab, seed=2), 0.3, seed=3)
    expect = expected_equivalence_queries(16, 0.3)
    assert v.accepted
    assert (v.queries_used["prefix"], v.queries_used["marginal"]) == (expect["tau"], expect["mu"])


# ----------------------------------------------------------------------
# the certain tier


# name -> (n, eps) of the benchmark workloads that run the walk
BENCHMARK_SCHEDULES = {"equiv-uniform-n16": (16, 0.3), "equiv-random-n8": (8, 0.5),
                       "interval-near-reject": (8, 0.3)}


def _certain_points(inner):
    """(the lo grid's points a_i, the indices of those marked certain) for
    ``inner``, every point filled."""
    a = 0.5 + np.arange(testers._GRID + 1) / (2 * testers._GRID)
    testers._survive_lo(a, inner)
    return a, np.flatnonzero(testers._bracket_grid(inner)[2])


@pytest.mark.parametrize("name", list(BENCHMARK_SCHEDULES))
def test_certain_grid_points_fail_below_half_an_ulp(name):
    """Every lo grid point the tier marks, for the inner of a benchmark
    schedule, has an exact (40-digit) majority fail tail Pr[Bin(inner,
    gamma_lo) < ceil(inner / 2)] below 2^-54 at its exact gamma_lo =
    1 - 2 Pr[Bin(64, a_i) > 40].  gamma_lo falls as a_i grows and the fail
    tail falls as gamma_lo grows, so the last marked point bounds every
    other; it is checked with every 64th marked point."""
    n, eps = BENCHMARK_SCHEDULES[name]
    inner = levin_schedule(testers._levin_eps(n, eps))[0][3]
    a, marked = _certain_points(inner)
    assert marked.size > 500 and marked.tolist() == list(range(marked.size))
    k = math.ceil(inner / 2)
    for i in sorted({*marked[::64].tolist(), int(marked[-1])}):
        with mpmath.workdps(EXACT_DPS):
            gamma_lo = 1 - 2 * exact_binom_tail(CHI2_THRESHOLD + 1, CHI2_TRIALS, a[i])
            fail = mpmath.fsum(exact_binom_pmfs(inner, gamma_lo, 0, k - 1))
        assert fail < mpmath.mpf(2) ** -54, (i, fail)


@pytest.mark.parametrize("name", list(BENCHMARK_SCHEDULES))
def test_certain_pairs_survive_exactly(name):
    """At seeded pairs (p, q) whose Pinsker bound a lies at or below the last
    marked lo grid point, at the first, middle and last level's trial draws
    N of a benchmark schedule, ``blackbox_survive_prob`` returns exactly 1.0
    and ``_survive_bounds`` gives hi > 1, so no u < 1 stops such a node:
    equal pairs, p at 0 and 1, and pairs whose a - 1/2 lies within 1% of
    the point's."""
    n, eps = BENCHMARK_SCHEDULES[name]
    schedule = levin_schedule(testers._levin_eps(n, eps))
    inner = schedule[0][3]
    a, marked = _certain_points(inner)
    a_top = a[marked[-1]]
    draws = [testers._trial_draws(eps_prime) for _, eps_prime, _, _ in schedule]
    gen = np.random.default_rng(1900 + n)
    for n_draws in (draws[0], draws[len(draws) // 2], draws[-1]):
        # |p - q| = s sqrt(2 p (1 - p) kl_top) puts a near s (a_top - 1/2) + 1/2.
        kl_top = 2.0 * (a_top - 0.5) ** 2 / n_draws
        p = np.concatenate([gen.random(60), [0.0, 1.0, 0.5]])
        s = np.concatenate([gen.uniform(-1.0, 1.0, 40), np.where(gen.random(20) < 0.5, -1.0, 1.0),
                            np.zeros(3)])
        q = np.clip(p + s * np.sqrt(2.0 * p * (1.0 - p) * kl_top), 0.0, 1.0)
        kl = testers._min_kl(p, q)
        keep = testers._pinsker_bound(n_draws, kl) <= a_top
        assert keep.sum() > 45
        assert testers._pinsker_bound(n_draws, kl[keep]).max() > a_top - 0.01 * (a_top - 0.5)
        survive = blackbox_survive_prob(n_draws, p[keep], q[keep], inner)
        _, hi = testers._survive_bounds(n_draws, kl[keep], (p - q)[keep], inner)
        assert (survive == 1.0).all(), n_draws
        assert (hi > 1.0).all(), n_draws


def _count_certain_levels(monkeypatch, clear=False):
    """Patch ``_survive_floors`` to count each call's certain levels and, with
    ``clear``, to report none certain, its floors and known min-KL unchanged;
    returns the list of counts."""
    survive_floors, marked = testers._survive_floors, []

    def floors(*args):
        floors, certain, known = survive_floors(*args)
        marked.append(sum(certain))
        return floors, [False] * len(certain) if clear else certain, known

    monkeypatch.setattr(testers, "_survive_floors", floors)
    return marked


def test_walk_does_not_depend_on_the_certain_tier(monkeypatch):
    """Every WALK_CORPUS run gives the same (accepted, queries_used, trace)
    with no level certain, every u drawn and checked against the floor, and
    leaves tau's RNG in the same state, and the walk generator too after an
    accept: a certain level's u are passed over to the state that drawing
    them leaves.  The corpus marks levels at n a power of two (the cursor
    skips, n = 1 included) and at other n (the cursor draws)."""
    runs = [(k, run) for group in WALK_CORPUS.values() for k, run in enumerate(group)]
    walk, states, sizes = testers._run_equivalence, [], []

    def recording(tau, mu, eps_l, rng):
        verdict = walk(tau, mu, eps_l, rng)
        states.append((tau.rng.bit_generator.state, rng.bit_generator.state))
        sizes.append(tau.n)
        return verdict

    monkeypatch.setattr(testers, "_run_equivalence", recording)
    marked = _count_certain_levels(monkeypatch)
    tiered = [run(11 * k) for k, run in runs]
    tiered_states, states[:] = states[:], []
    certain_sizes = {n for n, count in zip(sizes, marked) if count}
    assert 1 in certain_sizes and certain_sizes - {1, 2, 4, 8, 16}
    _count_certain_levels(monkeypatch, clear=True)
    for (k, run), v, (tau_state, rng_state) in zip(runs, tiered, tiered_states):
        off = run(11 * k)
        assert (off.accepted, off.queries_used, off.trace) == (v.accepted, v.queries_used,
                                                               v.trace), k
        assert states[-1][0] == tau_state, k
        if v.accepted:
            assert states[-1][1] == rng_state, k


def _walk_generator(stream: str, seed: int) -> np.random.Generator:
    """A walk generator on ``stream``'s bit generator: "pcg64",
    "pcg64-buffered" (a PCG64 holding a buffered 32-bit half), "mt19937" or
    "sfc64"."""
    bit_generator = np.random.PCG64 if stream.startswith("pcg64") else getattr(
        np.random, stream.upper())
    rng = np.random.Generator(bit_generator(seed))
    if stream == "pcg64-buffered":
        rng.integers(0, 10, dtype=np.int32)
        assert rng.bit_generator.state["has_uint32"] == 1
    return rng


@pytest.mark.parametrize("n", [1, 3, 4, 5])
@pytest.mark.parametrize("stream", ["pcg64", "pcg64-buffered", "mt19937", "sfc64"])
def test_certain_levels_keep_any_walk_stream(monkeypatch, n, stream):
    """A uniform self-test, every level of which is certain, gives the same
    verdict and leaves tau's and the walk generator's full states as with no
    level certain, on a walk generator the cursor advances (a PCG64 at n a
    power of two), one it advances keeping a buffered half (a PCG64 at other
    n) and ones whose u it draws (MT19937, SFC64)."""
    def walk():
        table = DistributionTable.uniform(n)
        tau, mu = TableOracle(table, seed=1), TableOracle(table, seed=2)
        rng = _walk_generator(stream, 7)
        verdict = testers._run_equivalence(tau, mu, testers._levin_eps(n, 0.5), rng)
        return (verdict.accepted, verdict.trace, _full_state(tau.rng), _full_state(rng))

    tiered = walk()
    marked = _count_certain_levels(monkeypatch, clear=True)
    assert walk() == tiered
    assert marked[0] == len(tiered[1])


class _CountingGenerator(np.random.Generator):
    """A PCG64 ``Generator`` that counts the doubles ``random`` draws."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.drawn = 0

    def random(self, size=None, dtype=np.float64, out=None):
        self.drawn += out.size if out is not None else int(np.prod(size))
        return super().random(size, dtype, out)


def test_uniform_self_test_draws_no_uniform(monkeypatch):
    """The uniform n = 16, eps = 0.3 self-test (the ``equiv-uniform-n16``
    unit) is certain at all 16 levels, so its walk draws none of its 229,963
    uniforms, and leaves the walk generator where drawing them all does."""
    def walk():
        tab = DistributionTable.uniform(16)
        rng = _CountingGenerator(3)
        verdict = testers._run_equivalence(TableOracle(tab, seed=1), TableOracle(tab, seed=2),
                                           testers._levin_eps(16, 0.3), rng)
        assert verdict.accepted
        return rng.drawn, _full_state(rng)

    tiered, tiered_state = walk()
    _count_certain_levels(monkeypatch, clear=True)
    drawn, state = walk()
    assert (tiered, drawn) == (0, 229_963)
    assert tiered_state == state


def _near_views(seed):
    """TableOracles over eight bits: a Dirichlet tau and mu a 1e-3 mixture
    of it with another Dirichlet table."""
    tau = _dirichlet(seed, 256)
    return (TableOracle(DistributionTable(8, tau), seed=1),
            TableOracle(DistributionTable(8, _near(tau, _dirichlet(seed + 1000, 256), 1e-3)),
                        seed=2))


@pytest.mark.parametrize("stream", ["pcg64", "pcg64-buffered", "mt19937"])
@pytest.mark.parametrize("seed, where", [(2130, "past the first chunk"),
                                         (2104, "in a level shorter than a chunk")],
                         ids=["past-first-chunk", "short-level"])
def test_rejecting_walk_leaves_its_generator_one_chunk_past_the_reject(stream, seed, where):
    """A walk that rejects at a later level, on a caller's generator, leaves
    it where drawing each earlier level's i and then all its u leaves a
    second generator of the same kind, followed by the rejecting level's i
    and its u up to the end of the rejecting draw's chunk: the walk draws u
    a chunk at a time and stops at the chunk that rejects."""
    rng, replay = _walk_generator(stream, 3), _walk_generator(stream, 3)
    tau, mu = _near_views(seed)
    verdict = equivalence_test(tau, mu, 0.3, seed=rng)
    *passed, last = verdict.trace
    assert not verdict.accepted and passed and not last.get("zero_probability_reject")
    chunk, rejected_at, outer = testers._CHUNK, last["rejected_at"], last["outer"]
    if where == "past the first chunk":
        assert chunk <= rejected_at and (rejected_at // chunk + 1) * chunk < outer
    else:
        assert outer < chunk
    for record in passed:
        replay.integers(1, tau.n + 1, size=record["outer"], dtype=np.int32)
        replay.random(record["outer"])
    replay.integers(1, tau.n + 1, size=outer, dtype=np.int32)
    replay.random(min(outer, (rejected_at // chunk + 1) * chunk))
    assert _full_state(rng) == _full_state(replay)


@pytest.mark.parametrize("pair, counters", [("table", 2), ("interval", 4)])
def test_walk_bills_each_counter_once_per_run(monkeypatch, pair, counters):
    """A walk of several levels, accepting or rejecting, adds to each
    distinct counter on the two oracles' chains once: 2 adds for a
    TableOracle pair, 4 for an interval pair (each view and its base)."""
    adds = []
    add = oracles.QueryCounter.add
    monkeypatch.setattr(oracles.QueryCounter, "add",
                        lambda counter, cls, k=1: adds.append(cls) or add(counter, cls, k))
    if pair == "table":
        table = DistributionTable.uniform(4)
        runs = [lambda: equivalence_test(TableOracle(table, seed=1), TableOracle(table, seed=2),
                                         0.5, seed=3),
                lambda: equivalence_test(*_near_views(2104), 0.3, seed=3)]
    else:
        tau, mu = (oracle.base.pmf for oracle in _interval_tilt(1603))
        runs = [lambda: interval_equivalence_test(IntervalOracle(tau, seed=1),
                                                  IntervalOracle(tau, seed=2), 0.3, seed=3),
                lambda: interval_equivalence_test(IntervalOracle(tau, seed=1),
                                                  IntervalOracle(mu, seed=2), 0.3, seed=3)]
    verdicts = []
    for run in runs:
        adds.clear()
        verdicts.append(run())
        assert len(verdicts[-1].trace) > 1
        assert len(adds) == counters
    assert [v.accepted for v in verdicts] == [True, False]


# ----------------------------------------------------------------------
# the per-run node KL


def _per_node_first_stop(p_mu, p_tau, nodes, u, n_draws, inner):
    """The chunk search before the per-run node KL: ``np.unique`` over the
    chunk's nodes, each distinct node bracketed from its own ``_min_kl``
    (a dead node at (-1, -1)), the brackets gathered back to the draws, and
    the band settled by the exact calculus."""
    distinct, inverse = np.unique(nodes, return_inverse=True)
    p, q = p_mu[distinct], p_tau[distinct]
    lo, hi = testers._survive_bounds(n_draws, testers._min_kl(p, q), p - q, inner)
    dead = np.isnan(p)
    lo[dead] = hi[dead] = -1.0
    lo, hi = lo[inverse], hi[inverse]
    maybe = np.flatnonzero(u >= lo)
    stops = np.flatnonzero(u[maybe] >= hi[maybe])
    band = maybe[:stops[0]] if stops.size else maybe
    if band.size:
        exact = testers._exact_survive(n_draws, p_mu[nodes[band]], p_tau[nodes[band]], inner)
        settled = np.flatnonzero(u[band] >= exact)
        if settled.size:
            return int(band[settled[0]])
    return int(maybe[stops[0]]) if stops.size else None


def _zero_half_pair(seed):
    """n = 8 Dirichlet tables that both give the half-cube below a random
    coordinate's 1 zero mass (nodes tau cannot reach), tau a 1e-3 mixture
    of mu on the same support."""
    gen = np.random.default_rng(seed)
    bit = int(gen.integers(0, 8))
    support = (np.arange(256) >> (7 - bit)) & 1 == 0
    mu, noise = np.zeros(256), np.zeros(256)
    mu[support], noise[support] = (gen.dirichlet(np.ones(128)) for _ in range(2))
    return _near(mu, noise, 1e-3), mu


# name -> (tau's view, mu's view), each over eight bits
NODE_KL_PAIRS = {
    "self-test": lambda: _table_views(*[_dirichlet(1700, 256)] * 2),
    "interval-tilt": lambda: _interval_tilt(1701),
    "zero-halves-a": lambda: _table_views(*_zero_half_pair(1702)),
    "zero-halves-b": lambda: _table_views(*_zero_half_pair(1703)),
    "dead-a": lambda: _table_views(*_dead_half(1704)),
    # tau puts 0.2 on mu's zero-mass half, so dead stops are common.
    "dead-b": lambda: _table_views(0.8 * _dead_half(1705)[1] + np.repeat([0.0, 0.2 / 128], 128),
                                   _dead_half(1705)[1]),
}


def test_first_stop_matches_the_per_node_bracket_rule():
    """``_first_stop`` reading the run's node KL gives the stop of the
    per-distinct-node rule on chunks of real tau draws at levels 3-8 of the
    eps = 0.5 schedule, with the node KL as the floor pass leaves it and,
    where K = inf, filled chunk by chunk; the corpus reaches every kind of
    outcome: no stop, a bracket or band stop, and a dead stop."""
    schedule = levin_schedule(testers._levin_eps(8, 0.5))
    draws = [testers._trial_draws(eps_prime) for _, eps_prime, _, _ in schedule]
    inner = schedule[0][3]
    outcomes = set()
    for k, name in enumerate(NODE_KL_PAIRS):
        tau, mu = NODE_KL_PAIRS[name]()
        p_tau, p_mu = tau.node_bit_probs(), mu.node_bit_probs()
        _, _, known = testers._survive_floors(p_mu, p_tau, draws, inner)
        assert (known is None) == name.startswith("dead")
        node_kl = testers._node_kl(p_mu.size, known)
        gen = np.random.default_rng(1800 + k)
        for n_draws in draws[2:8]:
            for _ in range(6):
                i = gen.integers(1, 9, size=200)
                nodes = distcore.node_index(i, tau.sample_full_indices_uncounted(200) >> (9 - i))
                u = gen.random(200)
                want = _per_node_first_stop(p_mu, p_tau, nodes, u, n_draws, inner)
                assert testers._first_stop(p_mu, p_tau, node_kl, nodes, u, n_draws,
                                           inner) == want, (name, n_draws)
                dead = want is not None and np.isnan(p_mu[nodes[want]])
                outcomes.add("none" if want is None else "dead" if dead else "stop")
        # Every value kept is the node's own min-KL.
        kept = ~np.isnan(p_tau) & ~np.isnan(node_kl)
        assert kept.any()
        np.testing.assert_array_equal(node_kl[kept], testers._min_kl(p_mu[kept], p_tau[kept]))
    assert outcomes == {"none", "stop", "dead"}


def _benchmark_interval_pair():
    """The ``interval-near-reject`` benchmark pair at seed 0: a Dirichlet pmf
    over [200] and the same pmf with 2e-3 of mass moved from the upper half
    of its padded [256] to the lower half."""
    tau = np.random.default_rng(np.random.SeedSequence([0, 2])).dirichlet(np.ones(200))
    tau /= tau.sum()
    low = float(tau[:128].sum())
    mu = tau.copy()
    mu[:128] *= (low + 2e-3) / low
    mu[128:] *= (1.0 - low - 2e-3) / (1.0 - low)
    return tau, mu / mu.sum()


def _count_min_kl(monkeypatch):
    """Wrap ``_min_kl`` and ``_first_stop``: returns the rows of each
    ``_min_kl`` call, tagged with whether a chunk search made it, and the
    nodes of every searched chunk."""
    rows, searched = [], []
    min_kl, first_stop = testers._min_kl, testers._first_stop

    def counted(p, q):
        rows.append((bool(searched) and searched[-1] is not None, len(p)))
        return min_kl(p, q)

    def search(p_mu, p_tau, node_kl, nodes, *args):
        searched.append(nodes)
        try:
            return first_stop(p_mu, p_tau, node_kl, nodes, *args)
        finally:
            searched.append(None)

    monkeypatch.setattr(testers, "_min_kl", counted)
    monkeypatch.setattr(testers, "_first_stop", search)
    return rows, searched


def test_interval_rep_computes_each_node_kl_once(monkeypatch):
    """One ``interval-near-reject`` rep: the floor pass computes the min-KL
    of the reachable nodes whose pair differs, in one call, and the searched
    chunks, whose nodes are then all known, compute none."""
    rows, searched = _count_min_kl(monkeypatch)
    tau, mu = _benchmark_interval_pair()
    v = interval_equivalence_test(IntervalOracle(tau, seed=1), IntervalOracle(mu, seed=2), 0.3,
                                  seed=3)
    views = [IntervalBackedPrefixOracle(IntervalOracle(pmf)) for pmf in (tau, mu)]
    p_tau, p_mu = (view.node_bit_probs() for view in views)
    differ = int(np.count_nonzero(~np.isnan(p_tau) & (p_mu != p_tau)))
    assert not v.accepted and differ > 0
    assert [nodes for nodes in searched if nodes is not None]
    assert rows == [(False, differ)]


def test_dead_pair_computes_each_drawn_node_kl_once(monkeypatch):
    """Where tau can reach a dead node (K = inf), the floor pass computes no
    min-KL, and the searched chunks compute each node they draw once per
    run (a chunk that draws a dead node stops the walk)."""
    rows, searched = _count_min_kl(monkeypatch)
    for seed in range(4):
        rows.clear(), searched.clear()
        tau, mu = _dead_half(1510 + seed)
        equivalence_test(TableOracle(DistributionTable(8, tau), seed=seed),
                         TableOracle(DistributionTable(8, mu), seed=seed + 1), 0.5, seed=seed + 2)
        drawn = {node for nodes in searched if nodes is not None for node in nodes.tolist()}
        assert drawn and all(in_search for in_search, _ in rows)
        assert sum(count for _, count in rows) == len(drawn)


def test_search_free_run_builds_no_node_kl_or_scratch(monkeypatch):
    """A uniform n = 16 self-test searches no chunk, so it allocates no
    per-node KL array and builds no coordinate scratch generator; a run that
    searches several chunks builds one scratch generator."""
    # The generators built through np.random.Generator; default_rng builds
    # its own without it.
    builds = []

    class Counted(np.random.Generator):
        def __init__(self, bit_generator):
            builds.append(bit_generator)
            super().__init__(bit_generator)

    monkeypatch.setattr(np.random, "Generator", Counted)
    tau, mu = _dead_half(1520)
    v = equivalence_test(TableOracle(DistributionTable(8, tau), seed=1),
                         TableOracle(DistributionTable(8, mu), seed=2), 0.5, seed=3)
    assert not v.accepted and v.trace[-1]["t"] > 1 and len(builds) == 1

    def no_node_kl(*args):
        raise AssertionError("a per-node KL array was built")

    builds.clear()
    monkeypatch.setattr(testers, "_node_kl", no_node_kl)
    tab = DistributionTable.uniform(16)
    v = equivalence_test(TableOracle(tab, seed=1), TableOracle(tab, seed=2), 0.3, seed=3)
    assert v.accepted and not builds
