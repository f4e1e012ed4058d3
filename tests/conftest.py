"""Shared helpers for the test suite."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.stats import binom

from condtest import adversarial, harness, testers
from condtest.adversarial import GridProductDistance
from condtest.distcore import DistributionTable, DivergenceKind
from condtest.oracles import (
    BinaryEncodedOracle,
    IntervalBackedPrefixOracle,
    OracleError,
    OracleErrorKind,
    ProductMarginalOracle,
    QueryClass,
    TableOracle,
)
from condtest.testers import CHI2_SAMPLE_FACTOR, CHI2_THRESHOLD, CHI2_TRIALS


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


# The largest double below 1: the top uniform a generator's ``random`` returns.
TOP_UNIFORM = 1.0 - 2.0 ** -53


class ConstantUniforms:
    """Stands in for a generator whose every uniform is ``u``: ``random()``
    returns u, ``random(k)`` k copies of it."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None):
        return self.u if size is None else np.full(size, self.u)


def bit_prob_in_cylinder(table, i, k, anc):
    """Reference for a node of ``effective_conditional_levels``:
    Pr[x_i = 1 | x_[k] = anc], for k < i and positive ancestor mass, as
    pairwise sums: the cylinder's block of cells halved to its level-i
    masses, the entries ending in 1 halved to one value, over the
    ancestor's pairwise mass."""
    block = table.probs[anc << (table.n - k):(anc + 1) << (table.n - k)]
    while block.shape[0] > 1 << (i - k):
        block = block[0::2] + block[1::2]
    ones = _pairwise_mass(block[1::2], i - k - 1, 0, 0)
    return ones / _pairwise_mass(table.probs, table.n, k, anc)


def reference_effective_conditional(table, i, j):
    """Reference effective conditional at a dead node (i, j): the cylinder
    value of the prefix's deepest positive-mass ancestor."""
    levels = table.level_sums()
    k, anc = i - 1, j
    while k > 0 and levels[k][anc] == 0.0:
        k -= 1
        anc >>= 1
    return bit_prob_in_cylinder(table, i, k, anc)


def reference_bit_divergence(kind, p, q):
    """Reference for ``single_bit_divergence``: one pair of floats, with
    ``math.log2``."""
    if kind is DivergenceKind.TV:
        return abs(p - q)
    if kind is DivergenceKind.CHI2:
        return 0.0 if p == q else (p - q) ** 2 / ((p + q) * ((1.0 - p) + (1.0 - q)))
    total = 0.0
    for a, b in ((p, q), (1.0 - p, 1.0 - q)):
        if a == 0.0:
            continue
        if b == 0.0:
            return math.inf
        total += a * math.log2(a / b)
    return max(total, 0.0)


def reference_slicewise_divergence(kind, t, m):
    """Reference for ``slicewise_divergence``: a loop over every prefix of
    positive t-mass, adding its mass times ``reference_bit_divergence`` of
    t's conditional and m's effective one (``reference_effective_conditional``);
    KL is inf once such a prefix has no m-mass."""
    t_levels, m_levels = t.level_sums(), m.level_sums()
    total = 0.0
    for i in range(1, t.n + 1):
        for j in np.flatnonzero(t_levels[i - 1] > 0.0).tolist():
            if kind is DivergenceKind.KL and m_levels[i - 1][j] == 0.0:
                return math.inf
            tc = float(t_levels[i][2 * j + 1]) / float(t_levels[i - 1][j])
            d = reference_bit_divergence(kind, tc, reference_effective_conditional(m, i, j))
            total += float(t_levels[i - 1][j]) * d
    return total


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


# ----------------------------------------------------------------------
# references for the survive calculus

# Digits of the exact reference.
EXACT_DPS = 40


def _exact_pmf_run(n, p, first, last):
    """Pr[Bin(n, p) = k] for k = first..last, one at a time, at the caller's
    mpmath precision: the first from mpmath's binomial, the rest by the exact
    ratio recurrence."""
    p = mpmath.mpf(p)
    if p in (0, 1):
        yield from (mpmath.mpf(k == n * p) for k in range(first, last + 1))
        return
    pmf = mpmath.binomial(n, first) * p ** first * (1 - p) ** (n - first)
    odds = p / (1 - p)
    for k in range(first, last + 1):
        yield pmf
        pmf = pmf * (n - k) / (k + 1) * odds


def exact_binom_pmfs(n, p, first=0, last=None):
    """[Pr[Bin(n, p) = k] for k = first..last] (last defaults to n) as mpmath
    numbers at EXACT_DPS digits; ``p`` is a float or an mpmath number."""
    with mpmath.workdps(EXACT_DPS):
        return list(_exact_pmf_run(n, p, first, n if last is None else last))


def exact_binom_tail(k, n, p):
    """Pr[Bin(n, p) >= k] at EXACT_DPS digits."""
    with mpmath.workdps(EXACT_DPS):
        return mpmath.fsum(exact_binom_pmfs(n, p)[max(k, 0):])


def exact_tail_reaches(k, n, x, target):
    """Whether Pr[Bin(n, x) >= k] >= target, for a float x in [0, 1] and a
    float or Fraction target, decided in exact integer arithmetic: with
    x = a / d, the tail times d^n is the sum of C(n, j) a^j (d - a)^(n - j)
    over j >= k."""
    a, d = float(x).as_integer_ratio()
    t, t_d = Fraction(target).as_integer_ratio()
    up, down = [1], [1]
    for _ in range(n):
        up.append(up[-1] * a)
        down.append(down[-1] * (d - a))
    total = sum(math.comb(n, j) * up[j] * down[n - j] for j in range(max(k, 0), n + 1))
    return total * t_d >= t * d ** n


def exact_accept_prob(alpha, beta):
    """Pr[A <= 40 and B <= 40] for (A, B) ~ Multinomial(64; alpha, beta) at
    EXACT_DPS digits: B given A = a is Bin(64 - a, beta / (1 - alpha))."""
    with mpmath.workdps(EXACT_DPS):
        alpha, beta = mpmath.mpf(alpha), mpmath.mpf(beta)
        if alpha >= 1:
            return mpmath.mpf(0)
        ratio = min(beta / (1 - alpha), mpmath.mpf(1))
        pa = exact_binom_pmfs(CHI2_TRIALS, alpha)
        return mpmath.fsum(
            pa[a] * mpmath.fsum(exact_binom_pmfs(CHI2_TRIALS - a, ratio)[:CHI2_THRESHOLD + 1])
            for a in range(CHI2_THRESHOLD + 1))


def exact_calculus(n_draws, p, q, inner):
    """(alpha, beta, survive) of ``blackbox_survive_prob`` at (p, q) at
    EXACT_DPS digits: alpha and beta summed over all N + 1 outcomes of Y
    against X's exact cdf, the accept probability and the majority tail
    taken from those exact values.  mpmath's betainc does not converge at
    N = 12,288, so every term comes from the pmf recurrence."""
    with mpmath.workdps(EXACT_DPS):
        pmf_p = exact_binom_pmfs(n_draws, p)
        total = mpmath.fsum(pmf_p)
        below = alpha = beta = mpmath.mpf(0)  # below: Pr[X < k]
        for k, pmf_q in enumerate(_exact_pmf_run(n_draws, q, 0, n_draws)):
            beta += pmf_q * below
            below += pmf_p[k]
            alpha += pmf_q * (total - below)
        gamma = exact_accept_prob(alpha, beta)
        return alpha, beta, exact_binom_tail(math.ceil(inner / 2), inner, gamma)


def near_rows(n_draws, inner, count, seed):
    """``count`` seeded (p, q) rows whose survive value lies in
    (1e-6, 1 - 1e-6): q uniform in [0.05, 0.95] and p on a random side of
    it, at the distance where ``blackbox_survive_prob`` meets a uniform
    target in [0.01, 0.99], found by bisection."""
    rng = np.random.default_rng(seed)
    rows = []
    while len(rows) < count:
        q, target = rng.uniform(0.05, 0.95), rng.uniform(0.01, 0.99)
        step = (1.0 if rng.random() < 0.5 else -1.0) * 3.0 * math.sqrt(q * (1.0 - q) / n_draws)
        lo, hi = 0.0, 1.0
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            p = q + mid * step
            if 0.0 < p < 1.0 and testers.blackbox_survive_prob(n_draws, p, q, inner) > target:
                lo = mid
            else:
                hi = mid
        p = q + lo * step
        if 0.0 < p < 1.0 and 1e-6 < testers.blackbox_survive_prob(n_draws, p, q, inner) < 1 - 1e-6:
            rows.append((p, float(q)))
    return rows


def _zero_prob():
    return OracleError(OracleErrorKind.ZERO_PROBABILITY_CONDITION, "zero mass")


def _symbol_codes(domain):
    """(cells, coordinates) array of every cell's per-coordinate symbol
    codes, in increasing cell order, built from the domain alone."""
    return np.array([[alpha.index(x) for alpha, x in zip(domain.alphabets, domain.element_of(c))]
                     for c in range(domain.size())])


def _code_cells(codes, probs, width):
    """The mass at each width-bit code: the probs of the cells with that
    code, added one at a time in increasing cell order."""
    cells = np.zeros(1 << width)
    for code, p in zip(codes.tolist(), probs.tolist()):
        cells[code] += p
    return cells


def _pairwise_mass(cells, width, k, prefix):
    """Mass of the k-bit prefix of the width-bit codes of ``cells``: its
    block of cells, halved by adding adjacent pairs until one sum is left."""
    block = cells[prefix << (width - k):(prefix + 1) << (width - k)]
    while block.shape[0] > 1:
        block = block[0::2] + block[1::2]
    return float(block[0])


def _pairwise_bit_prob(cells, width, k, prefix):
    """Pr[bit k+1 = 1 | the k-bit prefix] of the width-bit codes of
    ``cells``, as a ratio of pairwise masses."""
    total = _pairwise_mass(cells, width, k, prefix)
    if total <= 0.0:
        raise _zero_prob()
    return _pairwise_mass(cells, width, k + 1, 2 * prefix + 1) / total


def reference_bit_prob(oracle, i, prefix_idx):
    """Reference for ``node_bit_probs``: Pr[x_i = 1 | prefix] one key at a
    time, with the float operations of the one rule every node array
    follows: each cell's mass sits at its code (``_reference_cells``), and
    a prefix's mass is its block of cells summed pairwise.  OracleError
    with kind ZERO_PROBABILITY_CONDITION on a zero-mass prefix."""
    if isinstance(oracle, TableOracle):
        levels = oracle.table.level_sums()
        parent = float(levels[i - 1][prefix_idx])
        if parent <= 0.0:
            raise _zero_prob()
        return float(levels[i][2 * prefix_idx + 1]) / parent
    if isinstance(oracle, ProductMarginalOracle):
        return _product_bit_prob(oracle.view, i, prefix_idx)
    return _pairwise_bit_prob(_reference_cells(oracle), oracle.n, i - 1, prefix_idx)


def _reference_cells(view):
    """The mass at each n-bit code of a cell-backed view: the table's cells;
    the pmf padded with zeros to [2^n]; the tuple cells at their codes,
    computed from the domain alone."""
    if isinstance(view, TableOracle):
        return view.table.probs
    if isinstance(view, IntervalBackedPrefixOracle):
        cells = np.zeros(1 << view.n)
        cells[:view.base.N] = view.base.pmf
        return cells
    if isinstance(view, BinaryEncodedOracle):
        domain = view.base.domain
        encoded = (_symbol_codes(domain) << (view.n - np.cumsum(domain.bit_widths))).sum(axis=1)
        return _code_cells(encoded, view.base.probs, view.n)
    raise TypeError(type(view).__name__)


def _product_bit_prob(view, i, prefix_idx):
    """Pr[x_i = 1 | prefix] under the product of the coordinate marginals of
    ``view``, whose coordinates are one bit each for a table and the
    encoding's blocks for a tuple domain.  A value's marginal mass adds,
    pairwise, the masses of the prefixes that end the coordinate's block
    with that value; only the prefix's bits in bit i's own block condition
    bit i, as a ratio of the marginal's pairwise masses."""
    widths = view.domain.bit_widths if isinstance(view, BinaryEncodedOracle) else (1,) * view.n
    ends = np.cumsum(widths)
    j = int(np.searchsorted(ends, i - 1, side="right"))
    end, width = int(ends[j]), widths[j]
    start = end - width
    cells = _reference_cells(view)
    masses = np.array([_pairwise_mass(cells, view.n, end, v) for v in range(1 << end)])
    marginal = np.array([_pairwise_mass(column, start, 0, 0)
                         for column in masses.reshape(1 << start, 1 << width).T])
    k = i - 1 - start
    return _pairwise_bit_prob(marginal, width, k, prefix_idx & ((1 << k) - 1))


def _literal_first_stop(tau, mu, nodes, eps_prime, inner):
    """(index, dead) of the first draw in ``nodes`` that the literal black box
    does not survive, or (None, False): a prefix mu gives zero mass is a dead
    reject, and any other draw runs ``inner`` single-bit chi-square tests on
    bits drawn from mu's and tau's RNG streams and survives a non-negative
    majority tally."""
    for pos, node in enumerate(nodes.tolist()):
        i = node.bit_length()
        prefix_idx = node - (1 << (i - 1))
        try:
            p_mu = reference_bit_prob(mu, i, prefix_idx)
        except OracleError:
            return pos, True
        p_tau = reference_bit_prob(tau, i, prefix_idx)
        accepts = sum(
            testers.single_bit_chi2_test(testers.BitSampler.from_probability(p_mu, mu.rng),
                                         testers.BitSampler.from_probability(p_tau, tau.rng),
                                         eps_prime).accepted
            for _ in range(inner))
        if accepts < math.ceil(inner / 2):
            return pos, False
    return None, False


def _survive_first_stop(tau, mu, nodes, u, n_draws, inner, keys):
    """(index, dead) of the first draw whose u is at least its survive
    probability, or (None, False).  The chunk's new (i, prefix) keys are
    looked up one at a time through ``reference_bit_prob``, deduped in a
    dict by (p_mu, p_tau) and given survive values in one batch; ``keys``
    keeps them for the rest of the level."""
    nodes, inverse = np.unique(nodes, return_inverse=True)
    pending = {}
    for node in nodes.tolist():
        if node in keys:
            continue
        i = node.bit_length()
        prefix_idx = node - (1 << (i - 1))
        p_tau = reference_bit_prob(tau, i, prefix_idx)
        try:
            p_mu = reference_bit_prob(mu, i, prefix_idx)
        except OracleError:
            keys[node] = -1.0
            continue
        pending.setdefault((p_mu, p_tau), []).append(node)
    if pending:
        pairs = np.array(list(pending))
        values = testers.blackbox_survive_prob(n_draws, pairs[:, 0], pairs[:, 1], inner)
        for same, value in zip(pending.values(), values.tolist()):
            keys.update(dict.fromkeys(same, value))
    values = np.array([keys[node] for node in nodes.tolist()])[inverse]
    stops = np.flatnonzero(u >= values)
    if not stops.size:
        return None, False
    return int(stops[0]), bool(values[stops[0]] == -1.0)


def reference_walk(tau, mu, eps_l, rng, literal=False):
    """Reference for ``testers._run_equivalence``: the per-key walk the node
    arrays replaced.  A draw survives while its u is below its survive
    probability or, with ``literal``, while the literal black box survives
    (the tester as the paper states it, at more than 10^9 queries per
    accepting run, so only tiny inputs are run this way)."""
    n = tau.n
    trace = []
    for t, eps_prime, outer, inner in testers.levin_schedule(eps_l):
        n_draws = math.ceil(CHI2_SAMPLE_FACTOR / eps_prime)
        cost = inner * CHI2_TRIALS * n_draws
        i_arr = rng.integers(1, n + 1, size=outer)
        u_arr = rng.random(outer)
        keys = {}
        rejected_at, dead = None, False
        for first in range(0, outer, 512):
            w_idx = tau.sample_full_indices_uncounted(min(512, outer - first))
            last = first + w_idx.shape[0]
            i_c = i_arr[first:last]
            nodes = (1 << (i_c - 1)) + (w_idx >> (n - i_c + 1))
            if literal:
                pos, dead = _literal_first_stop(tau, mu, nodes, eps_prime, inner)
            else:
                pos, dead = _survive_first_stop(tau, mu, nodes, u_arr[first:last],
                                                n_draws, inner, keys)
            if pos is not None:
                rejected_at = first + pos
                break
        used = outer if rejected_at is None else rejected_at + 1
        ran = used - dead
        tau.charge(QueryClass.PREFIX, used + ran * cost)
        mu.charge(QueryClass.MARGINAL, ran * cost + dead)
        trace.append(testers._level_record(t, eps_prime, outer, inner, rejected_at, dead))
        if rejected_at is not None:
            return testers.Verdict(False, trace=trace)
    return testers.Verdict(True, trace=trace)


@pytest.fixture
def rng():
    return np.random.default_rng(20260824)


@pytest.fixture(autouse=True)
def empty_instance_memo():
    """Every test starts with an empty adversarial instance memo, so that no
    test passes only because an earlier one searched its instances."""
    adversarial._instance_memo.cache_clear()


@pytest.fixture(autouse=True)
def empty_shorthand_memo():
    """Every test starts with an empty shorthand-source memo, so that no test
    passes only because an earlier one resolved its sources."""
    harness._shorthand_memo.cache_clear()
