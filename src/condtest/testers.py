"""Randomized testers: single-bit chi-square test, Levin work balance, the
equivalence tester, the product tester, and the alphabet/interval wrappers.

Two execution modes are provided for the full testers.

``sampled``
    The literal algorithm: every trial draws its bit samples from the
    oracles' RNG streams (one binomial count per trial at the exact
    conditional probability, distribution-identical to one-at-a-time
    sampling).  The schedule's constants make this mode astronomically
    expensive at realistic parameters (~10^12 samples at n=8, eps=0.3), so
    it is practical only for tiny configurations and for validating the
    collapsed mode.

``collapsed``
    Exact-verdict simulation: for each drawn (i, w) the accept probability of
    a black-box invocation is computed in closed form from the oracles' exact
    conditional probabilities, and the per-draw survival event is decided by
    a single Bernoulli draw.  The verdict law is mathematically identical to
    the sampled mode (binomial trial sums -> multinomial (A, B) counts ->
    binomial majority tally).  This is what makes the statistical acceptance
    experiments runnable at all.

The collapsed calculus
    For a drawn (i, w) with conditional bit probabilities p under mu and q
    under tau, ``chi2_trial_compare_probs`` gives alpha = Pr[X > Y] and
    beta = Pr[X < Y] for X ~ Bin(N, p), Y ~ Bin(N, q), ``chi2_accept_prob``
    the black box's accept probability and ``blackbox_survive_prob`` the
    probability that the majority of ``inner`` runs accepts.  The sum over Y
    runs over the window [Nq - s, Nq + s] clipped to [0, N], with
    s = sqrt(N ln(2e18) / 2): by Hoeffding's inequality Y leaves it with
    probability at most 2 exp(-2 s^2 / N) = 1e-18, so about 9.2 sqrt(N)
    outcomes replace N + 1 and alpha and beta move by at most 1e-18.  The
    three functions take scalars or 1-D arrays with one row per (p, q); rows
    are evaluated in blocks of at most 2^13 cells and reduced one by one, so
    a value never depends on the rows computed with it.

    The collapsed loop pulls each level's y-draws in chunks of 512.  For the
    (i, prefix) keys new to the level it computes every survive probability
    not yet known in one batched call, then stops at the first draw whose
    key mu gives zero mass or whose uniform u is >= its survive probability.
    Known values live in one process-wide memo keyed by (N, p, q, inner),
    capped at 2^14 entries with the oldest evicted first, so repeated runs
    on the same distributions skip the calculus.

Both modes meter only through the oracles' ``charge``, with the same totals:
every y-draw costs one prefix query, every black-box run its trial samples,
and a zero-probability reject the one failed marginal query.

``auto`` picks sampled when the deterministic sample budget is small enough,
collapsed otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import binom as _binom

from .oracles import (
    BinaryEncodedOracle,
    IntervalBackedPrefixOracle,
    IntervalOracle,
    OracleError,
    OracleErrorKind,
    QueryClass,
    product_marginal_oracle,
)

CHI2_TRIALS = 64
CHI2_THRESHOLD = 40
CHI2_SAMPLE_FACTOR = 24  # ceil(24 / eps) samples per trial (proof-consistent)


@dataclass
class TestConfig:
    epsilon: float
    seed: int | None = None
    mode: str = "auto"  # auto | sampled | collapsed
    sampled_budget_limit: int = 50_000_000

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0,1), got {self.epsilon}")
        if self.mode not in ("auto", "sampled", "collapsed"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass
class Verdict:
    accepted: bool
    queries_used: dict[str, int] = field(default_factory=dict)
    trace: list = field(default_factory=list)

    @property
    def decision(self) -> str:
        return "accept" if self.accepted else "reject"


class BitSampler:
    """Zero-argument access to i.i.d. bits from a fixed Bernoulli source.

    ``draw_sums(m, k)`` returns k independent sums of m bits each; the
    sampler's own meter counts individual bits.
    """

    def __init__(self, draw_sums_fn):
        self._fn = draw_sums_fn
        self.count = 0

    def draw_sums(self, m: int, k: int) -> np.ndarray:
        self.count += m * k
        return np.asarray(self._fn(m, k))

    @classmethod
    def from_probability(cls, p: float, rng) -> "BitSampler":
        return cls(lambda m, k: rng.binomial(m, p, size=k))

    @classmethod
    def constant(cls, bit: int) -> "BitSampler":
        return cls(lambda m, k: np.full(k, bit * m))


def single_bit_chi2_test(sampler_p: BitSampler, sampler_q: BitSampler,
                         eps: float) -> Verdict:
    """Distinguish p = q from chi2(p, q) > eps at success probability 2/3.

    64 trials; each trial compares sums of N = ceil(24/eps) draws from the
    two samplers.  Accept iff at most 40 trials fall on each side.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0,1], got {eps}")
    n_draws = math.ceil(CHI2_SAMPLE_FACTOR / eps)
    xs = sampler_p.draw_sums(n_draws, CHI2_TRIALS)
    ys = sampler_q.draw_sums(n_draws, CHI2_TRIALS)
    a = int(np.sum(xs > ys))
    b = int(np.sum(xs < ys))
    accepted = a <= CHI2_THRESHOLD and b <= CHI2_THRESHOLD
    return Verdict(accepted, {"samples_per_source": CHI2_TRIALS * n_draws},
                   trace=[{"A": a, "B": b, "N": n_draws}])


# ----------------------------------------------------------------------
# Levin's work-balance procedure


def levin_schedule(eps: float) -> list[tuple[int, float, int, int]]:
    """Deterministic schedule rows (t, eps', outer draws, inner repetitions)."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0,1), got {eps}")
    t_max = math.ceil(math.log2(2.0 / eps))
    inner = math.ceil(64 * (math.log2(1.0 / eps) + 2))
    return [(t, 2.0 ** -t, math.ceil(2.0 ** (3 - t) / eps), inner)
            for t in range(1, t_max + 1)]


def levin_balance(draw_y, black_box, eps: float) -> Verdict:
    """Distinguish E[X] = 0 from E[X] > eps given a two-sided-error black box
    for the conditional means E[X | Y = y].

    For each threshold eps' = 2^-t the black box is run a logarithmic number
    of times per drawn y and the majority tally decides; any majority-reject
    y rejects the whole procedure.
    """
    trace = []
    for t, eps_prime, outer, inner in levin_schedule(eps):
        for j in range(outer):
            y = draw_y()
            tally = 0
            for _ in range(inner):
                tally += 1 if black_box(y, eps_prime) else -1
            if tally < 0:
                trace.append({"t": t, "eps_prime": eps_prime, "outer": outer,
                              "inner": inner, "rejected_at": j})
                return Verdict(False, trace=trace)
        trace.append({"t": t, "eps_prime": eps_prime, "outer": outer,
                      "inner": inner, "rejected_at": None})
    return Verdict(True, trace=trace)


# ----------------------------------------------------------------------
# deterministic query budgets


def slice_divergence_threshold(n: int, eps: float) -> float:
    """Levin threshold rho = eps^2 / (24 log2(2n/eps)) for the slice-wise
    chi-square divergence."""
    return eps ** 2 / (24.0 * math.log2(2.0 * n / eps))


def expected_equivalence_queries(n: int, eps: float) -> dict[str, int]:
    """Accept-path query counts of the equivalence tester, per source.

    tau pays one prefix query per outer draw plus N per black-box trial
    batch; mu pays N marginal-prefix queries per black-box run.
    """
    eps_l = slice_divergence_threshold(n, eps) / n
    tau = 0
    mu = 0
    for _, eps_prime, outer, inner in levin_schedule(eps_l):
        n_draws = math.ceil(CHI2_SAMPLE_FACTOR / eps_prime)
        per_bb = CHI2_TRIALS * n_draws
        tau += outer * (1 + inner * per_bb)
        mu += outer * inner * per_bb
    return {"tau": tau, "mu": mu, "total": tau + mu}


# ----------------------------------------------------------------------
# collapsed-mode probability calculus

# Y ~ Bin(N, q) leaves [Nq - s, Nq + s] with probability at most
# 2 exp(-2 s^2 / N) (Hoeffding), which is 1e-18 at s^2 = N ln(2e18) / 2.
_TAIL_LOG = math.log(2e18)
# Rows x window cells evaluated per SciPy call; bounds the temporaries.
_BLOCK_CELLS = 1 << 13
# (n_draws, p, q, inner) -> survive, shared by every run in the process.
_SURVIVE_MEMO: dict = {}
_SURVIVE_MEMO_CAP = 1 << 14


def _rows(x) -> np.ndarray:
    return np.atleast_1d(np.asarray(x, dtype=np.float64))


def chi2_trial_compare_probs(n_draws: int, p, q):
    """(Pr[X > Y], Pr[X < Y]) for X ~ Bin(N, p), Y ~ Bin(N, q), independent.

    ``p`` and ``q`` are scalars, giving a pair of floats, or 1-D arrays with
    one row per (p, q), giving a pair of arrays.  The sum over Y runs over the
    window [Nq - s, Nq + s] clipped to [0, N], outside which Y has mass at
    most 1e-18; each row is reduced on its own, so its value does not depend
    on the rows computed with it.
    """
    p_rows, q_rows = np.broadcast_arrays(_rows(p), _rows(q))
    half = math.ceil(math.sqrt(n_draws * _TAIL_LOG / 2.0))
    width = min(2 * half + 2, n_draws + 1)
    offsets = np.arange(width)
    alpha = np.empty(p_rows.shape[0])
    beta = np.empty(p_rows.shape[0])
    step = max(1, _BLOCK_CELLS // width)
    for first in range(0, p_rows.shape[0], step):
        block = slice(first, first + step)
        p_b, q_b = p_rows[block, None], q_rows[block, None]
        lo = np.clip(np.floor(n_draws * q_b) - half, 0, n_draws + 1 - width)
        k = lo.astype(np.int64) + offsets
        pmf_q = _binom.pmf(k, n_draws, q_b)
        alpha[block] = (pmf_q * _binom.sf(k, n_draws, p_b)).sum(axis=1)
        beta[block] = (pmf_q * _binom.cdf(k - 1, n_draws, p_b)).sum(axis=1)
    np.minimum(alpha, 1.0, out=alpha)
    np.minimum(beta, 1.0, out=beta)
    if np.ndim(p) == 0 and np.ndim(q) == 0:
        return float(alpha[0]), float(beta[0])
    return alpha, beta


def chi2_accept_prob(alpha, beta):
    """Pr[A <= 40 and B <= 40] for (A, B) ~ Multinomial(64; alpha, beta).

    Scalars give a float, 1-D arrays one value per row.  The result is
    clamped to [0, 1]: rounding can push the sum just above 1.
    """
    alpha_rows, beta_rows = _rows(alpha)[:, None], _rows(beta)[:, None]
    a = np.arange(0, CHI2_THRESHOLD + 1)
    pa = _binom.pmf(a, CHI2_TRIALS, alpha_rows)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.minimum(beta_rows / (1.0 - alpha_rows), 1.0)
    pb = _binom.cdf(CHI2_THRESHOLD, CHI2_TRIALS - a, ratio)
    gamma = np.where(alpha_rows[:, 0] >= 1.0, 0.0,
                     np.clip((pa * pb).sum(axis=1), 0.0, 1.0))
    if np.ndim(alpha) == 0 and np.ndim(beta) == 0:
        return float(gamma[0])
    return gamma


def blackbox_survive_prob(n_draws: int, p, q, inner: int):
    """Probability that the inner majority tally over ``inner`` black-box runs
    is non-negative, for the chi-square black box on Ber(p) vs Ber(q).

    Scalars give a float, 1-D arrays one value per row."""
    alpha, beta = chi2_trial_compare_probs(n_draws, p, q)
    gamma = chi2_accept_prob(alpha, beta)
    survive = _binom.sf(math.ceil(inner / 2) - 1, inner, gamma)
    return float(survive) if np.ndim(survive) == 0 else survive


def _remember_survive(key: tuple, value: float) -> None:
    if len(_SURVIVE_MEMO) >= _SURVIVE_MEMO_CAP:
        # Evict the oldest quarter at once: deleting a dict's first key one
        # at a time rescans every slot freed before it.
        for old in list(_SURVIVE_MEMO)[:_SURVIVE_MEMO_CAP // 4]:
            del _SURVIVE_MEMO[old]
    _SURVIVE_MEMO[key] = value


# ----------------------------------------------------------------------
# equivalence tester


def _collect_counters(oracles) -> list:
    seen = []
    for oracle in oracles:
        node = oracle
        while node is not None:
            counter = getattr(node, "counter", None)
            if counter is not None and all(counter is not c for c in seen):
                seen.append(counter)
            node = getattr(node, "base", None)
    return seen


def _counter_totals(counters) -> dict[str, int]:
    out = {cls.value: 0 for cls in QueryClass}
    for counter in counters:
        for cls, k in counter.counts.items():
            out[cls.value] += k
    return out


def _queries_delta(before: dict[str, int], counters) -> dict[str, int]:
    after = _counter_totals(counters)
    delta = {name: after[name] - before[name] for name in after}
    delta["total"] = sum(delta.values())
    return delta


def _count_trials(oracle, cls: QueryClass, i: int, prefix_idx: int,
                  m: int, k: int) -> np.ndarray:
    """k independent counts of ones among m bit samples at (i, prefix);
    distribution-identical to m*k single-sample queries, charged as such.
    A query that fails (a dead prefix) is billed once and re-raised."""
    try:
        p = oracle.exact_bit_prob(i, prefix_idx)
    except OracleError:
        oracle.charge(cls)
        raise
    oracle.charge(cls, m * k)
    return oracle.rng.binomial(m, p, size=k)


def _zero_probability_record(t: int, j: int) -> dict:
    # The prefix was drawn from tau, hence tau-positive; a dead mu prefix is
    # conclusive evidence that tau != mu.
    return {"t": t, "rejected_at": j, "zero_probability_reject": True}


def _run_equivalence_sampled(tau, mu, n: int, eps_l: float, rng) -> Verdict:
    draws = 0

    def draw_y():
        nonlocal draws
        draws += 1
        i = int(rng.integers(1, n + 1))
        tau.charge(QueryClass.PREFIX)
        w_idx = int(tau.sample_full_indices_uncounted(1)[0])
        return i, w_idx >> (n - i + 1)

    def black_box(y, eps_prime):
        i, prefix_idx = y
        sp = BitSampler(lambda m, k: _count_trials(mu, QueryClass.MARGINAL,
                                                   i, prefix_idx, m, k))
        sq = BitSampler(lambda m, k: _count_trials(tau, QueryClass.PREFIX,
                                                   i, prefix_idx, m, k))
        return single_bit_chi2_test(sp, sq, eps_prime).accepted

    try:
        return levin_balance(draw_y, black_box, eps_l)
    except OracleError as err:
        if err.kind is not OracleErrorKind.ZERO_PROBABILITY_CONDITION:
            raise
    # Locate the failing draw, the draws-th overall, in the schedule.
    j = draws - 1
    for t, _, outer, _ in levin_schedule(eps_l):
        if j < outer:
            break
        j -= outer
    return Verdict(False, trace=[_zero_probability_record(t, j)])


# Stands for the survive probability of a key that mu gives zero mass: every
# u >= _DEAD, so the walk stops at the key's first draw.
_DEAD = -1.0


def _learn_keys(keys: dict, nodes, tau, mu, n_draws: int, inner: int) -> None:
    """Add the survive probability of every node (1 << (i-1)) + prefix not yet
    in ``keys``; the values not in the memo are computed in one batch."""
    pending: dict = {}  # (p_mu, p_tau) -> nodes sharing that value
    for node in nodes:
        if node in keys:
            continue
        i = node.bit_length()
        prefix_idx = node - (1 << (i - 1))
        p_tau = tau.exact_bit_prob(i, prefix_idx)
        try:
            p_mu = mu.exact_bit_prob(i, prefix_idx)
        except OracleError as err:
            if err.kind is not OracleErrorKind.ZERO_PROBABILITY_CONDITION:
                raise
            keys[node] = _DEAD
            continue
        survive = _SURVIVE_MEMO.get((n_draws, p_mu, p_tau, inner))
        if survive is None:
            pending.setdefault((p_mu, p_tau), []).append(node)
        else:
            keys[node] = survive
    if not pending:
        return
    pairs = np.array(list(pending))
    values = blackbox_survive_prob(n_draws, pairs[:, 0], pairs[:, 1], inner)
    for (pair, same), survive in zip(pending.items(), values.tolist()):
        _remember_survive((n_draws, *pair, inner), survive)
        for node in same:
            keys[node] = survive


def _run_equivalence_collapsed(tau, mu, n: int, eps_l: float, rng) -> Verdict:
    chunk = 512
    trace = []
    for t, eps_prime, outer, inner in levin_schedule(eps_l):
        n_draws = math.ceil(CHI2_SAMPLE_FACTOR / eps_prime)
        cost = inner * CHI2_TRIALS * n_draws
        i_arr = rng.integers(1, n + 1, size=outer)
        u_arr = rng.random(outer)
        keys: dict = {}  # node -> survive probability at this level
        rejected_at = None
        for first in range(0, outer, chunk):
            # y-draws are real tau samples, pulled in meter-free chunks; the
            # level is billed once it ends, for the draws it consumed, so a
            # truncated level costs exactly what the literal loop would.
            w_idx = tau.sample_full_indices_uncounted(min(chunk, outer - first))
            i_c = i_arr[first:first + w_idx.shape[0]]
            nodes, inverse = np.unique((1 << (i_c - 1)) + (w_idx >> (n - i_c + 1)),
                                       return_inverse=True)
            nodes = nodes.tolist()
            _learn_keys(keys, nodes, tau, mu, n_draws, inner)
            survive = np.array([keys[node] for node in nodes])[inverse]
            stops = np.flatnonzero(u_arr[first:first + w_idx.shape[0]] >= survive)
            if stops.size == 0:
                continue
            j = first + int(stops[0])
            if survive[stops[0]] == _DEAD:
                # j full draws, then this y-draw and its failed query.
                tau.charge(QueryClass.PREFIX, j * (1 + cost) + 1)
                mu.charge(QueryClass.MARGINAL, j * cost + 1)
                trace.append(_zero_probability_record(t, j))
                return Verdict(False, trace=trace)
            rejected_at = j
            break
        used = outer if rejected_at is None else rejected_at + 1
        tau.charge(QueryClass.PREFIX, used * (1 + cost))
        mu.charge(QueryClass.MARGINAL, used * cost)
        trace.append({"t": t, "eps_prime": eps_prime, "outer": outer,
                      "inner": inner, "rejected_at": rejected_at})
        if rejected_at is not None:
            return Verdict(False, trace=trace)
    return Verdict(True, trace=trace)


def _resolve_mode(cfg: TestConfig, n: int) -> str:
    if cfg.mode != "auto":
        return cfg.mode
    budget = expected_equivalence_queries(n, cfg.epsilon)["total"]
    return "sampled" if budget <= cfg.sampled_budget_limit else "collapsed"


def _equivalence_core(tau, mu, n: int, cfg: TestConfig) -> Verdict:
    mode = _resolve_mode(cfg, n)
    rng = np.random.default_rng(cfg.seed)
    counters = _collect_counters([tau, mu])
    before = _counter_totals(counters)
    eps_l = slice_divergence_threshold(n, cfg.epsilon) / n
    if mode == "sampled":
        verdict = _run_equivalence_sampled(tau, mu, n, eps_l, rng)
    else:
        verdict = _run_equivalence_collapsed(tau, mu, n, eps_l, rng)
    verdict.queries_used = _queries_delta(before, counters)
    verdict.trace.append({"mode": mode, "eps_levin": eps_l})
    return verdict


def equivalence_test(tau, mu, cfg: TestConfig) -> Verdict:
    """eps-test for equivalence of two distributions over {0,1}^n.

    ``tau`` needs prefix access, ``mu`` marginal-prefix access.  Accepts
    tau = mu and rejects dtv(tau, mu) > eps, each with probability >= 2/3.
    """
    n = tau.n
    if getattr(mu, "n", n) != n:
        raise ValueError(f"dimension mismatch: tau has n={n}, mu has n={mu.n}")
    return _equivalence_core(tau, mu, n, cfg)


def product_test(mu, cfg: TestConfig) -> Verdict:
    """eps-test for mu being a product distribution.

    Runs the equivalence tester against the product of mu's marginals, whose
    marginal-prefix queries are simulated through mu itself.  For binary
    domains every emitted query is a prefix query.
    """
    marginal_view = product_marginal_oracle(mu)
    verdict = _equivalence_core(mu, marginal_view, mu.n, cfg)
    base = mu
    while getattr(base, "base", None) is not None:
        base = base.base
    prefix_only = (base.counter.counts.get(QueryClass.INTERVAL, 0) == 0
                   and base.counter.counts.get(QueryClass.SUBCUBE, 0) == 0)
    verdict.trace.append({"prefix_queries_only": prefix_only})
    return verdict


def equivalence_test_general(tau, mu, cfg: TestConfig) -> Verdict:
    """Equivalence test over a general tuple domain via binary encoding.

    Each binary query translates to exactly one query on the underlying
    tuple oracle; the effective dimension is the total encoded bit width.
    """
    tau_bin = BinaryEncodedOracle(tau)
    mu_bin = BinaryEncodedOracle(mu)
    if tau_bin.n != mu_bin.n:
        raise ValueError("tau and mu must share a domain")
    return _equivalence_core(tau_bin, mu_bin, tau_bin.n, cfg)


def interval_equivalence_test(tau: IntervalOracle, mu: IntervalOracle,
                              cfg: TestConfig) -> Verdict:
    """Equivalence test for two distributions over [N] with interval access.

    Pads to the next power of two and runs the binary equivalence tester
    with every prefix query translated to one interval query.
    """
    if tau.N != mu.N:
        raise ValueError(f"domain mismatch: {tau.N} vs {mu.N}")
    if tau.N == 1:
        return Verdict(True, queries_used={cls.value: 0 for cls in QueryClass} | {"total": 0},
                       trace=[{"vacuous": True}])
    ell = max(1, math.ceil(math.log2(tau.N)))
    return _equivalence_core(IntervalBackedPrefixOracle(tau, ell),
                             IntervalBackedPrefixOracle(mu, ell), ell, cfg)
