"""Randomized testers: single-bit chi-square test, Levin work balance, the
equivalence tester, the product tester, and the alphabet/interval wrappers.

The equivalence tester is one walk.  It reads the exact conditional bit
probabilities of both oracles as two arrays over the 2^n - 1 nodes
(``node_bit_probs``: coordinate i and prefix w at ``node_index(i, w)``, NaN
where w has zero mass).  Each Levin level takes its coordinates i, then its
uniforms u a chunk of 4096 at a time, pulls the tau samples behind each
searched chunk's y-draws, turns them into node indices and stops at the
first draw that does not survive: a node whose mu entry is NaN (a
zero-probability reject) or one whose u is at least the probability that a
majority of ``inner`` black-box runs accept (binomial trial sums ->
multinomial (A, B) counts -> binomial majority tally).  So the verdict law
is that of the literal tester built from ``single_bit_chi2_test``,
``BitSampler`` and ``levin_balance``, whose accepting runs draw more than
10^9 bits even at n = 1.  The level is charged once, when it ends, for the
draws it consumed.

Only a searched chunk reads its coordinates.  For n a power of two and a
PCG64 stream a level does not draw them: NumPy's bounded int32 draw
(Lemire's method) draws again only when the low 32 bits of an output times
n lie below (2^32 - n) mod n, which is 0 then, so each i takes exactly one
32-bit output (none at n = 1).  The level keeps the stream's state where its
i begin and advances past them, carrying the buffered 32-bit half as the
draws would (``_skip_uint32``); a searched chunk regenerates its own i from
that state.  Any other n or generator draws a level's i up front.  Either
way the i, the u and the stream after the level are those of drawing all i
and then all u at once.

The survive calculus
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
    a value never depends on the rows computed with it.  The binomial pmf,
    cdf and sf are SciPy's Boost kernels (``scipy.special._ufuncs._binom_*``,
    the ones ``scipy.stats.binom`` calls) under the rules of its
    ``rv_discrete`` wrapper, so every value is ``binom``'s own: each kernel
    value is clipped to [0, 1], the support edges k < 0 and k >= n (k > n
    for the pmf) are set outright, and a probability that is NaN or outside
    [0, 1] gives NaN.  The Boost pmf overflows for a probability in about
    [5.6e-309, 1.7e-306], so the rows whose q (or alpha) lies in
    (0, 1e-300) use exp of ``binom.logpmf``'s formula.

Certified decisions
    Most draws are decided without that calculus, by a closed-form bracket
    lo <= survive <= hi (``_compare_bounds``, ``_survive_bounds``).  Write
    gamma for the accept probability and k = ceil(inner / 2).

    Lower bound.  Let X' ~ Bin(N, q) be independent of Y; by symmetry
    Pr[X' > Y] <= 1/2, and coupling X with X' moves Pr[X > Y] by at most
    dTV(Bin(N, p), Bin(N, q)).  Pinsker's inequality and the additivity of
    KL over the N trials bound that by d = sqrt(N min(KL(p||q), KL(q||p)) / 2),
    with KL in nats and clamped at 0 (for p and q an ulp apart it rounds to
    about -1e-17, and its square root would be NaN).  So alpha, beta <=
    a = min(1, 1/2 + d); a union bound over A > 40 and B > 40 gives
    gamma >= 1 - 2 Pr[Bin(64, a) > 40], and lo = Pr[Bin(inner, gamma_lo) >=
    k] because the majority tally grows with gamma.

    Upper bound.  X - Y is a sum of 2N independent terms, each in a range of
    length 1, with mean N(p - q).  For p > q, Hoeffding's inequality gives
    Pr[X - Y <= 0] <= exp(-2 (N(p - q))^2 / 2N), so alpha >= m =
    1 - exp(-N (p - q)^2), and beta >= m for p < q.  Since A ~ Bin(64, alpha)
    and B ~ Bin(64, beta), gamma <= Pr[Bin(64, m) <= 40], and hi follows as
    lo did.

    Both bounds are widened by ``_BRACKET_SLACK`` = 1e-12 on each side,
    which covers rounding in them and in the exact calculus (its window
    alone moves alpha and beta by at most 1e-18), so the computed survive
    value always lies inside the bracket.  A chunk brackets each distinct
    node it draws (a node mu gives zero mass gets (-1, -1), so it stops at
    every u).  A draw with u < lo survives and the first draw with u >= hi
    stops the walk; the draws before that stop with lo <= u < hi, the band,
    get their exact values, and the first band draw with u >= its exact
    value stops the walk, or else the stop found before.  That is the rule
    u >= survive, so verdicts, query totals and traces are those of the
    exact calculus.

    The survive floor.  One number per level certifies whole chunks before
    any of their draws is searched.  Write K for the largest clamped min-KL
    over the nodes tau can reach (p_tau not NaN).  A pair's lower end lo
    depends on the pair only through its KL and falls as KL grows (d, a and
    Pr[Bin(64, a) > 40] grow, so gamma_lo and lo fall), so lo at KL = K is at
    most the lo of every node tau can draw, and at most its exact survive
    value, which lies inside the bracket.  The floor is that value less one
    more ``_BRACKET_SLACK``, since rounding in ``bdtrc`` need not be
    monotone.  A chunk whose largest u is below the floor has u < lo at each
    draw, whatever node it lands on, so every draw survives: the walk
    consumes the chunk's tau uniforms (``skip_full_draws``, once for a run
    of such chunks) without searching them and moves on.  A node tau can
    reach that mu gives zero mass (dead) stops the walk at every u, so then
    K = inf and the floor is -1, which certifies nothing.  Verdicts, query
    totals, traces and tau's random stream are those of the walk without the
    floor: it is one more tier of the ladder chunk floor -> node bracket ->
    exact calculus.

    Brackets cost a few ufunc calls per chunk and are not kept.  Exact
    values are computed once per distinct (p, q) pair in the band and kept
    in one process-wide memo keyed by (N, p, q, inner), capped at 2^14
    entries with the oldest evicted first, so repeated runs on the same
    distributions skip the calculus.

Metering goes only through the oracles' ``charge``, in the amounts
``_level_charges`` states: every y-draw costs one prefix query, every
black-box run its trial samples, and a zero-probability reject the one
failed marginal query.  ``queries_used`` counts each distinct counter on
both oracles' chains once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import _ufuncs as _boost
from scipy.special import bdtr, bdtrc, gammaln, rel_entr, xlog1py, xlogy

from .distcore import node_index
from .oracles import (
    BinaryEncodedOracle,
    IntervalBackedPrefixOracle,
    IntervalOracle,
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

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0,1), got {self.epsilon}")


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


def _majority_threshold(inner: int) -> int:
    """Fewest accepting runs out of ``inner`` that keep a drawn y alive: the
    tally (+1 per accept, -1 per reject) must be non-negative."""
    return math.ceil(inner / 2)


def _level_record(t: int, eps_prime: float, outer: int, inner: int,
                  rejected_at: int | None = None, dead: bool = False) -> dict:
    if dead:
        # The prefix was drawn from tau, hence tau-positive; a dead mu prefix
        # is conclusive evidence that tau != mu.
        return {"t": t, "rejected_at": rejected_at, "zero_probability_reject": True}
    return {"t": t, "eps_prime": eps_prime, "outer": outer, "inner": inner,
            "rejected_at": rejected_at}


def levin_balance(draw_y, black_box, eps: float) -> Verdict:
    """Distinguish E[X] = 0 from E[X] > eps given a two-sided-error black box
    for the conditional means E[X | Y = y].

    For each threshold eps' = 2^-t the black box is run a logarithmic number
    of times per drawn y and the majority tally decides; any majority-reject
    y rejects the whole procedure.
    """
    trace = []
    for t, eps_prime, outer, inner in levin_schedule(eps):
        rejected_at = None
        for j in range(outer):
            y = draw_y()
            accepts = sum(bool(black_box(y, eps_prime)) for _ in range(inner))
            if accepts < _majority_threshold(inner):
                rejected_at = j
                break
        trace.append(_level_record(t, eps_prime, outer, inner, rejected_at))
        if rejected_at is not None:
            return Verdict(False, trace=trace)
    return Verdict(True, trace=trace)


# ----------------------------------------------------------------------
# deterministic query budgets


def slice_divergence_threshold(n: int, eps: float) -> float:
    """Levin threshold rho = eps^2 / (24 log2(2n/eps)) for the slice-wise
    chi-square divergence."""
    return eps ** 2 / (24.0 * math.log2(2.0 * n / eps))


def _level_charges(eps_prime: float, inner: int, used: int, dead: bool) -> tuple[int, int]:
    """(tau's prefix queries, mu's marginal queries) for a Levin level that
    consumed ``used`` y-draws, the last of them a zero-probability reject if
    ``dead``: one prefix query per y-draw, the trial samples of each of the
    ``inner`` black-box runs of every draw whose black box ran (N per trial
    on each source), and for a dead node the one failed marginal query."""
    cost = inner * CHI2_TRIALS * math.ceil(CHI2_SAMPLE_FACTOR / eps_prime)
    ran = used - dead
    return used + ran * cost, ran * cost + dead


def expected_equivalence_queries(n: int, eps: float) -> dict[str, int]:
    """Accept-path query counts of the equivalence tester, per source: every
    level consumes all of its outer draws and none is dead."""
    eps_l = slice_divergence_threshold(n, eps) / n
    charges = [_level_charges(eps_prime, inner, outer, False)
               for _, eps_prime, outer, inner in levin_schedule(eps_l)]
    tau, mu = (sum(column) for column in zip(*charges))
    return {"tau": tau, "mu": mu, "total": tau + mu}


# ----------------------------------------------------------------------
# survive probability calculus

# Y ~ Bin(N, q) leaves [Nq - s, Nq + s] with probability at most
# 2 exp(-2 s^2 / N) (Hoeffding), which is 1e-18 at s^2 = N ln(2e18) / 2.
_TAIL_LOG = math.log(2e18)
# Rows x window cells evaluated per SciPy call; bounds the temporaries.
_BLOCK_CELLS = 1 << 13
# (n_draws, p, q, inner) -> the exact survive probability, shared by every run
# in the process; capped, with the oldest quarter evicted when full.
_SURVIVE_MEMO: dict = {}
_SURVIVE_MEMO_CAP = 1 << 14
# Boost's binomial pmf kernel raises OverflowError (ibeta_derivative) for a
# probability in about [5.6e-309, 1.7e-306]; see _binom_pmf.
_TINY_P = 1e-300
# Widens the closed-form bracket on each side, so that rounding in it and in
# the exact calculus cannot put the computed survive value outside it.
_BRACKET_SLACK = 1e-12


def _rows(x) -> np.ndarray:
    return np.atleast_1d(np.asarray(x, dtype=np.float64))


def _binom_rules(value, k, p, below: float, above: float, last):
    """``rv_discrete``'s rules around a Boost kernel's ``value`` at (k, p):
    ``below`` where k < 0, ``above`` where k > ``last``, the value clipped to
    [0, 1] in between, and NaN wherever p is NaN or outside [0, 1]."""
    value = np.where(k < 0, below, np.where(k > last, above, np.clip(value, 0.0, 1.0)))
    return np.where((p >= 0.0) & (p <= 1.0), value, np.nan)


def _binom_pmf(k, n, p):
    """``binom.pmf(k, n, p)``.  The rows with 0 < p < _TINY_P, where the
    Boost kernel can overflow, use exp of ``binom.logpmf``'s formula; it
    differs from the kernel by up to 3e-15 elsewhere."""
    tiny = (p > 0.0) & (p < _TINY_P)
    pmf = _boost._binom_pmf(k, n, np.where(tiny, 0.5, p))
    if tiny.any():
        p_tiny = np.where(tiny, p, 0.5)
        logpmf = (gammaln(n + 1) - (gammaln(k + 1) + gammaln(n - k + 1))
                  + xlogy(k, p_tiny) + xlog1py(n - k, -p_tiny))
        pmf = np.where(tiny, np.exp(logpmf), pmf)
    return _binom_rules(pmf, k, p, 0.0, 0.0, n)


def _binom_cdf(k, n, p):
    """``binom.cdf(k, n, p)``."""
    return _binom_rules(_boost._binom_cdf(k, n, p), k, p, 0.0, 1.0, n - 1)


def _binom_sf(k, n, p):
    """``binom.sf(k, n, p)``."""
    return _binom_rules(_boost._binom_sf(k, n, p), k, p, 1.0, 0.0, n - 1)


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
        pmf_q = _binom_pmf(k, n_draws, q_b)
        alpha[block] = (pmf_q * _binom_sf(k, n_draws, p_b)).sum(axis=1)
        beta[block] = (pmf_q * _binom_cdf(k - 1, n_draws, p_b)).sum(axis=1)
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
    pa = _binom_pmf(a, CHI2_TRIALS, alpha_rows)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.minimum(beta_rows / (1.0 - alpha_rows), 1.0)
    pb = _binom_cdf(CHI2_THRESHOLD, CHI2_TRIALS - a, ratio)
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
    survive = _binom_sf(_majority_threshold(inner) - 1, inner, gamma)
    return float(survive) if np.ndim(survive) == 0 else survive


def _min_kl(p, q) -> np.ndarray:
    """Per row, min(KL(p||q), KL(q||p)) in nats for Ber(p) and Ber(q),
    clamped at 0: rounding makes it slightly negative for p and q an ulp
    apart."""
    p, q = _rows(p), _rows(q)
    return np.maximum(np.minimum(rel_entr(p, q) + rel_entr(1.0 - p, 1.0 - q),
                                 rel_entr(q, p) + rel_entr(1.0 - q, 1.0 - p)), 0.0)


def _pinsker_bound(n_draws: int, kl) -> np.ndarray:
    """a = min(1, 1/2 + sqrt(N kl / 2)), the upper bound on alpha and beta."""
    return np.minimum(0.5 + np.sqrt(n_draws * kl / 2.0), 1.0)


def _compare_bounds(n_draws: int, p, q) -> tuple[np.ndarray, np.ndarray]:
    """Per row, (a, m) with m <= max(alpha, beta) <= a for the
    ``chi2_trial_compare_probs`` pair: a = min(1, 1/2 + d) by Pinsker, m by
    Hoeffding on X - Y (see the module docstring)."""
    p, q = _rows(p), _rows(q)
    return _pinsker_bound(n_draws, _min_kl(p, q)), -np.expm1(-n_draws * (p - q) ** 2)


def _survive_lo(a, inner: int) -> np.ndarray:
    """The bracket's lower end, widened by ``_BRACKET_SLACK``, for the
    Pinsker bound ``a``."""
    gamma_lo = np.maximum(1.0 - 2.0 * bdtrc(CHI2_THRESHOLD, CHI2_TRIALS, a), 0.0)
    return bdtrc(_majority_threshold(inner) - 1, inner, gamma_lo) - _BRACKET_SLACK


def _survive_bounds(n_draws: int, p, q, inner: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the closed-form (lo, hi) with lo <= ``blackbox_survive_prob``
    <= hi, widened by ``_BRACKET_SLACK`` on each side."""
    a, m = _compare_bounds(n_draws, p, q)
    gamma_hi = bdtr(CHI2_THRESHOLD, CHI2_TRIALS, m)
    return (_survive_lo(a, inner),
            bdtrc(_majority_threshold(inner) - 1, inner, gamma_hi) + _BRACKET_SLACK)


def _reach_kl(p_mu: np.ndarray, p_tau: np.ndarray) -> float:
    """K, the largest ``_min_kl`` over the nodes tau can reach (``p_tau`` not
    NaN); inf when mu gives one of them zero mass."""
    reach = ~np.isnan(p_tau)
    # Masks only: gathering p_mu[reach] would copy up to 2^n floats.
    if (np.isnan(p_mu) & reach).any():
        return math.inf
    # An equal pair's KL is exactly 0, so only the others are computed.
    differ = reach & (p_mu != p_tau)
    return float(_min_kl(p_mu[differ], p_tau[differ]).max(initial=0.0))


def _survive_floor(n_draws: int, kl: float, inner: int) -> float:
    """A value below the bracket's lower end for every pair whose min-KL is
    at most ``kl``: that lower end at KL = kl, less one more
    ``_BRACKET_SLACK`` for rounding in ``bdtrc`` that is not monotone.
    ``_DEAD`` when kl is inf, since a dead node stops at every u."""
    if math.isinf(kl):
        return _DEAD
    return float(_survive_lo(_pinsker_bound(n_draws, kl), inner)) - _BRACKET_SLACK


def _exact_survive(n_draws: int, p: np.ndarray, q: np.ndarray, inner: int) -> np.ndarray:
    """Per row, ``blackbox_survive_prob`` at (p, q), computed once per
    distinct pair and kept in ``_SURVIVE_MEMO``."""
    pairs, inverse = np.unique(p + 1j * q, return_inverse=True)
    keys = [(n_draws, pair.real, pair.imag, inner) for pair in pairs.tolist()]
    values = [_SURVIVE_MEMO.get(key) for key in keys]
    missing = [j for j, value in enumerate(values) if value is None]
    if missing:
        found = blackbox_survive_prob(n_draws, pairs.real[missing], pairs.imag[missing], inner)
        for j, value in zip(missing, found.tolist()):
            if len(_SURVIVE_MEMO) >= _SURVIVE_MEMO_CAP:
                # Evict the oldest quarter at once: deleting a dict's first
                # key one at a time rescans every slot freed before it.
                for old in list(_SURVIVE_MEMO)[:_SURVIVE_MEMO_CAP // 4]:
                    del _SURVIVE_MEMO[old]
            values[j] = _SURVIVE_MEMO[keys[j]] = value
    return np.array(values)[inverse]


# ----------------------------------------------------------------------
# equivalence tester


def _counter_totals(oracles) -> dict[str, int]:
    """Queries by class over every distinct counter on the oracles' chains,
    each counted once: a query forwarded to a base counts once per layer."""
    counters = {id(o.counter): o.counter for oracle in oracles for o in oracle.chain()}
    out = {cls.value: 0 for cls in QueryClass}
    for counter in counters.values():
        for cls, k in counter.counts.items():
            out[cls.value] += k
    return out


def _queries_delta(before: dict[str, int], oracles) -> dict[str, int]:
    after = _counter_totals(oracles)
    delta = {name: after[name] - before[name] for name in after}
    delta["total"] = sum(delta.values())
    return delta


# The bracket of a node that mu gives zero mass: the walk stops at the node's
# first draw, since every u >= _DEAD.
_DEAD = -1.0
_CHUNK = 4096


def _first_stop(p_mu: np.ndarray, p_tau: np.ndarray, nodes: np.ndarray, u: np.ndarray,
                n_draws: int, inner: int) -> int | None:
    """Index of the first draw whose u is at least its survive probability,
    or None.  Each distinct node gets its closed-form bracket (lo, hi); a
    draw with u < lo survives, the first draw with u >= hi stops, and only
    the band before that stop, the draws with lo <= u < hi, gets exact
    values."""
    distinct, inverse = np.unique(nodes, return_inverse=True)
    p = p_mu[distinct]
    lo, hi = _survive_bounds(n_draws, p, p_tau[distinct], inner)
    dead = np.isnan(p)
    lo[dead] = hi[dead] = _DEAD
    lo, hi = lo[inverse], hi[inverse]
    maybe = np.flatnonzero(u >= lo)
    stops = np.flatnonzero(u[maybe] >= hi[maybe])
    band = maybe[:stops[0]] if stops.size else maybe
    if band.size:
        exact = _exact_survive(n_draws, p_mu[nodes[band]], p_tau[nodes[band]], inner)
        settled = np.flatnonzero(u[band] >= exact)
        if settled.size:
            return int(band[settled[0]])
    return int(maybe[stops[0]]) if stops.size else None


def _skip_uint32(bit_generator, k: int) -> None:
    """Move a PCG64 past k ``next_uint32`` outputs and leave its buffered half
    (``has_uint32``, ``uinteger``) as those k calls would.  A call returns
    the buffered high half of a 64-bit output if there is one, and otherwise
    the low half of a new output, whose high half it buffers; so the calls
    after the buffered one draw ceil(k / 2) outputs, and the last of them
    sets ``uinteger``."""
    if k == 0:
        return
    state = bit_generator.state
    k -= state["has_uint32"]
    if k > 0:
        bit_generator.advance((k - 1) // 2)
        high = bit_generator.random_raw() >> 32
        state = bit_generator.state
        state["uinteger"] = high
    state["has_uint32"] = k % 2
    bit_generator.state = state


def _coordinate_scratch(rng, n: int):
    """The generator a walk regenerates its coordinates in, or None where
    moving ``rng`` past them without drawing them is not exact.  It is exact
    for a PCG64 and n a power of two, where each coordinate takes one
    ``next_uint32`` output, none at n = 1 (see the module docstring).  The
    scratch is seeded, not drawn from OS entropy, since every use sets its
    state."""
    if type(rng.bit_generator) is np.random.PCG64 and n & (n - 1) == 0:
        return np.random.Generator(np.random.PCG64(0))
    return None


def _level_coordinates(rng, n: int, outer: int, scratch):
    """Move ``rng`` past a level's coordinates, the ``outer`` values of
    ``rng.integers(1, n + 1, size=outer, dtype=np.int32)``, and return the
    function that gives their slice [first, last).

    With a ``scratch`` (see ``_coordinate_scratch``) the level keeps only the
    state of ``rng`` where its coordinates begin, and a slice is regenerated
    from it, in the scratch, when a chunk is searched; without one the
    coordinates are drawn now."""
    if scratch is None:
        # int32 takes the same bounded-integer path, value for value.
        i_arr = rng.integers(1, n + 1, size=outer, dtype=np.int32)
        return lambda first, last: i_arr[first:last]
    start = rng.bit_generator.state
    per_coordinate = int(n > 1)
    _skip_uint32(rng.bit_generator, per_coordinate * outer)

    def coordinates(first: int, last: int) -> np.ndarray:
        scratch.bit_generator.state = start
        _skip_uint32(scratch.bit_generator, per_coordinate * first)
        return scratch.integers(1, n + 1, size=last - first, dtype=np.int32)

    return coordinates


def _run_equivalence(tau, mu, n: int, eps_l: float, rng) -> Verdict:
    """Levin's work balance over (i, prefix) y-draws from tau; a draw
    survives while its uniform u is below its survive probability, decided
    by ``_first_stop`` from the chunk's own nodes.  A chunk whose u all lie
    below the level's survive floor (see the module docstring; -1 when tau
    can reach a node mu gives zero mass) survives whole: its tau uniforms
    are consumed without a search, a run of such chunks at once, by
    ``skip_full_draws`` (which advances a PCG64 stream and generates the
    uniforms otherwise), so tau's stream is the same as if they were
    searched.

    Each level moves ``rng`` past its ``outer`` coordinates i, drawing them
    up front only where skipping them is not exact (``_level_coordinates``;
    a searched chunk regenerates its own i from the level's saved state),
    then draws its u one chunk at a time: the values and stream of one
    ``rng.integers(1, n + 1, size=outer)`` and one ``rng.random(outer)``
    call, and nothing reads ``rng`` after a rejecting level.  Tau's samples
    are pulled ``_CHUNK`` at a time, so after a rejecting run tau's RNG has
    advanced by up to one chunk beyond the draws consumed; only a caller who
    reuses tau for another run can see it.

    Each level is billed once it ends, through ``_level_charges``, the one
    statement of the level-end charge: tau pays prefix queries, mu marginal
    queries, for the draws the level consumed and whether its stop was
    dead."""
    p_tau, p_mu = tau.node_bit_probs(), mu.node_bit_probs()
    kl = _reach_kl(p_mu, p_tau)
    scratch = _coordinate_scratch(rng, n)
    trace = []
    for t, eps_prime, outer, inner in levin_schedule(eps_l):
        n_draws = math.ceil(CHI2_SAMPLE_FACTOR / eps_prime)
        coordinates = _level_coordinates(rng, n, outer, scratch)
        floor = _survive_floor(n_draws, kl, inner)
        rejected_at = stop_node = None
        certified = 0  # draws of the certified chunks not yet skipped
        for first in range(0, outer, _CHUNK):
            last = min(first + _CHUNK, outer)
            u = rng.random(last - first)
            if u.max() < floor:
                # Every node tau can draw survives these u: consume the
                # chunk's tau uniforms without searching them.
                certified += last - first
                continue
            if certified:
                tau.skip_full_draws(certified)
                certified = 0
            # y-draws are real tau samples, pulled in meter-free chunks.
            w_idx = tau.sample_full_indices_uncounted(last - first)
            i_c = coordinates(first, last).astype(np.int64)
            nodes = node_index(i_c, w_idx >> (n - i_c + 1))
            pos = _first_stop(p_mu, p_tau, nodes, u, n_draws, inner)
            if pos is not None:
                rejected_at, stop_node = first + pos, nodes[pos]
                break
        if certified:
            tau.skip_full_draws(certified)
        dead = stop_node is not None and bool(np.isnan(p_mu[stop_node]))
        used = outer if rejected_at is None else rejected_at + 1
        tau_queries, mu_queries = _level_charges(eps_prime, inner, used, dead)
        tau.charge(QueryClass.PREFIX, tau_queries)
        mu.charge(QueryClass.MARGINAL, mu_queries)
        trace.append(_level_record(t, eps_prime, outer, inner, rejected_at, dead))
        if rejected_at is not None:
            return Verdict(False, trace=trace)
    return Verdict(True, trace=trace)


def _equivalence_core(tau, mu, n: int, cfg: TestConfig) -> Verdict:
    rng = np.random.default_rng(cfg.seed)
    before = _counter_totals((tau, mu))
    eps_l = slice_divergence_threshold(n, cfg.epsilon) / n
    verdict = _run_equivalence(tau, mu, n, eps_l, rng)
    verdict.queries_used = _queries_delta(before, (tau, mu))
    # Replays pin this record in this form.
    verdict.trace.append({"mode": "collapsed", "eps_levin": eps_l})
    return verdict


def equivalence_test(tau, mu, cfg: TestConfig) -> Verdict:
    """eps-test for equivalence of two distributions over {0,1}^n.

    ``tau`` needs prefix access, ``mu`` marginal-prefix access.  Accepts
    tau = mu and rejects dtv(tau, mu) > eps, each with probability >= 2/3.
    """
    if mu.n != tau.n:
        raise ValueError(f"dimension mismatch: tau has n={tau.n}, mu has n={mu.n}")
    return _equivalence_core(tau, mu, tau.n, cfg)


def product_test(mu, cfg: TestConfig) -> Verdict:
    """eps-test for mu being a product distribution.

    Runs the equivalence tester against the product of mu's marginals, whose
    marginal-prefix queries are simulated through mu itself.  For binary
    domains every emitted query is a prefix query.
    """
    marginal_view = product_marginal_oracle(mu)
    verdict = _equivalence_core(mu, marginal_view, mu.n, cfg)
    *_, root = mu.chain()
    prefix_only = (root.counter.counts.get(QueryClass.INTERVAL, 0) == 0
                   and root.counter.counts.get(QueryClass.SUBCUBE, 0) == 0)
    verdict.trace.append({"prefix_queries_only": prefix_only})
    return verdict


def equivalence_test_general(tau, mu, cfg: TestConfig) -> Verdict:
    """Equivalence test over a general tuple domain via binary encoding.

    Each binary query translates to exactly one query on the underlying
    tuple oracle; the effective dimension is the total encoded bit width.
    """
    if tau.domain != mu.domain:
        raise ValueError("tau and mu must share a domain")
    tau_bin = BinaryEncodedOracle(tau)
    mu_bin = BinaryEncodedOracle(mu)
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
