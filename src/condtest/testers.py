"""Randomized testers: the single-bit chi-square test and five walk
testers.  Each walk tester takes the distance eps and an optional seed for
the walk's own stream, and runs Levin's schedule at eps_L = rho(n, eps) / n
for its binary dimension n.  Its one input rule (``_levin_eps``) refuses,
with ``ValueError`` before it builds a view or bills a query, an eps outside
(0, 1) (NaN included) and every eps whose eps_L is below ``MIN_EPS_L`` =
2^-33, the run budget: the accept path takes at most 2^36 y-draws.  The walk holds
2^n - 1 node conditionals per oracle, so a binary dimension n above
``MAX_DENSE_N`` (the encoded bits of a tuple domain, ceil(log2 N) for [N])
is refused with ``DomainError`` before any is built or a query billed.  A
verdict's trace is one ``_level_record`` per Levin level the walk ran:

    equivalence_test(tau, mu, eps, seed=None)           TableOracles over {0,1}^n
    equivalence_test_general(tau, mu, eps, seed=None)   TupleTableOracles
    interval_equivalence_test(tau, mu, eps, seed=None)  IntervalOracles over [N]
    product_test(mu, eps, seed=None)                    a TableOracle over {0,1}^n
    product_test_general(mu, eps, seed=None)            a TupleTableOracle

The equivalence tester is one walk.  It reads the exact conditional bit
probabilities of both oracles as two arrays over the 2^n - 1 nodes
(``node_bit_probs``: coordinate i and prefix w at ``node_index(i, w)``, NaN
where w has zero mass).  Each Levin level takes its coordinates i, then its
uniforms u, drawn a 4096-draw chunk at a time (none at a certain level,
below), pulls the tau samples behind each searched chunk's y-draws, turns
them into node indices and stops at the first draw that does not survive:
a node whose mu entry is NaN (a zero-probability reject) or one whose u is
at least the probability that a majority of ``inner`` black-box runs
accept (binomial trial sums -> multinomial (A, B) counts -> binomial
majority tally).  So the verdict law is that of the literal tester, Levin's
work balance whose black box is ``single_bit_chi2_test`` on ``BitSampler``
bits, whose accepting runs draw more than 10^9 bits even at n = 1.  The run
is charged once, when it ends, for the draws each of its levels consumed.

Only a searched chunk reads its coordinates, and no level keeps them
(``_CoordinateCursor``).  For n a power of two and a PCG64 stream a level
does not draw them: NumPy's bounded int32 draw (Lemire's method) draws
again only when the low 32 bits of an output times n lie below
(2^32 - n) mod n, which is 0 then, so each i takes exactly one 32-bit
output (none at n = 1), and the run advances past them from one snapshot
of the stream's state.  Any other n or generator draws a level's i and
drops them 2^20 at a time.  Each level keeps one start, where its i begin
(the snapshot's output count and buffered half, or the state read when the
level began), and a searched chunk replays its own i from it, going on from
where the level's last searched chunk ended: a level first searched at
coordinate p draws its first p coordinates once more.  Either way the i,
the u and the stream after an accepting run are those of drawing all i and
then all u at once, level by level.

The survive calculus
    For a drawn (i, w) with conditional bit probabilities p under mu and q
    under tau, ``chi2_trial_compare_probs`` gives alpha = Pr[X > Y] and
    beta = Pr[X < Y] for X ~ Bin(N, p), Y ~ Bin(N, q), ``chi2_accept_prob``
    the black box's accept probability and ``blackbox_survive_prob`` the
    probability that the majority of ``inner`` runs accepts.  The sums run
    over the windows [Nq - s, Nq + s] of Y and [Np - s, Np + s] of X,
    clipped to [0, N], with s = sqrt(N ln(2e18) / 2): by Hoeffding's
    inequality Y leaves its window with probability at most
    2 exp(-2 s^2 / N) = 1e-18, and X leaves its own on either side with at
    most half that, so about 9.2 sqrt(N) outcomes replace N + 1 and alpha
    and beta move by at most 1.5e-18.  The three functions take scalars or
    1-D arrays with one row per (p, q); rows are evaluated in blocks of at
    most 2^13 cells and reduced one by one, so a value never depends on the
    rows computed with it.

    Every binomial probability comes from one NumPy kernel, Loader's
    saddle-point pmf (C. Loader, "Fast and Accurate Computation of Binomial
    Probabilities", 2000; ``_loader_pmf``): stirlerr from a table up to 15
    and its Stirling series above, the deviance bd0 from its series where
    |k - np| < 0.1 (k + np), and Np carried in two exact halves so that
    k - Np is exact.  Outside 0 <= k <= n the pmf is 0, p = 0 and p = 1 put
    all mass on k = 0 and k = n, any q > 0 however small (1e-307 included)
    is an ordinary probability, and a p that is NaN (a dead node) or
    outside [0, 1] gives NaN.  alpha and beta are Y's pmf summed against
    suffix and prefix sums of X's; the accept probability's tail
    Pr[Bin(m, r) > 40] is r times a running sum of Pr[Bin(j, r) = 40]; and
    every other tail (``_binom_tails``) sums the side away from the mean
    over its part of the same window and takes the other side as its
    complement, leaving out at most 5e-19.  Against 40-digit sums over the
    full support (``tests/conftest.py``), at near pairs whose survive value
    lies in (1e-6, 1 - 1e-6), alpha and beta are within 6.7e-16 and survive
    within 1e-13 (at most 9.7e-14, at N = 786,432) at every N measured up
    to 1,572,864 (``scripts/exact_calculus_error.py``; SciPy's Boost
    kernels, used before, missed by up to 1.2e-14 and 1.8e-12).  So a draw
    can be decided against the exact rule u >= survive only if its u lies
    within 1e-13 of its survive value: that is the per-decision error of
    the walk's verdict law, next to the windows' 1.5e-18.

Certified decisions
    Most draws are decided without that calculus, by a closed-form bracket
    lo <= survive <= hi (``_compare_bounds``, ``_survive_bounds``).  Write
    gamma for the accept probability and k = ceil(inner / 2).

    Lower bound.  Let X' ~ Bin(N, q) be independent of Y; by symmetry
    Pr[X' > Y] <= 1/2, and coupling X with X' moves Pr[X > Y] by at most
    dTV(Bin(N, p), Bin(N, q)).  Pinsker's inequality and the additivity of
    KL over the N trials bound that by d = sqrt(N min(KL(p||q), KL(q||p)) / 2),
    with KL in nats, taken as bd0(p, q) + bd0(1 - p, 1 - q) from the kernel
    above (bd0 given the exact difference p - q keeps it accurate for p and
    q an ulp apart) and clamped at 0.  So alpha, beta <=
    a = min(1, 1/2 + d); a union bound over A > 40 and B > 40 gives
    gamma >= 1 - 2 Pr[Bin(64, a) > 40], and lo = Pr[Bin(inner, gamma_lo) >=
    k] because the majority tally grows with gamma.

    Upper bound.  X - Y is a sum of 2N independent terms, each in a range of
    length 1, with mean N(p - q).  For p > q, Hoeffding's inequality gives
    Pr[X - Y <= 0] <= exp(-2 (N(p - q))^2 / 2N), so alpha >= m =
    1 - exp(-N (p - q)^2), and beta >= m for p < q.  Since A ~ Bin(64, alpha)
    and B ~ Bin(64, beta), gamma <= Pr[Bin(64, m) <= 40], and hi follows as
    lo did.

    The tails of both bounds are read at grid points, lo at the point
    a_i = 1/2 + i / 8192 at or above a and hi at the point m_i = i / 4096 at
    or below m: lo falls as a grows and hi as m grows, so each is a bound
    at a or m too.  A grid point's value is computed the first time a row
    needs it and kept per inner.  Both bounds are widened by
    ``_BRACKET_SLACK`` = 1e-12 on each side.  The slack must cover the gap
    between the computed survive value and the exact one, at most 1e-13
    as measured above, plus rounding in the bracket's own tails,
    whose values are accurate to a few units in the last place; it covers
    both more than tenfold, so the computed survive value always lies
    inside the bracket.  A searched chunk brackets each draw from its
    node's min-KL, read from the run's node KL (below), and its own p - q
    (a node mu gives zero mass gets (-1, -1), so it stops at every u).  A
    draw with u < lo survives and the first draw with u >= hi stops the
    walk; the draws before that stop with lo <= u < hi, the band, get their
    exact values, and the first band draw with u >= its exact value stops
    the walk, or else the stop found before.  That is the rule
    u >= survive, so verdicts, query totals and traces are those of the
    exact calculus.

    The survive floor.  One number per level certifies whole chunks before
    any of their draws is searched.  Write K for the largest clamped min-KL
    over the nodes tau can reach (p_tau not NaN).  A pair's lower end lo
    depends on the pair only through its KL and falls as KL grows (d, a and
    Pr[Bin(64, a) > 40] grow, so gamma_lo and lo fall), so lo at KL = K is at
    most the lo of every node tau can draw, and at most its exact survive
    value, which lies inside the bracket.  The floor is that value less one
    more ``_BRACKET_SLACK``, since rounding in the tails need not be
    monotone.  A chunk whose largest u is below the floor has u < lo at each
    draw, whatever node it lands on, so every draw survives: the walk
    consumes the chunk's tau uniforms without searching them and moves on.
    The certified draws are consumed by one ``skip_full_draws`` per run of
    them, before the next search or at the end of the run, whatever levels
    they span.  A node tau can reach that mu gives zero mass (dead) stops
    the walk at every u, so then K = inf, a = 1 and the floor is below 0,
    which certifies nothing.  A run finds K and every level's floor once,
    before its first level (``_survive_floors``).  Verdicts, query totals,
    traces and tau's random stream are those of the walk without the floor:
    it is one more tier of the ladder chunk floor -> node bracket -> exact
    calculus.

    The certain tier.  Above the floor, a level is certain when no u < 1
    can stop the walk at it: no dead node is reachable (K finite) and the
    majority's fail tail Pr[Bin(inner, gamma_lo) < k] at the floor's grid
    point comes out exactly 0, that is, none of its cells lies in the
    calculus window (or every one underflows).  Every node tau can reach
    has a Pinsker bound a at most the floor's a, so its accept probability
    gamma is at least that gamma_lo, and the fail tail falls as gamma
    grows; the tail's true value is then at most the window's loss, 5e-19,
    far below half an ulp of 1 (2^-54).  So each reachable node's computed
    survive value (one minus the fail tail summed over the window) is
    exactly 1.0, the hi of its bracket exceeds 1, and no double u in
    [0, 1) stops it.  The lo grid's fill computes that tail beside lo and
    marks each point (``_bracket_grid``), so the mark costs no calculus
    of its own.  A certain level's u are passed over, not drawn, by
    ``oracles.skip_uniforms``, for every generator and n: a PCG64 takes one
    64-bit output per ``random`` double, so it is advanced past them, its
    buffered 32-bit half kept (``oracles.advance_pcg64``); any other
    generator draws them.
    Its tau draws join the certified count.  Verdicts, query totals,
    traces and both generators' states are those of drawing the u.  Every
    level of a self-test is certain (K = 0); a near pair's are certain only
    while N K stays small, so its deep levels draw their u.

    The node KL.  Each node's min-KL is computed at most once per run.  The
    floor pass keeps the values it computes for K, and the run's first
    searched chunk lays them out in one array over the nodes
    (``_node_kl``), with 0 at the equal pairs, so every node tau can reach
    is known.  Where K = inf the floor pass computes none; the array starts
    unknown (NaN), and each chunk computes the nodes it draws that are not
    yet known and keeps them.  A dead node's min-KL stays NaN, but a chunk
    that draws one stops the walk.  A run that searches no chunk builds no
    array.

    Brackets cost a few ufunc calls over a searched chunk's draws and grid
    reads; only their grid points are kept, 2 x 4097 floats and 4097
    certain marks per inner for the 16 inner values used last (``_BRACKET_GRIDS``; an evicted grid
    refills to the same floats).  Exact values are computed once per distinct (p, q) pair in
    the band and kept in one process-wide memo keyed by (N, p, q, inner),
    capped at 2^14 entries; when it is full, its oldest quarter is evicted
    at once.  So repeated runs on the same distributions skip the calculus.

Metering goes only through the oracles' ``charge``, once per run on each
source, in the amounts ``_level_charges`` states for each level the run
reached: every y-draw costs one prefix query, every black-box run its
trial samples, and a zero-probability reject the one failed marginal
query.  ``queries_used`` counts each distinct counter on both oracles'
chains once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .distcore import MAX_DENSE_N, DomainError, code_bits, node_index
from .oracles import (
    BinaryEncodedOracle,
    IntervalBackedPrefixOracle,
    IntervalOracle,
    ProductMarginalOracle,
    QueryClass,
    TableOracle,
    TupleTableOracle,
    advance_pcg64,
    skip_uniforms,
)

CHI2_TRIALS = 64
CHI2_THRESHOLD = 40
CHI2_SAMPLE_FACTOR = 24  # ceil(24 / eps) samples per trial (proof-consistent)


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


def _trial_draws(eps: float) -> int:
    """N = ceil(24 / eps), the draws from each source in one chi-square trial."""
    return math.ceil(CHI2_SAMPLE_FACTOR / eps)


def single_bit_chi2_test(sampler_p: BitSampler, sampler_q: BitSampler,
                         eps: float) -> Verdict:
    """Distinguish p = q from chi2(p, q) > eps at success probability 2/3.

    64 trials; each trial compares sums of N = ceil(24/eps) draws from the
    two samplers.  Accept iff at most 40 trials fall on each side.
    ``queries_used`` gives the bits drawn from each sampler and, as
    "total", from both.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0,1], got {eps}")
    n_draws = _trial_draws(eps)
    xs = sampler_p.draw_sums(n_draws, CHI2_TRIALS)
    ys = sampler_q.draw_sums(n_draws, CHI2_TRIALS)
    a = int(np.sum(xs > ys))
    b = int(np.sum(xs < ys))
    accepted = a <= CHI2_THRESHOLD and b <= CHI2_THRESHOLD
    per_source = CHI2_TRIALS * n_draws
    return Verdict(accepted, {"samples_per_source": per_source, "total": 2 * per_source},
                   trace=[{"A": a, "B": b, "N": n_draws}])


# ----------------------------------------------------------------------
# Levin's work-balance procedure


# The least eps_L the walk runs at: the run budget.  Levin's schedule at eps_L
# runs levels t = 1 .. t_max = ceil(log2(2 / eps_L)), level t with
# ceil(2^(3-t) / eps_L) outer draws, so its accept path takes at most
# 8 / eps_L + t_max y-draws, 2^36 - 4 at the bound.  At levels that are not
# certain, that is about 3 minutes at 2.6 ns per certified draw (PCG64, n a
# power of two) and 7 at 5.9 ns (any other n), on one core of a 2-core x86-64
# VM; a certain level draws no u.
MIN_EPS_L = 2.0 ** -33
_MIN_EPS_L_TEXT = f"2^{math.log2(MIN_EPS_L):.0f}"


def _levin_eps(n: int, eps: float) -> float:
    """The walk's one input rule: eps_L = rho(n, eps) / n, the distance its
    Levin schedule runs at for binary dimension n; ValueError for an eps
    outside (0, 1), NaN included, and for one whose eps_L is below
    ``MIN_EPS_L``, naming the eps given."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"epsilon must lie in (0,1), got {eps}")
    eps_l = slice_divergence_threshold(n, eps) / n
    if not eps_l >= MIN_EPS_L:
        raise ValueError(f"epsilon {eps} is too small: the walk would run at eps_L = "
                         f"{eps_l:g}, below {_MIN_EPS_L_TEXT}")
    return eps_l


def levin_schedule(eps_l: float) -> list[tuple[int, float, int, int]]:
    """Deterministic schedule rows (t, eps', outer draws, inner repetitions)
    at ``eps_l``; ValueError for an eps_l outside [``MIN_EPS_L``, 1), NaN
    included."""
    if not MIN_EPS_L <= eps_l < 1.0:
        raise ValueError(f"eps_L must lie in [{_MIN_EPS_L_TEXT}, 1), got {eps_l}")
    t_max = math.ceil(math.log2(2.0 / eps_l))
    inner = math.ceil(64 * (math.log2(1.0 / eps_l) + 2))
    return [(t, 2.0 ** -t, math.ceil(2.0 ** (3 - t) / eps_l), inner)
            for t in range(1, t_max + 1)]


def _level_record(t: int, eps_prime: float, outer: int, inner: int,
                  rejected_at: int | None, dead: bool) -> dict:
    if dead:
        # The prefix was drawn from tau, hence tau-positive; a dead mu prefix
        # is conclusive evidence that tau != mu.
        return {"t": t, "rejected_at": rejected_at, "zero_probability_reject": True}
    return {"t": t, "eps_prime": eps_prime, "outer": outer, "inner": inner,
            "rejected_at": rejected_at}


# ----------------------------------------------------------------------
# deterministic query budgets


def slice_divergence_threshold(n: int, eps: float) -> float:
    """Levin threshold rho = eps^2 / (24 log2(2n/eps)) for the slice-wise
    chi-square divergence."""
    return eps ** 2 / (24.0 * math.log2(2.0 * n / eps))


def _level_charges(n_draws: int, inner: int, used: int, dead: bool) -> tuple[int, int]:
    """(tau's prefix queries, mu's marginal queries) for a Levin level that
    consumed ``used`` y-draws, the last of them a zero-probability reject if
    ``dead``: one prefix query per y-draw, the trial samples of each of the
    ``inner`` black-box runs of every draw whose black box ran (n_draws per
    trial on each source), and for a dead node the one failed marginal query."""
    cost = inner * CHI2_TRIALS * n_draws
    ran = used - dead
    return used + ran * cost, ran * cost + dead


def expected_equivalence_queries(n: int, eps: float) -> dict[str, int]:
    """Accept-path query counts of the equivalence tester, per source: every
    level consumes all of its outer draws and none is dead.  Refuses the eps
    that the walk testers refuse, with ValueError (``_levin_eps``)."""
    charges = [_level_charges(_trial_draws(eps_prime), inner, outer, False)
               for _, eps_prime, outer, inner in levin_schedule(_levin_eps(n, eps))]
    tau, mu = (sum(column) for column in zip(*charges))
    return {"tau": tau, "mu": mu, "total": tau + mu}


# ----------------------------------------------------------------------
# binomial kernel

# Y ~ Bin(N, q) leaves [Nq - s, Nq + s] with probability at most
# 2 exp(-2 s^2 / N) (Hoeffding), which is 1e-18 at s^2 = N ln(2e18) / 2.
_TAIL_LOG = math.log(2e18)
# Rows x window cells evaluated at once; bounds the temporaries.
_BLOCK_CELLS = 1 << 13
# stirlerr(k) = ln k! - (k + 1/2) ln k + k - ln sqrt(2 pi) for k = 1..15 (the
# entry at k = 0 is a placeholder: no formula reads it).
_STIRLERR = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801])
# Coefficients of the Stirling series of stirlerr above k = 15.
_S0, _S1, _S2, _S3, _S4 = 1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188
# 1/15, 1/13, ..., 1/3: bd0's series in v^2, in Horner order.  Seven terms
# reach double precision at |v| < 0.1, the series' domain: the first term
# left out is below 0.1^15 / 17 of the sum.
_BD0_SERIES = 1.0 / np.arange(15.0, 2.0, -2.0)
_TWO_PI = 2.0 * math.pi
# 2^27 + 1: Veltkamp's split of a double into two halves of at most 26 bits.
_SPLIT = 134217729.0


def _rows(x) -> np.ndarray:
    return np.atleast_1d(np.asarray(x, dtype=np.float64))


def _stirlerr_formula(k):
    """ln k! - ((k + 1/2) ln k - k + ln sqrt(2 pi)) for whole k > 0: the
    table up to 15, the Stirling series above."""
    kk = k * k
    series = (_S0 - (_S1 - (_S2 - (_S3 - _S4 / kk) / kk) / kk) / kk) / k
    return np.where(k <= 15, _STIRLERR[np.minimum(k, 15).astype(np.int64)], series)


# _stirlerr_formula at k = 0..4095, read where every k is below 4096: the same
# values in one gather.
with np.errstate(divide="ignore", invalid="ignore"):
    _STIRLERR_MEMO = _stirlerr_formula(np.arange(4096.0))


def _stirlerr(k):
    """``_stirlerr_formula`` at the whole numbers ``k``."""
    if k.size and k.max() < _STIRLERR_MEMO.size:
        return _STIRLERR_MEMO[k.astype(np.int64)]
    return _stirlerr_formula(k)


def _bd0(x, m, d):
    """Loader's deviance term x ln(x / m) + m - x, given d = x - m to full
    relative precision: its series in v = d / (x + m) where |v| < 0.1, and
    elsewhere x ln(x / m) - d with the log taken as log1p(d / m) unless
    x < m / 2 (where d / m can round to -1), and m at x = 0."""
    v = d / (x + m)
    w = v * v
    h = _BD0_SERIES[0]
    for c in _BD0_SERIES[1:]:
        h = h * w + c
    series = d * v + 2.0 * x * v * w * h
    near = w < 0.01
    if near.all():
        return series
    ratio = d / m
    log = np.where(ratio > -0.5, np.log1p(ratio), np.log(x / m))
    return np.where(near, series, np.where(x == 0.0, m, x * log - d))


def _loader_pmf(k, n, p):
    """Pr[Bin(n, p) = k] elementwise, by Loader's saddle-point expansion:
    exp(stirlerr(n) - stirlerr(k) - stirlerr(n - k) - bd0(k, np) -
    bd0(n - k, nq)) sqrt(n / (2 pi k (n - k))), with (1 - p)^n at k = 0 and
    p^n at k = n.  np is carried as n p_hi + n p_lo, both exact for n with
    at most 26 significant bits, which covers every schedule N, so k - np
    and (n - k) - nq are exact up to one rounding and q = 1 - p is the
    exact complement.  Outside 0 <= k <= n the pmf is 0; p = 0 and
    p = 1 put all mass on k = 0 and k = n (bd0 is inf elsewhere); a p that
    is NaN or outside [0, 1] gives NaN.  Terms that depend on p alone are
    computed at p's shape and broadcast."""
    k, n, p = (np.asarray(x, dtype=np.float64) for x in (k, n, p))
    inside = (k >= 0.0) & (k <= n)
    x = np.where(inside, k, 0.0)
    nx = n - x
    c = _SPLIT * p
    p_hi = c - (c - p)
    np_hi, np_lo = n * p_hi, n * (p - p_hi)
    d = (x - np_hi) - np_lo
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lc = (_stirlerr(n) - _stirlerr(x) - _stirlerr(nx)
              - _bd0(x, np_hi + np_lo, d) - _bd0(nx, (n - np_hi) - np_lo, -d))
        pmf = np.exp(lc) * np.sqrt(n / (_TWO_PI * x * nx))
        pmf = np.where(x == 0.0, np.exp(n * np.log1p(-p)),
                       np.where(nx == 0.0, np.exp(n * np.log(p)), pmf))
    pmf = np.where(inside, pmf, 0.0)
    return np.where((p >= 0.0) & (p <= 1.0), pmf, np.nan)


def _binom_tails(k, n, p) -> tuple[np.ndarray, np.ndarray]:
    """(Pr[X < k], Pr[X >= k]) for X ~ Bin(n, p), elementwise over k, n and
    p broadcast (at least 1-D).  The side of k away from the mean np is
    summed over its cells in the window [np - s, np + s] clipped to [0, n],
    s = sqrt(n ln(2e18) / 2), and the other side, which holds at least half
    the mass, is its complement; so each tail is accurate relative to
    itself down to the window's loss, at most 5e-19 on each side
    (Hoeffding).  k <= 0 gives (0, 1), k > n gives (1, 0) and a NaN p NaN.
    Elements are evaluated in blocks of at most 2^13 cells, each summed over
    a width that depends on n alone, so for one n a value does not depend
    on the others computed with it."""
    k, n, p = np.broadcast_arrays(np.asarray(k, dtype=np.float64),
                                  np.asarray(n, dtype=np.float64), _rows(p))
    mean = n * p
    half = np.ceil(np.sqrt(n * _TAIL_LOG / 2.0))
    upper = k > mean
    lo_w = np.maximum(np.ceil(mean - half), 0.0)
    hi_w = np.minimum(np.floor(mean + half), n)
    first = np.where(upper, np.maximum(k, lo_w), lo_w).ravel()
    last = np.where(upper, hi_w, np.minimum(k - 1.0, hi_w)).ravel()
    offsets = np.arange(int(np.max(np.minimum(half, n), initial=0.0)) + 1)
    side = np.zeros(first.shape)
    # Only elements whose side meets the window have cells to sum.
    live = np.flatnonzero(last >= first)
    step = max(1, _BLOCK_CELLS // offsets.size)
    for start in range(0, live.size, step):
        rows = live[start:start + step]
        cells = first[rows, None] + offsets
        pmf = _loader_pmf(cells, n.ravel()[rows, None], p.ravel()[rows, None])
        side[rows] = np.where(cells <= last[rows, None], pmf, 0.0).sum(axis=1)
    side = np.minimum(side.reshape(k.shape), 1.0)
    below = np.where(upper, 1.0 - side, side)
    above = np.where(upper, side, 1.0 - side)
    nan = np.isnan(p)
    return np.where(nan, np.nan, below), np.where(nan, np.nan, above)


# ----------------------------------------------------------------------
# survive probability calculus

# (n_draws, p, q, inner) -> the exact survive probability, shared by every run
# in the process; capped, with the oldest quarter evicted when full.
_SURVIVE_MEMO: dict = {}
_SURVIVE_MEMO_CAP = 1 << 14
# Widens the closed-form bracket on each side, so that rounding in it and in
# the exact calculus cannot put the computed survive value outside it.
_BRACKET_SLACK = 1e-12
# The bracket's ends are read from grids of _GRID + 1 points per inner: lo
# at a_i = 1/2 + i / (2 _GRID), hi at m_i = i / _GRID.
_GRID = 1 << 12
# How many inner values keep their (lo, hi, certain) grids; each takes 68 KiB.
_BRACKET_GRIDS = 16


def chi2_trial_compare_probs(n_draws: int, p, q):
    """(Pr[X > Y], Pr[X < Y]) for X ~ Bin(N, p), Y ~ Bin(N, q), independent.

    ``p`` and ``q`` are scalars, giving a pair of floats, or 1-D arrays with
    one row per (p, q), giving a pair of arrays.  X's and Y's pmfs are taken
    over their windows [Np - s, Np + s] and [Nq - s, Nq + s] clipped to
    [0, N]; alpha sums Y's pmf against suffix sums of X's, beta against its
    prefix sums, so Y's mass outside its window (at most 1e-18) and X's on
    one side of its own (at most 5e-19) are left out.  Each row is reduced
    on its own, so its value does not depend on the rows computed with it.
    """
    p_rows, q_rows = np.broadcast_arrays(_rows(p), _rows(q))
    half = math.ceil(math.sqrt(n_draws * _TAIL_LOG / 2.0))
    width = min(2 * half + 2, n_draws + 1)
    offsets = np.arange(width)
    alpha = np.empty(p_rows.shape[0])
    beta = np.empty(p_rows.shape[0])
    step = max(1, _BLOCK_CELLS // (2 * width))
    for first in range(0, p_rows.shape[0], step):
        block = slice(first, first + step)
        # X's rows, then Y's
        pq = np.stack([p_rows[block, None], q_rows[block, None]])
        lo = np.clip(np.floor(n_draws * pq) - half, 0, n_draws + 1 - width).astype(np.int64)
        pmf_p, pmf_q = _loader_pmf(lo + offsets, n_draws, pq)
        lo_p, k = lo[0], lo[1] + offsets
        # suffix[j] = X's mass at lo_p + j and above, prefix[j] below lo_p + j.
        zeros = np.zeros((pmf_p.shape[0], 1))
        suffix = np.concatenate([np.cumsum(pmf_p[:, ::-1], axis=1)[:, ::-1], zeros], axis=1)
        prefix = np.concatenate([zeros, np.cumsum(pmf_p, axis=1)], axis=1)
        above = np.take_along_axis(suffix, np.clip(k + 1 - lo_p, 0, width), axis=1)
        below = np.take_along_axis(prefix, np.clip(k - lo_p, 0, width), axis=1)
        alpha[block] = (pmf_q * above).sum(axis=1)
        beta[block] = (pmf_q * below).sum(axis=1)
    np.minimum(alpha, 1.0, out=alpha)
    np.minimum(beta, 1.0, out=beta)
    if np.ndim(p) == 0 and np.ndim(q) == 0:
        return float(alpha[0]), float(beta[0])
    return alpha, beta


def chi2_accept_prob(alpha, beta):
    """Pr[A <= 40 and B <= 40] for (A, B) ~ Multinomial(64; alpha, beta).

    Scalars give a float, 1-D arrays one value per row.  Given A = a, B is
    Bin(64 - a, r) with r = beta / (1 - alpha), and Pr[Bin(m, r) > 40] is
    r times the sum of Pr[Bin(j, r) = 40] over 40 <= j < m (the 41st
    success comes at trial j + 1).  The result is clamped to [0, 1]:
    rounding can push the sum just above 1.
    """
    alpha_rows, beta_rows = _rows(alpha)[:, None], _rows(beta)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.minimum(beta_rows / (1.0 - alpha_rows), 1.0)
    # One kernel call: Pr[A = a] for a = 0..40, then Pr[Bin(j, r) = 40] for
    # j = 40..63.
    a = np.arange(CHI2_THRESHOLD + 1)
    j = np.arange(CHI2_THRESHOLD, CHI2_TRIALS)
    pmf = _loader_pmf(np.concatenate([a, np.full(j.size, CHI2_THRESHOLD)]),
                     np.concatenate([np.full(a.size, CHI2_TRIALS), j]),
                     np.where(np.arange(a.size + j.size) < a.size, alpha_rows, ratio))
    pa = pmf[:, :a.size]
    # over[:, m - 41] = Pr[Bin(m, r) > 40] for m = 41..64, that is a = 23..0.
    over = ratio * np.cumsum(pmf[:, a.size:], axis=1)
    pb = np.ones_like(pa)
    pb[:, :j.size] = 1.0 - over[:, ::-1]
    gamma = np.where(alpha_rows[:, 0] >= 1.0, 0.0,
                     np.clip((pa * pb).sum(axis=1), 0.0, 1.0))
    if np.ndim(alpha) == 0 and np.ndim(beta) == 0:
        return float(gamma[0])
    return gamma


def _majority_prob(inner: int, gamma) -> np.ndarray:
    """Per row, Pr[Bin(inner, gamma) >= ceil(inner / 2)]: the majority tally
    of ``inner`` runs (+1 per accept, -1 per reject), each accepting with
    probability gamma, is non-negative, which keeps a drawn y alive."""
    return _binom_tails(math.ceil(inner / 2), inner, gamma)[1]


def blackbox_survive_prob(n_draws: int, p, q, inner: int):
    """Probability that the inner majority tally over ``inner`` black-box runs
    is non-negative, for the chi-square black box on Ber(p) vs Ber(q).

    Scalars give a float, 1-D arrays one value per row."""
    alpha, beta = chi2_trial_compare_probs(n_draws, p, q)
    gamma = chi2_accept_prob(alpha, beta)
    survive = _majority_prob(inner, gamma)
    return float(survive[0]) if np.ndim(gamma) == 0 else survive


def _min_kl(p, q) -> np.ndarray:
    """Per row, min(KL(p||q), KL(q||p)) in nats for Ber(p) and Ber(q), as
    bd0(p, q) + bd0(1 - p, 1 - q) and its mirror, with the difference
    p - q exact (inf where the support of the first is not inside the
    second's), clamped at 0.  A term whose x / m overflows at a subnormal m
    is inf too; the mirror is then finite, or else p or q is 1 and the
    min-KL exceeds 700, which gives the Pinsker bound a = 1 all the same.
    An equal pair's is exactly 0, so only the other rows are computed."""
    p, q = _rows(p), _rows(q)
    kl = np.zeros(p.shape)
    differ = np.flatnonzero(p != q)
    if differ.size:
        p, q = p[differ], q[differ]
        d, p_c, q_c = p - q, 1.0 - p, 1.0 - q
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # KL(p||q)'s two terms, then KL(q||p)'s, in one call
            terms = _bd0(np.concatenate((p, p_c, q, q_c)), np.concatenate((q, q_c, p, p_c)),
                         np.concatenate((d, -d, -d, d))).reshape(4, -1)
        kl[differ] = np.maximum(np.minimum(terms[0] + terms[1], terms[2] + terms[3]), 0.0)
    return kl


def _pinsker_bound(n_draws: int, kl) -> np.ndarray:
    """a = min(1, 1/2 + sqrt(N kl / 2)), the upper bound on alpha and beta."""
    return np.minimum(0.5 + np.sqrt(n_draws * kl / 2.0), 1.0)


def _compare_bounds(n_draws: int, kl, gap) -> tuple[np.ndarray, np.ndarray]:
    """Per row, (a, m) with m <= max(alpha, beta) <= a for the
    ``chi2_trial_compare_probs`` pair (p, q) whose clamped min-KL
    (``_min_kl``) is ``kl`` and whose difference p - q is ``gap``:
    a = min(1, 1/2 + d) by Pinsker, m by Hoeffding on X - Y (see the module
    docstring)."""
    return _pinsker_bound(n_draws, kl), -np.expm1(-n_draws * np.square(gap))


def _distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of ``x``, sorted, as ``np.unique(x)`` gives them
    at a fraction of its fixed cost (which, without return_inverse, also
    imports numpy.ma on its first call in a process: about 12 ms)."""
    x = np.sort(x)
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


def _lazy_read(table: np.ndarray, index: np.ndarray, fill) -> np.ndarray:
    """``table[index]``, computing the entries no row has needed yet (NaN)
    with ``fill`` (one call for all of them, in increasing order) and keeping
    them in ``table``; only the rows' own entries are visited, never the
    whole table."""
    values = table[index]
    unknown = np.isnan(values)
    if unknown.any():
        missing = _distinct(index[unknown])
        table[missing] = fill(missing)
        values = table[index]
    return values


@functools.lru_cache(maxsize=_BRACKET_GRIDS)
def _bracket_grid(inner: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lo, hi, certain) over the grid points for ``inner``: lo and hi NaN
    until a row first needs one, and certain, set with lo, True where the
    majority's fail tail at the point's gamma_lo comes out exactly 0."""
    return (np.full(_GRID + 1, np.nan), np.full(_GRID + 1, np.nan),
            np.zeros(_GRID + 1, dtype=bool))


def _lo_point(a) -> np.ndarray:
    """Per row, the index of the lo grid point at or above the Pinsker
    bound ``a``."""
    return np.ceil((np.fmax(a, 0.5) - 0.5) * (2 * _GRID)).astype(np.int64)


def _survive_lo(a, inner: int) -> np.ndarray:
    """Per row, the bracket's lower end, widened by ``_BRACKET_SLACK``, for
    the Pinsker bound ``a``: taken at the grid point at or above a, since it
    falls as a grows (NaN for a NaN a).  A point's fill also marks it
    certain from the fail tail it computes beside lo."""
    a = _rows(a)
    lo, _, certain = _bracket_grid(inner)

    def fill(i):
        over = _binom_tails(CHI2_THRESHOLD + 1, CHI2_TRIALS, 0.5 + i / (2 * _GRID))[1]
        gamma_lo = np.maximum(1.0 - 2.0 * over, 0.0)
        fail, survive = _binom_tails(math.ceil(inner / 2), inner, gamma_lo)
        certain[i] = fail == 0.0
        return survive - _BRACKET_SLACK

    return np.where(np.isnan(a), np.nan, _lazy_read(lo, _lo_point(a), fill))


def _survive_hi(m, inner: int) -> np.ndarray:
    """Per row, the bracket's upper end, widened by ``_BRACKET_SLACK``, for
    the Hoeffding bound ``m``: taken at the grid point at or below m, since
    it falls as m grows (NaN for a NaN m)."""
    index = np.floor(np.fmax(m, 0.0) * _GRID).astype(np.int64)

    def fill(i):
        gamma_hi = _binom_tails(CHI2_THRESHOLD + 1, CHI2_TRIALS, i / _GRID)[0]
        return _majority_prob(inner, gamma_hi) + _BRACKET_SLACK

    return np.where(np.isnan(m), np.nan, _lazy_read(_bracket_grid(inner)[1], index, fill))


def _survive_bounds(n_draws: int, kl, gap, inner: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the closed-form (lo, hi) with lo <= ``blackbox_survive_prob``
    <= hi, widened by ``_BRACKET_SLACK`` on each side, for the pair whose
    min-KL is ``kl`` and whose p - q is ``gap`` (see ``_compare_bounds``)."""
    a, m = _compare_bounds(n_draws, kl, gap)
    return _survive_lo(a, inner), _survive_hi(m, inner)


def _survive_floors(p_mu: np.ndarray, p_tau: np.ndarray, n_draws: list[int],
                    inner: int) -> tuple[list[float], list[bool], tuple | None]:
    """Each level's survive floor, for the levels' trial draws ``n_draws``:
    the bracket's lower end at KL = K, less one more ``_BRACKET_SLACK`` for
    rounding in the tails that is not monotone, where K is the largest
    ``_min_kl`` over the nodes tau can reach (``p_tau`` not NaN).  K is inf
    when mu gives one of them zero mass; then a = 1 and every floor is below
    0, so it certifies no u, and no min-KL is computed.  Returned with the
    floors: whether each level is certain, no u < 1 stopping the walk at any
    node tau can reach (its lo grid point is marked certain, which needs
    gamma_lo > 0 and so K finite; see the module docstring), and the min-KL
    values found for K, as (nodes, values) over the nodes tau can reach
    whose pair is not equal, or None where none were."""
    # Masks only: gathering p_mu[reach] would copy up to 2^n floats.  An
    # equal pair's KL is exactly 0, so only the unequal pairs are computed;
    # NaN != NaN, so where no pair is unequal no node is dead or unreachable.
    # One array (a self-test on one table) has no unequal pair: K = 0 uncompared.
    unequal, dead = (np.zeros(0, dtype=bool) if p_mu is p_tau else p_mu != p_tau), False
    if unequal.any():
        unequal &= ~np.isnan(p_tau)
        dead = (unequal & np.isnan(p_mu)).any()
    if dead:
        kl, known = math.inf, None
    else:
        differ = np.flatnonzero(unequal)
        values = _min_kl(p_mu[differ], p_tau[differ])
        kl, known = values.max(initial=0.0), (differ, values)
    a = _pinsker_bound(np.asarray(n_draws, dtype=np.float64), kl)
    floors = (_survive_lo(a, inner) - _BRACKET_SLACK).tolist()
    return floors, _bracket_grid(inner)[2][_lo_point(a)].tolist(), known


def _node_kl(size: int, known) -> np.ndarray:
    """The run's min-KL per node, which ``_first_stop`` reads and fills: the
    floor pass's ``known`` values and 0 (an equal pair) at every other node,
    so every node tau can reach is known; or, where it found none (K = inf),
    NaN at every node, not yet computed."""
    if known is None:
        return np.full(size, np.nan)
    kl = np.zeros(size)
    kl[known[0]] = known[1]
    return kl


def _exact_survive(n_draws: int, p: np.ndarray, q: np.ndarray, inner: int) -> np.ndarray:
    """Per row, ``blackbox_survive_prob`` at (p, q), computed once per
    distinct pair and kept in ``_SURVIVE_MEMO``; no row holds a NaN."""
    rows = p + 1j * q
    pairs = _distinct(rows)
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
    return np.array(values)[np.searchsorted(pairs, rows)]


# ----------------------------------------------------------------------
# equivalence tester


def _counter_totals(oracles) -> dict[str, int]:
    """Queries by class, then their "total", over every distinct counter on
    the oracles' chains, each counted once: a query forwarded to a base
    counts once per layer."""
    counters = {id(o.counter): o.counter for oracle in oracles for o in oracle.chain()}
    out = {cls.value: 0 for cls in QueryClass}
    for counter in counters.values():
        for cls, k in counter.counts.items():
            out[cls.value] += k
    return out | {"total": sum(out.values())}


# The bracket of a node that mu gives zero mass: the walk stops at the node's
# first draw, since every u >= _DEAD.
_DEAD = -1.0
_CHUNK = 4096


def _first_stop(p_mu: np.ndarray, p_tau: np.ndarray, node_kl: np.ndarray, nodes: np.ndarray,
                u: np.ndarray, n_draws: int, inner: int) -> int | None:
    """Index of the first draw whose u is at least its survive probability,
    or None.  Each draw gets its closed-form bracket (lo, hi) from its
    node's entry of the run's min-KL array ``node_kl`` (see ``_node_kl``;
    the nodes not yet known are computed and kept there) and its own p - q;
    a draw with u < lo survives, the first draw with u >= hi stops, and only
    the band before that stop, the draws with lo <= u < hi, gets exact
    values."""
    p, q = p_mu[nodes], p_tau[nodes]
    kl = _lazy_read(node_kl, nodes, lambda missing: _min_kl(p_mu[missing], p_tau[missing]))
    lo, hi = _survive_bounds(n_draws, kl, p - q, inner)
    dead = np.isnan(p)
    lo[dead] = hi[dead] = _DEAD
    maybe = np.flatnonzero(u >= lo)
    stops = np.flatnonzero(u[maybe] >= hi[maybe])
    band = maybe[:stops[0]] if stops.size else maybe
    if band.size:
        exact = _exact_survive(n_draws, p[band], q[band], inner)
        settled = np.flatnonzero(u[band] >= exact)
        if settled.size:
            return int(band[settled[0]])
    return int(maybe[stops[0]]) if stops.size else None


# The coordinates drawn and dropped at once, at a level where the cursor
# cannot advance past them and before a replayed slice.
_COORDINATE_BLOCK = 1 << 20


class _CoordinateCursor:
    """A run's cursor over its levels' coordinates, the values of one
    ``rng.integers(1, n + 1, size=outer, dtype=np.int32)`` call per level,
    of which it keeps none (see the module docstring).  ``level`` moves
    ``rng`` past a level's ``outer`` coordinates and the ``outer`` uniforms
    the caller draws or skips after them, and returns the function that
    replays their slice [first, last); ``settle`` ends the run, before
    anything else reads ``rng``.  Where it ``skips`` (a PCG64, n a
    power of two), it reads the state once, each level takes one
    ``advance`` and one ``random_raw`` (the output whose high half the next
    32-bit draw would read), and the outputs drawn since the snapshot and
    the buffered 32-bit half are carried here, since ``advance`` clears the
    generator's half and ``random`` neither reads nor changes it;
    ``settle`` writes the half back.
    Otherwise a level draws and drops its coordinates.  Each level keeps
    one start: the snapshot's output count and buffered half where it
    skips, else the generator state read when the level began.  A slice is
    replayed in a scratch generator of ``rng``'s bit-generator type, built
    on first use, so a run that searches no chunk builds none; it is
    seeded, not drawn from OS entropy, since every use sets its state."""

    def __init__(self, rng, n: int):
        self.rng, self.n = rng, n
        self.skips = type(rng.bit_generator) is np.random.PCG64 and n & (n - 1) == 0
        self.snapshot = rng.bit_generator.state
        self.step = 0  # 64-bit outputs drawn since the snapshot
        self.has, self.half = self.snapshot.get("has_uint32"), self.snapshot.get("uinteger")
        # The scratch generator, and the level start and coordinate it stands at.
        self.scratch, self.replayed = None, (None, 0)

    def level(self, outer: int):
        if not self.skips:
            start = self.rng.bit_generator.state
            self._drop(self.rng, outer)
            return functools.partial(self._replay, start)
        start = self.step, self.has, self.half
        if self.n > 1:
            # Each coordinate takes one 32-bit draw: the buffered half, then
            # both halves of each new output, low first.
            k = outer - self.has
            if k:
                bit_generator = self.rng.bit_generator
                bit_generator.advance((k - 1) // 2)
                self.half = bit_generator.random_raw() >> 32
                self.step += (k + 1) // 2
            self.has = k % 2
        self.step += outer
        return functools.partial(self._replay, start)

    def _drop(self, generator: np.random.Generator, count: int) -> None:
        """Draws ``count`` coordinates on ``generator``, ``_COORDINATE_BLOCK``
        at a time, and keeps none."""
        for first in range(0, count, _COORDINATE_BLOCK):
            generator.integers(1, self.n + 1, size=min(_COORDINATE_BLOCK, count - first),
                               dtype=np.int32)

    def _replay(self, start, first: int, last: int) -> np.ndarray:
        """The coordinates [first, last) of the level that begins at
        ``start``: drawn on from where the scratch stands, if that is in this
        level and not past ``first``, else from the level's start, dropping
        the coordinates before ``first``.  So chunks read in order draw each
        coordinate of a level at most once."""
        at, pos = self.replayed
        if at is not start or pos > first:
            if self.scratch is None:
                self.scratch = np.random.Generator(type(self.rng.bit_generator)(0))
            bit_generator = self.scratch.bit_generator
            if self.skips:
                step, has, half = start
                bit_generator.state = self.snapshot
                advance_pcg64(bit_generator, step, (has, half))
            else:
                bit_generator.state = start
            pos = 0
        self._drop(self.scratch, first - pos)
        self.replayed = start, last
        return self.scratch.integers(1, self.n + 1, size=last - first, dtype=np.int32)

    def settle(self) -> None:
        if self.skips and self.n > 1:
            advance_pcg64(self.rng.bit_generator, 0, (self.has, self.half))


def _run_equivalence(tau, mu, eps_l: float, rng) -> Verdict:
    """Levin's work balance over (i, prefix) y-draws from tau; a draw
    survives while its uniform u is below its survive probability, decided
    by ``_first_stop`` from the chunk's own nodes.

    Each level moves ``rng`` past its ``outer`` coordinates i through the
    run's ``_CoordinateCursor``, which keeps none of them (a searched chunk
    replays its own), then draws its u a ``_CHUNK`` at a time: the values
    and stream of one ``rng.integers(1, n + 1, size=outer)`` and one
    ``rng.random(outer)`` call.  A certain level (see the module docstring)
    passes its u over instead and certifies all its draws.  A chunk whose u
    all lie below the level's survive floor (see the module docstring;
    below 0 when tau can reach a node mu gives zero mass) survives whole on
    one ``max``; any other chunk is searched.  A certified chunk's tau
    uniforms are consumed without a search, by one ``skip_full_draws`` per
    run of certified chunks, before the next search or at the end of the
    run, so tau's stream is the same as if they were searched.  After a
    rejecting run tau's RNG and ``rng`` have each advanced by up to one
    chunk beyond the rejecting draw; only a caller who reuses either for
    another run can see it.  After an accepting run ``rng`` holds the state
    of drawing every level's i and u.

    The run is billed once, when it ends, with the sum of ``_level_charges``
    over the levels it reached, the one statement of a level's charge: tau
    pays prefix queries, mu marginal queries, for the draws each level
    consumed and whether its stop was dead."""
    n = tau.n
    p_tau, p_mu = tau.node_bit_probs(), mu.node_bit_probs()
    schedule = levin_schedule(eps_l)
    # Python ints: _level_charges' totals pass 2^63 at deep levels.
    draws = [_trial_draws(eps_prime) for _, eps_prime, _, _ in schedule]
    # Every level has the same inner.
    floors, certain, known = _survive_floors(p_mu, p_tau, draws, schedule[0][3])
    node_kl = None  # built when the run first searches a chunk
    cursor = _CoordinateCursor(rng, n)
    certified = 0  # draws of the certified chunks whose tau uniforms are not yet skipped
    trace, charges = [], []
    for (t, eps_prime, outer, inner), n_draws, floor, sure in zip(schedule, draws, floors,
                                                                  certain):
        coordinates = cursor.level(outer)
        rejected_at = stop_node = None
        if sure:
            # No u < 1 stops the walk here: its u are passed over, not drawn.
            skip_uniforms(rng, outer)
            certified += outer
        else:
            for first in range(0, outer, _CHUNK):
                u = rng.random(min(_CHUNK, outer - first))
                if u.max() < floor:
                    # Every node tau can draw survives these u.
                    certified += u.size
                    continue
                if certified:
                    tau.skip_full_draws(certified)
                    certified = 0
                # y-draws are real tau samples, pulled in meter-free chunks.
                w_idx = tau.sample_full_indices_uncounted(u.size)
                i_c = coordinates(first, first + u.size).astype(np.int64)
                nodes = node_index(i_c, w_idx >> (n - i_c + 1))
                if node_kl is None:
                    node_kl = _node_kl(p_mu.size, known)
                pos = _first_stop(p_mu, p_tau, node_kl, nodes, u, n_draws, inner)
                if pos is not None:
                    rejected_at, stop_node = first + pos, nodes[pos]
                    break
        dead = stop_node is not None and bool(np.isnan(p_mu[stop_node]))
        used = outer if rejected_at is None else rejected_at + 1
        charges.append(_level_charges(n_draws, inner, used, dead))
        trace.append(_level_record(t, eps_prime, outer, inner, rejected_at, dead))
        if rejected_at is not None:
            break
    if certified:
        tau.skip_full_draws(certified)
    tau_queries, mu_queries = (sum(column) for column in zip(*charges))
    tau.charge(QueryClass.PREFIX, tau_queries)
    mu.charge(QueryClass.MARGINAL, mu_queries)
    cursor.settle()
    return Verdict(rejected_at is None, trace=trace)


def _equivalence_core(tau, mu, eps_l: float, seed) -> Verdict:
    """The walk of ``tau`` against ``mu`` at eps_L = ``eps_l``, as
    ``_levin_eps`` derived it, billed on both oracles' chains."""
    if tau.n > MAX_DENSE_N:
        raise DomainError(f"the walk's node arrays support n <= {MAX_DENSE_N}, got n={tau.n}")
    rng = np.random.default_rng(seed)
    before = _counter_totals((tau, mu))
    verdict = _run_equivalence(tau, mu, eps_l, rng)
    after = _counter_totals((tau, mu))
    verdict.queries_used = {name: after[name] - before[name] for name in after}
    return verdict


def equivalence_test(tau: TableOracle, mu: TableOracle, eps: float, seed=None) -> Verdict:
    """eps-test for equivalence of two distributions over {0,1}^n.

    ``tau`` needs prefix access, ``mu`` marginal-prefix access.  Accepts
    tau = mu and rejects dtv(tau, mu) > eps, each with probability >= 2/3.
    """
    eps_l = _levin_eps(tau.n, eps)
    if mu.n != tau.n:
        raise ValueError(f"dimension mismatch: tau has n={tau.n}, mu has n={mu.n}")
    return _equivalence_core(tau, mu, eps_l, seed)


def product_test(mu: TableOracle, eps: float, seed=None) -> Verdict:
    """eps-test for mu over {0,1}^n being a product distribution.

    Runs the equivalence tester against the product of mu's marginals, whose
    marginal-prefix queries are simulated through mu itself, one prefix
    query each.
    """
    eps_l = _levin_eps(mu.n, eps)
    return _equivalence_core(mu, ProductMarginalOracle(mu), eps_l, seed)


def product_test_general(mu: TupleTableOracle, eps: float, seed=None) -> Verdict:
    """The product test over a tuple domain, on mu's binary encoding: each
    marginal-prefix query of the product of its coordinate marginals costs
    one subcube query on mu."""
    eps_l = _levin_eps(mu.domain.total_bits, eps)
    view = BinaryEncodedOracle(mu)
    return _equivalence_core(view, ProductMarginalOracle(view), eps_l, seed)


def equivalence_test_general(tau: TupleTableOracle, mu: TupleTableOracle, eps: float,
                             seed=None) -> Verdict:
    """Equivalence test over a general tuple domain via binary encoding.

    Each binary query translates to exactly one query on the underlying
    tuple oracle; the effective dimension is the total encoded bit width.
    """
    eps_l = _levin_eps(tau.domain.total_bits, eps)
    if tau.domain != mu.domain:
        raise ValueError("tau and mu must share a domain")
    return _equivalence_core(BinaryEncodedOracle(tau), BinaryEncodedOracle(mu), eps_l, seed)


def interval_equivalence_test(tau: IntervalOracle, mu: IntervalOracle, eps: float,
                              seed=None) -> Verdict:
    """Equivalence test for two distributions over [N] with interval access.

    Runs the binary equivalence tester on ``IntervalBackedPrefixOracle``
    views of both, which pad [N] to the next power of two and translate
    every prefix query to one interval query.  N = 1 accepts at no cost and
    runs no level.
    """
    eps_l = _levin_eps(code_bits(tau.N), eps)
    if tau.N != mu.N:
        raise ValueError(f"domain mismatch: {tau.N} vs {mu.N}")
    if tau.N == 1:
        return Verdict(True, queries_used={cls.value: 0 for cls in QueryClass} | {"total": 0})
    return _equivalence_core(IntervalBackedPrefixOracle(tau), IntervalBackedPrefixOracle(mu),
                             eps_l, seed)
