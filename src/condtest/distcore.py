"""Exact representations of distributions over bit strings and tuples.

Everything here is ground truth: dense probability tables, exact divergence
computations, and exact conditional ("probability tree") decompositions.
The samplers and testers in the other modules are verified against these.

Bit strings of length n are identified with integers in [0, 2^n) via the
MSB-first convention: coordinate 1 is the most significant bit, so the
lexicographic order of bit strings coincides with integer order and every
prefix corresponds to a contiguous block of indices.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field

import numpy as np

PROB_ATOL = 1e-12
# Dense tables are the verification backbone and must stay exact; anything
# larger than this has to go through a structured representation.
MAX_DENSE_N = 20


class DivergenceKind(enum.Enum):
    TV = "tv"
    KL = "kl"
    CHI2 = "chi2"


class DomainError(ValueError):
    """Raised for dimension mismatches and malformed domain elements."""


class ZeroProbabilityPrefixError(ValueError):
    """Conditioning on a prefix that carries no probability mass."""


def bits_to_index(bits) -> int:
    """MSB-first bit tuple -> integer."""
    value = 0
    for b in bits:
        if b not in (0, 1):
            raise DomainError(f"bit values must be 0 or 1, got {b!r}")
        value = (value << 1) | b
    return value


def index_to_bits(index: int, length: int) -> tuple[int, ...]:
    """Integer -> MSB-first bit tuple of the given length."""
    if not 0 <= index < (1 << length):
        raise DomainError(f"index {index} out of range for {length} bits")
    return tuple((index >> (length - 1 - j)) & 1 for j in range(length))


def check_probability_vector(probs: np.ndarray) -> None:
    """DomainError unless ``probs`` is finite, non-negative and sums to 1
    within PROB_ATOL."""
    if not np.all(np.isfinite(probs)):
        raise DomainError("probabilities must be finite")
    if np.any(probs < 0):
        raise DomainError("probabilities must be non-negative")
    if abs(float(probs.sum()) - 1.0) > PROB_ATOL:
        raise DomainError(f"probabilities sum to {probs.sum()}, not 1")


def single_bit_divergence(kind: DivergenceKind, p: float, q: float) -> float:
    """Divergence between Ber(p) and Ber(q).

    TV(p,q) = |p-q|
    kl(p,q) = p log2(p/q) + (1-p) log2((1-p)/(1-q)), with 0 log 0 = 0 and
              p > 0 over q = 0 yielding +inf
    chi2(p,q) = (p-q)^2 / ((p+q)(2-(p+q))), with the 0/0 form (p = q at the
              endpoints) evaluating to 0
    """
    if not (0.0 <= p <= 1.0 and 0.0 <= q <= 1.0):
        raise DomainError(f"probabilities must lie in [0,1], got {p}, {q}")
    if kind is DivergenceKind.TV:
        return abs(p - q)
    if kind is DivergenceKind.CHI2:
        if p == q:
            return 0.0
        # (1 - p) + (1 - q), not 2 - (p + q): near p = q = 1 the sum rounds
        # to 2 and the denominator to 0.
        return (p - q) ** 2 / ((p + q) * ((1.0 - p) + (1.0 - q)))
    if kind is DivergenceKind.KL:
        total = 0.0
        for a, b in ((p, q), (1.0 - p, 1.0 - q)):
            if a == 0.0:
                continue
            if b == 0.0:
                return math.inf
            total += a * math.log2(a / b)
        # Tiny negative values can appear from rounding when p ~ q.
        return max(total, 0.0)
    raise DomainError(f"unknown divergence kind {kind!r}")


def node_conditionals(levels) -> np.ndarray:
    """Conditional bit probabilities from prefix masses.

    ``levels[k][v]`` is the mass of the k-bit prefix v, for k = 0..n.  The
    result holds Pr[bit i = 1 | prefix w] = levels[i][2w + 1] / levels[i-1][w]
    for node (1 << (i-1)) + w at index node - 1, i = 1..n, and NaN where the
    prefix mass is not positive.
    """
    n = len(levels) - 1
    out = np.full((1 << n) - 1, np.nan)
    for i in range(1, n + 1):
        parent = levels[i - 1]
        np.divide(levels[i][1::2], parent, out=out[(1 << (i - 1)) - 1:(1 << i) - 1],
                  where=parent > 0.0)
    return out


def _check_dense_n(n: int) -> None:
    """DomainError unless a dense table over {0,1}^n is allowed; constructors
    call it before allocating 2^n cells."""
    if not 1 <= n <= MAX_DENSE_N:
        raise DomainError(f"dense tables support 1 <= n <= {MAX_DENSE_N}, got {n}")


class DistributionTable:
    """Dense pmf over {0,1}^n, indexed by MSB-first bit strings.

    Immutable after construction. ``probs`` must be non-negative and sum
    to 1 within 1e-12.
    """

    __slots__ = ("n", "probs", "_level_sums", "_cond_nodes", "_eff_cond_levels")

    def __init__(self, n: int, probs):
        _check_dense_n(n)
        probs = np.asarray(probs, dtype=np.float64)
        if probs.shape != (1 << n,):
            raise DomainError(f"expected {1 << n} probabilities, got shape {probs.shape}")
        check_probability_vector(probs)
        self.n = n
        self.probs = probs.copy()
        self.probs.setflags(write=False)
        self._level_sums = None
        self._cond_nodes = None
        self._eff_cond_levels = None

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def uniform(cls, n: int) -> "DistributionTable":
        _check_dense_n(n)
        return cls(n, np.full(1 << n, 2.0 ** -n))

    @classmethod
    def point_mass(cls, bits) -> "DistributionTable":
        bits = tuple(bits)
        _check_dense_n(len(bits))
        probs = np.zeros(1 << len(bits))
        probs[bits_to_index(bits)] = 1.0
        return cls(len(bits), probs)

    @classmethod
    def bernoulli_product(cls, ps) -> "DistributionTable":
        """Product of independent Ber(p_i); coordinate 1 is ps[0]."""
        ps = list(ps)
        _check_dense_n(len(ps))
        probs = np.ones(1)
        for p in ps:
            if not 0.0 <= p <= 1.0:
                raise DomainError(f"Bernoulli parameter {p} out of range")
            probs = np.kron(probs, np.array([1.0 - p, p]))
        return cls(len(ps), probs)

    @classmethod
    def from_conditional_tree(cls, tree: "ConditionalTree") -> "DistributionTable":
        _check_dense_n(tree.n)
        masses = np.ones(1)
        for i in range(1, tree.n + 1):
            p1 = np.zeros(1 << (i - 1))
            for j in range(1 << (i - 1)):
                if masses[j] > 0.0:
                    key = (i, index_to_bits(j, i - 1))
                    if key not in tree.cond:
                        raise DomainError(f"tree has no entry for the positive-mass key {key}")
                    p1[j] = tree.cond[key]
            nxt = np.empty(1 << i)
            nxt[0::2] = masses * (1.0 - p1)
            nxt[1::2] = masses * p1
            masses = nxt
        return cls(tree.n, masses)

    # ------------------------------------------------------------------
    # structure

    def level_sums(self) -> list[np.ndarray]:
        """level_sums()[k][j] is the mass of the length-k prefix with index j."""
        if self._level_sums is None:
            levels = [self.probs]
            for _ in range(self.n):
                levels.append(levels[-1][0::2] + levels[-1][1::2])
            levels.reverse()
            self._level_sums = levels
        return self._level_sums

    def conditional_nodes(self) -> np.ndarray:
        """Every Pr[x_i = 1 | prefix w] in one read-only array, at index
        (1 << (i-1)) + w - 1 (see ``node_conditionals``)."""
        if self._cond_nodes is None:
            self._cond_nodes = node_conditionals(self.level_sums())
            self._cond_nodes.setflags(write=False)
        return self._cond_nodes

    def conditional_levels(self) -> list[np.ndarray]:
        """conditional_levels()[i-1][j] = Pr[x_i = 1 | prefix j], NaN if the
        prefix has zero mass; views into ``conditional_nodes()``."""
        nodes = self.conditional_nodes()
        return [nodes[(1 << (i - 1)) - 1:(1 << i) - 1] for i in range(1, self.n + 1)]

    def effective_conditional_levels(self) -> list[np.ndarray]:
        """Like conditional_levels(), but a zero-mass prefix inherits the
        conditional of its deepest positive-mass ancestor: the value at a dead
        node (i, w) is Pr[x_i = 1 | x_[k] = w_[k]] for the largest k with
        Pr[x_[k] = w_[k]] > 0.  For degenerate tables (e.g. point masses) this
        is the 0/1 value the table implies on its dead branches."""
        if self._eff_cond_levels is None:
            levels = self.level_sums()
            out = []
            for i in range(1, self.n + 1):
                parent = levels[i - 1]
                cond = np.empty(1 << (i - 1))
                memo: dict[tuple[int, int], float] = {}
                for j in range(1 << (i - 1)):
                    if parent[j] > 0.0:
                        cond[j] = levels[i][2 * j + 1] / parent[j]
                    else:
                        k = i - 1
                        anc = j
                        while k > 0 and levels[k][anc] == 0.0:
                            k -= 1
                            anc >>= 1
                        key = (k, anc)
                        if key not in memo:
                            memo[key] = self._bit_prob_in_cylinder(i, k, anc)
                        cond[j] = memo[key]
                out.append(cond)
            self._eff_cond_levels = out
        return self._eff_cond_levels

    def _bit_prob_in_cylinder(self, i: int, k: int, anc: int) -> float:
        """Pr[x_i = 1 | x_[k] = ancestor], for k < i and positive ancestor mass."""
        width = self.n - k
        block = self.probs[anc << width:(anc + 1) << width]
        mask_bit = 1 << (self.n - i)
        idx = np.arange(block.shape[0])
        ones = float(block[(idx & mask_bit) != 0].sum())
        total = float(block.sum())
        return ones / total

    def marginals(self) -> np.ndarray:
        """Pr[x_i = 1] for i = 1..n."""
        idx = np.arange(1 << self.n)
        return np.array([
            float(self.probs[(idx >> (self.n - i)) & 1 == 1].sum())
            for i in range(1, self.n + 1)
        ])

    # ------------------------------------------------------------------
    # serialization

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "probs": self.probs.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "DistributionTable":
        data = json.loads(text)
        if "probs" in data:
            return cls(_json_n(data), data["probs"])
        if "tree" in data:
            return cls.from_conditional_tree(ConditionalTree.from_json(text))
        raise DomainError("distribution JSON must contain 'probs' or 'tree'")


@dataclass(frozen=True)
class ConditionalTree:
    """Probability-tree form: Pr[x_i = 1 | x_[i-1] = w] for every
    positive-probability prefix w."""

    n: int
    cond: dict[tuple[int, tuple[int, ...]], float] = field(default_factory=dict)

    def __post_init__(self):
        for (i, w), p in self.cond.items():
            if not 1 <= i <= self.n or len(w) != i - 1:
                raise DomainError(f"malformed tree key ({i}, {w})")
            if not 0.0 <= p <= 1.0:
                raise DomainError(f"conditional probability {p} out of [0,1]")

    @classmethod
    def from_table(cls, table: DistributionTable) -> "ConditionalTree":
        levels = table.level_sums()
        cond = {}
        for i in range(1, table.n + 1):
            parent = levels[i - 1]
            for j in range(1 << (i - 1)):
                if parent[j] > 0.0:
                    cond[(i, index_to_bits(j, i - 1))] = float(levels[i][2 * j + 1] / parent[j])
        return cls(table.n, cond)

    def to_table(self) -> DistributionTable:
        return DistributionTable.from_conditional_tree(self)

    def to_json(self) -> str:
        payload = {
            f"{i}:{''.join(map(str, w))}": p for (i, w), p in sorted(self.cond.items())
        }
        return json.dumps({"n": self.n, "tree": payload})

    @classmethod
    def from_json(cls, text: str) -> "ConditionalTree":
        data = json.loads(text)
        n = _json_n(data)
        cond = {}
        try:
            for key, p in data["tree"].items():
                i_str, _, w_str = key.partition(":")
                cond[(int(i_str), tuple(int(c) for c in w_str))] = float(p)
        except (AttributeError, KeyError, TypeError, ValueError):
            raise DomainError("'tree' must map 'i:prefix' keys to probabilities") from None
        return cls(n, cond)


def _json_n(data: dict) -> int:
    """The integer "n" of a distribution JSON object."""
    try:
        return int(data["n"])
    except (KeyError, TypeError, ValueError):
        raise DomainError("distribution JSON needs an integer 'n'") from None


def conditional_bit_prob(tree: ConditionalTree, i: int, w) -> float:
    """Exact Pr[x_i = 1 | x_[i-1] = w]; errors on zero-probability prefixes."""
    w = tuple(w)
    if not 1 <= i <= tree.n or len(w) != i - 1:
        raise DomainError(f"bad query ({i}, {w}) for n={tree.n}")
    try:
        return tree.cond[(i, w)]
    except KeyError:
        raise ZeroProbabilityPrefixError(f"prefix {w} has zero probability") from None


def _check_same_domain(p: DistributionTable, q: DistributionTable) -> None:
    if p.n != q.n:
        raise DomainError(f"dimension mismatch: {p.n} vs {q.n}")


def tv_distance(p: DistributionTable, q: DistributionTable) -> float:
    _check_same_domain(p, q)
    return 0.5 * float(np.abs(p.probs - q.probs).sum())


def kl_divergence(p: DistributionTable, q: DistributionTable) -> float:
    """dkl(P, Q) = sum over supp(P) of P(x) log2(P(x)/Q(x)); +inf when
    supp(P) is not contained in supp(Q)."""
    _check_same_domain(p, q)
    support = p.probs > 0.0
    if np.any(q.probs[support] == 0.0):
        return math.inf
    ps = p.probs[support]
    qs = q.probs[support]
    return max(float(np.sum(ps * np.log2(ps / qs))), 0.0)


def slicewise_divergence(kind: DivergenceKind, t: DistributionTable,
                         m: DistributionTable) -> float:
    """Slice-wise divergence: sum over coordinates of the T-expected
    single-bit divergence between the prefix-conditional marginals of T and M.

    Prefixes with positive T-mass but zero M-mass use M's effective
    (ancestor-inherited) conditional for TV/CHI2 and give +inf for KL.
    """
    _check_same_domain(t, m)
    t_levels = t.level_sums()
    t_cond = t.conditional_levels()
    m_cond_eff = None
    total = 0.0
    m_levels = m.level_sums()
    for i in range(1, t.n + 1):
        weights = t_levels[i - 1]
        alive = weights > 0.0
        tc = t_cond[i - 1]
        m_parent = m_levels[i - 1]
        if kind is DivergenceKind.KL and np.any(alive & (m_parent == 0.0)):
            return math.inf
        if np.any(alive & (m_parent == 0.0)):
            if m_cond_eff is None:
                m_cond_eff = m.effective_conditional_levels()
            mc = m_cond_eff[i - 1]
        else:
            mc = m.conditional_levels()[i - 1]
        for j in np.nonzero(alive)[0]:
            d = single_bit_divergence(kind, float(tc[j]), float(mc[j]))
            if math.isinf(d):
                return math.inf
            total += float(weights[j]) * d
    return total


def product_of_marginals(m: DistributionTable) -> DistributionTable:
    """The product distribution with the same single-coordinate marginals."""
    return DistributionTable.bernoulli_product(m.marginals())


def clamp_distribution(m: DistributionTable, t: DistributionTable,
                       threshold: float) -> DistributionTable:
    """Clamp M's tree conditionals away from 0 and 1.

    Per prefix w at slice i, with mm = Pr_M[x_i=1|w] and tt = Pr_T[x_i=1|w]
    (effective conditionals on dead prefixes):

      mm < threshold      ->  min(threshold, tt)
      mm > 1 - threshold  ->  1 - min(threshold, 1 - tt)
      otherwise           ->  mm

    Every slice moves by at most ``threshold``, so dtv(M, result) <= n * threshold.
    """
    _check_same_domain(m, t)
    if not 0.0 < threshold < 0.5:
        raise DomainError(f"threshold must lie in (0, 1/2), got {threshold}")
    m_cond = m.effective_conditional_levels()
    t_cond = t.effective_conditional_levels()
    masses = np.ones(1)
    for i in range(1, m.n + 1):
        mm = m_cond[i - 1]
        tt = t_cond[i - 1]
        low = mm < threshold
        high = mm > 1.0 - threshold
        clamped = np.where(low, np.minimum(threshold, tt),
                           np.where(high, 1.0 - np.minimum(threshold, 1.0 - tt), mm))
        nxt = np.empty(1 << i)
        nxt[0::2] = masses * (1.0 - clamped)
        nxt[1::2] = masses * clamped
        masses = nxt
    return DistributionTable(m.n, masses)


@dataclass(frozen=True)
class TupleDomain:
    """Ordered finite alphabets for each coordinate of a tuple domain."""

    alphabets: tuple[tuple, ...]

    def __post_init__(self):
        if not self.alphabets:
            raise DomainError("need at least one coordinate")
        for alpha in self.alphabets:
            if len(alpha) < 1:
                raise DomainError("alphabets must be nonempty")
            if len(set(alpha)) != len(alpha):
                raise DomainError("alphabet elements must be distinct")

    @property
    def n(self) -> int:
        return len(self.alphabets)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.alphabets)

    @property
    def bit_widths(self) -> tuple[int, ...]:
        return tuple(max(1, math.ceil(math.log2(len(a)))) if len(a) > 1 else 1
                     for a in self.alphabets)

    @property
    def total_bits(self) -> int:
        return sum(self.bit_widths)

    def size(self) -> int:
        return math.prod(self.sizes)

    def index_of(self, element) -> int:
        """Mixed-radix index of a tuple element (coordinate 1 most significant)."""
        idx = 0
        for alpha, x in zip(self.alphabets, element):
            idx = idx * len(alpha) + alpha.index(x)
        return idx

    def element_of(self, idx: int):
        out = []
        for alpha in reversed(self.alphabets):
            idx, r = divmod(idx, len(alpha))
            out.append(alpha[r])
        return tuple(reversed(out))
