"""Exact representations of distributions over bit strings and tuples.

Everything here is ground truth: dense probability tables, exact divergence
computations, and exact conditional ("probability tree") decompositions.
The samplers and testers in the other modules are verified against these.

Bit strings of length n are identified with integers in [0, 2^n) via the
MSB-first convention: coordinate 1 is the most significant bit, so the
lexicographic order of bit strings coincides with integer order and every
prefix corresponds to a contiguous block of indices.

Conditionals Pr[x_i = 1 | x_[i-1] = w] have one representation, a node
array of 2^n - 1 floats: the (i, w) conditional sits at index
``node_index(i, w)`` = (1 << (i-1)) + w - 1, so level i is the slice
[2^(i-1) - 1, 2^i - 1), and NaN marks a prefix with no conditional (zero
mass, or no entry in a tree file).
Exact masses have one rule, ``level_sums``: every prefix sums its cells
pairwise, level by level, whatever view the cells come from, and every
marginal or conditional here is a ratio of such sums (a marginal sums a
level's masses that end in 1 the same way).
Every table built from conditionals goes through ``_from_conditionals``.
"""

from __future__ import annotations

import enum
import math
import numbers
import re
from dataclasses import dataclass

import numpy as np

PROB_ATOL = 1e-12
# Dense tables are the verification backbone and must stay exact; anything
# larger than this has to go through a structured representation.
MAX_DENSE_N = 20
_TREE_KEY = re.compile(r"([0-9]+):([01]*)")  # "i:prefix" key of a tree file


class DivergenceKind(enum.Enum):
    TV = "tv"
    KL = "kl"
    CHI2 = "chi2"


class DomainError(ValueError):
    """Raised for dimension mismatches and malformed domain elements."""


def bits_to_index(bits) -> int:
    """MSB-first bit tuple -> integer."""
    value = 0
    for b in bits:
        if b not in (0, 1):
            raise DomainError(f"bit values must be 0 or 1, got {b!r}")
        value = (value << 1) | b
    return value


def code_bits(size: int) -> int:
    """Bits of an MSB-first code over ``size`` symbols: ceil(log2 size), at
    least 1."""
    return max(1, (size - 1).bit_length())


def index_to_bits(index: int, length: int) -> tuple[int, ...]:
    """Integer -> MSB-first bit tuple of the given length."""
    if not 0 <= index < (1 << length):
        raise DomainError(f"index {index} out of range for {length} bits")
    return tuple((index >> (length - 1 - j)) & 1 for j in range(length))


def is_number(value, kind=numbers.Real) -> bool:
    """``value`` is a ``kind`` (``numbers.Integral`` or ``numbers.Real``) and
    not a bool, which is an Integral but stands for a JSON true or false:
    the rule for every number read from a JSON source or config file."""
    return isinstance(value, kind) and not isinstance(value, bool)


def json_array(values, error: str) -> np.ndarray:
    """The float64 array of ``values``, a JSON list of numbers (``is_number``);
    anything else raises DomainError(error)."""
    # is_number depends on a value's type alone: check one value of each type
    if not (isinstance(values, list)
            and all(is_number(v) for v in dict(zip(map(type, values), values)).values())):
        raise DomainError(error)
    return np.array(values, dtype=np.float64)


def check_probability_vector(probs: np.ndarray) -> None:
    """DomainError unless ``probs`` is finite, non-negative and sums to 1
    within PROB_ATOL."""
    if not np.all(np.isfinite(probs)):
        raise DomainError("probabilities must be finite")
    if np.any(probs < 0):
        raise DomainError("probabilities must be non-negative")
    if abs(float(probs.sum()) - 1.0) > PROB_ATOL:
        raise DomainError(f"probabilities sum to {probs.sum()}, not 1")


def single_bit_divergence(kind: DivergenceKind, p, q):
    """Divergence between Ber(p) and Ber(q), elementwise over arrays; a
    float for scalar p and q.

    TV(p,q) = |p-q|
    kl(p,q) = p log2(p/q) + (1-p) log2((1-p)/(1-q)), with 0 log 0 = 0 and
              p > 0 over q = 0 yielding +inf
    chi2(p,q) = (p-q)^2 / ((p+q)(2-(p+q))), with the 0/0 form (p = q at the
              endpoints) evaluating to 0
    """
    p, q = np.broadcast_arrays(np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64))
    bad = ~((0.0 <= p) & (p <= 1.0) & (0.0 <= q) & (q <= 1.0))  # NaN included
    if bad.any():
        raise DomainError(f"probabilities must lie in [0,1], got {p[bad][0]}, {q[bad][0]}")
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind is DivergenceKind.TV:
            d = np.abs(p - q)
        elif kind is DivergenceKind.CHI2:
            # (1 - p) + (1 - q), not 2 - (p + q): near p = q = 1 the sum rounds
            # to 2 and the denominator to 0.
            d = np.where(p == q, 0.0, (p - q) ** 2 / ((p + q) * ((1.0 - p) + (1.0 - q))))
        elif kind is DivergenceKind.KL:
            # a / b is inf where b = 0 < a; tiny negative sums come from
            # rounding when p ~ q
            d = np.maximum(sum(np.where(a == 0.0, 0.0, a * np.log2(a / b))
                               for a, b in ((p, q), (1.0 - p, 1.0 - q))), 0.0)
        else:
            raise DomainError(f"unknown divergence kind {kind!r}")
    return float(d) if d.ndim == 0 else d


def node_index(i, w):
    """Index of the (i, w) conditional in a node array: node (1 << (i-1)) + w
    sits at index node - 1.  ``i`` and ``w`` are ints or integer arrays."""
    return (1 << (i - 1)) + w - 1


def level_sums(cells) -> list[np.ndarray]:
    """Prefix masses of 2^n cells, cell x at the n-bit code x:
    ``level_sums(cells)[k][v]`` is the mass of the k-bit prefix v, for
    k = 0..n, and each level sums adjacent pairs of the level below along
    the first axis, so each column of a 2-D ``cells`` is summed as if alone."""
    levels = [cells]
    for _ in range(cells.shape[0].bit_length() - 1):
        levels.append(levels[-1][0::2] + levels[-1][1::2])
    levels.reverse()
    return levels


def node_conditionals(levels) -> np.ndarray:
    """Conditional bit probabilities from prefix masses.

    ``levels[k][v]`` is the mass of the k-bit prefix v, for k = 0..n.  The
    result holds Pr[bit i = 1 | prefix w] = levels[i][2w + 1] / levels[i-1][w]
    at ``node_index(i, w)``, i = 1..n, and NaN where the prefix mass is not
    positive.
    """
    n = len(levels) - 1
    out = np.full((1 << n) - 1, np.nan)
    for i in range(1, n + 1):
        parent = levels[i - 1]
        np.divide(levels[i][1::2], parent, out=out[node_index(i, 0):node_index(i + 1, 0)],
                  where=parent > 0.0)
    return out


def _node_levels(nodes: np.ndarray, n: int) -> list[np.ndarray]:
    """Views of a node array, one per level: [i-1][w] is node (i, w)."""
    return [nodes[node_index(i, 0):node_index(i + 1, 0)] for i in range(1, n + 1)]


def _check_dense_n(n: int) -> None:
    """DomainError unless a dense table over {0,1}^n is allowed; constructors
    call it before allocating 2^n cells."""
    if not 1 <= n <= MAX_DENSE_N:
        raise DomainError(f"dense tables support 1 <= n <= {MAX_DENSE_N}, got {n}")


class DistributionTable:
    """Dense pmf over {0,1}^n, indexed by MSB-first bit strings.

    Immutable after construction. ``probs`` must be non-negative and sum
    to 1 within 1e-12.  What is derived from it is built once, on first use.
    """

    __slots__ = ("n", "probs", "_level_sums", "_cond_nodes", "_eff_cond_levels", "_cdf")

    def __init__(self, n: int, probs):
        _check_dense_n(n)
        probs = np.asarray(probs, dtype=np.float64)
        if probs.shape != (1 << n,):
            raise DomainError(f"expected {1 << n} probabilities, got shape {probs.shape}")
        check_probability_vector(probs)
        self._hold(n, probs.copy())

    def _hold(self, n: int, probs: np.ndarray) -> None:
        self.n = n
        self.probs = probs
        self.probs.setflags(write=False)
        self._level_sums = self._cond_nodes = self._eff_cond_levels = self._cdf = None

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def uniform(cls, n: int) -> "DistributionTable":
        """Mass 2^-n on every cell; the cells are its own and sum to 1
        exactly, so they are held unchecked and uncopied."""
        _check_dense_n(n)
        table = cls.__new__(cls)
        table._hold(n, np.full(1 << n, 2.0 ** -n))
        return table

    @classmethod
    def point_mass(cls, bits) -> "DistributionTable":
        bits = tuple(bits)
        return cls.at_codes(len(bits), bits_to_index(bits), 1.0)

    @classmethod
    def at_codes(cls, n: int, codes, masses) -> "DistributionTable":
        """masses[c] at the n-bit code codes[c], zero elsewhere; n is checked
        before allocating.  The masses are a checked pmf's, not summed again:
        zeros laid among them may move a float sum by ulps."""
        _check_dense_n(n)
        probs = np.zeros(1 << n)
        probs[codes] = masses
        table = cls.__new__(cls)
        table._hold(n, probs)
        return table

    @classmethod
    def bernoulli_product(cls, ps) -> "DistributionTable":
        """Product of independent Ber(p_i); coordinate 1 is ps[0]."""
        ps = list(ps)
        for p in ps:
            if not 0.0 <= p <= 1.0:
                raise DomainError(f"Bernoulli parameter {p} out of range")
        return _from_conditionals([np.array([p], dtype=np.float64) for p in ps])

    # ------------------------------------------------------------------
    # structure

    def level_sums(self) -> list[np.ndarray]:
        """level_sums()[k][j] is the mass of the length-k prefix with index j;
        read-only arrays."""
        if self._level_sums is None:
            self._level_sums = level_sums(self.probs)
            for level in self._level_sums:
                level.setflags(write=False)
        return self._level_sums

    def conditional_nodes(self) -> np.ndarray:
        """Every Pr[x_i = 1 | prefix w] in one read-only array, at
        ``node_index(i, w)`` (see ``node_conditionals``)."""
        if self._cond_nodes is None:
            self._cond_nodes = node_conditionals(self.level_sums())
            self._cond_nodes.setflags(write=False)
        return self._cond_nodes

    def cdf(self) -> np.ndarray:
        """The running sum of ``probs``, which full draws search."""
        if self._cdf is None:
            self._cdf = np.cumsum(self.probs)
            self._cdf.setflags(write=False)
        return self._cdf

    def conditional_levels(self) -> list[np.ndarray]:
        """conditional_levels()[i-1][j] = Pr[x_i = 1 | prefix j], NaN if the
        prefix has zero mass; views into ``conditional_nodes()``."""
        return _node_levels(self.conditional_nodes(), self.n)

    def effective_conditional_levels(self) -> list[np.ndarray]:
        """Like conditional_levels(), but a zero-mass prefix inherits the
        conditional of its deepest positive-mass ancestor: the value at node
        (i, w) is Pr[x_i = 1 | x_[k] = w_[k]] for the largest k < i with
        Pr[x_[k] = w_[k]] > 0, the level-i masses of that cylinder ending in
        1, summed by ``level_sums``, over the ancestor's mass.  For degenerate
        tables (e.g. point masses) this is the 0/1 value the table implies on
        its dead branches; live prefixes (k = i - 1) equal conditional_levels()."""
        if self._eff_cond_levels is None:
            levels = self.level_sums()
            masses = np.concatenate(levels)  # prefix (k, v) at node_index(k + 1, v)
            out = []
            depth = np.zeros(1, dtype=np.intp)  # of each prefix's deepest positive ancestor
            for i in range(1, self.n + 1):
                if i > 1:
                    depth = np.where(levels[i - 1] > 0.0, i - 1, np.repeat(depth, 2))
                anc = node_index(depth + 1, np.arange(1 << (i - 1)) >> (i - 1 - depth))
                cond = np.concatenate(level_sums(levels[i][1::2]))[anc] / masses[anc]
                cond.setflags(write=False)
                out.append(cond)
            self._eff_cond_levels = out
        return self._eff_cond_levels

    def marginals(self) -> np.ndarray:
        """Pr[x_i = 1] for i = 1..n: level i's masses ending in 1, summed by
        ``level_sums``."""
        levels = self.level_sums()
        return np.array([level_sums(levels[i][1::2])[0][0] for i in range(1, self.n + 1)])

    # ------------------------------------------------------------------
    # distribution files

    @classmethod
    def from_dict(cls, data: dict) -> "DistributionTable":
        """The table of a parsed distribution JSON object: a dense "probs"
        array, or a conditional "tree" {"i:prefix": p}, read straight into a
        node array (NaN where the tree has no entry); an object with both or
        neither is refused."""
        forms = [key for key in ("probs", "tree") if key in data]
        if len(forms) != 1:
            raise DomainError("distribution JSON must hold exactly one of 'probs' and 'tree', "
                              f"found {', '.join(map(repr, forms)) or 'neither'}")
        if "probs" in data:
            return cls(_json_n(data), json_array(data["probs"],
                                                 "'probs' must be a list of numbers"))
        n = _json_n(data)
        _check_dense_n(n)
        tree = data["tree"]
        error = "'tree' must map 'i:prefix' keys to probabilities"
        if not isinstance(tree, dict):
            raise DomainError(error)
        nodes = np.full((1 << n) - 1, np.nan)
        for key, p in zip(tree, json_array(list(tree.values()), error).tolist()):
            match = _TREE_KEY.fullmatch(key)
            if not match or not 1 <= int(match[1]) == len(match[2]) + 1 <= n:
                raise DomainError(f"malformed tree key {key!r} for n={n}; keys are "
                                  "'i:prefix' with an (i-1)-bit 0/1 prefix")
            if not 0.0 <= p <= 1.0:
                raise DomainError(f"conditional probability {p} out of [0,1]")
            nodes[node_index(int(match[1]), int("0" + match[2], 2))] = p
        return _from_conditionals(_node_levels(nodes, n))


def _json_n(data: dict) -> int:
    """The integer "n" of a distribution JSON object."""
    if not (isinstance(data, dict) and is_number(data.get("n"), numbers.Integral)):
        raise DomainError("distribution JSON needs an integer 'n'")
    return int(data["n"])


def _from_conditionals(levels) -> DistributionTable:
    """The table with Pr[x_i = 1 | prefix w] = levels[i-1][w], built level by
    level; a level of shape (1,) applies to all of its prefixes.  NaN stands
    for no conditional and is allowed only on zero-mass prefixes."""
    _check_dense_n(len(levels))
    masses = np.ones(1)
    for i, p1 in enumerate(levels, start=1):
        alive = masses > 0.0
        missing = np.flatnonzero(alive & np.isnan(p1))
        if missing.size:
            key = (i, index_to_bits(int(missing[0]), i - 1))
            raise DomainError(f"tree has no entry for the positive-mass key {key}")
        p1 = np.where(alive, p1, 0.0)
        nxt = np.empty(1 << i)
        nxt[0::2] = masses * (1.0 - p1)
        nxt[1::2] = masses * p1
        masses = nxt
    return DistributionTable(len(levels), masses)


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
    t_cond = t.conditional_levels()
    m_levels = m.level_sums()
    m_cond = m.effective_conditional_levels()
    total = 0.0
    for i, weights in enumerate(t.level_sums()[:-1]):
        alive = weights > 0.0
        if kind is DivergenceKind.KL and np.any(alive & (m_levels[i] == 0.0)):
            return math.inf
        total += float(weights[alive] @ single_bit_divergence(kind, t_cond[i][alive],
                                                                m_cond[i][alive]))
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
    return _from_conditionals([
        np.where(mm < threshold, np.minimum(threshold, tt),
                 np.where(mm > 1.0 - threshold, 1.0 - np.minimum(threshold, 1.0 - tt), mm))
        for mm, tt in zip(m.effective_conditional_levels(), t.effective_conditional_levels())
    ])


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
        return tuple(code_bits(len(a)) for a in self.alphabets)

    @property
    def total_bits(self) -> int:
        return sum(self.bit_widths)

    def size(self) -> int:
        return math.prod(self.sizes)

    def element_of(self, idx: int):
        out = []
        for alpha in reversed(self.alphabets):
            idx, r = divmod(idx, len(alpha))
            out.append(alpha[r])
        return tuple(reversed(out))
