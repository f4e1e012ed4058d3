"""Query-model layer: metered conditional-sampling oracles over exact tables.

Each oracle wraps one distribution behind one access model (subcube, prefix,
marginal prefix, interval, ...), owns a seeded RNG stream (a wrapper shares
its base's), and counts every query by class.

Every literal query is served by one rule (``MeteredOracle``):

1. validate: a malformed query raises MALFORMED_QUERY before anything is
   billed;
2. bill: ``charge(cls)`` bills one query here and one down the base chain;
3. draw: the answer is drawn from the base's distribution without billing
   again.

Every answer is one uniform drawn through ``inverse_cdf``, so it never
leaves its query's support or lands on a cell of zero mass.  Every literal
query that selects cells is drawn and billed by one method,
``MeteredOracle._draw_cell``: it sums the masses of the cells its query
selects and nothing else (``_draw_weighted``), a mask's cells or the
b - a + 1 cells of an interval [a, b], so a condition is refused exactly
when none of its cells has mass.  A condition with zero mass is billed and
then refused with ZERO_PROBABILITY_CONDITION.  A condition that selects no
cell at all bills only the oracle that was asked, since no query reaches
its base: a code the binary encoding never uses, or a prefix of the
interval view that lies wholly in its zero-mass padding.  That view,
``IntervalBackedPrefixOracle(base)``, pads the base's [N] to [2^n] with
n = max(1, ceil(log2 N)).

The binary oracles the equivalence walk serves (``BinaryPrefixOracle``)
expose the exact conditional probabilities they sample from as one float64
array, ``node_bit_probs()``: the entry for coordinate i and prefix w (an
MSB-first integer of i - 1 bits) is Pr[x_i = 1 | x_[i-1] = w], at
``distcore.node_index(i, w)``, so coordinate i fills indices
2^(i-1) - 1 .. 2^i - 2 in prefix order; it is NaN where w has zero mass,
and ``exact_bit_prob(i, w)`` reads it, raising ZERO_PROBABILITY_CONDITION
on NaN.  They also draw full samples as n-bit codes without a meter charge
(``sample_full_indices_uncounted``), one uniform per draw through
``inverse_cdf``, so ``skip_full_draws(k)`` moves the stream past k draws
exactly as drawing them would (``skip_uniforms``: a PCG64 stream in O(1)
by ``advance_pcg64``, which keeps its buffered 32-bit half, any other by
generating the k uniforms).  A cell-backed view (table, interval view,
binary encoding) states only its cells: masses at n-bit codes.  Its
``table`` is one ``DistributionTable`` of them at their codes, zero where
no cell is (the padding, a code the encoding never uses), and both walk
inputs are that table's, built once and kept there: the node array is its
``conditional_nodes()`` and a full draw searches its ``cdf()``, so oracles
on one table share both.  The product view over such a view's coordinate
marginals (``ProductMarginalOracle``) reads the table's prefix sums: a
coordinate's marginal sums them pairwise at its block's end, and its
block's node entries are that marginal's ``node_conditionals``.

Billing has one entry, ``charge(cls, m)``: it bills m queries of class
``cls`` to the oracle's own counter and forwards them to the oracle it is
built on (``base``) as that wrapper's ``base_class``.  The testers meter
only through it, once per run on each source: the y-draws the run's levels
consumed, the bit samples of their black-box runs and, on a
zero-probability reject, the one failed marginal query.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

import numpy as np

from .distcore import (
    DistributionTable,
    DomainError,
    TupleDomain,
    bits_to_index,
    check_probability_vector,
    code_bits,
    index_to_bits,
    level_sums,
    node_conditionals,
    node_index,
)

# The uniforms ``skip_uniforms`` generates at once where it cannot advance
# its stream: 32 KiB.
_SKIP_BLOCK = 1 << 12


def advance_pcg64(bit_generator: np.random.PCG64, k: int, half=None) -> None:
    """Moves a PCG64 past k 64-bit outputs, as k ``random`` doubles would,
    and leaves it holding ``half`` = (has_uint32, uinteger), by default the
    buffered 32-bit half it holds now: ``advance`` resets both to 0, and
    ``random`` neither reads nor changes them."""
    if half is None:
        state = bit_generator.state
        half = state["has_uint32"], state["uinteger"]
    bit_generator.advance(k)
    if any(half):
        state = bit_generator.state
        state["has_uint32"], state["uinteger"] = half
        bit_generator.state = state


def skip_uniforms(rng: np.random.Generator, k: int) -> None:
    """Moves ``rng`` past k ``random`` doubles, to the state
    ``rng.random(k)`` leaves: a PCG64 by ``advance_pcg64``, in O(1), any
    other stream by generating them ``_SKIP_BLOCK`` at a time."""
    if type(rng.bit_generator) is np.random.PCG64:
        advance_pcg64(rng.bit_generator, k)
        return
    for first in range(0, k, _SKIP_BLOCK):
        rng.random(min(_SKIP_BLOCK, k - first))


class QueryClass(enum.Enum):
    UNCONDITIONAL = "unconditional"
    PREFIX = "prefix"
    SUBCUBE = "subcube"
    MARGINAL = "marginal"
    INTERVAL = "interval"


class OracleErrorKind(enum.Enum):
    ZERO_PROBABILITY_CONDITION = "zero-probability-condition"
    DIMENSION_MISMATCH = "dimension-mismatch"
    MALFORMED_QUERY = "malformed-query"


class OracleError(Exception):
    def __init__(self, kind: OracleErrorKind, message: str):
        super().__init__(message)
        self.kind = kind


def _zero_prob(msg: str) -> OracleError:
    return OracleError(OracleErrorKind.ZERO_PROBABILITY_CONDITION, msg)


def _malformed(msg: str) -> OracleError:
    return OracleError(OracleErrorKind.MALFORMED_QUERY, msg)


def inverse_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The cells of ``cdf`` the uniforms ``u`` draw.  Each u is scaled to
    u cdf[-1], capped below cdf[-1] and searched; for cdf[-1] > 0 it lands on
    a cell j of positive mass: cdf[j-1] < cdf[j].  Sorted, a batch walks the
    cdf once."""
    top = cdf[-1]
    x = np.minimum(u * top, np.nextafter(top, -np.inf))
    order = np.argsort(x)
    found = np.empty(x.shape, dtype=np.intp)
    found[order] = np.searchsorted(cdf, x[order], side="right")
    return found


def _draw_weighted(weights: np.ndarray, rng) -> int:
    """Index of an entry of positive weight, drawn by one uniform through
    ``inverse_cdf`` on the weights' running sum; ZERO_PROBABILITY_CONDITION
    when they sum to 0, which a sum of non-negative doubles does exactly
    when every one is 0."""
    cdf = np.cumsum(weights)
    if cdf[-1] <= 0.0:
        raise _zero_prob("condition has zero probability")
    return int(inverse_cdf(cdf, rng.random(1))[0])


@dataclass
class QueryCounter:
    counts: dict[QueryClass, int] = field(default_factory=dict)

    def add(self, cls: QueryClass, k: int = 1) -> None:
        if k < 0:
            raise ValueError("counters never decrease")
        self.counts[cls] = self.counts.get(cls, 0) + k


class MeteredOracle:
    """Counter, RNG and the serving rule shared by every oracle.

    A root oracle owns a seeded RNG stream; a wrapper shares its base's.
    Every query a wrapper answers costs one query of ``base_class`` (None:
    the same class) on its base.  Each serving method validates the query
    (MALFORMED_QUERY, nothing billed), then bills it through ``charge``,
    here and down the base chain, then draws from the base's distribution
    without billing again: through ``_draw_cell``, which bills as it draws,
    or by an unbilled draw after ``charge``.
    """

    base_class: QueryClass | None = None

    def __init__(self, base: MeteredOracle | None = None, seed=None):
        self.base = base
        self.counter = QueryCounter()
        self.rng = base.rng if base is not None else np.random.default_rng(seed)

    def chain(self) -> Iterator[MeteredOracle]:
        """This oracle, then each base below it."""
        oracle = self
        while oracle is not None:
            yield oracle
            oracle = oracle.base

    def charge(self, cls: QueryClass, m: int = 1) -> None:
        """Bill m queries of class ``cls`` here and down the base chain."""
        self.counter.add(cls, m)
        if self.base is not None:
            self.base.charge(self.base_class or cls, m)

    def _draw_cell(self, cls: QueryClass, probs: np.ndarray) -> int:
        """Index into ``probs``, the masses of the cells a query selects, of
        one of positive mass, drawn by ``_draw_weighted`` and billed by
        ``charge`` as one query of class ``cls``.  A query that selects no
        cell bills this oracle only, as no query reaches the base; it and
        zero mass raise ZERO_PROBABILITY_CONDITION."""
        if probs.shape[0] == 0:
            self.counter.add(cls)
            raise _zero_prob("the query selects no cell")
        self.charge(cls)
        return _draw_weighted(probs, self.rng)


class BinaryPrefixOracle(MeteredOracle):
    """An oracle over {0,1}^n that serves the equivalence walk.  A
    cell-backed one gives cell c's mass and n-bit code as
    ``_cell_probs()[c]`` and ``_cell_codes()[c]``, and both walk inputs are
    its ``table``'s; the product view, which has no cells, overrides
    ``node_bit_probs``.  A marginal prefix query draws its bit from
    ``exact_bit_prob`` unless the subclass serves it through its base."""

    n: int

    @cached_property
    def table(self) -> DistributionTable:
        """The view's cells at their n-bit codes, zero where no cell is."""
        return DistributionTable.at_codes(self.n, self._cell_codes(), self._cell_probs())

    def node_bit_probs(self) -> np.ndarray:
        return self.table.conditional_nodes()

    def exact_bit_prob(self, i: int, prefix_idx: int) -> float:
        """Pr[x_i = 1 | x_[i-1] = prefix], read from ``node_bit_probs()``;
        OracleError on a zero-mass prefix."""
        if not (1 <= i <= self.n and 0 <= prefix_idx < 1 << (i - 1)):
            raise _malformed(f"no prefix {prefix_idx} at slice {i} for n={self.n}")
        p = float(self.node_bit_probs()[node_index(i, prefix_idx)])
        if np.isnan(p):
            raise _zero_prob(f"prefix {prefix_idx} at slice {i} has zero mass")
        return p

    def _checked_prefix(self, i: int, w, allowed=frozenset({0, 1})) -> tuple:
        """w as a tuple; MALFORMED_QUERY, before anything is billed, unless w
        is a bit prefix of slice i of {0,1}^n and ``allowed`` a set of bits."""
        w = tuple(w)
        if not 1 <= i <= self.n or len(w) != i - 1:
            raise _malformed(f"prefix of length {len(w)} at slice {i} for n={self.n}")
        if not set(w) | allowed <= {0, 1}:
            raise _malformed(f"prefix {w} with allowed set {set(allowed)} is not binary")
        return w

    def _folded_prefix(self, query: PrefixQuery) -> tuple:
        """The prefix query's condition as one checked bit prefix: the fixed
        bits, then the break-off bit when only one value is allowed."""
        bits = self._checked_prefix(query.i, query.fixed, query.allowed)
        return bits if len(query.allowed) == 2 else bits + tuple(query.allowed)

    def sample_full_indices_uncounted(self, k: int) -> np.ndarray:
        """k full-domain samples as n-bit codes, with no meter charge;
        callers charge per consumed draw.  One uniform per draw, as
        ``skip_full_draws`` assumes, drawn by ``inverse_cdf`` on ``table.cdf()``,
        so the search answers a code and never one of zero mass."""
        return inverse_cdf(self.table.cdf(), self.rng.random(k))

    def skip_full_draws(self, k: int) -> None:
        """Move the RNG past k ``sample_full_indices_uncounted`` draws
        without searching them: each of those draws takes exactly one
        uniform, ``self.rng.random(k)``, which ``skip_uniforms`` passes over."""
        skip_uniforms(self.rng, k)

    def marginal_prefix_sample(self, i: int, w) -> int:
        """Single bit distributed as the conditional marginal of x_i."""
        w = self._checked_prefix(i, w)
        self.node_bit_probs()  # an n above MAX_DENSE_N is refused before billing
        self.charge(QueryClass.MARGINAL)
        p = self.exact_bit_prob(i, bits_to_index(w))
        return int(self.rng.random() < p)


@dataclass(frozen=True)
class SubcubeQuery:
    """Per-coordinate constraints over {0,1}^n: None for a free coordinate,
    else the set of its one allowed bit, e.g. frozenset({0}).  Any other
    constraint, {0, 1} included, is MALFORMED_QUERY."""

    constraints: tuple

    def __post_init__(self):
        for c in self.constraints:
            if c is not None and (len(c) != 1 or not set(c) <= {0, 1}):
                raise _malformed(f"constraint {set(c)} is not one bit; a free coordinate is None")

    @classmethod
    def from_pattern(cls, pattern: str) -> "SubcubeQuery":
        """Binary shorthand: '0', '1' or '*' per coordinate, e.g. '0**1'."""
        table = {"0": frozenset({0}), "1": frozenset({1}), "*": None}
        try:
            return cls(tuple(table[ch] for ch in pattern))
        except KeyError:
            raise _malformed(f"bad pattern {pattern!r}") from None

    @property
    def n(self) -> int:
        return len(self.constraints)

    def contains(self, x) -> bool:
        """Membership of a point, given as a per-coordinate value sequence."""
        if len(x) != self.n:
            raise _malformed(f"point of length {len(x)} for {self.n} coordinates")
        return all(c is None or v in c for c, v in zip(self.constraints, x))


@dataclass(frozen=True)
class PrefixQuery:
    """Fixed values for coordinates 1..i-1 plus an allowed set at the
    break-off coordinate i."""

    i: int
    fixed: tuple
    allowed: frozenset

    def __post_init__(self):
        if len(self.fixed) != self.i - 1:
            raise _malformed(f"prefix of length {len(self.fixed)} for break-off {self.i}")
        if len(self.allowed) == 0:
            raise _malformed("allowed set must be nonempty")

    @classmethod
    def bits(cls, fixed_bits, allowed=(0, 1)) -> "PrefixQuery":
        fixed_bits = tuple(fixed_bits)
        return cls(len(fixed_bits) + 1, fixed_bits, frozenset(allowed))


# ----------------------------------------------------------------------
# the prefix -> interval translation


def prefix_to_interval(n: int, i: int, w) -> tuple[int, int]:
    """Interval [a, b] of elements of [2^n] whose (value-1) n-bit binary form
    starts with the prefix w (|w| = i - 1)."""
    w = tuple(w)
    if not 1 <= i <= n + 1 or len(w) != i - 1:
        raise _malformed(f"bad prefix ({i}, {w}) for n={n}")
    width = 1 << (n - i + 1)
    a = width * bits_to_index(w) + 1
    return a, a + width - 1


# ----------------------------------------------------------------------
# binary oracles over explicit cells


class CellCodeOracle(BinaryPrefixOracle):
    """A cell-backed view that serves its literal queries by masks: a
    subcube or prefix query is the mask of the cells whose codes satisfy
    it, drawn by ``_draw_cell`` from the cells, not from ``table``."""

    def _draw_point(self, cls: QueryClass, mask: np.ndarray) -> tuple[int, ...]:
        cells = np.flatnonzero(mask)
        cell = cells[self._draw_cell(cls, self._cell_probs()[cells])]
        return index_to_bits(int(self._cell_codes()[cell]), self.n)

    def _subcube_mask(self, query: SubcubeQuery) -> np.ndarray:
        if query.n != self.n:
            raise OracleError(OracleErrorKind.DIMENSION_MISMATCH,
                              f"query over {query.n} coordinates, domain has {self.n}")
        codes = self._cell_codes()
        mask = np.ones(codes.shape[0], dtype=bool)
        for pos, c in enumerate(query.constraints):
            if c is not None:
                (v,) = c
                mask &= (codes >> (self.n - 1 - pos)) & 1 == v
        return mask

    def _prefix_mask(self, bits) -> np.ndarray:
        return self._cell_codes() >> (self.n - len(bits)) == bits_to_index(bits)

    def subcube_sample(self, query: SubcubeQuery) -> tuple[int, ...]:
        return self._draw_point(QueryClass.SUBCUBE, self._subcube_mask(query))

    def prefix_sample(self, query: PrefixQuery) -> tuple[int, ...]:
        """Full sample conditioned on a prefix query."""
        return self._draw_point(QueryClass.PREFIX, self._prefix_mask(self._folded_prefix(query)))


class TableOracle(CellCodeOracle):
    """Metered sampling access to a dense binary DistributionTable, whose
    cell x has the code x, so it is the view's ``table``: oracles on one
    table share its node array and cdf.  Each coordinate is a one-bit
    block, and a product-of-marginals query is an empty-prefix query here.

    Supports the unconditional, subcube, prefix, and marginal prefix models.
    """

    product_class = QueryClass.PREFIX

    def __init__(self, table: DistributionTable, seed=None):
        super().__init__(seed=seed)
        self.table = table
        self.n = table.n
        self.block_widths = (1,) * self.n

    def _cell_probs(self) -> np.ndarray:
        return self.table.probs

    def _cell_codes(self) -> np.ndarray:
        return np.arange(1 << self.n)

    def draw_unconditional(self) -> tuple[int, ...]:
        self.charge(QueryClass.UNCONDITIONAL)
        return index_to_bits(int(self.sample_full_indices_uncounted(1)[0]), self.n)


# ----------------------------------------------------------------------
# interval oracle and the interval-backed prefix view


class IntervalOracle(MeteredOracle):
    """Metered interval-conditional sampling over an explicit pmf on [N]: an
    interval query [a, b] is drawn and billed by ``_draw_cell`` over the
    b - a + 1 cells of the slice ``pmf[a - 1:b]``, in O(b - a)."""

    def __init__(self, pmf, seed=None):
        pmf = np.asarray(pmf, dtype=np.float64)
        if pmf.ndim != 1 or pmf.shape[0] < 1:
            raise DomainError("pmf must be a nonempty vector")
        check_probability_vector(pmf)
        super().__init__(seed=seed)
        self.N = pmf.shape[0]
        self.pmf = pmf

    def interval_sample(self, a: int, b: int) -> int:
        """Element of [a, b] distributed as the conditional; 1-based."""
        if not 1 <= a <= b <= self.N:
            raise _malformed(f"bad interval [{a}, {b}] for N={self.N}")
        return a + self._draw_cell(QueryClass.INTERVAL, self.pmf[a - 1:b])


class IntervalBackedPrefixOracle(BinaryPrefixOracle):
    """``IntervalBackedPrefixOracle(base)``: binary prefix/marginal-prefix
    oracle over [2^n], reading every prefix query as one interval query on
    ``base``.

    n = max(1, ceil(log2 N)) for the base's domain [N], so [N] is padded to
    the next power of two (at least 2); the padding elements N+1..2^n carry
    zero mass.  A prefix query draws from the base's cells in its interval,
    a slice of ``base.pmf`` that stops at N, and bills one interval query on
    the base; a prefix wholly in the padding selects no cell, so it is
    billed here only and refused as zero-probability.
    """

    base_class = QueryClass.INTERVAL

    def __init__(self, base: IntervalOracle):
        super().__init__(base)
        self.n = code_bits(base.N)

    def _cell_probs(self) -> np.ndarray:
        return self.base.pmf

    def _cell_codes(self) -> np.ndarray:
        return np.arange(self.base.N)  # the padding N+1..2^n has no cell

    def prefix_sample(self, query: PrefixQuery) -> tuple[int, ...]:
        bits = self._folded_prefix(query)
        a, b = prefix_to_interval(self.n, len(bits) + 1, bits)
        cell = a - 1 + self._draw_cell(QueryClass.PREFIX, self.base.pmf[a - 1:b])
        return index_to_bits(cell, self.n)


# ----------------------------------------------------------------------
# tuple-domain oracle and the binary encoding


class TupleTableOracle(MeteredOracle):
    """Metered subcube/prefix/marginal access to an explicit joint pmf over a
    TupleDomain."""

    def __init__(self, domain: TupleDomain, probs, seed=None):
        probs = np.asarray(probs, dtype=np.float64)
        if probs.shape != (domain.size(),):
            raise DomainError(f"expected {domain.size()} probabilities")
        check_probability_vector(probs)
        super().__init__(seed=seed)
        self.domain = domain
        self.probs = probs
        # coordinate value of every flat index, per coordinate
        self._coord_digits = list(np.unravel_index(np.arange(domain.size()), domain.sizes))

    def _mask_of_sets(self, sets) -> np.ndarray:
        mask = np.ones(self.probs.shape[0], dtype=bool)
        for pos, allowed in enumerate(sets):
            if allowed is None:
                continue
            alpha = self.domain.alphabets[pos]
            if len(allowed) == 0 or any(x not in alpha for x in allowed):
                raise _malformed(f"{allowed!r} is empty or names a symbol outside "
                                 f"coordinate {pos + 1}")
            mask &= np.isin(self._coord_digits[pos], [alpha.index(x) for x in allowed])
        return mask

    def _draw_sets(self, cls: QueryClass, sets) -> tuple:
        """Element drawn under the per-coordinate ``sets``, billed as one
        query of class ``cls`` once the sets are known to be well formed."""
        cells = np.flatnonzero(self._mask_of_sets(sets))
        return self.domain.element_of(int(cells[self._draw_cell(cls, self.probs[cells])]))

    def subcube_sample(self, sets) -> tuple:
        """sets: per-coordinate allowed collection or None."""
        if len(sets) != self.domain.n:
            raise OracleError(OracleErrorKind.DIMENSION_MISMATCH, "bad arity")
        return self._draw_sets(QueryClass.SUBCUBE, sets)

    def prefix_sample(self, i: int, fixed, allowed) -> tuple:
        """Prefix query: coordinates 1..i-1 fixed, coordinate i in ``allowed``."""
        return self._draw_sets(QueryClass.PREFIX, self._prefix_sets(i, fixed, allowed))

    def marginal_prefix_sample(self, i: int, fixed, allowed):
        """Coordinate i only, conditioned as in prefix_sample."""
        return self._draw_sets(QueryClass.MARGINAL, self._prefix_sets(i, fixed, allowed))[i - 1]

    def _prefix_sets(self, i: int, fixed, allowed) -> list:
        if not 1 <= i <= self.domain.n or len(fixed) != i - 1:
            raise _malformed(f"fixed part of length {len(fixed)} at coordinate {i} "
                             f"of {self.domain.n}")
        sets: list = [None] * self.domain.n
        for pos, value in enumerate(fixed):
            sets[pos] = (value,)
        sets[i - 1] = tuple(allowed)
        return sets


class BinaryEncodedOracle(CellCodeOracle):
    """Binary view of a tuple-domain distribution.

    Coordinate i is encoded with its canonical-order index as a
    ceil(log2 |Omega_i|)-bit MSB-first block; ``_encoded`` holds the code
    of every cell.  Every binary subcube, prefix or marginal-prefix query is
    served as a mask over those cell codes.  The domain is a full product, so
    the mask is a product of per-coordinate symbol sets: exactly one query of
    the same class on the underlying tuple oracle, and a product-of-marginals
    query is one subcube query there.
    """

    product_class = QueryClass.SUBCUBE

    def __init__(self, base: TupleTableOracle):
        super().__init__(base)
        self.domain = base.domain
        self.n = self.domain.total_bits
        self.block_widths = self.domain.bit_widths
        self._encoded = sum(digits << (self.n - end) for digits, end
                            in zip(base._coord_digits, accumulate(self.block_widths)))

    def _cell_probs(self) -> np.ndarray:
        return self.base.probs

    def _cell_codes(self) -> np.ndarray:
        return self._encoded

    def marginal_prefix_sample(self, i: int, w) -> int:
        w = self._checked_prefix(i, w)
        return self._draw_point(QueryClass.MARGINAL, self._prefix_mask(w))[i - 1]


# ----------------------------------------------------------------------
# product-of-marginals views


class ProductMarginalOracle(BinaryPrefixOracle):
    """``ProductMarginalOracle(view)``: marginal-prefix oracle over the product
    of the coordinate marginals of a cell-backed ``view`` (a ``TableOracle``
    or a ``BinaryEncodedOracle``), billed on the view's root.

    The view's n code bits fall into coordinate blocks, ``view.block_widths``.
    It builds its own node array, once: a block's marginal sums the masses
    at the block's end (``view.table.level_sums()``) pairwise over the bits
    before the block, every value in one ``level_sums`` call; bit i's node
    entries are that marginal's ``node_conditionals`` at bit i's place in its
    block, the same for every value of the earlier blocks.  A query draws by
    ``_draw_cell`` from the view's cells whose block owning bit i starts with
    the prefix's bits in that block: one query of ``view.product_class`` on
    the root, PREFIX for a table (an empty-prefix query), SUBCUBE for a tuple
    oracle.
    """

    def __init__(self, view: TableOracle | BinaryEncodedOracle):
        *_, root = view.chain()
        super().__init__(root)
        self.view = view
        self.n = view.n
        self.base_class = view.product_class
        self._starts = tuple(accumulate((0,) + view.block_widths))  # ends with n

    def marginal_prefix_sample(self, i: int, w) -> int:
        w = self._checked_prefix(i, w)
        start = max(s for s in self._starts if s < i)
        codes = self.view._cell_codes()
        in_block = (codes >> (self.n - i + 1)) & ((1 << (i - 1 - start)) - 1)
        cells = np.flatnonzero(in_block == bits_to_index(w[start:]))
        cell = cells[self._draw_cell(QueryClass.MARGINAL, self.view._cell_probs()[cells])]
        return int(codes[cell]) >> (self.n - i) & 1

    def node_bit_probs(self) -> np.ndarray:
        return self._nodes

    @cached_property
    def _nodes(self) -> np.ndarray:
        levels, out = self.view.table.level_sums(), np.empty((1 << self.n) - 1)
        for start, end in zip(self._starts, self._starts[1:]):
            marginal = level_sums(levels[end].reshape(1 << start, -1))[0][0]
            cond = node_conditionals(level_sums(marginal))
            for j in range(end - start):  # bit start + j + 1 reads level j + 1 of cond
                bit = out[node_index(start + j + 1, 0):node_index(start + j + 2, 0)]
                bit.reshape(1 << start, -1)[...] = cond[node_index(j + 1, 0):node_index(j + 2, 0)]
        return out
