"""Hard instance families and simulation gadgets for conditional-sampling
testers.

The central object is a pairwise-correlated family: coordinates are grouped
into fixed pairs (2i-1, 2i), each pair carrying a +/- "anti-product" bias.
Every single-coordinate marginal is exactly Ber(1/2), yet each instance is
far in total variation from every product distribution — the correlation is
invisible to marginals but not to conditional queries.  The module also
provides the XOR change of variables that turns a biased pair into an honest
product (used to relate the paired family to a biased-product family), the
one-unconditional-sample simulation of arbitrary subcube queries against
these instances, and a grid search certifying distance to the set of product
distributions.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distcore import (
    MAX_DENSE_N,
    DistributionTable,
    DomainError,
    index_to_bits,
    is_number,
    product_of_marginals,
    tv_distance,
)
from .oracles import SubcubeQuery, inverse_cdf

MAX_PAIR_DELTA = 0.25  # keeps every cell probability inside (0, 1/2)
# The largest n a paired instance is drawn at.  Its cost is linear in n: n/2
# signs are drawn, held in a tuple and written one character each to the
# CSV row, about 9 bytes and 0.35 us per coordinate (one run at n = 2^20
# takes 0.4 s and 10 MiB on a 2-core Xeon VM, at 2^24 6 s and 140 MiB).  At
# 2^20 a run stays under a second, the CLI's 2^20 bound on what one run lays
# out per element, as for the interval tester's N.
MAX_PAIRED_N = 2 ** 20


def _check_delta(delta: float) -> None:
    if not 0.0 <= delta < MAX_PAIR_DELTA:
        raise DomainError(f"pair bias magnitude must lie in [0, 0.25), got {delta}")


def nu_b_table(b: int, delta: float) -> DistributionTable:
    """Two-bit pair distribution with cells (1/4 + b*delta, 1/4 - b*delta,
    1/4 - b*delta, 1/4 + b*delta) on (00, 01, 10, 11).

    Both marginals are exactly Ber(1/2); the parity bit is Ber(1/2 - 2*b*delta).
    b = 0 gives the uniform distribution over two bits.
    """
    if b not in (-1, 0, 1):
        raise DomainError(f"bias sign must be -1, 0 or +1, got {b}")
    _check_delta(delta)
    q = 0.25 + b * delta
    r = 0.25 - b * delta
    return DistributionTable(2, np.array([q, r, r, q]))


@dataclass(frozen=True)
class AdversarialInstance:
    """A draw from the paired-bias family over {0,1}^n.

    Coordinates (2i-1, 2i) form biased pairs with common magnitude
    delta = eps / sqrt(n); an odd trailing coordinate, if any, is uniform and
    independent.  All marginals are Ber(1/2) exactly.
    """

    n: int
    eps: float
    biases: tuple

    def __post_init__(self):
        if self.n < 2:
            raise DomainError(f"need n >= 2, got {self.n}")
        if len(self.biases) != self.n // 2:
            raise DomainError(f"expected {self.n // 2} pair biases, got {len(self.biases)}")
        if any(b not in (-1, 1) for b in self.biases):
            raise DomainError("pair biases must be +1 or -1")
        _check_delta(self.delta)

    @property
    def delta(self) -> float:
        return self.eps / math.sqrt(self.n)

    @property
    def n_pairs(self) -> int:
        return self.n // 2

    def pair_table(self, j: int) -> DistributionTable:
        """Distribution of pair j (0-based)."""
        return nu_b_table(self.biases[j], self.delta)

    def table(self) -> DistributionTable:
        """Dense joint table (product over pairs); n <= 20 only."""
        if self.n > MAX_DENSE_N:
            raise DomainError(f"dense table refused for n={self.n} > {MAX_DENSE_N}")
        probs = np.array([1.0])
        for j in range(self.n_pairs):
            probs = np.kron(probs, self.pair_table(j).probs)
        if self.n % 2:
            probs = np.kron(probs, np.array([0.5, 0.5]))
        return DistributionTable(self.n, probs)

    def draw_unconditional(self, rng) -> tuple[int, ...]:
        """One sample, without materializing the joint table."""
        cdfs = {b: np.cumsum(nu_b_table(b, self.delta).probs) for b in set(self.biases)}
        cells = [int(inverse_cdf(cdfs[b], rng.random(1))[0]) for b in self.biases]
        bits = [bit for cell in cells for bit in (cell >> 1, cell & 1)]
        if self.n % 2:
            bits.append(int(rng.random() < 0.5))
        return tuple(bits)

    @classmethod
    def from_dict(cls, payload: dict) -> "AdversarialInstance":
        """The instance of a parsed JSON object {"n", "eps", "biases"}."""
        if not (isinstance(payload, dict) and is_number(payload.get("n"), numbers.Integral)
                and is_number(payload.get("eps")) and isinstance(payload.get("biases"), list)
                and all(is_number(b, numbers.Integral) for b in payload["biases"])):
            raise DomainError("paired-bias JSON needs an integer 'n', a number 'eps' "
                              "and a list of +1/-1 'biases'")
        return cls(int(payload["n"]), float(payload["eps"]), tuple(payload["biases"]))


def sample_paired_instance(n: int, eps: float, rng) -> AdversarialInstance:
    """Draw an instance of the paired-bias family: each pair's sign is
    uniform in {+1, -1}, independently."""
    biases = tuple(int(b) for b in rng.choice((-1, 1), size=n // 2))
    return AdversarialInstance(n, eps, biases)


def simulate_pair_conditional(q: SubcubeQuery, x) -> tuple[int, int]:
    """Serve a subcube query over one biased pair from a single unconditional
    sample, without knowing the pair's bias sign.

    ``q`` is a SubcubeQuery over {0,1}^2 and ``x`` an unconditional sample
    of the pair.  The map is deterministic in (q, x) and its pushforward
    equals the conditional distribution exactly, for every bias sign:
    half-free queries route through the parity bit x1 XOR x2, whose law
    carries the pair's entire non-uniformity.
    """
    if q.n != 2:
        raise DomainError(f"pair query must cover 2 coordinates, got {q.n}")
    c1, c2 = q.constraints
    if c1 is None and c2 is None:
        return tuple(x)
    if c1 is not None and c2 is not None:
        (v1,) = c1
        (v2,) = c2
        return v1, v2
    parity = x[0] ^ x[1]
    if c1 is not None:
        (v1,) = c1
        return (0, parity) if v1 == 0 else (1, 1 ^ parity)
    (v2,) = c2
    return (parity, 0) if v2 == 0 else (1 ^ parity, 1)


def subcube_query_via_unconditional(q: SubcubeQuery,
                                    instance: AdversarialInstance,
                                    rng) -> tuple[int, ...]:
    """Answer a subcube query against a paired instance with exactly one
    unconditional sample, applying the pair simulation pairwise.

    Exactness rests on the pairs (and the odd trailing bit) being mutually
    independent under the instance.
    """
    if q.n != instance.n:
        raise DomainError(f"query over {q.n} coordinates for n={instance.n}")
    x = instance.draw_unconditional(rng)
    out: list[int] = []
    for j in range(instance.n_pairs):
        sub = SubcubeQuery(q.constraints[2 * j:2 * j + 2])
        out.extend(simulate_pair_conditional(sub, x[2 * j:2 * j + 2]))
    if instance.n % 2:
        last = q.constraints[-1]
        if last is None:
            out.append(x[-1])
        else:
            (v,) = last
            out.append(v)
    return tuple(out)


def xor_transform(table: DistributionTable) -> DistributionTable:
    """Pushforward under the pairwise change of variables
    (x, y) -> (x XOR y, y) applied to each pair (2i-1, 2i).

    The map is a self-inverse bijection; it sends a biased pair with sign b
    and magnitude delta to Ber(1/2 + 2*b*delta) x Ber(1/2) and fixes the
    uniform distribution.
    """
    n = table.n
    if n % 2:
        raise DomainError(f"pairwise transform needs even n, got {n}")
    idx = np.arange(1 << n)
    # y-bits sit at even bit positions (second coordinate of each pair).
    y_mask = sum(1 << s for s in range(0, n, 2))
    target = idx ^ ((idx & y_mask) << 1)
    probs = np.empty_like(table.probs)
    probs[target] = table.probs
    return DistributionTable(n, probs)


@dataclass(frozen=True)
class ProductSampler:
    """Implicit sampler for a product of Bernoullis (any n)."""

    ps: tuple

    def draw(self, rng, k: int = 1) -> np.ndarray:
        return (rng.random((k, len(self.ps))) < np.asarray(self.ps)).astype(np.int64)


def uniformity_lb_instance(n: int, eps: float, rng):
    """Biased-product hard instance for uniformity testing: each coordinate is
    Ber(1/2 + b_i * eps/sqrt(n)) with independent uniform signs b_i.

    Returns a dense DistributionTable for n <= 20, an implicit ProductSampler
    above that.  eps = 0 gives the uniform distribution.
    """
    bias = eps / math.sqrt(n)
    if not 0.0 <= bias < 0.5:
        raise DomainError(f"coordinate bias must lie in [0, 0.5), got {bias}")
    signs = rng.choice((-1, 1), size=n)
    ps = 0.5 + signs * bias
    if n <= MAX_DENSE_N:
        return DistributionTable.bernoulli_product(ps)
    return ProductSampler(tuple(float(p) for p in ps))


# ----------------------------------------------------------------------
# distance to the set of product distributions


@dataclass(frozen=True)
class GridProductDistance:
    """Result of a distance-to-products search: the certified value, the
    marginal grid step, how it was obtained, and (for exact searches) the
    minimizing grid marginals."""

    distance: float
    step: float
    method: str
    marginals: tuple | None = None


# The largest n the exact grid search takes: its g^n grid products grow too
# fast beyond it, and the harness bounds pairs instead.
EXACT_GRID_MAX_N = 4

# L1 slack of every comparison against the least distance so far: a grid
# point is re-scored in the reference product order, and a head row at any
# level is searched, when its value or bound is within this slack.  It only
# has to exceed the ~1e-15 rounding of a 2^n-term sum, so that every point the
# reference search could pick is kept; a larger slack keeps more and returns
# the same result.
_TIE_TOL = 1e-9

# The most cells of any array the last head level builds at once: 8,000
# doubles, 62.5 KiB.  glibc serves such an array from the heap (its mmap
# threshold is 128 KiB), and freeing a chunk under 64 KiB never trims the top
# of the heap, so the blocks reuse memory that is already mapped.  With
# 125 KiB arrays the search page-faulted up to about 580 times per table,
# depending on the heap state the rest of the process left.
_BLOCK_CELLS = 8_000

# The most cells the search may hold in its head frontier at level n-2, which
# levels 1..n-2 build whole, or in its grid: 2^20, 8 MiB of doubles.  Step
# 0.002 at n = 4 is within it; step 0.001 (4 million frontier cells) is not.
_MAX_FRONTIER_CELLS = 1 << 20


def _grid_digits(flat: np.ndarray, k: int, g: int) -> np.ndarray:
    """(m, k) base-g digits of ``flat``, most significant first: the grid
    indices of coordinates 1..k in mixed-radix grid order."""
    return (flat[:, None] // g ** np.arange(k - 1, -1, -1)) % g


def _grid_products(digits: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """(m, 2^k) product-cell probabilities for the grid marginals
    grid[digits[r]], cells MSB-first, multiplied coordinate by coordinate."""
    single = np.stack([1.0 - grid, grid], axis=1)
    out = np.ones((digits.shape[0], 1))
    for col in digits.T:
        out = (out[:, :, None] * single[col][:, None, :]).reshape(digits.shape[0], -1)
    return out


def _extend(h: np.ndarray, flat: np.ndarray,
            grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Extend the cells-major grid products ``h`` (2^k, m), numbered ``flat``,
    by one coordinate: column r * g + j of the result is column r times
    Ber(grid[j]), cells MSB-first, multiplied as in ``_grid_products``."""
    single = np.stack([1.0 - grid, grid])
    out = (h[:, None, :, None] * single[None, :, None, :]).reshape(2 * h.shape[0], -1)
    return out, (flat[:, None] * grid.shape[0] + np.arange(grid.shape[0])).ravel()


def _reference_l1(table: DistributionTable, flat: np.ndarray,
                  grid: np.ndarray) -> np.ndarray:
    """L1 distances from ``table`` to the grid products numbered ``flat``, in
    the product order of the exhaustive search: coordinates multiplied in
    turn within the halves 1..n//2 and n//2+1..n, one L1 reduction over their
    outer product."""
    h1 = table.n // 2
    digits = _grid_digits(flat, table.n, grid.shape[0])
    left = _grid_products(digits[:, :h1], grid)
    right = _grid_products(digits[:, h1:], grid)
    target = table.probs.reshape(1 << h1, -1)
    return np.abs(target[None] - left[:, :, None] * right[:, None, :]).sum(axis=(1, 2))


def _l1_to_products(h: np.ndarray, t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """L1 distances from the two-column table ``t`` (cell x last bit) to the
    products h x Ber(x); ``h`` (C, ...) is cells-major and broadcasts against
    ``x``, and the sum runs over the C cells.  Works in place, so it holds
    two arrays of the broadcast shape."""
    t0, t1 = t.T.reshape((2, -1) + (1,) * (h.ndim - 1))
    hx = h * x
    l1 = np.subtract(t1, hx)
    np.abs(l1, out=l1)
    hx -= h
    hx += t0
    l1 += np.abs(hx, out=hx)
    return l1.sum(axis=0)


def _child_bounds(parents: np.ndarray, marginal: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """(m, g) bounds of the last head level's rows: entry (r, j) is the L1
    distance from ``marginal``, the table's marginal over coordinates 1..n-1
    as (2^(n-2), 2), to column r of the cells-major ``parents`` over
    1..n-2 times Ber(grid[j]).  It bounds every grid product extending that
    row, and it is at least its parent's bound."""
    return _l1_to_products(parents[:, :, None], marginal, grid)


def _row_minima(rows: np.ndarray, t: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Per column of the cells-major head rows ``rows`` (C, m), the least L1
    distance from the table ``t`` (C, 2) over its grid products
    row x Ber(x).

    The distance is convex and piecewise linear in x, with breakpoints
    1 - t_c0/h_c and t_c1/h_c of weight h_c each (total weight 2); the grid
    minimum lies on one of the two grid points bracketing their weighted
    median.  The 2C breakpoints are stacked above their weights, so each
    step of the binary search for the first grid point whose breakpoints at
    or below it weigh at least 1 is one comparison and one weighted sum.  A
    breakpoint with h_c = 0 (an inf or nan) weighs nothing."""
    weights = np.concatenate([rows, rows])
    with np.errstate(divide="ignore", invalid="ignore"):
        points = t.T.reshape(-1, 1) / weights
    np.subtract(1.0, points[:rows.shape[0]], out=points[:rows.shape[0]])
    # Binary lifting over the grid padded with inf, at or below which every
    # breakpoint but a nan lies: light counts the leading grid points at
    # which a row's breakpoints weigh less than 1.
    g = grid.shape[0]
    padded = np.concatenate([grid, np.full((1 << g.bit_length()) - g, np.inf)])
    light = np.zeros(rows.shape[1], dtype=np.intp)
    for bit in reversed([1 << i for i in range(g.bit_length())]):
        probe = padded[light + (bit - 1)]
        light += bit * (np.einsum("ck,ck->k", weights, points <= probe) < 1.0)
    hi = np.minimum(np.maximum(light, 1), g - 1)
    both = _l1_to_products(np.concatenate([rows, rows], axis=1), t,
                           grid[np.concatenate([hi - 1, hi])])
    return np.minimum(both[:rows.shape[1]], both[rows.shape[1]:])


def _search_rows(table: DistributionTable, rows: np.ndarray, rows_flat: np.ndarray,
                 grid: np.ndarray, limit: float) -> tuple[float, int]:
    """The least L1 distance from ``table`` to a grid product row x Ber(x)
    of the cells-major head rows ``rows`` (C, m), numbered ``rows_flat``, and
    the number of the first such product in grid order; (inf, 0) if none is
    within ``limit``.  Every grid point within ``_TIE_TOL`` of the least row
    minimum is re-scored in the reference product order, a few rows at a
    time, so that a table with many tied rows stays inside the working set."""
    t, g = table.probs.reshape(-1, 2), grid.shape[0]
    row_min = _row_minima(rows, t, grid)
    cutoff = min(limit, row_min.min() + _TIE_TOL)
    near = np.flatnonzero(row_min <= cutoff)
    per_near = max(1, _BLOCK_CELLS // (g << table.n))
    best, best_flat = np.inf, 0
    for c in range(0, near.shape[0], per_near):
        chunk = near[c:c + per_near]
        i, x = np.nonzero(_l1_to_products(rows[:, chunk, None], t, grid) <= cutoff)
        cand = rows_flat[chunk[i]] * g + x
        exact = _reference_l1(table, cand, grid)
        m = int(np.argmin(exact))
        if exact[m] < best:
            best, best_flat = float(exact[m]), int(cand[m])
    return best, best_flat


def _search_last_level(table: DistributionTable, h: np.ndarray, flat: np.ndarray,
                       grid: np.ndarray, incumbent: float) -> tuple[float, int]:
    """``_search_rows`` over the rows h x Ber(x_j) of the last head level,
    whose parents are the cells-major products ``h`` over coordinates
    1..n-2, numbered ``flat``.

    Parents are taken per_block at a time, so that their children's bounds,
    (2^(n-2), per_block, g), fit ``_BLOCK_CELLS``.  Only the children whose
    bound is within the least distance so far are built, with the same float
    products as ``_extend`` and in grid order, and they are searched
    per_chunk at a time, so that their 2^n breakpoints each fit it too; a
    block's last, partial chunk waits for the next block's rows."""
    g = grid.shape[0]
    single = np.stack([1.0 - grid, grid])
    marginal = table.level_sums()[table.n - 1].reshape(-1, 2)
    per_block = max(1, _BLOCK_CELLS // (g * h.shape[0]))
    per_chunk = max(1, _BLOCK_CELLS >> table.n)
    best, best_flat = np.inf, 0
    parent = j = np.zeros(0, dtype=np.intp)  # kept rows not yet searched
    for s in range(0, flat.shape[0], per_block):
        bound = _child_bounds(h[:, s:s + per_block], marginal, grid)
        kept, kept_j = np.nonzero(bound <= min(best, incumbent) + _TIE_TOL)
        parent, j = np.concatenate([parent, s + kept]), np.concatenate([j, kept_j])
        ready = parent.shape[0]
        if s + per_block < flat.shape[0]:
            ready -= ready % per_chunk
        for c in range(0, ready, per_chunk):
            pc, jc = parent[c:c + per_chunk], j[c:c + per_chunk]
            # np.take keeps the rows cells-major in memory; the fancy index
            # h[:, None, pc] would lay them out rows-first.
            rows = (np.take(h, pc, axis=1)[:, None] * np.take(single, jc, axis=1)
                    ).reshape(2 * h.shape[0], -1)
            found = _search_rows(table, rows, flat[pc] * g + jc, grid,
                                 min(best, incumbent) + _TIE_TOL)
            if found[0] < best:
                best, best_flat = found
        parent, j = parent[ready:], j[ready:]
    return best, best_flat


def distance_to_grid_products(table: DistributionTable,
                              step: float = 0.01) -> GridProductDistance:
    """Exact minimum total-variation distance from ``table`` to products whose
    marginals lie on the grid {0, step, 2*step, ..., 1}; ``step`` must be 1/k
    for a whole k (DomainError otherwise), so that the grid ends at 1.

    Any product distribution is within n*step/2 of a grid product in total
    variation, so (distance - n*step/2) lower-bounds the distance to all
    products.  Limited to n <= ``EXACT_GRID_MAX_N``, and to grids whose head
    frontier at level n-2 (g^(n-2) * 2^(n-2) cells) and whose g points fit
    ``_MAX_FRONTIER_CELLS`` (DomainError otherwise, before anything is built).

    The search builds the grid products h over the head coordinates 1..n-1
    level by level and prunes every level with a lower bound.  Marginalizing
    cannot increase L1, so with m_k the table's marginal over coordinates 1..k
    (``table.level_sums()[k]``), L1(t, p) >= |m_k - h_k|_1 for every grid
    product p whose first k marginals give the product h_k; in particular
    L1(t, h x Ber(x)) >= |m_(n-1) - h|_1 for every last marginal x.  The bound
    starts at the distance of one grid product, the one nearest the table's
    own marginals, and falls to the least distance found so far.  A row whose
    bound exceeds it by more than ``_TIE_TOL`` cannot lead to a minimum and is
    dropped with all its extensions.  That grid product only bounds the
    search: it is never returned unless the search reaches it in grid order.

    Levels 1..n-2 are expanded whole.  The last head level
    (``_search_last_level``) bounds every row h x Ber(x_j) from its parent h
    over coordinates 1..n-2 (``_child_bounds``) without building it, and
    builds only the rows within the bound, in grid order; a row's bound is
    at least its parent's, so parents need no filter of their own.  For a
    kept row the L1 distance over the last marginal is least at one of the
    two grid points bracketing a weighted median (``_row_minima``), and one
    bracketing pass serves a whole chunk of kept rows, cells-major.  Every
    grid point within ``_TIE_TOL`` of the least distance so far is then
    re-scored in the product order of the exhaustive search
    (``_reference_l1``), and, the chunks running in grid order, the first
    minimum in grid order wins.  No array of the last level holds more than
    ``_BLOCK_CELLS`` cells.

    The bounds are exact mathematics; their floating-point values, like the
    two orders of summation, differ from the exact sums by about 1e-15,
    far below ``_TIE_TOL`` = 1e-9.  So no dropped row or unscored point can
    hold a value within rounding of the minimum, and ``distance`` and
    ``marginals`` equal those of the exhaustive search over all g^n grid
    products, ties included.
    """
    n = table.n
    if n > EXACT_GRID_MAX_N:
        raise DomainError(f"exact grid search is limited to n <= {EXACT_GRID_MAX_N}; "
                          "use pair decomposition for larger instances")
    if not (math.isfinite(step) and 0.0 < step <= 1.0):
        raise DomainError(f"grid step must be finite and lie in (0, 1], got {step}")
    # Refuse a grid too fine to search before anything is built: its g points
    # (inf for a subnormal step, whose 1/step overflows) or the g^(n-2) *
    # 2^(n-2) cells of its head frontier at level n-2.
    size, head = 1.0 / step + 1.0, max(n - 2, 0)
    if size > _MAX_FRONTIER_CELLS or (2.0 * size) ** head > _MAX_FRONTIER_CELLS:
        raise DomainError(f"grid step {step} is too fine for the exact search at n={n}: "
                          f"its grid or its head frontier (g^{head} * 2^{head} cells) "
                          f"would exceed {_MAX_FRONTIER_CELLS} cells")
    if abs(round(1.0 / step) * step - 1.0) > 1e-9:
        raise DomainError(f"grid step must be 1/k for a whole k, so that the grid "
                          f"ends at 1; got {step}")
    grid = np.round(np.arange(0.0, 1.0 + step / 2, step), 12)
    g = grid.shape[0]
    nearest = np.minimum(np.rint(table.marginals() / step).astype(np.intp), g - 1)
    nearest_flat = np.array([nearest @ g ** np.arange(n - 1, -1, -1)])
    incumbent = float(_reference_l1(table, nearest_flat, grid)[0])
    # Head products over coordinates 1..k, cells-major: h[c, r] is cell c of
    # the product numbered flat[r] in mixed-radix grid order.
    h, flat = np.ones((1, 1)), np.zeros(1, dtype=np.intp)
    for k in range(1, n - 1):
        h, flat = _extend(h, flat, grid)
        bound = np.abs(table.level_sums()[k][:, None] - h).sum(axis=0)
        kept = np.flatnonzero(bound <= incumbent + _TIE_TOL)
        h, flat = h[:, kept], flat[kept]
    if n == 1:
        # No head coordinate: the one row is the empty product.
        best, best_flat = _search_rows(table, h, flat, grid, incumbent + _TIE_TOL)
    else:
        best, best_flat = _search_last_level(table, h, flat, grid, incumbent)
    marginals = grid[_grid_digits(np.array([best_flat]), n, g)[0]]
    return GridProductDistance(best / 2.0, step, "exact-grid",
                               tuple(float(p) for p in marginals))


def pairwise_product_distance_bound(instance: AdversarialInstance,
                                    step: float = 0.01) -> GridProductDistance:
    """Certified lower bound on the distance from a paired instance to every
    product distribution, at any n.

    Marginalizing to one pair can only shrink total variation, and a product
    marginalizes to a two-coordinate product; so the joint distance is at
    least the pair's grid minimum less the grid resolution (each of the two
    grid marginals is within step/2 of any real marginal).  A pair's table
    depends only on its sign, so each sign present is searched once.
    """
    per_sign = [distance_to_grid_products(nu_b_table(b, instance.delta), step).distance
                for b in set(instance.biases)]
    return GridProductDistance(max(per_sign) - step, step, "pairwise-lower-bound")


def distance_to_product_of_marginals(table: DistributionTable) -> float:
    """Exact dtv between a distribution and the product of its own marginals
    (an upper bound on its distance to the nearest product)."""
    return tv_distance(table, product_of_marginals(table))


class InstanceDistances(NamedTuple):
    """A paired instance's distances to the products: ``grid`` from
    ``distance_to_grid_products`` at n <= ``EXACT_GRID_MAX_N``, from
    ``pairwise_product_distance_bound`` above, and the dtv to the product of
    its own marginals, NaN above ``MAX_DENSE_N``, where no table is built."""

    grid: GridProductDistance
    dtv_product_of_marginals: float


# The most instances whose distances one process keeps.  Up to n = MAX_DENSE_N
# there are at most 2^10 = 1024 sign patterns per (n, eps), so a run at one
# such (n, eps) searches each at most once; an entry holds the instance and
# its result, a few hundred bytes, and not the 2^n table.
INSTANCE_MEMO_CAP = 1024


def _instance_distances(instance: AdversarialInstance, step: float) -> InstanceDistances:
    table = instance.table() if instance.n <= MAX_DENSE_N else None
    if instance.n <= EXACT_GRID_MAX_N:
        grid = distance_to_grid_products(table, step)
    else:
        grid = pairwise_product_distance_bound(instance, step)
    dtv = distance_to_product_of_marginals(table) if table is not None else math.nan
    return InstanceDistances(grid, dtv)


# Keyed on the frozen instance and the grid step; ``cache_info()`` gives its
# hits and misses.
_instance_memo = functools.lru_cache(maxsize=INSTANCE_MEMO_CAP)(_instance_distances)


def instance_distances(instance: AdversarialInstance, step: float = 0.01) -> InstanceDistances:
    """The distances of ``instance`` to the products at grid ``step``, each
    distinct (instance, step) computed once per process up to n =
    ``MAX_DENSE_N`` (``_instance_memo``, capped at ``INSTANCE_MEMO_CAP``
    entries, least recently used first out).  Above it the instances
    outnumber the cap and a key holds n/2 signs, so each call computes
    afresh.  ``distance_to_grid_products`` itself keeps nothing."""
    if instance.n > MAX_DENSE_N:
        return _instance_distances(instance, step)
    return _instance_memo(instance, step)
