"""Metered conditional-sampling oracles: exactness, metering, translations."""

import math

import numpy as np
import pytest
from scipy import stats

from condtest import oracles
from condtest.adversarial import AdversarialInstance
from condtest.distcore import (
    MAX_DENSE_N,
    DistributionTable,
    DomainError,
    TupleDomain,
    bits_to_index,
    index_to_bits,
    node_index,
)
from condtest.oracles import (
    BinaryEncodedOracle,
    IntervalBackedPrefixOracle,
    IntervalOracle,
    OracleError,
    OracleErrorKind,
    PrefixQuery,
    ProductMarginalOracle,
    QueryClass,
    SubcubeQuery,
    TableOracle,
    TupleTableOracle,
    prefix_to_interval,
)
from conftest import TOP_UNIFORM, ConstantUniforms, random_table, reference_bit_prob

GOF_SAMPLES = 10_000
GOF_ALPHA = 1e-3


def _gof(counts, expected_probs):
    """Chi-square goodness of fit on the positive-probability cells."""
    counts = np.asarray(counts, dtype=float)
    expected = np.asarray(expected_probs, dtype=float) * counts.sum()
    keep = expected > 0
    assert counts[~keep].sum() == 0, "sample landed outside the support"
    if keep.sum() < 2:
        return 1.0
    return stats.chisquare(counts[keep], expected[keep]).pvalue


def _empirical_index_counts(draws, size):
    counts = np.zeros(size)
    for idx in draws:
        counts[idx] += 1
    return counts


# ----------------------------------------------------------------------
# query shapes


def test_subcube_query_patterns():
    q = SubcubeQuery.from_pattern("0**1")
    assert q.constraints[0] == frozenset({0})
    assert q.constraints[1] is None
    assert q.constraints[2] is None and q.constraints[3] == frozenset({1})
    assert SubcubeQuery.from_pattern("01*").constraints == (frozenset({0}), frozenset({1}), None)
    assert SubcubeQuery.from_pattern("***").constraints == (None, None, None)
    with pytest.raises(OracleError):
        SubcubeQuery.from_pattern("0x1")
    # a constraint is one bit and a free coordinate None: {0, 1} is refused too
    for bad in (frozenset(), frozenset({0, 1}), frozenset({2})):
        with pytest.raises(OracleError, match="is not one bit; a free coordinate is None") as err:
            SubcubeQuery((bad, None))
        assert err.value.kind is OracleErrorKind.MALFORMED_QUERY


def test_prefix_query_validation():
    q = PrefixQuery.bits((1, 0))
    assert q.i == 3 and q.allowed == frozenset({0, 1})
    with pytest.raises(OracleError):
        PrefixQuery(2, (), frozenset({0}))
    with pytest.raises(OracleError):
        PrefixQuery(1, (), frozenset())


# ----------------------------------------------------------------------
# table oracle


def test_point_mass_unconditional():
    oracle = TableOracle(DistributionTable.point_mass([1, 0, 1]), seed=0)
    for _ in range(5):
        assert oracle.draw_unconditional() == (1, 0, 1)
    assert oracle.counter.counts[QueryClass.UNCONDITIONAL] == 5


def test_subcube_zero_probability_error():
    oracle = TableOracle(DistributionTable.point_mass([0, 0]), seed=0)
    with pytest.raises(OracleError) as err:
        oracle.subcube_sample(SubcubeQuery.from_pattern("1*"))
    assert err.value.kind is OracleErrorKind.ZERO_PROBABILITY_CONDITION


def test_subcube_respects_constraints(rng):
    table = random_table(rng, 4)
    oracle = TableOracle(table, seed=7)
    q = SubcubeQuery.from_pattern("1**0")
    for _ in range(50):
        x = oracle.subcube_sample(q)
        assert x[0] == 1 and x[3] == 0


def test_biased_pair_subcube_conditional():
    # Pr[00 | first bit 0] should be 0.7 for the delta = 0.1 biased pair.
    pair = DistributionTable(2, [0.35, 0.15, 0.15, 0.35])
    oracle = TableOracle(pair, seed=3)
    hits = sum(oracle.subcube_sample(SubcubeQuery.from_pattern("0*")) == (0, 0)
               for _ in range(GOF_SAMPLES))
    assert stats.binomtest(hits, GOF_SAMPLES, 0.7).pvalue > GOF_ALPHA


def test_sampling_matches_exact_conditionals(rng):
    """Goodness of fit of served samples against the dense-table conditional
    on random (distribution, query) pairs."""
    for trial in range(20):
        n = int(rng.integers(2, 7))
        table = random_table(rng, n, zeros=(trial % 2 == 0))
        oracle = TableOracle(table, seed=int(rng.integers(2 ** 31)))
        i = int(rng.integers(1, n + 1))
        # random positive-probability prefix
        level = table.level_sums()[i - 1]
        alive = np.nonzero(level > 0)[0]
        prefix_idx = int(rng.choice(alive))
        fixed = index_to_bits(prefix_idx, i - 1)
        block = table.probs[prefix_idx << (n - i + 1):(prefix_idx + 1) << (n - i + 1)]
        expected = block / block.sum()
        draws = [bits_to_index(oracle.prefix_sample(PrefixQuery.bits(fixed)))
                 - (prefix_idx << (n - i + 1)) for _ in range(GOF_SAMPLES // 10)]
        counts = _empirical_index_counts(draws, block.shape[0])
        assert _gof(counts, expected) > GOF_ALPHA, (n, i, prefix_idx)


def test_prefix_conditional_from_tree():
    # Pr[x2 = 1 | x1 = 1] = 0.9 by construction.
    probs = np.zeros(8)
    for x in range(8):
        b = index_to_bits(x, 3)
        p = 0.5
        p *= 0.9 if b[1] == 1 else 0.1
        if b[0] == 0:
            p = 0.5 * (0.1 if b[1] == 1 else 0.9)
        p *= 0.5
        probs[x] = p
    table = DistributionTable(3, probs)
    oracle = TableOracle(table, seed=5)
    ones = sum(oracle.prefix_sample(PrefixQuery.bits((1,)))[1]
               for _ in range(GOF_SAMPLES))
    assert stats.binomtest(ones, GOF_SAMPLES, 0.9).pvalue > GOF_ALPHA


def test_marginal_prefix_point_mass():
    oracle = TableOracle(DistributionTable.point_mass([1, 1, 0]), seed=1)
    for _ in range(10):
        assert oracle.marginal_prefix_sample(3, (1, 1)) == 0
    assert oracle.counter.counts[QueryClass.MARGINAL] == 10


def test_exact_bit_prob_matches_table(rng):
    table = random_table(rng, 5, zeros=True)
    oracle = TableOracle(table, seed=0)
    levels = table.level_sums()
    for i in range(1, 6):
        for j in range(1 << (i - 1)):
            if levels[i - 1][j] > 0:
                expect = levels[i][2 * j + 1] / levels[i - 1][j]
                assert oracle.exact_bit_prob(i, j) == pytest.approx(expect)
            else:
                with pytest.raises(OracleError):
                    oracle.exact_bit_prob(i, j)


def _interval_view(pmf):
    pmf = np.asarray(pmf, dtype=float) / np.sum(pmf)
    return IntervalBackedPrefixOracle(IntervalOracle(pmf, seed=0))


def _five_by_three(zeros, seed=0):
    """A tuple oracle over 5 x 3 symbols (3 + 2 bits, so some codes have no
    symbol), with the given cells at zero mass."""
    w = np.random.default_rng(5).random(15) + 0.05
    w[list(zeros)] = 0.0
    return TupleTableOracle(TupleDomain((tuple("abcde"), (0, 1, 2))), w / w.sum(), seed=seed)


# oracle kind -> (factory, whether some prefix has zero mass)
NODE_ARRAY_KINDS = {
    "table": (lambda: TableOracle(random_table(np.random.default_rng(3), 6, zeros=True)),
              True),
    "interval-N13": (lambda: _interval_view(np.random.default_rng(4).random(13) + 0.05),
                     True),
    "interval-interior-zero": (lambda: _interval_view(np.r_[np.full(5, 0.1), np.zeros(7),
                                                             np.full(9, 0.05)]), True),
    "product": (lambda: ProductMarginalOracle(TableOracle(random_table(
        np.random.default_rng(6), 5, zeros=True))), False),
    "binary-encoded": (lambda: BinaryEncodedOracle(_five_by_three((1, 4, 6, 7, 8))), True),
    "general-product": (lambda: ProductMarginalOracle(
        BinaryEncodedOracle(_five_by_three((1, 4, 6, 7, 8)))), True),
}


@pytest.mark.parametrize("kind", list(NODE_ARRAY_KINDS))
def test_node_bit_probs_match_scalar_path(kind):
    """Every node's array entry is == the per-key computation, and NaN
    exactly where that computation finds a zero-mass prefix."""
    make, has_dead = NODE_ARRAY_KINDS[kind]
    oracle = make()
    probs = oracle.node_bit_probs()
    assert probs.shape == ((1 << oracle.n) - 1,) and probs.dtype == np.float64
    dead = 0
    for i in range(1, oracle.n + 1):
        for j in range(1 << (i - 1)):
            value = probs[(1 << (i - 1)) + j - 1]
            try:
                expect = reference_bit_prob(oracle, i, j)
            except OracleError as err:
                assert err.kind is OracleErrorKind.ZERO_PROBABILITY_CONDITION
                assert np.isnan(value), (i, j)
                with pytest.raises(OracleError) as raised:
                    oracle.exact_bit_prob(i, j)
                assert raised.value.kind is OracleErrorKind.ZERO_PROBABILITY_CONDITION
                dead += 1
                continue
            assert value == expect and oracle.exact_bit_prob(i, j) == expect, (i, j)
    assert (dead > 0) == has_dead
    for i, j in ((0, 0), (oracle.n + 1, 0), (2, 2), (1, -1)):
        with pytest.raises(OracleError) as raised:
            oracle.exact_bit_prob(i, j)
        assert raised.value.kind is OracleErrorKind.MALFORMED_QUERY


def test_interval_view_keeps_a_tiny_prefix_alive():
    """A prefix of positive mass is alive even where its mass is below the
    rounding of the cdf before it: its entry is a ratio of pairwise sums."""
    view = IntervalBackedPrefixOracle(IntervalOracle([1 - 2e-20, 1e-20, 1e-20, 0.0]))
    assert view.node_bit_probs().tolist() == [1e-20, 1e-20, 0.0]


def test_interval_draw_answers_a_tiny_cell():
    """Cell 2's mass is below the rounding of the cdf before it; the draw
    sums the interval's own cells, so it answers the cell."""
    assert IntervalOracle([0.5, 1e-20, 0.5]).interval_sample(2, 2) == 2


def test_interval_view_answers_a_tiny_live_prefix():
    """Prefix 1 holds only the 1e-20 of element 3; the node array calls it
    alive, and the literal prefix query answers it."""
    view = IntervalBackedPrefixOracle(IntervalOracle([1 - 2e-20, 1e-20, 1e-20, 0.0]))
    assert view.node_bit_probs()[0] == 1e-20
    assert view.prefix_sample(PrefixQuery.bits((1,))) == (1, 0)


def test_interval_view_refuses_exactly_the_dead_prefixes():
    """Seeded pmfs over [N] with cells of mass 1e-20 and 0: the literal
    prefix query of every node is refused exactly where ``node_bit_probs()``
    is NaN, and otherwise answers a cell of positive mass inside the
    prefix."""
    g = np.random.default_rng(68)
    tiny = 0  # live prefixes whose cells are all 0 or 1e-20
    for _ in range(30):
        N = int(g.integers(2, 40))
        pmf = g.random(N) + 0.05
        pmf[g.random(N) < 0.4] = 1e-20
        pmf[g.random(N) < 0.2] = 0.0
        if pmf.max() < 1e-10:
            pmf[0] = 1.0
        view = IntervalBackedPrefixOracle(IntervalOracle(pmf / pmf.sum(), seed=int(g.integers(99))))
        nodes = view.node_bit_probs()
        cells = np.zeros(1 << view.n)
        cells[:N] = view.base.pmf
        for i in range(1, view.n + 1):
            for w in range(1 << (i - 1)):
                prefix = index_to_bits(w, i - 1)
                block = cells[w << (view.n - i + 1):(w + 1) << (view.n - i + 1)]
                if np.isnan(nodes[node_index(i, w)]):
                    with pytest.raises(OracleError) as refused:
                        view.prefix_sample(PrefixQuery.bits(prefix))
                    assert refused.value.kind is OracleErrorKind.ZERO_PROBABILITY_CONDITION
                    continue
                x = view.prefix_sample(PrefixQuery.bits(prefix))
                assert x[:i - 1] == prefix and cells[bits_to_index(x)] > 0.0
                tiny += block.max() < 1e-10
    assert tiny >= 20


def test_encoded_node_array_is_dead_exactly_at_unused_prefixes():
    """At 18 encoded bits (alphabets of 5, 9, 17 and 33 symbols, so most
    codes name no cell), an entry is NaN exactly where no cell's code starts
    with its prefix; the codes are computed from the domain alone."""
    sizes = (5, 9, 17, 33)
    domain = TupleDomain(tuple(tuple(range(k)) for k in sizes))
    probs = np.random.default_rng(0).dirichlet(np.ones(domain.size()))
    nodes = BinaryEncodedOracle(TupleTableOracle(domain, probs)).node_bit_probs()
    n = domain.total_bits
    assert n == 18
    codes = np.zeros(1, dtype=np.int64)
    for k in sizes:
        width = max(1, (k - 1).bit_length())
        codes = (codes[:, None] << width | np.arange(k)).ravel()
    for i in range(1, n + 1):
        live = np.zeros(1 << (i - 1), dtype=bool)
        live[codes >> (n - i + 1)] = True
        assert (np.isnan(nodes[(1 << (i - 1)) - 1:(1 << i) - 1]) == ~live).all(), i


def test_binary_encoded_samples_and_encoding():
    """A drawn tuple (a, b) of the 5 x 3 domain is encoded as the bits of a
    (3 bits) followed by those of b (2 bits)."""
    enc = BinaryEncodedOracle(_five_by_three((1, 4)))  # RNG seeded with 0
    got = enc.sample_full_indices_uncounted(500)
    cdf = np.cumsum(enc.base.probs)
    flat = np.searchsorted(cdf, np.random.default_rng(0).random(500) * cdf[-1], side="right")
    assert got.tolist() == ((flat // 3) << 2 | flat % 3).tolist()
    assert [index_to_bits(int(code), 5) for code in enc._cell_codes()[[0, 5, 14]]] == [
        (0, 0, 0, 0, 0), (0, 0, 1, 1, 0), (1, 0, 0, 1, 0)]


class _FixedUniforms:
    """Stands in for an oracle's RNG: ``random(k)`` returns the given
    uniforms."""

    def __init__(self, uniforms):
        self.uniforms = uniforms

    def random(self, k):
        assert k == self.uniforms.shape[0]
        return self.uniforms.copy()


def _full_sample_case(kind, seed=0):
    """(oracle, cdf, mass the uniforms are scaled by, search result -> sample)
    for the oracle's ``sample_full_indices_uncounted``; ``seed`` seeds the
    oracle's RNG."""
    if kind == "table":
        # dyadic masses, so the cdf values are exact; cells 1, 3, 4 and 7 are empty
        probs = np.array([0.25, 0.0, 0.125, 0.0, 0.0, 0.125, 0.5, 0.0])
        oracle = TableOracle(DistributionTable(3, probs), seed=seed)
        return oracle, np.cumsum(probs), float(probs.sum()), lambda idx: idx
    if kind == "padded-interval":
        pmf = np.random.default_rng(8).dirichlet(np.ones(200))
        pmf[[10, 11, 12, 150]] = 0.0
        base = IntervalOracle(pmf / pmf.sum(), seed=seed)
        cdf = np.cumsum(base.pmf)
        return IntervalBackedPrefixOracle(base), cdf, float(cdf[-1]), lambda idx: idx
    enc = BinaryEncodedOracle(_five_by_three((1, 4, 6, 7, 8), seed))
    cdf = np.cumsum(enc.base.probs)
    return enc, cdf, float(cdf[-1]), lambda idx: enc._encoded[idx]


@pytest.mark.parametrize("kind", ["table", "padded-interval", "binary-encoded"])
def test_full_samples_match_plain_searchsorted(kind):
    """The sorted search returns, in draw order, exactly what a plain
    ``searchsorted`` of the same uniforms returns, with uniforms repeated and
    placed exactly on the cdf value that ends a cell followed by zero-mass
    cells; no draw lands on a zero-mass cell."""
    oracle, cdf, total, to_sample = _full_sample_case(kind)
    uniforms = np.random.default_rng(3).random(4096)
    uniforms[100:110] = uniforms[5]
    ends = [j for j in np.flatnonzero(np.diff(cdf) == 0.0) if cdf[j] < total]
    for slot, j in enumerate(ends):
        # a uniform that the oracle's scaling maps exactly onto cdf[j]
        x = cdf[j] / total
        uniforms[2000 + slot] = next(c for c in (x, np.nextafter(x, 0.0), np.nextafter(x, 1.0))
                                     if c * total == cdf[j])
    assert ends and np.isin(uniforms * total, cdf).sum() == len(ends)
    oracle.rng = _FixedUniforms(uniforms)
    got = oracle.sample_full_indices_uncounted(uniforms.shape[0])
    cells = np.searchsorted(cdf, uniforms * total, side="right")
    assert got.tolist() == to_sample(cells).tolist()
    assert (np.diff(cdf, prepend=0.0)[cells] > 0.0).all()


@pytest.mark.parametrize("kind", ["table", "padded-interval", "binary-encoded"])
@pytest.mark.parametrize("k1, k2", [(3, 5), (4096, 97)])
def test_skipped_full_draws_take_the_sampled_uniforms(kind, k1, k2):
    """Skipping k1 full draws and then sampling k2 gives the last k2 of
    k1 + k2 samples and leaves the RNG in the same state: each draw takes one
    uniform, so the walk can pass over a chunk without searching it."""
    skipper, sampler = _full_sample_case(kind)[0], _full_sample_case(kind)[0]
    skipper.skip_full_draws(k1)
    got = skipper.sample_full_indices_uncounted(k2)
    assert got.tolist() == sampler.sample_full_indices_uncounted(k1 + k2)[k1:].tolist()
    assert skipper.rng.bit_generator.state == sampler.rng.bit_generator.state


def test_oracles_on_one_table_share_its_cdf_and_node_array(monkeypatch):
    """Two oracles on one table, as in a self-test or the reps of a run,
    search one cdf and read one node array: the table's, built once."""
    table = random_table(np.random.default_rng(8), 6, zeros=True)
    a, b = TableOracle(table, seed=1), TableOracle(table, seed=2)
    searched, search = [], oracles.inverse_cdf
    monkeypatch.setattr(oracles, "inverse_cdf",
                        lambda cdf, u: searched.append(cdf) or search(cdf, u))
    a.sample_full_indices_uncounted(5)
    b.sample_full_indices_uncounted(7)
    b.draw_unconditional()
    assert len(searched) == 3 and all(cdf is table.cdf() for cdf in searched)
    assert a.node_bit_probs() is b.node_bit_probs() is table.conditional_nodes()


@pytest.mark.parametrize("kind", ["padded-interval", "binary-encoded"])
def test_view_walk_inputs_are_its_tables(kind):
    """A view's one table holds its cells at their codes, zero elsewhere;
    its node array is the table's, and its full draws search the table's
    cdf."""
    oracle = _full_sample_case(kind)[0]
    cells = np.zeros(1 << oracle.n)
    cells[oracle._cell_codes()] = oracle._cell_probs()
    table = oracle.table
    assert oracle.table is table and table.probs.tolist() == cells.tolist()
    assert oracle.node_bit_probs() is table.conditional_nodes()
    assert oracle.sample_full_indices_uncounted(9).tolist() == oracles.inverse_cdf(
        np.cumsum(cells), np.random.default_rng(0).random(9)).tolist()


# ----------------------------------------------------------------------
# the one draw rule: no answer leaves its support


def test_interval_draws_stay_in_a_tiny_interval():
    """Interval [3, 3] holds mass 1e-13 past half the total: base + u * mass
    must not round up to the cdf value that ends it and answer 4."""
    oracle = IntervalOracle([0.25, 0.25, 1e-13, 0.5 - 1e-13], seed=1)
    assert {oracle.interval_sample(3, 3) for _ in range(20_000)} == {3}


def test_top_uniform_full_draws_stay_on_the_table():
    """The seed-0 Dirichlet(1) table over {0,1}^16, whose probs.sum() exceeds
    its cdf's last value: the top uniform scaled by that sum searched one
    past the last cell.  Each draw is scaled by the cdf's own last value."""
    table = DistributionTable(16, np.random.default_rng(0).dirichlet(np.ones(1 << 16)))
    assert table.probs.sum() > np.cumsum(table.probs)[-1]
    oracle = TableOracle(table)
    oracle.rng = ConstantUniforms(TOP_UNIFORM)
    drawn = [int(oracle.sample_full_indices_uncounted(1)[0]),
             bits_to_index(oracle.draw_unconditional()),
             bits_to_index(oracle.subcube_sample(SubcubeQuery.from_pattern("*" * 16)))]
    assert all(0 <= x < 1 << 16 and table.probs[x] > 0.0 for x in drawn), drawn


@pytest.mark.parametrize("u", [0.0, TOP_UNIFORM], ids=["u0", "u-top"])
def test_every_draw_site_answers_in_support(u):
    """Seeded pmfs with zero cells, at the least and the greatest uniform:
    each draw site answers the first (u = 0) or last (top u) cell of
    positive mass its query selects: a masked-cell draw, a full draw of a
    table, of a padded interval view and of a binary encoding, an interval
    draw, and a pair draw."""
    g = np.random.default_rng(29)
    stub = ConstantUniforms(u)
    end, bit = (0, 0) if u == 0.0 else (-1, 1)
    served = 0  # subcube and interval queries of positive mass
    for _ in range(30):
        n = int(g.integers(2, 9))
        table = random_table(g, n, zeros=True)
        oracle = TableOracle(table)
        oracle.rng = stub
        query = _random_subcube_query(g, n)
        hit = [x for x in np.flatnonzero(table.probs) if query.contains(index_to_bits(x, n))]
        if hit:
            assert bits_to_index(oracle.subcube_sample(query)) == hit[end]
            served += 1
        assert oracle.sample_full_indices_uncounted(3).tolist() == [
            np.flatnonzero(table.probs)[end]] * 3
        pmf = table.probs[:int(g.integers(1, 1 << n)) + 1]
        base = IntervalOracle(pmf / pmf.sum())
        base.rng = stub
        view = IntervalBackedPrefixOracle(base)
        assert view.sample_full_indices_uncounted(2).tolist() == [np.flatnonzero(pmf)[end]] * 2
        a, b = np.sort(g.integers(1, base.N + 1, size=2))
        hit = np.flatnonzero(pmf[a - 1:b]) + a
        if hit.shape[0]:
            assert base.interval_sample(a, b) == hit[end]
            served += 1
    assert served >= 40
    # tuple domains of 1-6 symbols per coordinate, so some codes go unused:
    # the full draw answers the code of the first or last cell of positive mass
    g = np.random.default_rng(32)
    for _ in range(30):
        domain = TupleDomain(tuple(tuple(range(k)) for k in g.integers(1, 7, int(g.integers(1, 4)))))
        w = g.random(domain.size())
        w[g.random(domain.size()) < 0.25] = 0.0
        w[g.integers(domain.size())] += 0.5
        enc = BinaryEncodedOracle(TupleTableOracle(domain, w / w.sum()))
        enc.rng = stub
        assert enc.sample_full_indices_uncounted(2).tolist() == [
            enc._cell_codes()[np.flatnonzero(w)[end]]] * 2
    for biases in [(-1, -1, -1, -1, -1), (1, -1, 1, 1, -1)]:
        pairs = AdversarialInstance(11, 0.1, biases).draw_unconditional(stub)[:10]
        assert pairs == (bit,) * 10


def _plain(state):
    """A bit generator's state with its arrays (MT19937's key) as lists, so
    that two states compare with ==."""
    if isinstance(state, dict):
        return {key: _plain(value) for key, value in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


@pytest.mark.parametrize("kind", ["table", "padded-interval", "binary-encoded"])
@pytest.mark.parametrize("stream", ["pcg64-buffered-uint32", "mt19937"])
def test_skipped_full_draws_keep_any_stream(kind, stream):
    """``skip_full_draws(k)`` then a sample equals ``random(k)`` then the
    same sample, samples and final state both, on the streams a PCG64
    ``advance`` would get wrong: a PCG64 holding a buffered uint32 (which
    ``random`` keeps and ``advance`` drops) and a user-passed MT19937."""
    def case():
        if stream == "mt19937":
            return _full_sample_case(kind, seed=np.random.Generator(np.random.MT19937(3)))[0]
        oracle = _full_sample_case(kind)[0]
        oracle.rng.integers(0, 10)
        assert oracle.rng.bit_generator.state["has_uint32"] == 1
        return oracle

    for k1, k2 in [(3, 5), (4096, 97)]:
        skipper, sampler = case(), case()
        skipper.skip_full_draws(k1)
        sampler.rng.random(k1)
        assert (skipper.sample_full_indices_uncounted(k2).tolist()
                == sampler.sample_full_indices_uncounted(k2).tolist())
        assert _plain(skipper.rng.bit_generator.state) == _plain(sampler.rng.bit_generator.state)


class _NoRandom(np.random.Generator):
    """A PCG64 ``Generator`` whose ``random`` refuses to draw."""

    def random(self, *args, **kwargs):
        raise AssertionError("the skipped uniforms were drawn")


def test_skipping_2_to_the_40_draws_keeps_the_buffered_half():
    """``skip_full_draws(2^40)`` on a PCG64 that holds a buffered 32-bit half
    draws none of the uniforms (about 43 minutes of them at 2.35 ns each)
    and leaves the state of ``advance(2^40)`` with that half put back: the
    state ``random(2^40)`` leaves, since each double takes one 64-bit output
    and neither reads nor changes the half."""
    oracle = _full_sample_case("table")[0]
    oracle.rng = _NoRandom(np.random.PCG64(5))
    oracle.rng.integers(0, 10)
    before = oracle.rng.bit_generator.state
    assert before["has_uint32"] == 1
    advanced = np.random.PCG64()
    advanced.state = before
    advanced.advance(1 << 40)
    want = advanced.state | {"has_uint32": 1, "uinteger": before["uinteger"]}
    oracle.skip_full_draws(1 << 40)
    assert oracle.rng.bit_generator.state == want


# ----------------------------------------------------------------------
# interval oracle and the prefix translation


def test_interval_sample_uniform_pair():
    oracle = IntervalOracle(np.full(8, 0.125), seed=11)
    draws = [oracle.interval_sample(3, 4) for _ in range(2000)]
    assert set(draws) == {3, 4}
    assert stats.binomtest(draws.count(3), 2000, 0.5).pvalue > GOF_ALPHA
    assert oracle.counter.counts[QueryClass.INTERVAL] == 2000


def test_interval_zero_probability():
    pmf = np.zeros(8)
    pmf[4] = 1.0  # point mass on element 5
    oracle = IntervalOracle(pmf, seed=0)
    with pytest.raises(OracleError):
        oracle.interval_sample(1, 4)
    assert oracle.interval_sample(1, 8) == 5


def test_bin_unbin_round_trip():
    assert bits_to_index((1, 0, 1)) == 5
    assert index_to_bits(0, 3) == (0, 0, 0)
    for ell in range(1, 13):
        for v in range(1 << ell) if ell <= 8 else [0, 1, (1 << ell) - 1]:
            assert bits_to_index(index_to_bits(v, ell)) == v


def test_prefix_to_interval_examples():
    assert prefix_to_interval(3, 1, ()) == (1, 8)
    assert prefix_to_interval(3, 3, (1, 0)) == (5, 6)
    assert prefix_to_interval(3, 4, (1, 1, 1)) == (8, 8)
    with pytest.raises(OracleError):
        prefix_to_interval(3, 2, (0, 1))


def test_prefix_to_interval_preimage_small():
    """The interval is exactly the prefix cylinder (exhaustive, small ell;
    the full ell <= 10 sweep is in the acceptance suite)."""
    for ell in range(1, 7):
        for i in range(1, ell + 2):
            for w_idx in range(1 << (i - 1)):
                w = index_to_bits(w_idx, i - 1)
                a, b = prefix_to_interval(ell, i, w)
                members = {t for t in range(1, (1 << ell) + 1)
                           if index_to_bits(t - 1, ell)[:i - 1] == w}
                assert members == set(range(a, b + 1))


def test_interval_backed_prefix_oracle_exact(rng):
    ell = 4
    w = rng.random(1 << ell)
    pmf = w / w.sum()
    table = DistributionTable(ell, pmf)
    base = IntervalOracle(pmf, seed=9)
    view = IntervalBackedPrefixOracle(base)
    ref = TableOracle(table, seed=0)
    for i in range(1, ell + 1):
        for j in range(1 << (i - 1)):
            assert view.exact_bit_prob(i, j) == pytest.approx(
                ref.exact_bit_prob(i, j))


def test_padded_interval_backed_prefix_oracle():
    """N = 6 inside [2^3]: the padding elements 7 and 8 carry zero mass."""
    pmf = np.array([0.1, 0.2, 0.3, 0.15, 0.15, 0.1])
    base = IntervalOracle(pmf, seed=3)
    view = IntervalBackedPrefixOracle(base)
    ref = TableOracle(DistributionTable(3, np.r_[pmf, 0.0, 0.0]), seed=0)
    for i in range(1, 4):
        for j in range(1 << (i - 1)):
            try:
                expect = ref.exact_bit_prob(i, j)
            except OracleError:
                with pytest.raises(OracleError):
                    view.exact_bit_prob(i, j)
                continue
            assert view.exact_bit_prob(i, j) == pytest.approx(expect)
    # x1 = 1 straddles the padding: samples land on 5 or 6 only
    for _ in range(20):
        assert view.prefix_sample(PrefixQuery.bits((1,)))[:2] == (1, 0)
    before = base.counter.counts[QueryClass.INTERVAL]
    # x1 x2 = 1 1 is the interval [7, 8], all padding: it selects no cell of
    # the base, so only the view is billed
    with pytest.raises(OracleError) as err:
        view.prefix_sample(PrefixQuery.bits((1, 1)))
    assert err.value.kind is OracleErrorKind.ZERO_PROBABILITY_CONDITION
    assert base.counter.counts[QueryClass.INTERVAL] - before == 0
    assert view.counter.counts[QueryClass.PREFIX] == 21


# zero-probability prefix query -> (the view it asks, the query, what its base
# is billed); a condition that selects no cell bills the view only, one that
# selects cells of zero mass bills the base too
ZERO_MASS_PREFIXES = {
    "encoding-unused-code": (lambda: BinaryEncodedOracle(_rgb_uniform()),
                             PrefixQuery.bits((1, 1)), {}),
    "interval-padding": (lambda: _interval_view([0.1, 0.2, 0.3, 0.15, 0.15, 0.1]),
                         PrefixQuery.bits((1, 1)), {}),
    "interval-padding-n1": (lambda: _interval_view([1.0]),
                            PrefixQuery.bits((), allowed=(1,)), {}),
    "interval-zero-cells": (lambda: _interval_view([1, 1, 1, 0, 0, 0]),
                            PrefixQuery.bits((1, 0)), {QueryClass.INTERVAL: 1}),
}


@pytest.mark.parametrize("name", list(ZERO_MASS_PREFIXES))
def test_zero_mass_prefix_bills_the_base_only_if_it_selects_cells(name):
    make, query, base_bill = ZERO_MASS_PREFIXES[name]
    view = make()
    with pytest.raises(OracleError) as refused:
        view.prefix_sample(query)
    assert refused.value.kind is OracleErrorKind.ZERO_PROBABILITY_CONDITION
    assert [node.counter.counts for node in view.chain()] == [{QueryClass.PREFIX: 1}, base_bill]


def test_interval_view_derives_its_dimension():
    """The view over [N] has n = max(1, ceil(log2 N)) bits: [N] padded to the
    next power of two, at least 2."""
    for N in (1, 2, 3, 4, 5, 6, 200, 255, 256, 257, 1000, 1024, 1025):
        view = IntervalBackedPrefixOracle(IntervalOracle(np.full(N, 1 / N)))
        assert view.n == max(1, math.ceil(math.log2(N))), N


def test_interval_view_marginal_query_refuses_oversized_n_before_allocating(monkeypatch):
    """A marginal query reads the view's node array, so over [N] with
    N = 2^MAX_DENSE_N + 1 it refuses n before it lays out the 2^n cells or
    bills a query."""
    N = (1 << MAX_DENSE_N) + 1
    view = IntervalBackedPrefixOracle(IntervalOracle(np.full(N, 1.0 / N), seed=0))

    def refuse(*args, **kwargs):
        raise AssertionError("allocated before checking n")
    for name in ("full", "zeros", "ones", "empty"):
        monkeypatch.setattr(np, name, refuse)
    with pytest.raises(DomainError, match=f"n <= {MAX_DENSE_N}, got {MAX_DENSE_N + 1}$"):
        view.marginal_prefix_sample(1, ())
    assert [sum(node.counter.counts.values()) for node in view.chain()] == [0, 0]


def _random_subcube_query(g, n):
    return SubcubeQuery.from_pattern("".join(g.choice(list("01*"), size=n)))


def _random_prefix_query(g, n):
    fixed = tuple(g.integers(0, 2, size=int(g.integers(0, n))).tolist())
    allowed = (0, 1) if g.random() < 0.5 else (int(g.integers(0, 2)),)
    return PrefixQuery.bits(fixed, allowed)


def _random_marginal_query(g, n):
    """(i, w) arguments of a marginal-prefix query."""
    i = int(g.integers(1, n + 1))
    return i, tuple(g.integers(0, 2, size=i - 1).tolist())


def _literal_query_stream(serve, count, seed):
    """Outputs of ``count`` seeded calls ``serve(g)``; None for a
    ZERO_PROBABILITY_CONDITION refusal."""
    g = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        try:
            out.append(serve(g))
        except OracleError as err:
            assert err.kind is OracleErrorKind.ZERO_PROBABILITY_CONDITION
            out.append(None)
    return out


def _serve_table_query(oracle, g):
    """One unconditional, subcube, prefix or marginal-prefix query on a
    TableOracle, chosen and shaped by ``g``."""
    kind = int(g.integers(0, 4))
    if kind == 0:
        return oracle.draw_unconditional()
    if kind == 1:
        return oracle.subcube_sample(_random_subcube_query(g, oracle.n))
    if kind == 2:
        return oracle.prefix_sample(_random_prefix_query(g, oracle.n))
    return oracle.marginal_prefix_sample(*_random_marginal_query(g, oracle.n))


def _zero_cell_table():
    """A table over {0,1}^4 with cells 0-3, 6, 9 and 13 at zero mass, so that
    the prefix 00 and some subcubes have none."""
    w = np.random.default_rng(9).random(16) + 0.05
    w[[0, 1, 2, 3, 6, 9, 13]] = 0.0
    return DistributionTable(4, w / w.sum())


# the outputs and counters of seeded literal query streams, recorded while
# TableOracle still drew from cached per-condition cdfs: on a table with
# zero-mass cells, and prefix queries on a padded interval view (N = 11 inside
# [2^4]: elements 4, 5 and the padding 12-16 have zero mass, so some prefixes
# lie wholly in the padding; those select no cell and bill the view only).
# Any change of what a query selects, of its billing or of an RNG stream
# changes them.
LITERAL_QUERY_PINS = {
    "table": (
        [(1, 1, 1, 1), 0, (1, 1, 1, 1), None, (0, 1, 0, 0), None, (0, 1, 0, 1), (0, 1, 0, 1),
         None, (0, 1, 1, 1), 1, (1, 1, 1, 1), 1, 0, 0, (0, 1, 1, 1), (0, 1, 0, 0), None,
         (1, 1, 1, 1), (1, 0, 1, 0), (0, 1, 1, 1), (1, 1, 1, 1), (1, 0, 1, 0), 0, 0,
         (0, 1, 1, 1), None, (1, 0, 0, 0), None, (0, 1, 1, 1), None, 0, 1, (0, 1, 1, 1),
         (1, 1, 1, 1), (0, 1, 1, 1), (0, 1, 0, 1), (0, 1, 0, 1), (0, 1, 1, 1), (1, 0, 1, 0),
         (1, 0, 0, 0), 1, None, (0, 1, 1, 1), 1, (1, 1, 1, 0), None, (0, 1, 1, 1),
         (0, 1, 0, 1), 0, (1, 1, 1, 0), (0, 1, 0, 1), (1, 0, 1, 0), (0, 1, 0, 1),
         (1, 0, 1, 0), (0, 1, 0, 1), None, (1, 1, 1, 1), 0, (0, 1, 1, 1)],
        {QueryClass.PREFIX: 18, QueryClass.MARGINAL: 16,
         QueryClass.UNCONDITIONAL: 12, QueryClass.SUBCUBE: 14},
    ),
    "padded-interval": (
        [(0, 1, 1, 1), (0, 1, 0, 1), (1, 0, 0, 1), (0, 1, 1, 0), None, (1, 0, 1, 0),
         (1, 0, 0, 1), (1, 0, 1, 0), (1, 0, 1, 0), (1, 0, 0, 1), (0, 0, 0, 0), (0, 0, 0, 0),
         None, None, (1, 0, 1, 0), (0, 1, 0, 1), (1, 0, 1, 0), (1, 0, 1, 0), None,
         (0, 1, 0, 1), (1, 0, 0, 0), (0, 0, 1, 0), None, (1, 0, 1, 0), (0, 1, 1, 0),
         (0, 0, 0, 0), (0, 1, 1, 0), (0, 0, 0, 0), (0, 1, 1, 1), None, (0, 1, 1, 0),
         (0, 0, 0, 1), (0, 0, 0, 0), (0, 1, 1, 1), None, (0, 0, 0, 0), (0, 0, 1, 0),
         (0, 1, 0, 1), (0, 1, 1, 0), (0, 1, 1, 0)],
        {QueryClass.PREFIX: 40},
        {QueryClass.INTERVAL: 35},
    ),
    # marginal-prefix queries on the product view over the zero-cell table,
    # recorded while each was served by one unconditional draw from the table
    "product-table": (
        [1, 1, 1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1, 1, 0, 1, 1, 1, 1, 1, 0, 1, 0, 0, 0, 0, 1, 1, 1,
         0, 1, 1, 0, 0, 1, 0, 1, 0, 1, 0],
        {QueryClass.MARGINAL: 40},
        {QueryClass.PREFIX: 40},
    ),
}


def test_literal_queries_pinned():
    table = TableOracle(_zero_cell_table(), seed=4)
    out = _literal_query_stream(lambda g: _serve_table_query(table, g), 60, seed=12)
    assert (out, table.counter.counts) == LITERAL_QUERY_PINS["table"]
    pmf = np.random.default_rng(10).random(11) + 0.05
    pmf[[3, 4]] = 0.0
    view = IntervalBackedPrefixOracle(IntervalOracle(pmf / pmf.sum(), seed=6))
    out = _literal_query_stream(lambda g: view.prefix_sample(_random_prefix_query(g, 4)), 40,
                                seed=14)
    assert (out, view.counter.counts, view.base.counter.counts) == \
        LITERAL_QUERY_PINS["padded-interval"]
    table = TableOracle(_zero_cell_table(), seed=7)
    view = ProductMarginalOracle(table)
    out = _literal_query_stream(lambda g: view.marginal_prefix_sample(
        *_random_marginal_query(g, 4)), 40, seed=16)
    assert (out, view.counter.counts, table.counter.counts) == LITERAL_QUERY_PINS["product-table"]


def test_interval_backed_sampling_distribution(rng):
    ell = 3
    w = rng.random(1 << ell)
    pmf = w / w.sum()
    view = IntervalBackedPrefixOracle(IntervalOracle(pmf, seed=21))
    draws = view.sample_full_indices_uncounted(GOF_SAMPLES)
    counts = _empirical_index_counts(draws, 1 << ell)
    assert _gof(counts, pmf) > GOF_ALPHA


# ----------------------------------------------------------------------
# tuple oracles and the binary encoding


@pytest.fixture
def rgb_oracle(rng):
    dom = TupleDomain((("r", "g", "b"), (0, 1)))
    w = rng.random(6)
    return TupleTableOracle(dom, w / w.sum(), seed=17)


def test_tuple_prefix_sample_respects_condition(rgb_oracle):
    for _ in range(30):
        x = rgb_oracle.prefix_sample(2, ("g",), (0, 1))
        assert x[0] == "g"
    assert rgb_oracle.counter.counts[QueryClass.PREFIX] == 30


def test_binary_encoding_translation(rgb_oracle):
    enc = BinaryEncodedOracle(rgb_oracle)
    assert enc.n == 3
    code = dict(zip(map(enc.domain.element_of, range(enc.domain.size())),
                    enc._cell_codes().tolist()))
    assert index_to_bits(code[("r", 0)], 3) == (0, 0, 0)
    assert index_to_bits(code[("g", 1)], 3) == (0, 1, 1)
    assert index_to_bits(code[("b", 0)], 3) == (1, 0, 0)
    # fixing bit 1 = 0 leaves symbols {r, g} allowed in coordinate 1
    drawn = {"rgb"[bits_to_index(enc.prefix_sample(PrefixQuery.bits((0,)))[:2])]
             for _ in range(50)}
    assert drawn == {"r", "g"}


def test_binary_encoding_one_query_per_query(rgb_oracle):
    enc = BinaryEncodedOracle(rgb_oracle)
    base_counter = rgb_oracle.counter
    enc.prefix_sample(PrefixQuery.bits((0,)))
    assert base_counter.counts[QueryClass.PREFIX] == 1
    enc.marginal_prefix_sample(2, (0,))
    assert base_counter.counts[QueryClass.MARGINAL] == 1
    enc.subcube_sample(SubcubeQuery.from_pattern("0*1"))
    assert base_counter.counts[QueryClass.SUBCUBE] == 1
    assert sum(enc.counter.counts.values()) == 3


# query -> (served through the product-of-marginals view, the call); each
# is malformed on the 3 x 2 domain, whose encoding has n = 3 bits
MALFORMED_ENCODED_QUERIES = {
    "marginal-prefix-too-long": (False, lambda o: o.marginal_prefix_sample(2, (0, 1, 1))),
    "marginal-prefix-too-short": (False, lambda o: o.marginal_prefix_sample(3, (0,))),
    "prefix-beyond-n": (False, lambda o: o.prefix_sample(PrefixQuery.bits((0, 0, 1, 1)))),
    "product-marginal-beyond-n": (True, lambda o: o.marginal_prefix_sample(4, (0, 0, 0))),
}


@pytest.mark.parametrize("name", list(MALFORMED_ENCODED_QUERIES))
def test_binary_encoding_refuses_malformed_queries(rgb_oracle, name):
    """A malformed query is refused with MALFORMED_QUERY, as TableOracle
    refuses it, and billed nowhere."""
    product, call = MALFORMED_ENCODED_QUERIES[name]
    oracle = BinaryEncodedOracle(rgb_oracle)
    if product:
        oracle = ProductMarginalOracle(oracle)
    with pytest.raises(OracleError) as raised:
        call(oracle)
    assert raised.value.kind is OracleErrorKind.MALFORMED_QUERY
    assert [sum(node.counter.counts.values()) for node in (oracle, rgb_oracle)] == [0, 0]


def _serve_encoded_query(enc, view, g):
    """One subcube, prefix or marginal-prefix query on ``enc`` or one
    marginal-prefix query on ``view``, chosen and shaped by ``g``."""
    kind = int(g.integers(0, 4))
    if kind == 0:
        return enc.subcube_sample(_random_subcube_query(g, enc.n))
    if kind == 1:
        return enc.prefix_sample(_random_prefix_query(g, enc.n))
    return (enc if kind == 2 else view).marginal_prefix_sample(*_random_marginal_query(g, enc.n))


# the stream's outputs and the four counters (the encoded oracle, its tuple
# base, the product view, its tuple base), recorded while the encoded
# oracles still translated each query into symbol sets; any change of what a
# query selects, of its billing or of an RNG stream changes them
ENCODED_QUERY_PINS = (
    [None, 1, (1, 0, 0, 0, 1), (1, 0, 0, 0, 0), 0, None, 0, None, 0, (0, 1, 1, 1, 0),
     None, 0, 0, (0, 1, 1, 0, 1), (0, 1, 1, 0, 0), None, (0, 1, 1, 0, 1), None,
     (0, 1, 1, 0, 0), None, (1, 0, 0, 1, 0), (1, 0, 0, 0, 1), (0, 0, 0, 0, 0),
     (0, 1, 1, 0, 1), 0, 0, 1, 0, 1, (1, 0, 0, 0, 1), 0, 1, (0, 0, 1, 0, 0), 0,
     (0, 1, 1, 0, 0), (0, 1, 1, 0, 0), (1, 0, 0, 0, 1), (1, 0, 0, 1, 0), 0,
     (0, 1, 1, 1, 0), 1, None, None, 0, None, None, (0, 1, 1, 0, 0), None,
     (1, 0, 0, 1, 0), (0, 1, 1, 0, 0), None, None, (0, 1, 1, 0, 1), 1, None, 0, 1,
     None, 0, 0],
    [{QueryClass.SUBCUBE: 17, QueryClass.MARGINAL: 16, QueryClass.PREFIX: 17},
     {QueryClass.MARGINAL: 15, QueryClass.PREFIX: 12, QueryClass.SUBCUBE: 14},
     {QueryClass.MARGINAL: 10},
     {QueryClass.SUBCUBE: 9}],
)


def test_binary_encoding_literal_queries_pinned():
    enc = BinaryEncodedOracle(_five_by_three((1, 4, 6, 7, 8)))
    view = ProductMarginalOracle(BinaryEncodedOracle(_five_by_three((1, 4, 6, 7, 8))))
    out = _literal_query_stream(lambda g: _serve_encoded_query(enc, view, g), 60, seed=11)
    counts = [o.counter.counts for o in (enc, enc.base, view, view.base)]
    assert (out, counts) == ENCODED_QUERY_PINS


def test_binary_encoding_exact_bit_probs(rgb_oracle):
    """Encoded conditionals agree with the dense pushforward table."""
    enc = BinaryEncodedOracle(rgb_oracle)
    push = np.zeros(8)
    push[enc._cell_codes()] = rgb_oracle.probs
    ref = TableOracle(DistributionTable(3, push), seed=0)
    for i in range(1, 4):
        for j in range(1 << (i - 1)):
            try:
                expect = ref.exact_bit_prob(i, j)
            except OracleError:
                with pytest.raises(OracleError):
                    enc.exact_bit_prob(i, j)
                continue
            assert enc.exact_bit_prob(i, j) == pytest.approx(expect)


def test_binary_encoding_identity_on_binary_domains(rng):
    dom = TupleDomain(((0, 1), (0, 1)))
    w = rng.random(4)
    base = TupleTableOracle(dom, w / w.sum(), seed=13)
    enc = BinaryEncodedOracle(base)
    assert enc.n == 2
    assert dom.element_of(2) == (1, 0)
    assert index_to_bits(int(enc._cell_codes()[2]), 2) == (1, 0)
    ref = TableOracle(DistributionTable(2, w / w.sum()), seed=0)
    for i in (1, 2):
        for j in range(1 << (i - 1)):
            assert enc.exact_bit_prob(i, j) == pytest.approx(
                ref.exact_bit_prob(i, j))


# ----------------------------------------------------------------------
# product-of-marginals views


def test_product_marginal_binary_serves_marginal(rng):
    pair = DistributionTable(2, [0.35, 0.15, 0.15, 0.35])
    base = TableOracle(pair, seed=19)
    view = ProductMarginalOracle(base)
    # marginals of the biased pair are exactly 1/2, for every prefix
    assert view.exact_bit_prob(2, 0) == pytest.approx(0.5)
    assert view.exact_bit_prob(2, 1) == pytest.approx(0.5)
    before = base.counter.counts.get(QueryClass.PREFIX, 0)
    for _ in range(25):
        view.marginal_prefix_sample(2, (0,))
    assert base.counter.counts[QueryClass.PREFIX] - before == 25


def test_product_marginal_general_uses_subcube(rgb_oracle):
    enc = BinaryEncodedOracle(rgb_oracle)
    view = ProductMarginalOracle(enc)
    bit = view.marginal_prefix_sample(2, (0,))
    assert bit in (0, 1)
    assert rgb_oracle.counter.counts[QueryClass.SUBCUBE] == 1
    # conditional of bit 2 given bit 1 = 0 under the marginal of coordinate 1:
    # Pr[code 01 | {r, g}] among the coordinate-1 marginal
    marg = np.array([rgb_oracle.probs[rgb_oracle._mask_of_sets([(s,), None])].sum()
                     for s in ("r", "g", "b")])
    expect = marg[1] / (marg[0] + marg[1])
    assert view.exact_bit_prob(2, 0) == pytest.approx(expect)


# ----------------------------------------------------------------------
# the charging rule and probability-vector validation


def _rgb_uniform():
    dom = TupleDomain((("r", "g", "b"), (0, 1)))
    return TupleTableOracle(dom, np.full(6, 1 / 6), seed=0)


def _interval_backed():
    return IntervalBackedPrefixOracle(IntervalOracle(np.full(4, 0.25), seed=0))


def _product_marginal():
    return ProductMarginalOracle(TableOracle(DistributionTable.uniform(2), seed=0))


def _general_product_marginal():
    return ProductMarginalOracle(BinaryEncodedOracle(_rgb_uniform()))


# oracle factory -> class its base is billed for a marginal query
# (None: a root oracle, which has no base)
CHARGE_ROUTES = {
    "TableOracle": (lambda: TableOracle(DistributionTable.uniform(2), seed=0), None),
    "IntervalOracle": (lambda: IntervalOracle(np.full(4, 0.25), seed=0), None),
    "TupleTableOracle": (_rgb_uniform, None),
    "IntervalBackedPrefixOracle": (_interval_backed, QueryClass.INTERVAL),
    "BinaryEncodedOracle": (lambda: BinaryEncodedOracle(_rgb_uniform()),
                            QueryClass.MARGINAL),
    "ProductMarginalOracle": (_product_marginal, QueryClass.PREFIX),
    "ProductMarginalOracle-encoded": (_general_product_marginal, QueryClass.SUBCUBE),
}


@pytest.mark.parametrize("name", list(CHARGE_ROUTES))
def test_charge_routing(name):
    make, base_class = CHARGE_ROUTES[name]
    oracle = make()
    oracle.charge(QueryClass.MARGINAL, 7)
    oracle.charge(QueryClass.MARGINAL)
    assert oracle.counter.counts == {QueryClass.MARGINAL: 8}
    if base_class is None:
        assert oracle.base is None
        return
    assert oracle.base.counter.counts == {base_class: 8}
    assert oracle.base.base is None
    assert oracle.rng is oracle.base.rng


@pytest.mark.parametrize("make", [
    lambda probs: DistributionTable(1, probs),
    lambda probs: IntervalOracle(probs),
    lambda probs: TupleTableOracle(TupleDomain(((0, 1),)), probs),
], ids=["DistributionTable", "IntervalOracle", "TupleTableOracle"])
@pytest.mark.parametrize("probs", [[np.nan, 1.0], [np.nan, np.nan],
                                   [np.inf, 1.0], [0.5, -np.inf]])
def test_non_finite_probabilities_rejected(make, probs):
    with pytest.raises(DomainError):
        make(probs)


def _table_uniform3():
    return TableOracle(DistributionTable.uniform(3), seed=0)


# query -> (oracle factory, the call); each is malformed, and each of these
# oracles once billed it before refusing it, served a wrong prefix, or
# refused it as a dimension mismatch
MALFORMED_QUERIES = {
    "tuple-prefix-beyond-n": (_rgb_uniform, lambda o: o.prefix_sample(3, ("r", 0), (0,))),
    "tuple-marginal-beyond-n": (_rgb_uniform,
                                lambda o: o.marginal_prefix_sample(3, ("r", 0), (0,))),
    "tuple-subcube-unknown-symbol": (_rgb_uniform, lambda o: o.subcube_sample([("x",), None])),
    "table-marginal-beyond-n": (lambda: TableOracle(DistributionTable.uniform(3), seed=0),
                                lambda o: o.marginal_prefix_sample(4, (0, 0, 0))),
    "interval-marginal-short-prefix": (_interval_backed,
                                       lambda o: o.marginal_prefix_sample(2, ())),
    "product-marginal-beyond-n": (_product_marginal,
                                  lambda o: o.marginal_prefix_sample(3, (0, 0))),
    "encoded-subcube-two-valued-constraint": (
        lambda: BinaryEncodedOracle(_rgb_uniform()),
        lambda o: o.subcube_sample(SubcubeQuery((frozenset({0, 1}), None, None)))),
    "table-prefix-non-bit-allowed": (
        _table_uniform3, lambda o: o.prefix_sample(PrefixQuery(2, (0,), frozenset({2})))),
    "table-prefix-non-bit-in-allowed-pair": (
        _table_uniform3, lambda o: o.prefix_sample(PrefixQuery(2, (0,), frozenset({0, 2})))),
    "table-prefix-non-bit-fixed": (
        _table_uniform3, lambda o: o.prefix_sample(PrefixQuery(2, (2,), frozenset({0, 1})))),
    "table-prefix-beyond-n": (_table_uniform3,
                              lambda o: o.prefix_sample(PrefixQuery.bits((0, 0, 0)))),
    "interval-prefix-beyond-n": (
        lambda: IntervalBackedPrefixOracle(IntervalOracle(np.full(8, 0.125), seed=0)),
        lambda o: o.prefix_sample(PrefixQuery.bits((0, 0, 0)))),
    "interval-prefix-non-bit-allowed": (
        _interval_backed, lambda o: o.prefix_sample(PrefixQuery(1, (), frozenset({3})))),
    "encoded-prefix-non-bit-allowed": (
        lambda: BinaryEncodedOracle(_rgb_uniform()),
        lambda o: o.prefix_sample(PrefixQuery(2, (0,), frozenset({2})))),
    "encoded-marginal-non-bit-prefix": (lambda: BinaryEncodedOracle(_rgb_uniform()),
                                        lambda o: o.marginal_prefix_sample(2, (2,))),
    "interval-outside-domain": (lambda: IntervalOracle(np.full(4, 0.25), seed=0),
                                lambda o: o.interval_sample(0, 5)),
    "table-subcube-non-bit-constraint": (
        lambda: TableOracle(DistributionTable.uniform(2), seed=0),
        lambda o: o.subcube_sample(SubcubeQuery((frozenset({2}), None)))),
    "table-subcube-two-valued-constraint": (
        lambda: TableOracle(DistributionTable.uniform(2), seed=0),
        lambda o: o.subcube_sample(SubcubeQuery((frozenset({0, 1}), None)))),
    "encoded-subcube-non-bit-constraint": (
        lambda: BinaryEncodedOracle(_rgb_uniform()),
        lambda o: o.subcube_sample(SubcubeQuery((frozenset({2}), None, None)))),
    "tuple-prefix-empty-allowed": (_rgb_uniform, lambda o: o.prefix_sample(1, (), ())),
}


@pytest.mark.parametrize("name", list(MALFORMED_QUERIES))
def test_malformed_queries_refused_before_billing(name):
    make, call = MALFORMED_QUERIES[name]
    oracle = make()
    with pytest.raises(OracleError) as raised:
        call(oracle)
    assert raised.value.kind is OracleErrorKind.MALFORMED_QUERY
    node = oracle
    while node is not None:
        assert sum(node.counter.counts.values()) == 0, type(node).__name__
        node = node.base
