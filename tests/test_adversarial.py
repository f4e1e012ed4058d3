"""Hard-instance families and their structural identities."""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from condtest import adversarial
from condtest.adversarial import (
    INSTANCE_MEMO_CAP,
    AdversarialInstance,
    GridProductDistance,
    MAX_PAIR_DELTA,
    ProductSampler,
    distance_to_grid_products,
    distance_to_product_of_marginals,
    instance_distances,
    nu_b_table,
    pairwise_product_distance_bound,
    sample_paired_instance,
    simulate_pair_conditional,
    subcube_query_via_unconditional,
    uniformity_lb_instance,
    xor_transform,
)
from condtest.distcore import DistributionTable, DomainError, tv_distance
from condtest.oracles import SubcubeQuery, TableOracle
from conftest import TOP_UNIFORM, ConstantUniforms


PAIR_PATTERNS = ["**", "0*", "1*", "*0", "*1", "00", "01", "10", "11"]


# ----------------------------------------------------------------------
# the biased pair


def test_nu_zero_is_uniform():
    np.testing.assert_allclose(nu_b_table(0, 0.2).probs, 0.25, atol=1e-15)


def test_nu_plus_one_cells():
    np.testing.assert_allclose(nu_b_table(1, 0.1).probs,
                               [0.35, 0.15, 0.15, 0.35], atol=1e-15)
    np.testing.assert_allclose(nu_b_table(-1, 0.1).probs,
                               [0.15, 0.35, 0.35, 0.15], atol=1e-15)


def test_nu_marginals_exactly_half():
    for b in (-1, 0, 1):
        np.testing.assert_array_equal(nu_b_table(b, 0.2).marginals(), [0.5, 0.5])


def test_pair_bias_validation():
    with pytest.raises(DomainError):
        nu_b_table(2, 0.1)
    with pytest.raises(DomainError):
        nu_b_table(1, MAX_PAIR_DELTA)
    with pytest.raises(DomainError):
        nu_b_table(1, -0.01)


# ----------------------------------------------------------------------
# paired instances


def test_instance_table_and_delta():
    inst = AdversarialInstance(4, 0.2, (1, -1))
    assert inst.delta == pytest.approx(0.1)
    assert inst.n_pairs == 2
    expect = np.kron(nu_b_table(1, 0.1).probs, nu_b_table(-1, 0.1).probs)
    np.testing.assert_allclose(inst.table().probs, expect, atol=1e-15)


def test_instance_odd_dimension_appends_uniform_bit():
    inst = AdversarialInstance(3, 0.1, (1,))
    probs = inst.table().probs
    delta = 0.1 / math.sqrt(3)
    expect = np.kron(nu_b_table(1, delta).probs, [0.5, 0.5])
    np.testing.assert_allclose(probs, expect, atol=1e-15)
    np.testing.assert_allclose(inst.table().marginals(), 0.5, atol=1e-15)


def test_instance_marginals_all_half():
    inst = AdversarialInstance(6, 0.3, (1, -1, 1))
    np.testing.assert_allclose(inst.table().marginals(), 0.5, atol=1e-15)


def test_instance_validation():
    with pytest.raises(DomainError):
        AdversarialInstance(4, 0.2, (1,))
    with pytest.raises(DomainError):
        AdversarialInstance(4, 0.2, (1, 0))
    with pytest.raises(DomainError):
        AdversarialInstance(2, 0.5, (1,))  # delta = 0.5/sqrt(2) >= 1/4


def test_instance_json_round_trip():
    inst = AdversarialInstance(8, 0.3, (1, -1, -1, 1))
    again = AdversarialInstance.from_dict(json.loads(json.dumps(dataclasses.asdict(inst))))
    assert again == inst


def test_sample_paired_instance(rng):
    inst = sample_paired_instance(8, 0.4, rng)
    assert inst.n == 8 and len(inst.biases) == 4
    assert all(b in (-1, 1) for b in inst.biases)


def test_draw_unconditional_law(rng):
    inst = AdversarialInstance(4, 0.2, (1, -1))
    counts = np.zeros(16)
    for _ in range(20000):
        x = inst.draw_unconditional(rng)
        counts[int("".join(map(str, x)), 2)] += 1
    emp = counts / counts.sum()
    assert np.abs(emp - inst.table().probs).max() < 0.02


def test_top_uniform_pair_draw_stays_on_bits():
    """Sign -1 at delta = 0.1 / sqrt(11): the pair cdf ends at 1 - 1.1e-16,
    so an unscaled top uniform searched one past the last pair cell."""
    inst = AdversarialInstance(11, 0.1, (-1,) * 5)
    assert np.cumsum(inst.pair_table(0).probs)[-1] < 1.0
    assert inst.draw_unconditional(ConstantUniforms(TOP_UNIFORM)) == (1,) * 10 + (0,)


# ----------------------------------------------------------------------
# pair-conditional simulation


def test_pair_simulation_trivial_queries():
    assert simulate_pair_conditional(SubcubeQuery.from_pattern("**"), (1, 0)) == (1, 0)
    assert simulate_pair_conditional(SubcubeQuery.from_pattern("01"), (1, 1)) == (0, 1)
    # x = 11 has even parity, so conditioning on first bit 0 lands on 00
    assert simulate_pair_conditional(SubcubeQuery.from_pattern("0*"), (1, 1)) == (0, 0)
    assert simulate_pair_conditional(SubcubeQuery.from_pattern("0*"), (1, 0)) == (0, 1)


def test_pair_simulation_pushforward_is_exact():
    """For every query shape and every bias sign, the deterministic map
    applied to a nu_b sample has exactly the conditional law."""
    for pattern in PAIR_PATTERNS:
        q = SubcubeQuery.from_pattern(pattern)
        for b in (-1, 0, 1):
            table = nu_b_table(b, 0.1)
            mass = {}
            for cell in range(4):
                x = (cell >> 1, cell & 1)
                out = simulate_pair_conditional(q, x)
                mass[out] = mass.get(out, 0.0) + table.probs[cell]
            in_cube = [cell for cell in range(4)
                       if q.contains((cell >> 1, cell & 1))]
            total = sum(table.probs[c] for c in in_cube)
            for cell in range(4):
                x = (cell >> 1, cell & 1)
                want = table.probs[cell] / total if q.contains(x) else 0.0
                assert mass.get(x, 0.0) == pytest.approx(want, abs=1e-12), \
                    (pattern, b, x)


def test_pair_simulation_rejects_wrong_width():
    with pytest.raises(DomainError):
        simulate_pair_conditional(SubcubeQuery.from_pattern("0**"), (0, 1))


def test_subcube_query_via_unconditional_law(rng):
    inst = AdversarialInstance(4, 0.2, (1, -1))
    q = SubcubeQuery.from_pattern("0**1")
    table = inst.table()
    idx = np.arange(16)
    member = np.array([q.contains(tuple((i >> s) & 1 for s in (3, 2, 1, 0)))
                       for i in idx])
    cond = np.where(member, table.probs, 0.0)
    cond /= cond.sum()
    counts = np.zeros(16)
    for _ in range(20000):
        out = subcube_query_via_unconditional(q, inst, rng)
        assert q.contains(out)
        counts[int("".join(map(str, out)), 2)] += 1
    emp = counts / counts.sum()
    assert np.abs(emp - cond).max() < 0.02


def test_subcube_query_via_unconditional_odd_n(rng):
    inst = AdversarialInstance(3, 0.1, (1,))
    out = subcube_query_via_unconditional(SubcubeQuery.from_pattern("*11"),
                                          inst, rng)
    assert out[1:] == (1, 1)
    with pytest.raises(DomainError):
        subcube_query_via_unconditional(SubcubeQuery.from_pattern("**"),
                                        inst, rng)
    # a free trailing coordinate is answered with the sample's own last bit
    last_bits = set()
    for seed in range(20):
        x = inst.draw_unconditional(np.random.default_rng(seed))
        out = subcube_query_via_unconditional(SubcubeQuery.from_pattern("10*"), inst,
                                              np.random.default_rng(seed))
        assert out == (1, 0, x[2])
        last_bits.add(x[2])
    assert last_bits == {0, 1}


# ----------------------------------------------------------------------
# the pairwise XOR change of variables


def test_xor_sends_biased_pair_to_product():
    # parity bit becomes the first coordinate: Ber(1/2 - 2*b*delta) x Ber(1/2)
    got = xor_transform(nu_b_table(1, 0.1))
    np.testing.assert_allclose(
        got.probs, DistributionTable.bernoulli_product([0.3, 0.5]).probs,
        atol=1e-15)
    got = xor_transform(nu_b_table(-1, 0.1))
    np.testing.assert_allclose(
        got.probs, DistributionTable.bernoulli_product([0.7, 0.5]).probs,
        atol=1e-15)


def test_xor_fixes_uniform():
    for n in (2, 4, 6):
        u = DistributionTable.uniform(n)
        np.testing.assert_allclose(xor_transform(u).probs, u.probs, atol=1e-15)


def test_xor_is_involution(rng):
    from conftest import random_table
    for n in (2, 4, 6):
        t = random_table(rng, n, zeros=True)
        np.testing.assert_allclose(xor_transform(xor_transform(t)).probs,
                                   t.probs, atol=1e-12)


def test_xor_requires_even_dimension():
    with pytest.raises(DomainError):
        xor_transform(DistributionTable.uniform(3))


def test_xor_odd_coordinates_carry_the_pair_biases():
    inst = AdversarialInstance(6, 0.3, (1, -1, 1))
    delta = inst.delta
    got = xor_transform(inst.table()).marginals()[0::2]
    expect = np.array([0.5 - 2 * b * delta for b in inst.biases])
    np.testing.assert_allclose(got, expect, atol=1e-12)


# ----------------------------------------------------------------------
# uniformity hard instances


def test_uniformity_instance_eps_zero_is_uniform(rng):
    t = uniformity_lb_instance(4, 0.0, rng)
    np.testing.assert_allclose(t.probs, DistributionTable.uniform(4).probs,
                               atol=1e-15)


def test_uniformity_instance_single_bit(rng):
    t = uniformity_lb_instance(1, 0.3, rng)
    p = t.marginals()[0]
    assert p == pytest.approx(0.5 + 0.3) or p == pytest.approx(0.5 - 0.3)


def test_uniformity_instance_large_n_is_implicit(rng):
    s = uniformity_lb_instance(30, 0.5, rng)
    assert isinstance(s, ProductSampler)
    draws = s.draw(rng, 4000)
    assert draws.shape == (4000, 30)
    emp = draws.mean(axis=0)
    expect = np.asarray(s.ps)
    assert np.abs(emp - expect).max() < 0.05


def test_uniformity_instance_bias_guard(rng):
    with pytest.raises(DomainError):
        uniformity_lb_instance(1, 0.5, rng)


# ----------------------------------------------------------------------
# distance to product distributions


def test_grid_distance_zero_for_products():
    prod = DistributionTable.bernoulli_product([0.3, 0.7])
    res = distance_to_grid_products(prod, step=0.01)
    assert res.distance == pytest.approx(0.0, abs=1e-12)
    assert res.method == "exact-grid"
    assert res.marginals == pytest.approx((0.3, 0.7))


def test_grid_distance_correlated_pair():
    """Perfectly correlated bits against a direct two-marginal sweep."""
    tab = DistributionTable(2, [0.5, 0.0, 0.0, 0.5])
    grid = np.round(np.arange(0.0, 1.0001, 0.01), 12)
    best = min(
        0.5 * np.abs(tab.probs - np.kron([1 - a, a], [1 - b, b])).sum()
        for a in grid for b in grid)
    res = distance_to_grid_products(tab, step=0.01)
    assert res.distance == pytest.approx(best, abs=1e-12)
    assert res.distance > 0.25


def test_grid_distance_refuses_large_n():
    with pytest.raises(DomainError):
        distance_to_grid_products(DistributionTable.uniform(5))


def test_grid_distance_matches_brute_force_on_pair(rng):
    """Cross-check the search against a direct loop at n = 2."""
    from conftest import random_table
    tab = random_table(rng, 2)
    grid = np.round(np.arange(0.0, 1.0001, 0.05), 12)
    best = min(
        0.5 * np.abs(tab.probs
                     - np.kron([1 - a, a], [1 - b, b])).sum()
        for a in grid for b in grid)
    res = distance_to_grid_products(tab, step=0.05)
    assert res.distance == pytest.approx(best, abs=1e-12)


def _reference_corpus():
    """Seeded tables for the exact-search cross-check: Dirichlet tables,
    tables with zero cells, point masses and products at n = 1..4."""
    from conftest import random_table
    rng = np.random.default_rng(20261018)
    for n in range(1, 5):
        for _ in range(2):
            yield DistributionTable(n, rng.dirichlet(np.ones(1 << n)))
            yield random_table(rng, n, zeros=True)
        yield DistributionTable.point_mass(tuple(int(b) for b in rng.integers(0, 2, n)))
        yield DistributionTable.bernoulli_product(rng.random(n))
        yield DistributionTable.bernoulli_product(np.round(rng.random(n), 1))


@pytest.mark.parametrize("step", [0.05, 0.1, 0.25])
def test_grid_distance_matches_reference_corpus(step):
    """The weighted-median search returns the brute force's distance and
    marginals exactly, ties broken alike."""
    from conftest import brute_force_grid_distance
    for table in _reference_corpus():
        got = distance_to_grid_products(table, step)
        ref = brute_force_grid_distance(table, step)
        assert got.distance == ref.distance, (table.probs, step)
        assert got.marginals == ref.marginals, (table.probs, step)


def _sparse_corpus():
    """Dirichlet(0.1) tables at n = 3 and 4: a few heavy cells, so many head
    rows survive the bounds and reach the weighted median."""
    rng = np.random.default_rng(20261019)
    for n in (3, 4):
        for _ in range(2):
            yield DistributionTable(n, rng.dirichlet(np.full(1 << n, 0.1)))


@pytest.mark.parametrize("step", [0.02, 1 / 3])
def test_grid_distance_matches_reference_at_benchmark_steps(step):
    """The reference corpus and the sparse tables at the benchmark's step and
    at a step of three intervals.  At step 0.02 the corpus keeps n <= 3,
    since the brute force takes about a second per table at n = 4; the
    sparse tables and the paired tables cover n = 4 there."""
    from conftest import brute_force_grid_distance
    corpus = _reference_corpus()
    if step == 0.02:
        corpus = (table for table in corpus if table.n <= 3)
    for table in itertools.chain(corpus, _sparse_corpus()):
        got = distance_to_grid_products(table, step)
        assert got == brute_force_grid_distance(table, step), (table.probs, step)


def _bound_corpus():
    """Seeded Dirichlet(1), Dirichlet(0.1), zero-cell and paired tables at
    n = 2..4."""
    from conftest import random_table
    rng = np.random.default_rng(20261020)
    for n in range(2, 5):
        for _ in range(2):
            yield DistributionTable(n, rng.dirichlet(np.ones(1 << n)))
            yield DistributionTable(n, rng.dirichlet(np.full(1 << n, 0.1)))
            yield random_table(rng, n, zeros=True)
        yield sample_paired_instance(n, 0.3, rng).table()


@pytest.mark.parametrize("step", [0.1, 0.25, 1 / 3])
def test_last_level_bound_never_exceeds_an_extension(step):
    """The bound the last head level computes for a row h x Ber(x_j) from
    its parent h over coordinates 1..n-2 is at most the L1 distance of every
    grid product h x Ber(x_j) x Ber(y), found here by brute force over the
    last marginal y, and at least the parent's own bound."""
    from condtest.adversarial import _child_bounds, _extend
    grid = np.round(np.arange(0.0, 1.0 + step / 2, step), 12)
    single = np.stack([1.0 - grid, grid], axis=1)
    for table in _bound_corpus():
        n = table.n
        parents, flat = np.ones((1, 1)), np.zeros(1, dtype=np.intp)
        for _ in range(n - 2):
            parents, flat = _extend(parents, flat, grid)
        marginal = table.probs.reshape(1 << (n - 2), 2, -1).sum(axis=2)
        bound = _child_bounds(parents, marginal, grid)
        rows = np.einsum("cr,jb->rjcb", parents, single).reshape(parents.shape[1], len(grid), -1)
        products = np.einsum("rjc,yb->rjycb", rows, single).reshape(*rows.shape[:2], len(grid), -1)
        exact = np.abs(table.probs - products).sum(axis=-1)
        assert np.all(bound[:, :, None] <= exact + 1e-12), (table.probs, step)
        parent_bound = np.abs(marginal.sum(axis=1)[:, None] - parents).sum(axis=0)
        assert np.all(bound >= parent_bound[:, None] - 1e-12), (table.probs, step)


@pytest.mark.parametrize("table", [
    DistributionTable(4, np.eye(16)[0] / 2 + np.eye(16)[15] / 2),
    AdversarialInstance(4, 0.4, (1, -1)).table(),
], ids=["two-point", "paired-eps0.4"])
def test_grid_search_memory_stays_bounded(table):
    """Tables on which many head rows survive: the last head level is built
    in blocks, so the traced peak at step 0.01 stays a few MiB (one unblocked
    frontier reaches 220-280 MiB there); the result is the brute force's."""
    import tracemalloc
    tracemalloc.start()
    try:
        distance_to_grid_products(table, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    from conftest import brute_force_grid_distance
    assert distance_to_grid_products(table, 0.05) == brute_force_grid_distance(table, 0.05)


@pytest.mark.parametrize("biases", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_grid_distance_matches_reference_on_paired_tables(biases):
    from conftest import brute_force_grid_distance
    table = AdversarialInstance(4, 0.2, biases).table()
    got = distance_to_grid_products(table, 0.05)
    ref = brute_force_grid_distance(table, 0.05)
    assert got.distance == ref.distance
    assert got.marginals == ref.marginals


def test_grid_distance_tie_goes_to_first_grid_point():
    """0.7 and 0.8 are equally near 0.75.  The search first scores the grid
    product nearest the marginals, (0.8,), to bound itself; the answer is
    still the first minimum in grid order."""
    from conftest import brute_force_grid_distance
    table = DistributionTable.bernoulli_product([0.75])
    got = distance_to_grid_products(table, 0.1)
    assert got == brute_force_grid_distance(table, 0.1)
    assert got.marginals == (0.7,)


@pytest.mark.parametrize("biases", [(1, -1), (-1, -1)])
def test_grid_distance_matches_reference_at_benchmark_step(biases):
    """The paired n = 4 tables at step 0.02, where the bounds skip most head
    rows."""
    from conftest import brute_force_grid_distance
    table = AdversarialInstance(4, 0.2, biases).table()
    assert distance_to_grid_products(table, 0.02) == brute_force_grid_distance(table, 0.02)


@pytest.mark.parametrize("step", [0.0, -0.5, 1.5, math.nan, math.inf, 0.28, 0.3])
def test_grid_step_validated(step):
    with pytest.raises(DomainError):
        distance_to_grid_products(DistributionTable.uniform(2), step)
    with pytest.raises(DomainError):
        pairwise_product_distance_bound(AdversarialInstance(4, 0.2, (1, -1)), step)


@pytest.mark.parametrize("n, step", [(4, 1e-4), (4, 1e-300), (3, 1e-6), (1, 1e-7), (2, 1e-320)])
def test_grid_step_too_fine_is_refused_before_allocating(n, step):
    """A grid whose head frontier or whose points exceed the search's budget
    is refused by a DomainError naming the step, before any array is built
    (at step 1e-4 and n = 4 the head frontier alone would take 3.2 GB)."""
    import tracemalloc
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=f"grid step {step} is too fine"):
            distance_to_grid_products(DistributionTable.uniform(n), step)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16


@pytest.mark.parametrize("step", [0.02, 0.01, 0.005])
def test_grid_steps_within_the_budget_run(step):
    table = DistributionTable.bernoulli_product([0.3, 0.7, 0.5, 0.2])
    got = distance_to_grid_products(table, step)
    assert got.distance == pytest.approx(0.0, abs=1e-12)
    assert got.marginals == pytest.approx((0.3, 0.7, 0.5, 0.2))


def test_pairwise_bound_is_a_true_lower_bound():
    inst = AdversarialInstance(4, 0.2, (1, -1))
    exact = distance_to_grid_products(inst.table(), step=0.01)
    bound = pairwise_product_distance_bound(inst, step=0.01)
    assert bound.method == "pairwise-lower-bound"
    assert bound.distance <= exact.distance + 1e-12
    assert bound.distance > 0.01


def test_pairwise_bound_is_the_per_pair_maximum():
    """One search per sign present gives the bound that one search per pair
    gives, on seeded instances with one sign and with two."""
    g = np.random.default_rng(31)
    instances = [AdversarialInstance(7, 0.3, (1, 1, 1)), AdversarialInstance(6, 0.2, (-1,) * 3)]
    instances += [sample_paired_instance(int(g.integers(4, 13)), 0.4, g) for _ in range(4)]
    assert {len(set(inst.biases)) for inst in instances} == {1, 2}
    for inst in instances:
        per_pair = max(distance_to_grid_products(inst.pair_table(j), 0.02).distance
                       for j in range(inst.n_pairs))
        assert pairwise_product_distance_bound(inst, 0.02) == GridProductDistance(
            per_pair - 0.02, 0.02, "pairwise-lower-bound")


def test_distance_to_own_marginal_product():
    inst = AdversarialInstance(4, 0.2, (1, -1))
    d = distance_to_product_of_marginals(inst.table())
    # product of marginals is uniform; dtv(nu_b, uniform) = 2*delta per pair
    single = tv_distance(nu_b_table(1, 0.1), DistributionTable.uniform(2))
    assert single == pytest.approx(0.2)
    assert d > single - 1e-12
    assert d == pytest.approx(
        tv_distance(inst.table(), DistributionTable.uniform(4)), abs=1e-12)


# ----------------------------------------------------------------------
# the instance memo


def test_instance_distances_are_the_uncached_values():
    """Exact at n <= 4, the pairwise bound above, and the dtv to the own
    marginal product up to MAX_DENSE_N; a repeat call is a memo hit that
    returns the same objects."""
    for inst in (AdversarialInstance(4, 0.2, (1, -1)), AdversarialInstance(7, 0.3, (1, -1, 1))):
        table = inst.table()
        grid, dtv = instance_distances(inst, 0.05)
        expect = (distance_to_grid_products(table, 0.05) if inst.n <= 4
                  else pairwise_product_distance_bound(inst, 0.05))
        assert grid == expect
        assert dtv == distance_to_product_of_marginals(table)
        assert instance_distances(inst, 0.05) == (grid, dtv)
    info = adversarial._instance_memo.cache_info()
    assert (info.hits, info.misses) == (2, 2)


def test_instance_memo_keeps_no_instance_above_the_dense_limit():
    """Above MAX_DENSE_N no table is built, the dtv is NaN, and the memo,
    whose keys would hold n/2 signs each, is left empty."""
    inst = AdversarialInstance(22, 0.2, (1, -1) * 5 + (1,))
    grid, dtv = instance_distances(inst, 0.05)
    assert grid == pairwise_product_distance_bound(inst, 0.05)
    assert math.isnan(dtv)
    assert adversarial._instance_memo.cache_info().currsize == 0


def test_instance_memo_is_capped():
    """More distinct instances than the cap leave at most the cap in the
    memo, the least recently used out first."""
    instances = [AdversarialInstance(2, 0.1 + k * 1e-4, (1,))
                 for k in range(INSTANCE_MEMO_CAP + 8)]
    for inst in instances:
        instance_distances(inst, 0.5)
    info = adversarial._instance_memo.cache_info()
    assert info.currsize == INSTANCE_MEMO_CAP == info.maxsize
    assert info.misses == len(instances)
    instance_distances(instances[-1], 0.5)
    instance_distances(instances[0], 0.5)
    assert adversarial._instance_memo.cache_info().hits == 1
