"""Exact distribution tables, divergences, and the probability-tree form."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from condtest.distcore import (
    DistributionTable,
    DivergenceKind,
    DomainError,
    TupleDomain,
    bits_to_index,
    clamp_distribution,
    index_to_bits,
    kl_divergence,
    node_index,
    product_of_marginals,
    single_bit_divergence,
    slicewise_divergence,
    tv_distance,
)
from conftest import (
    positive_table,
    random_table,
    reference_bit_divergence,
    reference_effective_conditional,
    reference_slicewise_divergence,
)

TV, KL, CHI2 = DivergenceKind.TV, DivergenceKind.KL, DivergenceKind.CHI2


# ----------------------------------------------------------------------
# single-bit divergences


def test_chi2_at_equal_probabilities_is_zero():
    assert single_bit_divergence(CHI2, 0.5, 0.5) == 0.0
    assert single_bit_divergence(CHI2, 0.0, 0.0) == 0.0
    assert single_bit_divergence(CHI2, 1.0, 1.0) == 0.0


def test_chi2_extreme_pair():
    # (0-1)^2 / ((0+1)(2-1)) = 1
    assert single_bit_divergence(CHI2, 0.0, 1.0) == pytest.approx(1.0)


def test_tv_single_bit():
    assert single_bit_divergence(TV, 0.2, 0.7) == pytest.approx(0.5)


def test_kl_single_bit_value():
    expect = 0.5 * math.log2(2.0) + 0.5 * math.log2(2.0 / 3.0)
    got = single_bit_divergence(KL, 0.5, 0.25)
    assert got == pytest.approx(expect)
    assert got == pytest.approx(0.20752, abs=1e-5)


def test_kl_conventions():
    assert single_bit_divergence(KL, 0.0, 0.0) == 0.0
    assert single_bit_divergence(KL, 0.0, 0.3) < math.inf
    assert single_bit_divergence(KL, 0.4, 0.0) == math.inf
    assert single_bit_divergence(KL, 1.0, 0.5) == pytest.approx(1.0)


def test_divergence_rejects_bad_probabilities():
    with pytest.raises(DomainError):
        single_bit_divergence(TV, -0.1, 0.5)
    with pytest.raises(DomainError):
        single_bit_divergence(CHI2, 0.5, 1.5)


@given(st.floats(0, 1), st.floats(0, 1))
@example(1.0, 0.9999999999999999)
def test_chi2_symmetries(p, q):
    a = single_bit_divergence(CHI2, p, q)
    assert a == pytest.approx(single_bit_divergence(CHI2, q, p))
    assert a == pytest.approx(single_bit_divergence(CHI2, 1 - p, 1 - q))
    assert 0.0 <= a <= 1.0


def test_single_bit_divergence_over_arrays(rng):
    """Elementwise over arrays, endpoints included, within 1e-12 relative
    of the one-pair reference and inf at the same entries; a float for
    scalar input; DomainError when any entry is NaN or outside [0, 1]."""
    p = np.concatenate([rng.random(200), [0.0, 0.0, 1.0, 1.0, 0.3, 0.0, 1.0]])
    q = np.concatenate([rng.random(200), [0.0, 1.0, 0.0, 1.0, 0.0, 0.7, 0.4]])
    for kind in (TV, CHI2, KL):
        got = single_bit_divergence(kind, p, q)
        want = np.array([reference_bit_divergence(kind, a, b) for a, b in zip(p, q)])
        assert got.shape == p.shape
        np.testing.assert_array_equal(np.isinf(got), np.isinf(want))
        finite = np.isfinite(want)
        np.testing.assert_allclose(got[finite], want[finite], rtol=1e-12, atol=0.0)
        assert type(single_bit_divergence(kind, 0.25, 0.5)) is float
        assert type(single_bit_divergence(kind, np.float64(0.25), 0.5)) is float
        for bad in (np.nan, -0.1, 1.5):
            worse = p.copy()
            worse[7] = bad
            for args in ((worse, q), (p, worse)):
                with pytest.raises(DomainError):
                    single_bit_divergence(kind, *args)


def test_divergence_monotone_in_separation():
    """d(p,q) <= d(p',q') whenever p' <= p <= q <= q', on a grid."""
    grid = np.linspace(0.0, 1.0, 21)
    for kind in (TV, CHI2, KL):
        for p in grid:
            for q in grid[grid >= p]:
                base = single_bit_divergence(kind, p, q)
                for pp in grid[grid <= p]:
                    for qq in grid[grid >= q]:
                        wider = single_bit_divergence(kind, pp, qq)
                        assert wider >= base - 1e-12


# ----------------------------------------------------------------------
# tables and distances


def test_table_validation():
    with pytest.raises(DomainError):
        DistributionTable(2, [0.5, 0.5, 0.5, 0.5])
    with pytest.raises(DomainError):
        DistributionTable(2, [1.5, -0.5, 0.0, 0.0])
    with pytest.raises(DomainError):
        DistributionTable(0, [1.0])


@pytest.mark.parametrize("build", [
    lambda n: DistributionTable.uniform(n),
    lambda n: DistributionTable.point_mass([0] * n),
    lambda n: DistributionTable.bernoulli_product([0.5] * n),
    lambda n: DistributionTable.from_dict({"n": n, "tree": {"1:": 0.5}}),
], ids=["uniform", "point_mass", "bernoulli_product", "tree_json"])
def test_oversized_n_refused_before_allocating(build, monkeypatch):
    """n = 30 would need 2^30 cells; the dimension check must come first."""
    def refuse(*args, **kwargs):
        raise AssertionError("allocated before checking n")
    for name in ("full", "zeros", "ones", "kron"):
        monkeypatch.setattr(np, name, refuse)
    with pytest.raises(DomainError):
        build(30)


@pytest.mark.parametrize("build", [
    lambda: DistributionTable.uniform(3),
    lambda: DistributionTable(3, np.arange(8.0) / 28.0),
    lambda: DistributionTable.point_mass([1, 0, 1]),
    lambda: DistributionTable.bernoulli_product([0.2, 0.5, 0.9]),
], ids=["uniform", "init", "point_mass", "bernoulli_product"])
def test_table_hands_out_read_only_arrays(build):
    """A table may be shared by every later call (a shorthand source is
    resolved once per process), so nothing it hands out can be written:
    its cells, each level sum, the node array, the effective conditionals
    and the cdf."""
    table = build()
    arrays = [table.probs, *table.level_sums(), table.conditional_nodes(),
              *table.effective_conditional_levels(), table.cdf()]
    assert [a.flags.writeable for a in arrays] == [False] * len(arrays)
    with pytest.raises(ValueError):
        table.level_sums()[1][0] = 0.0


@pytest.mark.parametrize("n", [1, 4, 20])
def test_uniform_table_is_exact(n):
    """``uniform(n)`` holds 2^-n in every cell, summing to 1 exactly, and
    derives what a checked table of the same cells derives."""
    table = DistributionTable.uniform(n)
    assert table.n == n and float(table.probs.sum()) == 1.0
    assert np.all(table.probs == 2.0 ** -n)
    checked = DistributionTable(n, np.full(1 << n, 2.0 ** -n))
    np.testing.assert_array_equal(table.conditional_nodes(), checked.conditional_nodes())


def test_bit_index_round_trip():
    for n in range(1, 7):
        for v in range(1 << n):
            assert bits_to_index(index_to_bits(v, n)) == v


def test_tv_distance_examples():
    p = DistributionTable.point_mass([0, 0])
    q = DistributionTable.point_mass([1, 1])
    assert tv_distance(p, p) == 0.0
    assert tv_distance(p, q) == pytest.approx(1.0)
    assert tv_distance(DistributionTable.uniform(2), p) == pytest.approx(0.75)


def test_kl_divergence_examples():
    u1 = DistributionTable.uniform(1)
    b25 = DistributionTable.bernoulli_product([0.25])
    assert kl_divergence(u1, u1) == 0.0
    assert kl_divergence(u1, b25) == pytest.approx(
        single_bit_divergence(KL, 0.5, 0.25))
    p0 = DistributionTable.point_mass([0])
    p1 = DistributionTable.point_mass([1])
    assert kl_divergence(p1, p0) == math.inf


def test_pinsker(rng):
    for _ in range(50):
        n = int(rng.integers(1, 6))
        t, m = positive_table(rng, n), positive_table(rng, n)
        assert kl_divergence(t, m) >= 2 * tv_distance(t, m) ** 2 - 1e-12


def test_dimension_mismatch():
    with pytest.raises(DomainError):
        tv_distance(DistributionTable.uniform(2), DistributionTable.uniform(3))


# ----------------------------------------------------------------------
# conditional trees


def _tree_file(table):
    """The tree file of ``table``: one "i:prefix" key per live node."""
    nodes = table.conditional_nodes()
    live = np.flatnonzero(~np.isnan(nodes))
    # node v = (1 << (i-1)) + w is "1" followed by w's i-1 bits
    return {"n": table.n, "tree": {f"{v.bit_length()}:{bin(v)[3:]}": p
                                   for v, p in zip((live + 1).tolist(), nodes[live].tolist())}}


def test_tree_round_trip(rng):
    for _ in range(25):
        n = int(rng.integers(1, 7))
        table = random_table(rng, n, zeros=True)
        back = DistributionTable.from_dict(_tree_file(table))
        np.testing.assert_allclose(back.probs, table.probs, atol=1e-12)


def test_tree_json_round_trip(rng):
    table = random_table(rng, 4)
    again = DistributionTable.from_dict(json.loads(json.dumps(_tree_file(table))))
    np.testing.assert_allclose(again.conditional_nodes(), table.conditional_nodes(), atol=1e-12)
    np.testing.assert_allclose(again.probs, table.probs, atol=1e-12)


def test_conditional_bit_prob_uniform():
    nodes = DistributionTable.uniform(3).conditional_nodes()
    for i in range(1, 4):
        for j in range(1 << (i - 1)):
            assert nodes[node_index(i, j)] == 0.5


def test_conditional_bit_prob_point_mass():
    nodes = DistributionTable.point_mass([1, 0, 1]).conditional_nodes()
    assert nodes[node_index(2, 1)] == 0.0
    assert math.isnan(nodes[node_index(2, 0)])


def test_conditional_bit_prob_biased_pair():
    # cells (0.35, 0.15, 0.15, 0.35): Pr[x2=1 | x1=0] = 0.15/0.5 = 0.3,
    # so Pr[00 | first bit 0] = 0.7
    pair = DistributionTable(2, [0.35, 0.15, 0.15, 0.35])
    assert pair.conditional_nodes()[node_index(2, 0)] == pytest.approx(0.3)


def test_tree_form_pinned_exactly(rng):
    """Dead nodes of the effective conditionals equal the cylinder reference
    exactly, and a pinned tree file with a dead branch reads to its table,
    whose conditional nodes are the file's values exactly."""
    tables = [random_table(rng, int(rng.integers(1, 8)), zeros=True) for _ in range(40)]
    for _ in range(40):
        # a dead cylinder at depth k leaves a long in-order sum at depth k - 1
        n = int(rng.integers(2, 8))
        k = int(rng.integers(1, n))
        a = int(rng.integers(1 << k))
        w = random_table(rng, n, zeros=True).probs.copy()
        w[a << (n - k):(a + 1) << (n - k)] = 0.0
        if w.sum() > 0.0:
            tables.append(DistributionTable(n, w / w.sum()))
    tables += [DistributionTable.point_mass(index_to_bits(v, n))
               for n in (1, 3, 7) for v in (0, (1 << n) - 1, (1 << n) // 3)]
    dead_nodes = 0
    for table in tables:
        levels = table.level_sums()
        for i, eff in enumerate(table.effective_conditional_levels(), start=1):
            for j in np.flatnonzero(levels[i - 1] == 0.0).tolist():
                assert eff[j] == reference_effective_conditional(table, i, j), (table.n, i, j)
                dead_nodes += 1
    assert dead_nodes > 100
    # the 01 prefix has no mass, so the tree has no "3:01" key
    text = ('{"n": 3, "tree": {"1:": 0.7, "2:0": 0.0, "2:1": 0.5714285714285715, '
            '"3:00": 0.6666666666666666, "3:10": 0.0, "3:11": 0.37499999999999994}}')
    expected = [0.1, 0.2, 0.0, 0.0, 0.3, 0.0, 0.25, 0.15]
    table = DistributionTable.from_dict(json.loads(text))
    np.testing.assert_allclose(table.probs, expected, rtol=0.0, atol=1e-15)
    assert np.array_equal(table.probs == 0.0, np.array(expected) == 0.0)
    np.testing.assert_array_equal(
        DistributionTable(3, expected).conditional_nodes(),
        [0.7, 0.0, 0.5714285714285715, 0.6666666666666666, np.nan, 0.0, 0.37499999999999994])


def test_table_json_round_trip(rng):
    table = random_table(rng, 5, zeros=True)
    text = json.dumps({"n": table.n, "probs": table.probs.tolist()})
    again = DistributionTable.from_dict(json.loads(text))
    np.testing.assert_array_equal(again.probs, table.probs)
    with pytest.raises(DomainError):
        DistributionTable.from_dict({"n": 2})


# ----------------------------------------------------------------------
# slice-wise divergence


def test_slicewise_zero_on_equal(rng):
    for _ in range(10):
        t = random_table(rng, int(rng.integers(1, 6)), zeros=True)
        assert slicewise_divergence(CHI2, t, t) == pytest.approx(0.0, abs=1e-12)


def test_slicewise_matches_the_prefix_loop(rng):
    """Seeded pairs with zero cells, TV, CHI2 and KL: within 1e-12 relative
    of a loop over every live prefix (``reference_slicewise_divergence``),
    and inf exactly where it is inf.  Half the pairs mix m into t, so KL is
    finite there."""
    kinds_seen = {TV: 0, CHI2: 0, KL: 0}
    infinite = 0
    for k in range(40):
        n = int(rng.integers(1, 8))
        t = random_table(rng, n, zeros=True)
        m = random_table(rng, n, zeros=True)
        if k % 2:
            m = DistributionTable(n, 0.5 * t.probs + 0.5 * m.probs)
        for kind in kinds_seen:
            got = slicewise_divergence(kind, t, m)
            want = reference_slicewise_divergence(kind, t, m)
            if math.isinf(want):
                assert got == math.inf, (k, kind)
                infinite += 1
            else:
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), (k, kind)
                kinds_seen[kind] += 1
    assert min(kinds_seen.values()) >= 20 and infinite >= 5


def test_slicewise_single_slice_reduces_to_single_bit():
    t = DistributionTable.bernoulli_product([0.5])
    m = DistributionTable.bernoulli_product([0.25])
    expect = single_bit_divergence(CHI2, 0.5, 0.25)
    assert expect == pytest.approx(0.0625 / (0.75 * 1.25))
    assert slicewise_divergence(CHI2, t, m) == pytest.approx(expect)


def test_slicewise_kl_matches_chain_rule(rng):
    for _ in range(30):
        n = int(rng.integers(2, 7))
        t, m = positive_table(rng, n), positive_table(rng, n)
        assert slicewise_divergence(KL, t, m) == pytest.approx(
            kl_divergence(t, m), abs=1e-9)


def test_slicewise_kl_infinite_on_support_violation():
    t = DistributionTable.uniform(2)
    m = DistributionTable.point_mass([0, 0])
    assert slicewise_divergence(KL, t, m) == math.inf
    # every prefix of m has mass, but its root conditional 1 against t's 1/2
    # makes the per-node KL inf
    t, m = DistributionTable.uniform(1), DistributionTable.point_mass((1,))
    assert slicewise_divergence(KL, t, m) == math.inf


def test_slicewise_soundness_natural_log(rng):
    """The natural-log denominator variant is the stricter inequality and
    still holds on random pairs (the shipped base-2 form is in the
    acceptance suite)."""
    for _ in range(40):
        n = int(rng.integers(2, 7))
        t, m = random_table(rng, n), random_table(rng, n)
        d = tv_distance(t, m)
        if d < 1e-6:
            continue
        bound = d ** 2 / (24.0 * math.log(2.0 * n / d))
        assert slicewise_divergence(CHI2, t, m) >= bound - 1e-12


# ----------------------------------------------------------------------
# product of marginals and clamping


def test_product_of_marginals_idempotent(rng):
    ps = rng.random(5)
    prod = DistributionTable.bernoulli_product(ps)
    again = product_of_marginals(prod)
    np.testing.assert_allclose(again.probs, prod.probs, atol=1e-12)
    # and a fixed point of itself
    np.testing.assert_allclose(product_of_marginals(again).probs, again.probs,
                               atol=1e-12)


def test_product_of_marginals_of_biased_pair_is_uniform():
    pair = DistributionTable(2, [0.35, 0.15, 0.15, 0.35])
    np.testing.assert_allclose(product_of_marginals(pair).probs, 0.25,
                               atol=1e-12)


def test_product_of_marginals_point_mass():
    p = DistributionTable.point_mass([0, 1])
    np.testing.assert_allclose(product_of_marginals(p).probs, p.probs,
                               atol=1e-12)


def test_clamp_noop_when_interior(rng):
    t = DistributionTable.uniform(3)
    m = DistributionTable.bernoulli_product([0.4, 0.5, 0.6])
    out = clamp_distribution(m, t, 0.2)
    np.testing.assert_allclose(out.probs, m.probs, atol=1e-12)


def test_clamp_point_mass_toward_uniform():
    m = DistributionTable.point_mass([1, 1])
    out = clamp_distribution(m, DistributionTable.uniform(2), 0.1)
    expect = DistributionTable.bernoulli_product([0.9, 0.9])
    np.testing.assert_allclose(out.probs, expect.probs, atol=1e-12)


def test_clamp_distance_bound(rng):
    """With threshold dtv/(2n) the clamped distribution stays within half
    the original distance."""
    checked = 0
    while checked < 50:
        n = int(rng.integers(1, 7))
        t = random_table(rng, n, zeros=True)
        m = random_table(rng, n, zeros=True)
        d = tv_distance(t, m)
        if d < 1e-3 or d / (2 * n) >= 0.5:
            continue
        out = clamp_distribution(m, t, d / (2 * n))
        assert tv_distance(m, out) <= 0.5 * d + 1e-9
        checked += 1


def test_clamp_threshold_validation():
    u = DistributionTable.uniform(2)
    with pytest.raises(DomainError):
        clamp_distribution(u, u, 0.5)
    with pytest.raises(DomainError):
        clamp_distribution(u, u, 0.0)


# ----------------------------------------------------------------------
# tuple domains


def test_tuple_domain_indexing():
    dom = TupleDomain((("a", "b", "c"), (0, 1)))
    assert dom.size() == 6
    assert dom.total_bits == 3
    assert dom.bit_widths == (2, 1)
    # mixed radix, coordinate 1 most significant: the product's order
    assert [dom.element_of(idx) for idx in range(6)] == list(
        itertools.product(*dom.alphabets))


@pytest.mark.parametrize("k, width", [(1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (6, 3), (7, 3),
                                      (8, 3), (9, 4)]
                         + [(1 << j, j) for j in range(1, 17)]
                         + [((1 << j) + 1, j + 1) for j in range(1, 17)])
def test_tuple_domain_bit_widths(k, width):
    """An alphabet of k symbols takes ceil(log2 k) bits, and at least one."""
    assert TupleDomain((tuple(range(k)), ("a",))).bit_widths == (width, 1)


def test_tuple_domain_validation():
    with pytest.raises(DomainError):
        TupleDomain((("a", "a"),))
    with pytest.raises(DomainError):
        TupleDomain(((),))


@settings(max_examples=40)
@given(st.integers(1, 6), st.integers(0, 2 ** 31 - 1))
def test_level_sums_are_consistent(n, seed):
    table = random_table(np.random.default_rng(seed), n, zeros=True)
    levels = table.level_sums()
    assert levels[0][0] == pytest.approx(1.0)
    for k in range(n):
        np.testing.assert_allclose(levels[k],
                                   levels[k + 1][0::2] + levels[k + 1][1::2],
                                   atol=1e-12)
