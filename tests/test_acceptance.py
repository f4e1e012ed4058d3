"""Acceptance gate: one test per release criterion, each printing a single
pass/fail line.  Statistical 2/3 contracts are judged at one-sided 99%
confidence (observed successes must beat the 1st percentile of
Binomial(runs, 2/3)), so a healthy build fails any one of them with
probability at most 1%."""

import math
import time

import numpy as np
import pytest
from scipy.stats import binom

from condtest.adversarial import (
    AdversarialInstance,
    distance_to_grid_products,
    distance_to_product_of_marginals,
    nu_b_table,
    simulate_pair_conditional,
    xor_transform,
)
from condtest.distcore import (
    DistributionTable,
    DivergenceKind,
    index_to_bits,
    kl_divergence,
    product_of_marginals,
    single_bit_divergence,
    slicewise_divergence,
    tv_distance,
)
from condtest.oracles import (
    IntervalOracle,
    QueryClass,
    SubcubeQuery,
    TableOracle,
    prefix_to_interval,
)
from condtest.testers import (
    BitSampler,
    equivalence_test,
    expected_equivalence_queries,
    interval_equivalence_test,
    product_test,
    single_bit_chi2_test,
)
from conftest import random_table


def _contract_threshold(runs: int) -> int:
    """Smallest success count not ruled out at 99% one-sided confidence for a
    true success rate of 2/3."""
    return int(binom.ppf(0.01, runs, 2 / 3))


def _report(capsys, number: int, name: str, check):
    try:
        check()
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number:2d} ({name}): FAIL")
        raise
    with capsys.disabled():
        print(f"criterion {number:2d} ({name}): PASS")


def _seeded_pairs():
    """The 100 random table pairs shared by criteria 1 and 2."""
    gen = np.random.default_rng(74120911)
    pairs = []
    for k in range(100):
        n = 2 + k % 5
        pairs.append((n, random_table(gen, n, zeros=True),
                      random_table(gen, n, zeros=True)))
    return pairs


def test_criterion_01_chain_rule_exactness(capsys):
    def check():
        start = time.perf_counter()
        for n, t, m in _seeded_pairs():
            assert slicewise_divergence(DivergenceKind.KL, t, m) == \
                pytest.approx(kl_divergence(t, m), abs=1e-9, nan_ok=False)
        assert time.perf_counter() - start < 5.0
    _report(capsys, 1, "chain rule for slice-wise KL", check)


def test_criterion_02_soundness_inequality(capsys):
    def check():
        for n, t, m in _seeded_pairs():
            d = tv_distance(t, m)
            if d == 0.0:
                continue
            bound = d ** 2 / (24.0 * math.log2(2.0 * n / d))
            assert slicewise_divergence(DivergenceKind.CHI2, t, m) >= bound
    _report(capsys, 2, "slice-wise chi-square soundness", check)


def test_criterion_03_chi_square_kl_grid(capsys):
    def check():
        start = time.perf_counter()
        for pi in range(101):
            p = pi / 100.0
            for qi in range(1, 100):
                q = qi / 100.0
                chi2 = single_bit_divergence(DivergenceKind.CHI2, p, q)
                kl = single_bit_divergence(DivergenceKind.KL, p, q)
                bound = kl / (12.0 * math.log2(max(1.0 / q, 1.0 / (1.0 - q))))
                assert chi2 >= bound - 1e-12, (p, q)
        assert time.perf_counter() - start < 1.0
    _report(capsys, 3, "chi-square vs KL grid", check)


def test_criterion_04_single_bit_contract(capsys):
    def check():
        start = time.perf_counter()
        assert single_bit_divergence(DivergenceKind.CHI2, 0.2, 0.8) == \
            pytest.approx(0.36)
        rng = np.random.default_rng(52)
        runs = 300
        accepts = sum(
            single_bit_chi2_test(BitSampler.from_probability(0.5, rng),
                                 BitSampler.from_probability(0.5, rng),
                                 0.1).accepted
            for _ in range(runs))
        rejects = sum(
            not single_bit_chi2_test(BitSampler.from_probability(0.2, rng),
                                     BitSampler.from_probability(0.8, rng),
                                     0.18).accepted
            for _ in range(runs))
        threshold = _contract_threshold(runs)
        assert accepts >= threshold, (accepts, threshold)
        assert rejects >= threshold, (rejects, threshold)
        assert time.perf_counter() - start < 30.0
    _report(capsys, 4, "single-bit tester 2/3 contract", check)


def test_criterion_05_equivalence_contract(capsys):
    def check():
        start = time.perf_counter()
        runs = 60
        uniform = DistributionTable.uniform(8)
        point = DistributionTable.point_mass([1] * 8)
        accepts = rejects = 0
        for r in range(runs):
            v = equivalence_test(TableOracle(uniform, seed=1000 + r),
                                 TableOracle(uniform, seed=2000 + r),
                                 0.3, seed=3000 + r)
            accepts += v.accepted
            v = equivalence_test(TableOracle(uniform, seed=4000 + r),
                                 TableOracle(point, seed=5000 + r),
                                 0.3, seed=6000 + r)
            rejects += not v.accepted
        threshold = _contract_threshold(runs)
        assert accepts >= threshold, (accepts, threshold)
        assert rejects >= threshold, (rejects, threshold)
        assert time.perf_counter() - start < 300.0
    _report(capsys, 5, "equivalence tester 2/3 contract", check)


def test_criterion_06_quasilinear_scaling(capsys):
    def check():
        start = time.perf_counter()

        def medians(n):
            uniform = DistributionTable.uniform(n)
            totals = []
            for r in range(30):
                v = equivalence_test(TableOracle(uniform, seed=100 + r),
                                     TableOracle(uniform, seed=200 + r),
                                     0.3, seed=300 + r)
                totals.append(v.queries_used["total"])
            return float(np.median(totals))

        ratio = medians(16) / medians(8)
        assert ratio <= 3.0, ratio

        # exact schedule reproduction from the meters, one fixed seed
        uniform = DistributionTable.uniform(8)
        v = equivalence_test(TableOracle(uniform, seed=7), TableOracle(uniform, seed=8),
                             0.3, seed=9)
        assert v.accepted
        expect = expected_equivalence_queries(8, 0.3)
        assert v.queries_used["prefix"] == expect["tau"]
        assert v.queries_used["marginal"] == expect["mu"]
        assert v.queries_used["total"] == expect["total"]
        assert time.perf_counter() - start < 600.0
    _report(capsys, 6, "quasi-linear query scaling", check)


def test_criterion_07_interval_reduction(capsys):
    def check():
        # exhaustive preimage identity for the prefix -> interval map
        for ell in range(1, 11):
            v = np.arange(1 << ell)
            for i in range(1, ell + 2):
                for w_val in range(1 << (i - 1)):
                    w = index_to_bits(w_val, i - 1) if i > 1 else ()
                    a, b = prefix_to_interval(ell, i, w)
                    members = v[(v >> (ell - i + 1)) == w_val] + 1
                    assert np.array_equal(members, np.arange(a, b + 1)), (ell, i, w)

        runs = 60
        N = 256
        uniform = np.full(N, 1.0 / N)
        block = np.zeros(N)
        block[:64] = 1.0 / 64
        # derived separation: dtv(uniform, block on [1, 64]) = 0.75 > eps
        assert 0.5 * np.abs(uniform - block).sum() == pytest.approx(0.75)
        accepts = rejects = 0
        for r in range(runs):
            v = interval_equivalence_test(IntervalOracle(uniform, seed=10 + r),
                                          IntervalOracle(uniform, seed=500 + r),
                                          0.3, seed=900 + r)
            accepts += v.accepted
            v = interval_equivalence_test(IntervalOracle(uniform, seed=1300 + r),
                                          IntervalOracle(block, seed=1700 + r),
                                          0.3, seed=2100 + r)
            rejects += not v.accepted
        threshold = _contract_threshold(runs)
        assert accepts >= threshold, (accepts, threshold)
        assert rejects >= threshold, (rejects, threshold)
    _report(capsys, 7, "interval-oracle reduction", check)


def test_criterion_08_product_contract(capsys):
    def check():
        runs = 60
        eps = 0.3
        good = DistributionTable.bernoulli_product([0.8] * 8)
        bad_instance = AdversarialInstance(8, 0.2 * math.sqrt(8),
                                           (1, -1, 1, -1))
        bad = bad_instance.table()
        # derived separation: exactly 0.2-biased pairs are far from the
        # product of their marginals
        far = tv_distance(bad, product_of_marginals(bad))
        assert far > eps, far
        accepts = rejects = 0
        for r in range(runs):
            oracle = TableOracle(good, seed=50 + r)
            v = product_test(oracle, eps, seed=950 + r)
            accepts += v.accepted
            # binary product testing touches the base oracle through prefix
            # queries only
            assert oracle.counter.counts.get(QueryClass.SUBCUBE, 0) == 0
            assert oracle.counter.counts.get(QueryClass.INTERVAL, 0) == 0
            assert oracle.counter.counts.get(QueryClass.UNCONDITIONAL, 0) == 0
            v = product_test(TableOracle(bad, seed=1850 + r),
                             eps, seed=2750 + r)
            rejects += not v.accepted
        threshold = _contract_threshold(runs)
        assert accepts >= threshold, (accepts, threshold)
        assert rejects >= threshold, (rejects, threshold)
    _report(capsys, 8, "product tester 2/3 contract", check)


def test_criterion_09_pair_simulation_exactness(capsys):
    def check():
        start = time.perf_counter()
        patterns = ["**", "0*", "1*", "*0", "*1", "00", "01", "10", "11"]
        for pattern in patterns:
            q = SubcubeQuery.from_pattern(pattern)
            for b in (-1, 0, 1):
                table = nu_b_table(b, 0.1)
                mass = {}
                for cell in range(4):
                    x = (cell >> 1, cell & 1)
                    out = simulate_pair_conditional(q, x)
                    mass[out] = mass.get(out, 0.0) + table.probs[cell]
                total = sum(table.probs[c] for c in range(4)
                            if q.contains((c >> 1, c & 1)))
                for cell in range(4):
                    x = (cell >> 1, cell & 1)
                    want = table.probs[cell] / total if q.contains(x) else 0.0
                    got = mass.get(x, 0.0)
                    assert got == pytest.approx(want, abs=1e-15), (pattern, b, x)
        assert time.perf_counter() - start < 1.0
    _report(capsys, 9, "pair-conditional simulation exactness", check)


def test_criterion_10_xor_reduction_identity(capsys):
    def check():
        # the parity coordinate of the positively biased pair puts mass 0.7
        # on 0, so the image is the (0.7, 0.3) x (0.5, 0.5) product, exactly
        got = xor_transform(nu_b_table(1, 0.1))
        expect = np.kron([0.7, 0.3], [0.5, 0.5])
        np.testing.assert_array_equal(got.probs, expect)
        for n in (2, 4, 6):
            u = DistributionTable.uniform(n)
            np.testing.assert_array_equal(xor_transform(u).probs, u.probs)
    _report(capsys, 10, "pairwise XOR change of variables", check)


def test_criterion_11_adversarial_distance_witness(capsys):
    def check():
        start = time.perf_counter()
        for biases in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
            inst = AdversarialInstance(4, 0.2, biases)  # delta = 0.1
            table = inst.table()
            res = distance_to_grid_products(table, step=0.01)
            assert res.distance >= 0.01, (biases, res.distance)
            assert distance_to_product_of_marginals(table) > 0.0
        assert time.perf_counter() - start < 60.0
    _report(capsys, 11, "paired family far from products", check)
