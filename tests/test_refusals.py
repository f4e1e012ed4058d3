"""Bad input is refused with its own error type (and, from an oracle, its
OracleErrorKind), and an oracle that refuses a query bills nothing."""

import json
import math
from functools import partial
from pathlib import Path

import pytest

from condtest.adversarial import AdversarialInstance, distance_to_grid_products
from condtest.distcore import (
    DistributionTable,
    DomainError,
    TupleDomain,
    bits_to_index,
    index_to_bits,
    single_bit_divergence,
)
from condtest.harness import (
    ExperimentSpec,
    HarnessError,
    load_distribution,
    load_interval_pmf,
    run_experiment,
)
from condtest.oracles import (
    IntervalOracle,
    OracleError,
    OracleErrorKind,
    QueryClass,
    QueryCounter,
    SubcubeQuery,
    TableOracle,
    TupleTableOracle,
)
from condtest.testers import levin_schedule

_RGB = TupleDomain((("r", "g", "b"), (0, 1)))
_SINGLE_BIT = partial(ExperimentSpec, kind="single-bit", p=0.5, q=0.5, eps=0.5)


def _file(name: str) -> str:
    """``name``, made an empty file."""
    Path(name).write_text("")
    return name


def _json_file(name: str, payload: dict) -> str:
    """``name``, made a file holding ``payload`` as JSON."""
    Path(name).write_text(json.dumps(payload))
    return name


def _csv_taken(name: str) -> str:
    """``name``, with a directory where <name>.csv would be written."""
    Path(f"{name}.csv").mkdir()
    return name


def _tuples():
    return TupleTableOracle(_RGB, [1 / 6] * 6, seed=0)


def _table():
    return TableOracle(DistributionTable.uniform(2), seed=0)


# name -> (oracle factory or None, the call on that oracle, error type, OracleErrorKind or None)
REFUSALS = {
    "table-wrong-length": (None, lambda _: DistributionTable(2, [0.5, 0.5]), DomainError, None),
    "bernoulli-above-one": (None, lambda _: DistributionTable.bernoulli_product([0.5, 1.5]),
                            DomainError, None),
    "bernoulli-below-zero": (None, lambda _: DistributionTable.bernoulli_product([-0.1]),
                             DomainError, None),
    "bernoulli-nan": (None, lambda _: DistributionTable.bernoulli_product([math.nan]),
                      DomainError, None),
    "tree-node-above-one": (None, lambda _: DistributionTable.from_dict(
        {"n": 2, "tree": {"1:": 0.5, "2:0": 1.5, "2:1": 0.5}}), DomainError, None),
    "tree-node-below-zero": (None, lambda _: DistributionTable.from_dict(
        {"n": 1, "tree": {"1:": -0.1}}), DomainError, None),
    "tree-json-value": (None, lambda _: DistributionTable.from_dict(json.loads(
        '{"n": 2, "tree": {"1:": 0.5, "2:0": 1.5, "2:1": 0.5}}')), DomainError, None),
    "table-probs-and-tree": (None, lambda _: DistributionTable.from_dict(
        {"n": 1, "probs": [0.5, 0.5], "tree": {"1:": 0.9}}), DomainError, None),
    "distribution-file-probs-and-tree": (None, lambda _: load_distribution(_json_file(
        "two.json", {"n": 1, "probs": [0.5, 0.5], "tree": {"1:": 0.9}})), HarnessError, None),
    "distribution-file-biases-and-probs": (None, lambda _: load_distribution(_json_file(
        "two.json", {"n": 2, "eps": 0.2, "biases": [1], "probs": [0.25] * 4})),
        HarnessError, None),
    "conditional-bit-prob-slice": (_table, lambda o: o.exact_bit_prob(3, 0),
                                   OracleError, OracleErrorKind.MALFORMED_QUERY),
    "conditional-bit-prob-prefix": (_table, lambda o: o.exact_bit_prob(2, 2),
                                    OracleError, OracleErrorKind.MALFORMED_QUERY),
    "bits-to-index-non-bit": (None, lambda _: bits_to_index((0, 2)), DomainError, None),
    "index-to-bits-above": (None, lambda _: index_to_bits(4, 2), DomainError, None),
    "index-to-bits-negative": (None, lambda _: index_to_bits(-1, 2), DomainError, None),
    "interval-oracle-empty": (None, lambda _: IntervalOracle([]), DomainError, None),
    "tuple-oracle-wrong-length": (None, lambda _: TupleTableOracle(_RGB, [0.5, 0.5]),
                                  DomainError, None),
    "tuple-subcube-arity": (_tuples, lambda o: o.subcube_sample([None]),
                            OracleError, OracleErrorKind.DIMENSION_MISMATCH),
    "binary-subcube-wrong-n": (_table, lambda o: o.subcube_sample(SubcubeQuery.from_pattern("***")),
                               OracleError, OracleErrorKind.DIMENSION_MISMATCH),
    "subcube-contains-wrong-length": (
        None, lambda _: SubcubeQuery.from_pattern("0*").contains((0,)),
        OracleError, OracleErrorKind.MALFORMED_QUERY),
    "levin-schedule-eps-zero": (None, lambda _: levin_schedule(0.0), ValueError, None),
    "levin-schedule-eps-one": (None, lambda _: levin_schedule(1.0), ValueError, None),
    "levin-schedule-eps-nan": (None, lambda _: levin_schedule(math.nan), ValueError, None),
    # Below MIN_EPS_L = 2^-33, the run budget.
    "levin-schedule-eps-budget": (None, lambda _: levin_schedule(2.0 ** -50), ValueError, None),
    "tuple-domain-empty": (None, lambda _: TupleDomain(()), DomainError, None),
    "adversarial-n1": (None, lambda _: AdversarialInstance(1, 0.2, ()), DomainError, None),
    "adversarial-table-n22": (None, lambda _: AdversarialInstance(22, 0.1, (1,) * 11).table(),
                              DomainError, None),
    # 10,001 grid points: the head frontier at n = 4 would hold 4e8 cells.
    "grid-step-too-fine": (None, lambda _: distance_to_grid_products(
        DistributionTable.uniform(4), 1e-4), DomainError, None),
    "grid-step-1e-300": (None, lambda _: distance_to_grid_products(
        DistributionTable.uniform(4), 1e-300), DomainError, None),
    # 1 / step overflows to inf.
    "grid-step-subnormal": (None, lambda _: distance_to_grid_products(
        DistributionTable.uniform(2), 1e-320), DomainError, None),
    "interval-pmf-source": (None, lambda _: load_interval_pmf("missing.json", 4),
                            HarnessError, None),
    "spec-single-bit-foreign-fields": (None, lambda _: run_experiment(ExperimentSpec(
        kind="single-bit", p=0.5, q=0.5, eps=0.5, runs=1, n=7, N=9, tau="uniform")),
        HarnessError, None),
    "spec-inequality-grid-runs": (None, lambda _: run_experiment(ExperimentSpec(
        kind="inequality-grid", runs=5)), HarnessError, None),
    "spec-equivalence-grid-step": (None, lambda _: run_experiment(ExperimentSpec(
        kind="equivalence", n=2, eps=0.5, tau="uniform", mu="uniform", grid_step=0.1)),
        HarnessError, None),
    "spec-id-slash": (None, lambda _: run_experiment(_SINGLE_BIT(experiment_id="a/b")),
                      HarnessError, None),
    "spec-id-empty": (None, lambda _: run_experiment(_SINGLE_BIT(experiment_id="")),
                      HarnessError, None),
    "out-names-a-file": (None, lambda _: run_experiment(_SINGLE_BIT(out=_file("taken"))),
                         HarnessError, None),
    "out-empty": (None, lambda _: run_experiment(_SINGLE_BIT(out="")), HarnessError, None),
    "out-csv-is-a-directory": (None, lambda _: run_experiment(_SINGLE_BIT(
        out=".", experiment_id=_csv_taken("taken"))), HarnessError, None),
    "counter-add-negative": (None, lambda _: QueryCounter().add(QueryClass.PREFIX, -1),
                             ValueError, None),
    "divergence-unknown-kind": (None, lambda _: single_bit_divergence("x", 0.5, 0.5),
                                DomainError, None),
}


@pytest.mark.parametrize("name", list(REFUSALS))
def test_bad_input_is_refused(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # "missing.json" names no file; files made here go here
    make, call, error, kind = REFUSALS[name]
    oracle = make() if make is not None else None
    with pytest.raises(error) as refused:
        call(oracle)
    assert refused.type is error
    if kind is not None:
        assert refused.value.kind is kind
    if oracle is not None:
        assert sum(oracle.counter.counts.values()) == 0
