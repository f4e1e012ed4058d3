"""condtest: conditional-sampling oracles and sublinear distribution testers.

Exact dense distributions with divergence computations (``distcore``),
metered conditional-sampling oracle models (``oracles``), the randomized
equivalence/product/interval testers (``testers``), adversarial instance
families (``adversarial``), and a CLI experiment harness (``harness``,
``cli``).
"""

from .distcore import (
    DistributionTable,
    DivergenceKind,
    DomainError,
    TupleDomain,
    clamp_distribution,
    kl_divergence,
    product_of_marginals,
    single_bit_divergence,
    slicewise_divergence,
    tv_distance,
)
from .oracles import (
    BinaryEncodedOracle,
    IntervalOracle,
    OracleError,
    PrefixQuery,
    QueryClass,
    SubcubeQuery,
    TableOracle,
    TupleTableOracle,
    prefix_to_interval,
)
from .testers import (
    BitSampler,
    Verdict,
    equivalence_test,
    equivalence_test_general,
    interval_equivalence_test,
    product_test,
    product_test_general,
    single_bit_chi2_test,
)
from .adversarial import (
    AdversarialInstance,
    distance_to_grid_products,
    nu_b_table,
    sample_paired_instance,
    simulate_pair_conditional,
    uniformity_lb_instance,
    xor_transform,
)
from .harness import ExperimentSpec, emit_plot_data, run_experiment

__version__ = "0.1.0"
