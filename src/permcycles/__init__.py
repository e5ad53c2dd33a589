"""Random permutations with cycle weights: exact sampling, scaled cycle
point processes, and verification of their limiting laws."""

from .weights import (
    WeightSequence,
    NormalizationTable,
    norm_constants,
    parse_weights,
    tail_intensity_mass,
    WeightSpecError,
    DegenerateModelError,
)
from .rng import RngStream
from .sampler import (
    Permutation,
    PermutationSampler,
    cycle_length_distribution,
)
from .point_process import (
    BoxSpec,
    BoxUnion,
    parse_boxes,
    intensity,
    avoidance_limit,
    point_measure,
    count_in,
    simulate_limit_process,
    BoxSpecError,
)
from .cycle_stats import (
    CycleStatistics,
    FixedPointSummary,
    sum_of_k_cycles,
    cycle_ranges,
    fixed_point_summary,
)
from .limit_laws import (
    poisson_count_pmf,
    laplace_k_cycle_sum,
    cdf_fixed_point_sum,
    sample_limit_spacings,
    limit_cdf,
    law_atoms,
)
from .oracle import (
    enumerate_h,
    exact_statistic_distribution,
    exact_cycle_probability,
    ExactDistribution,
    CycleProbability,
    EnumerationLimitError,
    InvalidCycleError,
)
from .gof import (
    empirical_cdf,
    ks_distance,
    ks_two_sample,
    tv_distance,
    chi_square_gof,
    ChiSquareResult,
    dkw_epsilon,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    run_experiment,
)

__version__ = "0.1.0"
