"""Basket-trial design with partition-based local information borrowing.

The library scores every partition of the trial's baskets by its posterior
probability, restricts information sharing to the blocks of the top
partition, and scales the borrowed counts by that partition's posterior
weight. On top of that engine sit a two-stage go/no-go monitor, a Monte-Carlo
operating-characteristics simulator, a boundary calibrator, and an exact
Simon two-stage baseline.
"""

__version__ = "0.1.0"

from .calibration import (
    DEFAULT_GAMMA_GRID,
    DEFAULT_LAMBDA_GRID,
    CalibrationProblem,
    CalibrationResult,
    FrontierPoint,
    calibrate,
    calibrated_spec,
)
from .design import (
    Boundary,
    Decision,
    DesignSpec,
    TrialState,
    final_step,
    interim_step,
    run_single_stage,
    run_two_stage,
    stopping_boundary,
)
from .errors import (
    CapacityError,
    ConfigError,
    ConvergenceError,
    DomainError,
    InfeasibleCalibrationError,
    LocalMemError,
    ShapeError,
)
from .numerics import (
    binom_pmf,
    binom_sf,
    binomial_draws,
    log_beta,
    log_gamma,
    log_sum_exp,
    reg_inc_beta,
)
from .partitions import (
    MAX_BASKETS,
    bell_number,
    enumerate_partitions,
    membership_strings,
    partition_prior,
)
from .posterior import (
    DEFAULT_PRIOR,
    JEFFREYS_PRIOR,
    AnalysisResult,
    BasketData,
    BatchPosterior,
    BetaParams,
    PartitionPosterior,
    analyze,
    default_basket_ids,
)
from .simon import (
    SimonDesign,
    SimonSearchResult,
    expected_size,
    reject_probability,
    simon_decide,
    simon_oc,
    simon_search,
)
from .simulation import (
    OperatingCharacteristics,
    Scenario,
    scenario_suite,
    simulate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
