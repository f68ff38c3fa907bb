"""Fast distributional Shapley data valuation.

Closed-form and sampled estimators of distributional Shapley values for
linear regression, binary classification (via the IRLS working-response
transform) and kernel density estimation, validated against an exact
subset-enumeration oracle and a slow Monte-Carlo baseline.
"""

from .baseline import (
    AccuracyUtility,
    DensityUtility,
    ExactShapleyResult,
    RegressionUtility,
    dshapley_mc_baseline,
    evaluate_utility,
    exact_data_shapley,
)
from .classification import (
    BinaryPointQuery,
    IRLSState,
    dshapley_binary_bounds,
    estimate_weighted_second_moment,
    irls_fit,
    transform_query,
)
from .datasets import Dataset, gen_gaussian_c, gen_gaussian_r, gen_mixture_c, load_csv
from .density import (
    DensityValueRequest,
    KernelSpec,
    SynergyScanResult,
    coeff_A,
    coeff_B,
    dshapley_density,
    kde_evaluate,
    select_bandwidth,
    synergy_scan,
    uniform_closed_form,
)
from .errors import (
    BandwidthSelectionError,
    BaselineFailureError,
    CsvParseError,
    DistShapError,
    EnumerationSizeError,
    InsufficientDataError,
    InvalidParameterError,
    NotConvergedError,
    RankDeficiencyError,
    SaturationError,
    SingularMatrixError,
    UtilityEvaluationError,
)
from .estimates import BoundsResult, MCControls, ValueEstimate
from .experiments import (
    DEFAULT_BANDWIDTH_GRID,
    ExperimentConfig,
    PointAdditionCurve,
    PointAdditionResult,
    run_point_addition,
    run_time_bench,
    value_points,
)
from .numerics import (
    RandomStream,
    SpdMatrix,
    estimate_second_moment,
    inv_logit,
    mahalanobis_sq,
    spd_inverse,
)
from .output import ResultTable, read_results, write_results
from .regression import (
    PointQuery,
    RegressionEnvironment,
    analytic_utility_constant,
    dshapley_regression_bounds,
    dshapley_regression_exact,
    dshapley_regression_general_mc,
    dshapley_regression_quadrature,
    fit_background,
    make_gaussian_sampler,
    normalization_shift,
)

__version__ = "0.1.0"
