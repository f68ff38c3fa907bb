"""Ground-truth machinery: exact Shapley enumeration and the slow sampled baseline.

The exact enumerator walks every subset of a small dataset and applies the
combinatorial weights directly; it is the reference the fast estimators are
validated against. The Monte-Carlo baseline samples the size-then-subset
reformulation of the distributional value and stands in for the slow
comparator in the timing experiments. Three utility families are provided:
gated regression risk, held-out classification accuracy, and density
integrated squared error up to a constant.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import comb

import numpy as np

from .classification import irls_fit
from .density import KernelSpec, _mean_self_convolution, _as_points, kde_evaluate
from .errors import (
    BaselineFailureError,
    EnumerationSizeError,
    InvalidParameterError,
    SingularMatrixError,
    UtilityEvaluationError,
)
from .estimates import ValueEstimate
from .numerics import RandomStream, SpdMatrix

__all__ = [
    "UtilitySpec",
    "RegressionUtilityContext",
    "AccuracyUtilityContext",
    "DensityUtilityContext",
    "ExactShapleyResult",
    "evaluate_utility",
    "make_utility",
    "exact_data_shapley",
    "dshapley_mc_baseline",
]

_ENUMERATION_LIMIT = 20
_ACCURACY_MAX_ITER = 25  # IRLS iterations of the accuracy utility's subset fits


@dataclass(frozen=True)
class UtilitySpec:
    """One of the three utility families with its gate and constant.

    The utility is zero below ``gate`` elements (density uses gate 1).
    ``evaluation_mode`` picks between the analytic risk under a known truth
    and the empirical risk on a held-out set.
    """

    family: str
    gate: int = 1
    constant: float = 0.0
    evaluation_mode: str = "heldout"

    def __post_init__(self):
        if self.family not in ("regression_risk", "accuracy", "density_ise"):
            raise InvalidParameterError(f"unknown utility family {self.family!r}")
        if self.gate < 1:
            raise InvalidParameterError("gate must be at least 1")
        if self.evaluation_mode not in ("analytic", "heldout"):
            raise InvalidParameterError("evaluation_mode must be analytic or heldout")


@dataclass
class RegressionUtilityContext:
    """Resources for the regression-risk utility.

    Analytic mode requires the generating coefficients, input second moment
    and noise variance; held-out mode requires a test sample.
    """

    gamma: float = 0.0
    beta_true: np.ndarray | None = None
    sigma_x: SpdMatrix | None = None
    sigma2: float | None = None
    x_test: np.ndarray | None = None
    y_test: np.ndarray | None = None


@dataclass
class AccuracyUtilityContext:
    """Held-out sample for the accuracy utility."""

    x_test: np.ndarray
    y_test: np.ndarray


@dataclass
class DensityUtilityContext:
    """Kernel and evaluation draws for the density utility.

    ``eval_points`` are draws from the data distribution used for the cross
    term of the integrated squared error. The utility leaves out the
    constant ``integral p^2``, so it is defined up to that constant.
    """

    kernel: KernelSpec
    eval_points: np.ndarray


@dataclass
class ExactShapleyResult:
    """Per-point exact Shapley values with the enumeration bookkeeping."""

    values: np.ndarray
    total: float
    subset_evaluations: int


def _check_regression_gate(gate: int, p: int, gamma: float) -> None:
    if gamma == 0.0 and gate <= p:
        raise InvalidParameterError(
            "regression utility at gamma = 0 needs gate > p to keep gated fits full rank")


def _regression_utility(subset, spec: UtilitySpec, ctx: RegressionUtilityContext) -> float:
    x, y = subset
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    size = x.shape[0]
    if size == 0 or size < spec.gate:
        return 0.0
    p = x.shape[1]
    _check_regression_gate(spec.gate, p, ctx.gamma)
    gram = x.T @ x + ctx.gamma * np.eye(p)
    try:
        beta_s = np.linalg.solve(gram, x.T @ y)
    except np.linalg.LinAlgError as exc:
        raise UtilityEvaluationError(f"subset fit is singular: {exc}", subset_size=size) from exc
    if spec.evaluation_mode == "analytic":
        diff = beta_s - ctx.beta_true
        risk = ctx.sigma2 + float(diff @ ctx.sigma_x.values @ diff)
    else:
        resid = ctx.y_test - ctx.x_test @ beta_s
        risk = float(np.mean(resid ** 2))
    return spec.constant - risk


def _accuracy_utility(subset, spec: UtilitySpec, ctx: AccuracyUtilityContext) -> float:
    x, y = subset
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    size = x.shape[0]
    if size == 0 or size < spec.gate:
        return 0.0
    if np.unique(y).size < 2 or size <= x.shape[1]:
        raise UtilityEvaluationError("subset cannot identify a classifier", subset_size=size)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            # the fitted direction is a usable classifier even short of the MLE
            state = irls_fit(x, y, max_iter=_ACCURACY_MAX_ITER)
        except SingularMatrixError as exc:
            raise UtilityEvaluationError(str(exc), subset_size=size) from exc
    predicted = (ctx.x_test @ state.beta >= 0.0).astype(float)
    return float(np.mean(predicted == ctx.y_test))


def _density_utility(subset, spec: UtilitySpec, ctx: DensityUtilityContext) -> float:
    pts = _as_points(subset)
    size = pts.shape[0]
    if size == 0:
        return 0.0
    ise = (float(_mean_self_convolution(ctx.kernel, pts[None])[0])
           - 2.0 * float(np.mean(kde_evaluate(pts, ctx.kernel, ctx.eval_points))))
    return spec.constant - ise


def evaluate_utility(subset, spec: UtilitySpec, context) -> float:
    """Utility of a subset under the given family; the empty set is worth 0."""
    if spec.family == "regression_risk":
        return _regression_utility(subset, spec, context)
    if spec.family == "accuracy":
        return _accuracy_utility(subset, spec, context)
    return _density_utility(subset, spec, context)


def make_utility(spec_or_fn, context=None):
    """Adapt a ``UtilitySpec`` (or a plain callable on subsets) to one callable."""
    if callable(spec_or_fn) and not isinstance(spec_or_fn, UtilitySpec):
        return spec_or_fn
    return lambda subset: evaluate_utility(subset, spec_or_fn, context)


def _take(data, idx):
    if isinstance(data, tuple):
        x, y = data
        return (np.asarray(x)[idx], np.asarray(y)[idx])
    return np.asarray(data)[idx]


def _data_len(data) -> int:
    if isinstance(data, tuple):
        return int(np.asarray(data[0]).shape[0])
    return int(np.asarray(data).shape[0])


def exact_data_shapley(data, utility, context=None) -> ExactShapleyResult:
    """Exact per-point Shapley values of a small dataset by full enumeration.

    ``data`` is an (X, y) pair, an array of points, or any indexable array
    (e.g. indices, for tabulated utilities). Requires at most 20 points
    because every one of the 2^n subsets is evaluated once; use the
    Monte-Carlo baseline beyond that.
    """
    n = _data_len(data)
    if n > _ENUMERATION_LIMIT:
        raise EnumerationSizeError(
            f"{n} points would need 2^{n} utility evaluations; "
            "use dshapley_mc_baseline instead")
    if n == 0:
        raise InvalidParameterError("dataset must be nonempty")
    ufunc = make_utility(utility, context)

    masks = np.arange(1 << n, dtype=np.uint32)
    util = np.empty(1 << n)
    util[0] = 0.0
    all_idx = np.arange(n)
    for mask in range(1, 1 << n):
        members = all_idx[(mask >> all_idx) & 1 == 1]
        util[mask] = ufunc(_take(data, members))

    sizes = np.zeros(masks.size, dtype=np.int64)
    for b in range(n):
        sizes += (masks >> b) & 1
    weights = np.array([1.0 / (n * comb(n - 1, s)) for s in range(n)])
    values = np.empty(n)
    for i in range(n):
        bit = np.uint32(1 << i)
        without = masks[(masks & bit) == 0]
        gains = util[without | bit] - util[without]
        values[i] = float(np.sum(weights[sizes[without]] * gains))
    return ExactShapleyResult(values=values, total=float(util[(1 << n) - 1]),
                              subset_evaluations=int(1 << n))


def _draw_subset(background, size, gen):
    if callable(background):
        return background(size, gen)
    if isinstance(background, tuple):
        x, y = background
        idx = gen.integers(0, np.asarray(x).shape[0], size=size)
        return (np.asarray(x)[idx], np.asarray(y)[idx])
    pool = np.asarray(background)
    idx = gen.integers(0, pool.shape[0], size=size)
    return pool[idx]


def _join(subset, z_star):
    if isinstance(subset, tuple):
        x, y = subset
        xs, ys = z_star
        return (np.vstack([np.asarray(x, float).reshape(-1, np.size(xs)), np.asarray(xs, float)[None, :]]),
                np.append(np.asarray(y, float), ys))
    pts = _as_points(subset) if np.asarray(subset).size else np.empty((0, np.atleast_1d(z_star).size))
    return np.vstack([pts, np.atleast_1d(np.asarray(z_star, float))[None, :]])


def dshapley_mc_baseline(z_star, background, utility, *, m: int, max_draws: int,
                         rng: RandomStream, context=None) -> ValueEstimate:
    """Slow sampled estimate of the distributional value of one datum.

    Each draw picks a subset size uniformly up to ``m``, samples that many
    background points (a pool is resampled with replacement; a callable
    ``background(size, rng)`` draws directly from a distribution) and
    accumulates the marginal contribution of ``z_star``. Draws below the
    utility gate are recorded as exact zeros without evaluating the utility.

    A draw whose utility fails is dropped, not counted, as long as at most
    half of the evaluated draws fail; this biases the mean toward the subset
    sizes where fits succeed. Raises ``BaselineFailureError`` if more
    than half of the evaluated draws fail in the utility.
    """
    if m < 1 or max_draws < 1:
        raise InvalidParameterError("m and max_draws must be at least 1")
    ufunc = make_utility(utility, context)
    gate = utility.gate if isinstance(utility, UtilitySpec) else 1
    gen = rng.generator

    total = 0.0
    total_sq = 0.0
    count = 0
    attempted_evals = 0
    failures = 0
    for _ in range(max_draws):
        j = int(gen.integers(1, m + 1))
        if j < gate:
            count += 1  # both utilities are gated to zero; the draw is exact
            continue
        subset = _draw_subset(background, j - 1, gen)
        attempted_evals += 1
        try:
            u_with = ufunc(_join(subset, z_star))
            u_without = ufunc(subset) if j - 1 >= gate else 0.0
        except UtilityEvaluationError:
            failures += 1
            if attempted_evals >= 20 and failures > attempted_evals / 2:
                raise BaselineFailureError(
                    f"utility failed on {failures} of {attempted_evals} evaluated draws")
            continue
        delta = u_with - u_without
        total += delta
        total_sq += delta * delta
        count += 1
    if attempted_evals > 0 and failures > attempted_evals / 2:
        raise BaselineFailureError(
            f"utility failed on {failures} of {attempted_evals} evaluated draws")
    if count == 0:
        raise BaselineFailureError("no draw produced a usable marginal contribution")
    mean = total / count
    var = max((total_sq - count * mean * mean) / (count - 1), 0.0) if count > 1 else 0.0
    return ValueEstimate(value=float(mean), std_error=float(np.sqrt(var / count)),
                         inner_iters_used=[count], truncated_at_j=None)
