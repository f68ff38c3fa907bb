"""Experiment orchestration: splits, valuation pipelines, point addition, timing.

Everything here is seed-partitioned: each repetition, each sampled valued
point and each benchmark cell draws from its own derived stream, so results
are reproducible regardless of execution order.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import asdict, dataclass, replace
from functools import partial

import numpy as np

from .baseline import (
    AccuracyUtility,
    DensityUtility,
    RegressionUtility,
    _check_regression_gate,
    _take,
    dshapley_mc_baseline,
    prefix_utilities,
)
from .classification import (
    dshapley_binary_bounds,
    estimate_weighted_second_moment,
    irls_fit,
    transform_query,
)
from .datasets import Dataset, gen_gaussian_r, gen_mixture_c
from .density import (
    DensityValueRequest,
    KernelSpec,
    _as_bandwidths,
    dshapley_density,
    kde_evaluate,  # noqa: F401  (bench/tracing.py rebinds experiments.kde_evaluate)
    select_bandwidth,
)
from .errors import InvalidParameterError
from .numerics import RandomStream, check_count, check_nonnegative, spd_inverse
from .regression import (
    PointQuery,
    dshapley_regression_bounds,
    dshapley_regression_exact,  # noqa: F401  (bench/tracing.py rebinds experiments.dshapley_regression_exact)
    dshapley_regression_quadrature,
    fit_background,
)

__all__ = [
    "ExperimentConfig",
    "PointAdditionCurve",
    "PointAdditionResult",
    "value_points",
    "run_point_addition",
    "run_time_bench",
    "DEFAULT_BANDWIDTH_GRID",
]

DEFAULT_BANDWIDTH_GRID = tuple(float(10.0 ** e) for e in
                               (-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0))

_TASKS = ("regression", "classification", "density")
_METHODS = ("fast", "baseline", "bounds")

# auxiliary substream ids, far above any per-point index
_STREAM_EVAL_POINTS = 2**32 + 1
_STREAM_ORDER = 2**32 + 2

# background draws for the cross term of the baseline's density utility
_DENSITY_EVAL_POINTS = 500


@dataclass
class ExperimentConfig:
    """Resolved settings for a valuation experiment."""

    task: str
    method: str = "fast"
    n_value_points: int = 200
    m: int = 1000
    q: int | None = None
    gamma: float = 0.0
    seed: int = 0
    background_size: int = 2000
    heldout_size: int = 1000
    repetitions: int = 50
    bound_side: str = "lower"
    baseline_draws: int = 500
    bandwidth_grid: tuple = DEFAULT_BANDWIDTH_GRID
    threads: int = 1  # echoed in the metadata; the work runs in one thread

    def __post_init__(self):
        if self.task not in _TASKS:
            raise InvalidParameterError(f"unknown task {self.task!r}")
        if self.method not in _METHODS:
            raise InvalidParameterError(f"unknown method {self.method!r}")
        if self.method == "bounds" and self.task == "density":
            raise InvalidParameterError("bounds are available for regression and classification only")
        check_nonnegative(self, ("gamma",))
        if self.bound_side not in ("lower", "upper"):
            raise InvalidParameterError("bound_side must be lower or upper")
        for name, floor in (("n_value_points", 1), ("repetitions", 1), ("heldout_size", 0),
                            ("background_size", 1), ("baseline_draws", 2), ("threads", 1)):
            check_count(getattr(self, name), floor, name)
        check_count(self.m, 1, "valuation horizon m")  # the name every route's own check gives
        if self.q is not None:
            check_count(self.q, 1, "utility gate q")
        _as_bandwidths(self.bandwidth_grid)

    def resolved_q(self, p: int) -> int:
        return self.q if self.q is not None else p + 3

    def metadata(self) -> dict:
        """Every field by name; an unset q is written "auto"."""
        return {**asdict(self), "q": self.q if self.q is not None else "auto"}


@dataclass
class PointAdditionCurve:
    """Held-out utility after each addition, averaged over repetitions.

    ``utilities[k]`` is the mean utility with k points added (index 0 is the
    empty set). Steps below the utility's gate, and steps where no
    repetition could fit a model, are NaN gaps.
    """

    ordering: str
    utilities: np.ndarray
    std_errors: np.ndarray
    repetitions: int


@dataclass
class PointAdditionResult:
    curves: list
    rep0_indices: np.ndarray
    rep0_values: np.ndarray


def _split_indices(n: int, config: ExperimentConfig, gen: np.random.Generator, split=None):
    """``split``'s parts as arrays or, when it is None, a split of ``n`` rows drawn from ``gen``."""
    if split is not None:
        parts = tuple(map(np.asarray, split))
        if len(parts) != 3 or any(part.ndim != 1 for part in parts):
            raise InvalidParameterError("split must be three index arrays (value_idx, held_idx, bg_idx)")
        return parts
    if config.n_value_points > n:
        raise InvalidParameterError(
            f"n_value_points={config.n_value_points} exceeds the dataset size {n}")
    perm = gen.permutation(n)
    value_idx = perm[:config.n_value_points]
    rest = perm[config.n_value_points:]
    held = rest[:min(config.heldout_size, max(rest.size - 1, 0))]
    bg = rest[held.size:][:config.background_size]
    if bg.size == 0:
        raise InvalidParameterError("no samples left for the background after the split")
    return value_idx, held, bg


def _baseline_values(points, pool, utility, rows, config, rng):
    """Sampled-baseline values and standard errors of ``points`` against ``pool``,
    one substream per point, under the utility ``utility(rows)`` builds."""
    util = utility(rows)
    results = [dshapley_mc_baseline(point, pool, util, m=config.m, max_draws=config.baseline_draws,
                                    rng=rng.substream(i))
               for i, point in enumerate(points)]
    return np.array([r.value for r in results]), np.array([r.std_error for r in results])


def _bound_side(bounds, side):
    values = getattr(bounds, side)
    return values, np.zeros(len(values))


# Each family below values the points of one split and returns
# ((values, std_errors), utility): ``utility(held)`` builds the family's
# utility from the split's fit for an evaluation sample: the held-out risk
# gated at q against 2 sigma2, the held-out accuracy gated at q, or the
# density ISE with its cross term taken at the sample.

def _regression_values(dataset, bg_idx, held_idx, config, q, xs, ys, rng):
    bx, by = dataset.x[bg_idx], dataset.y[bg_idx]
    env = fit_background(bx, by, m=config.m, q=q, gamma=config.gamma)

    def utility(held):
        return RegressionUtility(env.q, 2.0 * env.sigma2, env.gamma, *held)

    if config.method == "bounds":
        bounds = dshapley_regression_bounds(PointQuery.from_point(xs, ys, env), env)
        return _bound_side(bounds, config.bound_side), utility
    if config.method == "fast":
        est = dshapley_regression_quadrature(PointQuery.from_point(xs, ys, env), env)
        return (est.value, est.std_error), utility
    held = (dataset.x[held_idx], dataset.y[held_idx])
    return _baseline_values(zip(xs, ys), (bx, by), utility, held, config, rng), utility


def _classification_values(dataset, bg_idx, held_idx, config, q, xs, ys, rng):
    bx, by = dataset.x[bg_idx], dataset.y[bg_idx]

    def utility(held):
        return AccuracyUtility(q, *held)

    if config.method == "baseline":
        held = (dataset.x[held_idx], dataset.y[held_idx])
        return _baseline_values(zip(xs, ys), (bx, by), utility, held, config, rng), utility
    # the fast route is the lower bound
    state = irls_fit(bx, by)
    sigma_tilde_inv = spd_inverse(estimate_weighted_second_moment(bx, state.beta))
    query = transform_query(xs, ys, state, sigma_tilde_inv, clamp_weight=True)
    side = config.bound_side if config.method == "bounds" else "lower"
    return _bound_side(dshapley_binary_bounds(query, config.m, q), side), utility


def _density_values(dataset, bg_idx, held_idx, config, q, xs, ys, rng):
    background = dataset.x[bg_idx]
    h = select_bandwidth(background, config.bandwidth_grid)
    kernel = KernelSpec("gaussian", h)
    utility = partial(DensityUtility, kernel)
    if config.method == "fast":
        est = dshapley_density(DensityValueRequest(s_star=xs[:, None, :], m=config.m),
                               background, kernel)
        return (est.value, est.std_error), utility
    eval_idx = rng.substream(_STREAM_EVAL_POINTS).generator.integers(
        0, background.shape[0], size=_DENSITY_EVAL_POINTS)
    return _baseline_values(xs, background, utility, background[eval_idx], config, rng), utility


def _value_split(dataset, config, rng, value_idx, held_idx, bg_idx):
    """((values, std_errors), utility) of one split; see the families above."""
    xs = dataset.x[value_idx]
    ys = dataset.y[value_idx] if dataset.y is not None else np.zeros(len(value_idx))
    family = {"regression": _regression_values, "classification": _classification_values,
              "density": _density_values}[config.task]
    return family(dataset, bg_idx, held_idx, config, config.resolved_q(dataset.p), xs, ys, rng)


def value_points(dataset: Dataset, config: ExperimentConfig, rng: RandomStream, split=None):
    """Value a set of points; returns (indices, values, std_errors).

    ``split = (value_idx, held_idx, bg_idx)`` pins the index sets; without it the dataset
    is split deterministically from the stream. No fast route draws random numbers: the
    bounds routes, the regression fast route (the quadrature) and the classification fast
    route (its lower bound) and the density fast route (the exact expectation over the
    background rows) value all points in one call. The sampled baseline draws each point
    from its own substream. ``config.threads`` does not change how the work runs.
    """
    value_idx, held_idx, bg_idx = _split_indices(dataset.n, config, rng.generator, split)
    (values, std_errors), _ = _value_split(dataset, config, rng, value_idx, held_idx, bg_idx)
    return value_idx, values, std_errors


def run_point_addition(config: ExperimentConfig, dataset: Dataset,
                       rng: RandomStream, split=None) -> PointAdditionResult:
    """Largest-first, lowest-first and random point-addition curves.

    Every repetition resamples the split, revalues the value set with the
    configured method and tracks the held-out utility after each addition.
    The utility is the one the sampled baseline uses, built from the fit
    that valued the split, and one call per repetition values every prefix
    of the three orderings as one stack; steps below its gate, and prefixes
    that cannot be fitted, are recorded as gaps, not aborts. Passing an explicit
    ``split = (value_idx, held_idx, bg_idx)`` pins the design across
    repetitions (only the valuation and the random ordering then vary).
    """
    if config.task == "regression":
        _check_regression_gate(config.resolved_q(dataset.p), dataset.p, config.gamma)
    steps = config.n_value_points
    orderings = ("largest", "lowest", "random")
    curves = np.full((len(orderings), config.repetitions, steps + 1), np.nan)
    data = dataset.x if config.task == "density" else (dataset.x, dataset.y)
    rep0_values = rep0_indices = None

    for rep in range(config.repetitions):
        sub = rng.substream(rep)
        value_idx, held_idx, bg_idx = _split_indices(dataset.n, config, sub.generator, split)
        (values, _), utility = _value_split(dataset, config, sub, value_idx, held_idx, bg_idx)
        if rep == 0:
            rep0_values, rep0_indices = values.copy(), np.array(value_idx)
        util = utility(_take(data, held_idx))
        orders = np.stack([np.argsort(-values, kind="stable"), np.argsort(values, kind="stable"),
                           sub.substream(_STREAM_ORDER).generator.permutation(steps)])
        curves[:, rep, 0] = 0.0  # empty-set utility by convention
        curves[:, rep, util.gate:] = prefix_utilities(data, value_idx[orders],
                                                      np.arange(util.gate, steps + 1), util)

    results = []
    for name, grid in zip(orderings, curves):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", category=RuntimeWarning)
            means = np.nanmean(grid, axis=0)
            counts = np.sum(~np.isnan(grid), axis=0)
            stds = np.nanstd(grid, axis=0, ddof=1)
        std_errors = np.where(counts > 1, stds / np.sqrt(np.maximum(counts, 1)), 0.0)
        results.append(PointAdditionCurve(ordering=name, utilities=means,
                                          std_errors=std_errors,
                                          repetitions=config.repetitions))
    return PointAdditionResult(curves=results, rep0_indices=rep0_indices,
                               rep0_values=rep0_values)


_BENCH_BASELINE_DRAWS = {"regression": 1000, "classification": 50, "density": 100}


def _bench_dataset(task: str, n: int, p: int, rng: RandomStream) -> Dataset:
    if task == "regression":
        return gen_gaussian_r(n, p, rng)
    if task == "classification":
        return gen_mixture_c(n, p, rng)
    gen = rng.generator
    return Dataset(x=gen.standard_normal((n, p)), y=None)


def run_time_bench(grid, tasks, rng: RandomStream, *, repetitions: int = 5,
                   baseline_points: int = 20, background_size: int = 2000, threads: int = 1):
    """Wall-clock comparison of the fast estimators against the sampled baseline.

    ``grid`` is a list of (n_points, p) cells. The fast method values every
    point; the baseline values ``baseline_points`` of them and its time is
    scaled up proportionally (per-point cost is flat), which the output
    records. Returns a list of row dicts ready for serialization.
    """
    if not grid:
        raise InvalidParameterError("the benchmark grid must be nonempty")
    check_count(repetitions, 1, "repetitions")
    check_count(baseline_points, 1, "baseline_points")
    check_count(background_size, 1, "background_size")
    check_count(threads, 1, "threads")
    if not tasks or any(task not in _TASKS for task in tasks):
        raise InvalidParameterError(f"tasks must be a nonempty list from {_TASKS}, got {tasks}")
    rows = []
    for ti, task in enumerate(tasks):
        for ci, (n_points, p) in enumerate(grid):
            cell_rng = rng.substream(1000 * ti + ci)
            fast_times = []
            base_times = []
            timed_points = min(baseline_points, n_points)
            for rep in range(repetitions):
                rep_rng = cell_rng.substream(rep)
                data = _bench_dataset(task, n_points + background_size + 200, p,
                                      rep_rng.substream(0))
                fast_cfg = ExperimentConfig(
                    task=task, n_value_points=n_points, m=n_points,
                    q=p + 3, seed=0, background_size=background_size,
                    heldout_size=200, repetitions=1, threads=threads,
                    baseline_draws=_BENCH_BASELINE_DRAWS[task],
                )
                value_idx, held_idx, bg_idx = _split_indices(data.n, fast_cfg, rep_rng.substream(1).generator)

                start = time.perf_counter()
                value_points(data, fast_cfg, rep_rng.substream(2), (value_idx, held_idx, bg_idx))
                fast_times.append(time.perf_counter() - start)

                base_cfg = replace(fast_cfg, method="baseline")
                start = time.perf_counter()
                value_points(data, base_cfg, rep_rng.substream(3),
                             (value_idx[:timed_points], held_idx, bg_idx))
                elapsed = time.perf_counter() - start
                base_times.append(elapsed * (n_points / timed_points))
            fast_mean = float(np.mean(fast_times))
            base_mean = float(np.mean(base_times))
            rows.append({
                "task": task, "n_points": n_points, "p": p,
                "fast_seconds": fast_mean,
                "fast_seconds_std": float(np.std(fast_times)),
                "baseline_seconds": base_mean,
                "baseline_seconds_std": float(np.std(base_times)),
                "speedup": base_mean / fast_mean if fast_mean > 0 else float("inf"),
                "repetitions": repetitions,
                "baseline_draws": _BENCH_BASELINE_DRAWS[task],
                "baseline_points_timed": timed_points,
                "threads": threads,
            })
    return rows
