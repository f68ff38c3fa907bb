"""Ground-truth machinery: exact Shapley enumeration and the slow sampled baseline.

The exact enumerator values every subset of a small dataset and applies the
combinatorial weights directly; it is the reference the fast estimators are
validated against. The Monte-Carlo baseline samples the size-then-subset
reformulation of the distributional value (all sizes in one call, all rows in
another) and stands in for the slow comparator in the timing experiments.
Three utility families are provided: gated regression risk, held-out
classification accuracy, and density integrated squared error up to a
constant. Each is defined once, on the prefixes of a stack of row sets, each
set with sizes of its own: one subset is the stack of one, the enumeration
values 4,096 subsets a stack, a repetition's three curves are one call, and so
is a block of baseline draws of at most 8,192 padded rows.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from math import comb

import numpy as np

from .classification import _irls_stack
from .classification import irls_fit  # noqa: F401  (bench/tracing.py rebinds baseline.irls_fit)
from .density import KernelSpec, _kernel_means
from .density import kde_evaluate  # noqa: F401  (bench/tracing.py rebinds baseline.kde_evaluate)
from .errors import (
    BaselineFailureError,
    EnumerationSizeError,
    InvalidParameterError,
    UtilityEvaluationError,
)
from .estimates import ValueEstimate
from .numerics import RandomStream, SpdMatrix, solve_each

__all__ = [
    "UtilitySpec",
    "RegressionUtilityContext",
    "AccuracyUtilityContext",
    "DensityUtilityContext",
    "ExactShapleyResult",
    "evaluate_utility",
    "prefix_utilities",
    "exact_data_shapley",
    "dshapley_mc_baseline",
]

_ENUMERATION_LIMIT = 20
_ACCURACY_MAX_ITER = 25  # IRLS iterations of the accuracy utility's subset fits
_FITS_PER_BLOCK = 32  # subsets per block of IRLS fits and of held-out predictions
_ROWS_PER_BLOCK = 8192  # baseline draws per stack times their widest padded set
_SETS_PER_BLOCK = 4096  # subsets per stack of the exact enumeration


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


def _heldout_scores(score, x_test, betas):
    """``score(predictions)`` at the held-out rows for each fit of ``betas`` (k, p), in
    fixed-size blocks of fits, each by its own product: no fit depends on the others."""
    if len(x_test) == 0:
        raise InvalidParameterError("the utility's held-out rows are empty")
    out = np.empty(len(betas))
    for start in range(0, len(betas), _FITS_PER_BLOCK):
        block = slice(start, start + _FITS_PER_BLOCK)
        out[block] = score((x_test @ betas[block, :, None])[..., 0])
    return out


def _regression_utilities(rows, sets, sizes, spec: UtilitySpec, ctx: RegressionUtilityContext):
    """Risk of each fit's least-squares solution. Each prefix's Gram is its own product
    over exactly its rows, one stacked product per size, and all fits are one stacked solve."""
    x, y = rows
    p = x.shape[-1]
    _check_regression_gate(spec.gate, p, ctx.gamma)
    gram, moment = np.empty((sizes.size, p, p)), np.empty((sizes.size, p, 1))
    for k in np.unique(sizes):
        at = np.flatnonzero(sizes == k)
        xt = np.swapaxes(x[sets[at], :k], 1, 2)
        gram[at] = xt @ np.swapaxes(xt, 1, 2)
        moment[at] = xt @ y[sets[at], :k, None]
    betas = solve_each(gram + ctx.gamma * np.eye(p), moment)[0][..., 0]  # a singular fit is NaN
    if spec.evaluation_mode == "analytic":
        diff = betas - ctx.beta_true
        risk = ctx.sigma2 + (diff[..., None, :] @ ctx.sigma_x.values @ diff[..., None])[..., 0, 0]
    else:
        risk = _heldout_scores(lambda pred: np.mean((ctx.y_test - pred) ** 2, axis=-1),
                               ctx.x_test, betas)
    return spec.constant - risk


def _accuracy_utilities(rows, sets, sizes, spec: UtilitySpec, ctx: AccuracyUtilityContext):
    """Held-out accuracy of each fit's logistic regression, in IRLS blocks cut to their widest
    fit (a fit cut at the cap still classifies). One class, <= p rows or a singular system fails."""
    x, y = rows
    if not (np.isin(y, (0.0, 1.0)).all() and np.isin(ctx.y_test, (0.0, 1.0)).all()):
        raise InvalidParameterError("labels must be 0/1")
    ones = np.cumsum(y, axis=1)[sets, sizes - 1]  # positives in each prefix
    fit = np.flatnonzero((ones > 0) & (ones < sizes) & (sizes > x.shape[-1]))
    out = np.full(sizes.size, np.nan)
    for start in range(0, fit.size, _FITS_PER_BLOCK):
        block = fit[start:start + _FITS_PER_BLOCK]
        width = sizes[block].max()
        members = (np.arange(width) < sizes[block, None]).astype(float)
        with np.errstate(all="ignore"):
            state, singular = _irls_stack(x[sets[block], :width], y[sets[block], :width],
                                          members, 1e-8, _ACCURACY_MAX_ITER)
        out[block[~singular]] = _heldout_scores(
            lambda pred: np.mean((pred >= 0.0) == ctx.y_test, axis=-1),
            ctx.x_test, state.beta[~singular])
    return out


def _density_utilities(pts, sets, sizes, spec: UtilitySpec, ctx: DensityUtilityContext):
    """Integrated squared error of each fit's estimate, up to a constant, from prefix
    sums of the pairwise self-convolutions and of the kernel at the evaluation rows."""
    evals = np.asarray(ctx.eval_points, dtype=float)[None]
    if evals.shape[1] == 0:
        raise InvalidParameterError("the utility's evaluation rows are empty")
    out = np.empty(sizes.size)
    for i in np.unique(sets):  # each set's rows up to its largest prefix
        k = sizes[sets == i]
        rows = pts[i, :k.max()].reshape(k.max(), 1, -1)
        (conv,) = _kernel_means(ctx.kernel, rows, rows, ["self_convolution"])
        conv = np.cumsum(np.cumsum(conv, 0), 1)
        cross = np.cumsum(_kernel_means(ctx.kernel, evals, rows)[0][0])
        out[sets == i] = conv[k - 1, k - 1] / k ** 2 - 2.0 * cross[k - 1] / k
    return spec.constant - out


def prefix_utilities(rows, sizes, spec: UtilitySpec, context) -> np.ndarray:
    """Utilities of the prefixes of a stack of row sets, as a (b, n) array.

    ``rows`` is an (x, y) pair of (b, s, p) and (b, s) arrays, or (b, s, dim)
    points ((b, s) in one dimension); ``sizes`` is a (b, n) table of prefix
    sizes, or one (n,) row for every set. Entry (i, j) is the utility of the
    first ``sizes[i, j]`` rows of set i: 0 below the gate, NaN where it cannot
    be fitted, and independent of the other entries and of the rows past it."""
    sizes = np.asarray(sizes, dtype=np.int64)
    s = np.shape(rows[0] if isinstance(rows, tuple) else rows)[1]
    if ((sizes < 0) | (sizes > s)).any():
        raise InvalidParameterError(f"prefix sizes must lie in 0..{s}, got {sizes.tolist()}")
    table = np.broadcast_to(sizes, (_data_len(rows), sizes.shape[-1]))
    out = np.zeros(table.shape)
    sets, fit = np.nonzero(table >= spec.gate)
    if sets.size:
        family = {"regression_risk": _regression_utilities, "accuracy": _accuracy_utilities,
                  "density_ise": _density_utilities}[spec.family]
        out[sets, fit] = family(_take(rows, slice(None)), sets, table[sets, fit], spec, context)
    return out


def evaluate_utility(subset, spec: UtilitySpec, context) -> float:
    """Utility of one subset, the stack of one: 0 when empty or below the gate;
    ``UtilityEvaluationError`` when the subset cannot be fitted."""
    size = _data_len(subset)
    value = float(prefix_utilities(_take(subset, None), [size], spec, context)[0, 0])
    if np.isnan(value):
        raise UtilityEvaluationError("the subset cannot be fitted", subset_size=size)
    return value


def _take(data, idx):
    if isinstance(data, tuple):
        return tuple(np.asarray(part)[idx] for part in data)
    return np.asarray(data)[idx]


def _data_len(data) -> int:
    return int(np.shape(data[0] if isinstance(data, tuple) else data)[0])


def exact_data_shapley(data, utility, context=None) -> ExactShapleyResult:
    """Exact per-point Shapley values of a small dataset by full enumeration.

    ``data`` is an (X, y) pair, an array of points, or any indexable array
    (e.g. indices, for tabulated utilities). Requires at most 20 points
    because every one of the 2^n subsets is evaluated once; use the
    Monte-Carlo baseline beyond that. The subsets are valued in mask order, 4,096 to a
    stack, each as its members' rows (ascending) padded with the rest; the first in mask
    order that cannot be fitted raises ``UtilityEvaluationError``.
    """
    n = _data_len(data)
    if n > _ENUMERATION_LIMIT:
        raise EnumerationSizeError(
            f"{n} points would need 2^{n} utility evaluations; "
            "use dshapley_mc_baseline instead")
    if n == 0:
        raise InvalidParameterError("dataset must be nonempty")

    masks = np.arange(1 << n, dtype=np.uint32)
    sizes = np.zeros(masks.size, dtype=np.int64)
    for b in range(n):
        sizes += (masks >> b) & 1
    util = np.zeros(1 << n)
    for start in range(1, 1 << n, _SETS_PER_BLOCK):  # each set's members first, ascending
        block = masks[start:start + _SETS_PER_BLOCK]
        idx = np.argsort(1 - ((block[:, None] >> np.arange(n)) & 1), axis=1, kind="stable")
        util[block] = _set_utilities(_take(data, idx), sizes[block, None], utility, context)[:, 0]
    failed = np.flatnonzero(np.isnan(util))
    if failed.size:
        raise UtilityEvaluationError("the subset cannot be fitted",
                                     subset_size=int(sizes[failed[0]]))

    weights = np.array([1.0 / (n * comb(n - 1, s)) for s in range(n)])
    values = np.empty(n)
    for i in range(n):
        without = masks[((masks >> i) & 1) == 0]
        gains = util[without | np.uint32(1 << i)] - util[without]
        values[i] = float(np.sum(weights[sizes[without]] * gains))
    return ExactShapleyResult(values=values, total=float(util[(1 << n) - 1]),
                              subset_evaluations=int(1 << n))


def _rows(data, z_star):
    """The rows of ``data`` (an (x, y) pair or an array of points), then ``z_star``."""
    if isinstance(data, tuple):
        return tuple(map(_rows, data, z_star))
    return np.concatenate([np.asarray(data, dtype=float), np.reshape(z_star, (1,) + np.shape(data)[1:])])


def _set_utilities(rows, sizes, utility, context) -> np.ndarray:
    """``prefix_utilities`` for a ``UtilitySpec``; a plain callable is called once per
    set and nonempty size, and is NaN where it fails."""
    if isinstance(utility, UtilitySpec):
        return prefix_utilities(rows, sizes, utility, context)
    out = np.full((_data_len(rows), np.shape(sizes)[-1]), np.nan)
    for (i, j), k in np.ndenumerate(np.broadcast_to(sizes, out.shape)):
        with suppress(UtilityEvaluationError):  # a failure stays NaN
            out[i, j] = utility(_take(rows, (i, slice(k)))) if k else 0.0
    return out


def dshapley_mc_baseline(z_star, background, utility, *, m: int, max_draws: int,
                         rng: RandomStream, context=None) -> ValueEstimate:
    """Slow sampled estimate of the distributional value of one datum.

    Each draw picks a subset size uniformly up to ``m``, samples that many
    background points (a pool is resampled with replacement; a callable
    ``background(size, rng)`` draws directly from a distribution) and takes
    the marginal contribution of ``z_star``. The draws take two calls: every
    draw's size, then every draw's rows in draw order, as indices into the
    pool or as one ``background(total, rng)`` call whose parts must each have
    ``total`` rows. Draws below the gate are exact zeros and draw no rows.
    The others are valued by size in blocks that grow while their draws times
    their widest set stay within 8,192 rows, each set padded to the block's
    widest with ``z_star`` and valued without and with it as two prefixes. A
    draw whose utility fails (raises ``UtilityEvaluationError`` or is NaN) is
    counted in ``failed_draws`` and left out of the mean. Raises
    ``BaselineFailureError`` once 20 or more evaluated draws, in draw order,
    are more than half failures, or if more than half fail in the end.
    """
    if m < 1 or max_draws < 1:
        raise InvalidParameterError("m and max_draws must be at least 1")
    gate = utility.gate if isinstance(utility, UtilitySpec) else 1
    sizes, delta = rng.generator.integers(1, m + 1, size=max_draws), np.zeros(max_draws)
    drawn = np.where(sizes >= gate, sizes - 1, 0)  # below the gate: no rows, both utilities zero
    starts = np.cumsum(drawn) - drawn  # where each draw's rows begin in the index
    n_drawn = int(drawn.sum())
    if callable(background):  # one call for the rows of every draw
        background = background(n_drawn, rng.generator)
        counts = set(map(len, background if isinstance(background, tuple) else [background]))
        if counts != {n_drawn}:
            raise InvalidParameterError(f"background({n_drawn}, rng) returned {sorted(counts)} rows")
        index = np.arange(n_drawn)
    else:  # pool indices in the smallest integer type that holds them
        n = _data_len(background)
        index = rng.generator.integers(0, n, size=n_drawn, dtype=np.min_scalar_type(n))
    pool = _rows(background, z_star)  # z_star last
    live = np.flatnonzero(sizes >= gate)[np.argsort(sizes[sizes >= gate], kind="stable")]
    start = 0
    while start < live.size:  # the most draws whose count times the last's size fits, or one
        rows = np.arange(1, live.size - start + 1) * sizes[live[start:]]
        end = start + max(1, int(np.searchsorted(rows, _ROWS_PER_BLOCK, side="right")))
        at, start = live[start:end], end
        cols = np.arange(sizes[at].max())
        inside = cols < drawn[at, None]
        idx = np.full(inside.shape, -1, dtype=np.int64)  # z_star pads each set
        idx[inside] = index[(starts[at, None] + cols)[inside]]
        table = np.column_stack([drawn[at], drawn[at] + 1])  # each set without, then with z_star
        delta[at] = np.diff(_set_utilities(_take(pool, idx), table, utility, context))[:, 0]

    failed = np.isnan(delta)
    evaluated, failures = np.cumsum(sizes >= gate), np.cumsum(failed)
    # taken in draw order, as a loop over the draws would stop: at the first failure
    # that leaves 20 or more evaluated draws more than half failed, or at the end
    stop = failed & (evaluated >= 20) & (failures > evaluated / 2)
    stop[-1] |= failures[-1] > evaluated[-1] / 2
    if stop.any():
        at = int(np.argmax(stop))
        raise BaselineFailureError(f"utility failed on {failures[at]} of {evaluated[at]} evaluated draws")
    used = delta[~failed]  # never empty: all draws failed is a majority, raised above
    count = used.size
    # running sums from 0.0 in draw order, bit-identical to a loop over the draws
    # (np.sum adds pairwise, which differs in the last bits)
    total = float(np.cumsum(np.append(0.0, used))[-1])
    total_sq = float(np.cumsum(np.append(0.0, used * used))[-1])
    mean = total / count
    var = max((total_sq - count * mean * mean) / (count - 1), 0.0) if count > 1 else 0.0
    return ValueEstimate(value=float(mean), std_error=float(np.sqrt(var / count)),
                         inner_iters_used=[count], truncated_at_j=None,
                         evaluated_draws=int(evaluated[-1]), failed_draws=int(failures[-1]))
