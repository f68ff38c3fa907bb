"""Ground-truth machinery: exact Shapley enumeration and the slow sampled baseline.

The exact enumerator values every subset of a small dataset with the combinatorial
weights; the Monte-Carlo baseline samples the size-then-subset form of the value (all
sizes in one call, all rows in another) and is the slow comparator in the timing
experiments. Both run on three utility families, one dataclass each: ``RegressionUtility``
(gated regression risk), ``AccuracyUtility`` (held-out accuracy) and ``DensityUtility``
(density integrated squared error up to a constant). Each is defined once on the prefixes of
a stack of sets given as a pool of rows and a table of row indices: one subset is a stack of
one, the enumeration values 4,096 subsets a stack, a repetition's three curves are one
call, and so is a block of baseline draws of at most 8,192 padded rows.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from math import comb

import numpy as np

from .classification import _irls_stack
from .classification import irls_fit  # noqa: F401  (bench/tracing.py rebinds baseline.irls_fit)
from .density import KernelSpec, _as_points, _kernel_means
from .density import kde_evaluate  # noqa: F401  (bench/tracing.py rebinds baseline.kde_evaluate)
from .errors import (
    BaselineFailureError,
    EnumerationSizeError,
    InvalidParameterError,
    UtilityEvaluationError,
)
from .estimates import ValueEstimate
from .numerics import RandomStream, SpdMatrix, blocks, check_count, check_sample, runs, solve_each

__all__ = [
    "RegressionUtility",
    "AccuracyUtility",
    "DensityUtility",
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
class RegressionUtility:
    """``constant`` minus the risk of a subset's fit at ridge ``gamma``, zero below ``gate``
    elements: the empirical risk on a held-out sample (``x_test``, ``y_test``) or the analytic
    risk under a known truth (``beta_true``, ``sigma_x``, ``sigma2``), whichever it holds."""

    gate: int
    constant: float = 0.0
    gamma: float = 0.0
    x_test: np.ndarray | None = None
    y_test: np.ndarray | None = None
    beta_true: np.ndarray | None = None
    sigma_x: SpdMatrix | None = None
    sigma2: float | None = None

    def __post_init__(self):
        check_count(self.gate, 1, "gate")
        heldout = [part is not None for part in (self.x_test, self.y_test)]
        truth = [part is not None for part in (self.beta_true, self.sigma_x, self.sigma2)]
        if not ((all(heldout) and not any(truth)) or (all(truth) and not any(heldout))):
            raise InvalidParameterError("a regression utility takes either x_test and y_test "
                                        "or beta_true, sigma_x and sigma2")
        if all(heldout):
            check_sample(self.x_test, self.y_test, ("x_test", "y_test"))


@dataclass(frozen=True)
class AccuracyUtility:
    """Held-out accuracy of a subset's logistic fit, zero below ``gate`` elements."""

    gate: int
    x_test: np.ndarray
    y_test: np.ndarray

    def __post_init__(self):
        check_count(self.gate, 1, "gate")
        if not np.isin(self.y_test, (0.0, 1.0)).all():
            raise InvalidParameterError("labels must be 0/1")
        check_sample(self.x_test, self.y_test, ("x_test", "y_test"))


@dataclass(frozen=True)
class DensityUtility:
    """``constant`` minus the integrated squared error of a subset's kernel density estimate,
    zero when empty: ``eval_points`` are draws from the data distribution for the cross
    term of the ISE, which leaves out ``integral p^2``."""

    kernel: KernelSpec
    eval_points: np.ndarray
    constant: float = 0.0
    gate = 1  # a class attribute, not a field: no density utility has another gate


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


def _regression_utilities(pool, index, sets, sizes, utility: RegressionUtility):
    """Risk of each fit's least-squares solution. Each prefix's Gram is its own product
    over exactly its rows, one stacked product per size, and all fits are one stacked solve."""
    x, y = (np.asarray(part)[index[:, :sizes.max()]] for part in pool)  # to the widest fit
    p = x.shape[-1]
    _check_regression_gate(utility.gate, p, utility.gamma)
    gram, moment = np.empty((sizes.size, p, p)), np.empty((sizes.size, p, 1))
    for k in np.unique(sizes):
        at = np.flatnonzero(sizes == k)
        xt = np.swapaxes(x[sets[at], :k], 1, 2)
        gram[at] = xt @ np.swapaxes(xt, 1, 2)
        moment[at] = xt @ y[sets[at], :k, None]
    betas = solve_each(gram + utility.gamma * np.eye(p), moment)[0][..., 0]  # a singular fit is NaN
    if utility.x_test is None:  # the analytic risk under the known truth
        diff = betas - utility.beta_true
        risk = utility.sigma2 + (diff[..., None, :] @ utility.sigma_x.values @ diff[..., None])[..., 0, 0]
    else:
        risk = _heldout_scores(lambda pred: np.mean((utility.y_test - pred) ** 2, axis=-1),
                               utility.x_test, betas)
    return utility.constant - risk


def _accuracy_utilities(pool, index, sets, sizes, utility: AccuracyUtility):
    """Held-out accuracy of each fit's logistic regression, in IRLS blocks of fits taken in
    order of size, each block cut to its widest fit (a fit cut at the cap still classifies).
    One class, <= p rows or a singular system fails."""
    x, y = (np.asarray(part)[index[:, :sizes.max()]] for part in pool)  # to the widest fit
    if not np.isin(y, (0.0, 1.0)).all():
        raise InvalidParameterError("labels must be 0/1")
    ones = np.cumsum(y, axis=1)[sets, sizes - 1]  # positives in each prefix
    fit = np.flatnonzero((ones > 0) & (ones < sizes) & (sizes > x.shape[-1]))
    fit = fit[np.argsort(sizes[fit], kind="stable")]  # near-equal widths share a block
    labels = np.asarray(utility.y_test) == 1.0
    out = np.full(sizes.size, np.nan)
    for start in range(0, fit.size, _FITS_PER_BLOCK):
        block = fit[start:start + _FITS_PER_BLOCK]
        width = sizes[block[-1]]
        with np.errstate(all="ignore"):
            state, singular = _irls_stack(x[sets[block], :width], y[sets[block], :width],
                                          sizes[block], _ACCURACY_MAX_ITER)
        out[block[~singular]] = _heldout_scores(  # a count over n: the mean of the booleans
            lambda pred: np.count_nonzero((pred >= 0.0) == labels, axis=-1) / labels.size,
            utility.x_test, state.beta[~singular])
    return out


def _density_utilities(pool, index, sets, sizes, utility: DensityUtility):
    """Integrated squared error of each fit's estimate, up to a constant, from prefix sums of
    the kernel means at the evaluation rows, one per pool row, and double prefix sums of the
    pairwise self-convolutions. Sets by width share a group while their count times the widest
    squared stays within a block budget of floats (or are one set); a group's pairs come in
    blocks of at most that many entries, each carrying its running sums into the next, so every
    sum adds in the order it would for the set alone."""
    evals = _as_points(utility.eval_points, "the utility's evaluation rows")[None]
    if evals.shape[1] == 0:
        raise InvalidParameterError("the utility's evaluation rows are empty")
    pts, width = _as_points(pool, "the pool"), np.zeros(len(index), dtype=np.int64)
    np.maximum.at(width, sets, sizes)  # each set's rows up to its largest prefix
    read, means = np.unique(index), np.zeros(len(pts))
    means[read] = _kernel_means(utility.kernel, evals, pts[read, None])[0][0]
    pair = np.empty(index.shape)  # pair[i, a]: set i's double sum through its row a
    order = np.flatnonzero(width)[np.argsort(width[width > 0], kind="stable")]
    for run in runs(width[order] ** 2):
        group, carry = order[run], 0.0
        rows = pts[index[group, :width[group[-1]]]]  # (sets, widest, dim)
        for block in blocks(rows.shape[1], rows[..., 0].size):  # kc(x_r - x_a) at rows a
            (conv,) = utility.kernel._values((rows[:, None, :, c] - rows[:, block, None, c]
                                              for c in range(rows.shape[2])), ["self_convolution"])
            conv[:, 0] += carry
            carry = np.cumsum(conv, axis=1, out=conv)[:, -1].copy()
            a = np.arange(block.start, block.start + conv.shape[1])
            pair[group[:, None], a] = np.cumsum(conv, axis=2, out=conv)[:, a - block.start, a]
    cross = np.cumsum(means[index], axis=1)[sets, sizes - 1]
    return utility.constant - (pair[sets, sizes - 1] / sizes ** 2 - 2.0 * cross / sizes)


def _callable_utilities(pool, index, sets, sizes, utility):
    """A plain callable on each prefix's gathered rows, in order; NaN where it fails."""
    out = np.full(sets.size, np.nan)
    for at, (i, k) in enumerate(zip(sets, sizes)):
        with suppress(UtilityEvaluationError):  # a failure stays NaN
            out[at] = utility(_take(pool, index[i, :k]))
    return out


_FAMILIES = {RegressionUtility: _regression_utilities, AccuracyUtility: _accuracy_utilities,
             DensityUtility: _density_utilities}


def _gate(utility) -> int:
    """A family's gate; a plain callable's is 1."""
    return utility.gate if type(utility) in _FAMILIES else 1


def prefix_utilities(pool, index, sizes, utility) -> np.ndarray:
    """Utilities of the prefixes of a stack of row sets, as a (b, n) array.

    ``pool`` is an (x, y) pair of (N, p) and (N,) arrays, or (N, dim) points ((N,) in one
    dimension); ``index`` is a (b, s) table of pool rows, a set to a row; ``sizes`` is a (b, n)
    table of prefix sizes, or one (n,) row for every set. Entry (i, j) is ``utility`` of rows
    ``index[i, :sizes[i, j]]``: 0 below the gate, NaN where it cannot be fitted, and not
    dependent on the other entries or the rows past it. ``utility`` is one of the three
    families, which gathers what it reads, or a plain callable on the rows, called once per
    set and nonzero size in row-major order, with gate 1 and NaN where it raises
    ``UtilityEvaluationError``."""
    index, sizes = np.asarray(index, dtype=np.int64), np.asarray(sizes, dtype=np.int64)
    n, s = _data_len(pool), index.shape[1]
    bad = index[(index < 0) | (index >= n)]
    if bad.size:
        raise InvalidParameterError(f"index entries must lie in 0..{n - 1}, got {bad[0]}")
    if ((sizes < 0) | (sizes > s)).any():
        raise InvalidParameterError(f"prefix sizes must lie in 0..{s}, got {sizes.tolist()}")
    table = np.broadcast_to(sizes, (len(index), sizes.shape[-1]))
    out = np.zeros(table.shape)
    sets, fit = np.nonzero(table >= _gate(utility))
    if sets.size:
        family = _FAMILIES.get(type(utility), _callable_utilities)
        out[sets, fit] = family(pool, index, sets, table[sets, fit], utility)
    return out


def evaluate_utility(subset, utility) -> float:
    """Utility of one subset, the stack of one: 0 when empty or below the gate;
    ``UtilityEvaluationError`` when the subset cannot be fitted."""
    size = _data_len(subset)
    value = float(prefix_utilities(subset, np.arange(size)[None], [size], utility)[0, 0])
    if np.isnan(value):
        raise UtilityEvaluationError("the subset cannot be fitted", subset_size=size)
    return value


def _take(data, idx):
    if isinstance(data, tuple):
        return tuple(np.asarray(part)[idx] for part in data)
    return np.asarray(data)[idx]


def _data_len(data) -> int:
    return int(np.shape(data[0] if isinstance(data, tuple) else data)[0])


def exact_data_shapley(data, utility) -> ExactShapleyResult:
    """Exact per-point Shapley values of a small dataset by full enumeration.

    ``data`` is an (X, y) pair, an array of points, or any indexable array (e.g. indices,
    for tabulated utilities): the pool of every stack. Requires at most 20 points, since each
    of the 2^n subsets is evaluated once; beyond that use the Monte-Carlo baseline. Subsets
    are valued in mask order, 4,096 to a stack, each as its members' rows (ascending) padded
    with the rest; the first that cannot be fitted raises ``UtilityEvaluationError``.
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
        util[block] = prefix_utilities(data, idx, sizes[block, None], utility)[:, 0]
    failed = np.flatnonzero(np.isnan(util))
    if failed.size:
        raise UtilityEvaluationError("the subset cannot be fitted", subset_size=int(sizes[failed[0]]))

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


def dshapley_mc_baseline(z_star, background, utility, *, m: int, max_draws: int,
                         rng: RandomStream) -> ValueEstimate:
    """Slow sampled estimate of the distributional value of one datum.

    Each of ``max_draws`` draws (at least 2) picks a subset size uniformly up to ``m``, samples
    that many background points (a pool is resampled with replacement; a callable
    ``background(size, rng)`` draws from a distribution) and takes the marginal contribution of
    ``z_star``. The draws take two calls: every draw's size, then every draw's rows in draw
    order, as indices into the pool or as one ``background(total, rng)`` call whose parts must
    each have ``total`` rows. Draws below the gate are exact zeros and draw no rows. The others
    are valued by size in blocks that grow while their draws times their widest set stay within
    8,192 rows, each set padded to the block's widest with ``z_star`` and valued without and
    with it as two prefixes. A draw whose utility fails (raises ``UtilityEvaluationError`` or
    is NaN) is counted in ``failed_draws`` and left out of the mean. Raises
    ``BaselineFailureError`` once 20 or more evaluated draws, in draw order, are more than half
    failures, if more than half fail, or if fewer than 2 draws are usable (one has no variance).
    """
    check_count(m, 1, "m")
    check_count(max_draws, 2, "max_draws")
    gate = _gate(utility)
    sizes, delta = rng.generator.integers(1, m + 1, size=max_draws), np.zeros(max_draws)
    drawn = np.where(sizes >= gate, sizes - 1, 0)  # below the gate: no rows, both utilities zero
    starts = np.cumsum(drawn) - drawn  # where each draw's rows begin in the index
    n_drawn = int(drawn.sum())
    if callable(background):  # one call for the rows of every draw
        background = background(n_drawn, rng.generator)
        counts = set(map(len, background if isinstance(background, tuple) else [background]))
        if counts != {n_drawn}:
            raise InvalidParameterError(f"background({n_drawn}, rng) returned {sorted(counts)} rows")
        index = np.arange(n_drawn + 1)
    else:  # pool indices in the smallest integer type that holds them
        n = _data_len(background)
        index = rng.generator.integers(0, n, size=n_drawn, dtype=np.min_scalar_type(n))
        index = np.append(index, index.dtype.type(n))
    pool = _rows(background, z_star)  # z_star last, the index's last entry too
    live = np.flatnonzero(sizes >= gate)[np.argsort(sizes[sizes >= gate], kind="stable")]
    for run in runs(sizes[live], _ROWS_PER_BLOCK):
        at = live[run]
        cols = np.arange(sizes[at].max())  # each set's rows, padded with z_star
        idx = index[np.where(cols < drawn[at, None], starts[at, None] + cols, -1)]
        table = np.column_stack([drawn[at], drawn[at] + 1])  # each set without, then with z_star
        delta[at] = np.diff(prefix_utilities(pool, idx, table, utility))[:, 0]

    failed = np.isnan(delta)
    evaluated, failures = np.cumsum(sizes >= gate), np.cumsum(failed)
    # taken in draw order, as a loop over the draws would stop: at the first failure
    # that leaves 20 or more evaluated draws more than half failed, or at the end
    stop = failed & (evaluated >= 20) & (failures > evaluated / 2)
    stop[-1] |= failures[-1] > evaluated[-1] / 2
    if stop.any():
        at = int(np.argmax(stop))
        raise BaselineFailureError(f"utility failed on {failures[at]} of {evaluated[at]} evaluated draws")
    used = delta[~failed]
    count = used.size
    if count < 2:
        raise BaselineFailureError(
            f"utility failed on {failures[-1]} of {evaluated[-1]} evaluated draws, leaving "
            f"{count} usable; a std_error needs 2")
    # running sums from 0.0 in draw order, bit-identical to a loop over the draws
    # (np.sum adds pairwise, which differs in the last bits)
    total = float(np.cumsum(np.append(0.0, used))[-1])
    total_sq = float(np.cumsum(np.append(0.0, used * used))[-1])
    mean = total / count
    var = max((total_sq - count * mean * mean) / (count - 1), 0.0)
    return ValueEstimate(value=float(mean), std_error=float(np.sqrt(var / count)),
                         inner_iters_used=[count],
                         evaluated_draws=int(evaluated[-1]), failed_draws=int(failures[-1]))
