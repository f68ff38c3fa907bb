"""Distributional Shapley values for kernel density estimation.

Provides the set value as its exact expectation over the background rows
(its standard error is what remains because those rows stand in for the
data distribution), bandwidth selection by leave-one-out least-squares
cross-validation, closed forms for one- and two-point sets under the
uniform kernel on the unit interval, and the synergy scan that probes when
a pair of points is worth more than its members.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BandwidthSelectionError, InvalidParameterError
from .estimates import ValueEstimate
from .numerics import LOG_TINY, RandomStream, blocks, check_count, exp_or_zero, in_shape

__all__ = [
    "KernelSpec",
    "DensityValueRequest",
    "SynergyRecord",
    "SynergyScanResult",
    "kde_evaluate",
    "select_bandwidth",
    "coeff_A",
    "coeff_B",
    "dshapley_density",
    "uniform_closed_form",
    "synergy_scan",
]

@dataclass(frozen=True)
class KernelSpec:
    """A kernel family with a shared scalar bandwidth.

    Both families integrate to one and are symmetric by construction; the
    dimension is the width of the points the kernel is applied to, and above one
    the kernel is the product of identical per-coordinate factors.
    """

    family: str
    bandwidth: float

    def __post_init__(self):
        if self.family not in ("gaussian", "uniform"):
            raise InvalidParameterError(f"unknown kernel family {self.family!r}")
        _as_bandwidths([self.bandwidth])

    def evaluate(self, diff) -> np.ndarray:
        """Kernel value at the given displacement(s), shape (..., dim)."""
        return self._values(_coordinates(diff), ["evaluate"])[0]

    def self_convolution(self, diff) -> np.ndarray:
        """Value of ``integral k(u - a) k(u - b) du`` at ``diff = a - b``."""
        return self._values(_coordinates(diff), ["self_convolution"])[0]

    def _values(self, coords, kinds) -> list:
        """The ``"evaluate"`` or ``"self_convolution"`` values, per entry of ``kinds``, at the
        displacements whose coordinates ``coords`` yields in order: squares added (Gaussian)
        or factors multiplied (uniform) one coordinate at a time, counting them as ``dim``."""
        h, dim = self.bandwidth, 0
        if self.family == "uniform":
            inside, overlap = True, 1.0
            for dim, d in enumerate(coords, 1):
                d = np.abs(d)
                inside = inside & (d <= h / 2.0)
                overlap = overlap * (np.maximum(h - d, 0.0) / h ** 2)
            return [inside / h ** dim if kind == "evaluate" else overlap for kind in kinds]
        sq, out = 0, []
        for dim, d in enumerate(coords, 1):
            sq += d * d  # in place after the first: the additions of sum(), in order
        for w in (h if kind == "evaluate" else h * np.sqrt(2.0) for kind in kinds):
            arg = sq * (-0.5 / (w * w))  # the self-convolution is the kernel at h * sqrt(2)
            value = exp_or_zero(arg)
            value /= w ** dim * (2.0 * np.pi) ** (dim / 2.0)
            out.append(value)
        return out


def _coordinates(diff) -> np.ndarray:
    """The (..., dim) displacements ``diff`` with the coordinate axis first; a scalar is refused."""
    diff = np.asarray(diff, dtype=float)
    if diff.ndim == 0:
        raise InvalidParameterError("diff must be a (..., dimension) array, got a scalar")
    return np.moveaxis(diff, -1, 0)


@dataclass
class DensityValueRequest:
    """A set ``(n, dim)`` or a stack ``(k, n, dim)`` of equal-size sets, valued at horizon ``m``.

    One set is a stack of one and gives floats; no set's bits depend on the rest of a stack.
    """

    s_star: np.ndarray
    m: int

    def __post_init__(self):
        s_star = np.asarray(self.s_star, dtype=float)
        self.s_star = s_star if s_star.ndim == 3 else np.atleast_2d(s_star)
        if self.s_star.ndim > 3 or 0 in self.s_star.shape:
            raise InvalidParameterError(
                "s_star must be a nonempty (n, dimension) set or (k, n, dimension) stack")
        if not np.isfinite(self.s_star).all():
            raise InvalidParameterError("s_star must be finite")
        check_count(self.m, 1, "m")


@dataclass(frozen=True)
class SynergyRecord:
    bandwidth: float
    threshold: float | None
    probability: float


@dataclass
class SynergyScanResult:
    """Per-bandwidth synergy thresholds and probabilities."""

    records: list = field(default_factory=list)


def _as_points(points, what: str, rows: int = 0) -> np.ndarray:
    """``points`` as an (n, dim) float array ((n,) is n points of width 1), refused unless of one
    of those ranks, finite, at least 1 wide and at least ``rows`` points long: the entry rule of
    every density route."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim not in (1, 2):
        raise InvalidParameterError(f"{what} must be an (n,) or (n, dimension) array, "
                                    f"got {pts.ndim} axes")
    if not np.isfinite(pts).all():
        raise InvalidParameterError(f"{what} must be finite")
    pts = pts[:, None] if pts.ndim == 1 else pts
    check_count(pts.shape[-1], 1, "dimension")
    check_count(pts.shape[0], rows, f"the row count of {what}")
    return pts


def _kernel_means(kernel: KernelSpec, sets: np.ndarray, z: np.ndarray,
                  kinds=("evaluate",)) -> list:
    """Mean over each set of the stack ``sets`` (k, n, dim) of the kernel values ``kinds``
    (see ``KernelSpec._values``) at ``z_r - s_i``, one (k, rows) array per kind.

    ``z`` is ``(rows, 1, dim)``, rows shared by every set, or ``(rows, k, dim)``,
    one column of rows per set; the rows and the sets must share one width.
    A block of rows is (k, rows, n), its displacements formed by subtraction one coordinate
    at a time (a gemm's sums would depend on the block's shape), and each set's mean
    reduces its own n, so a set's bits depend neither on ``k`` nor on the block.
    """
    k, n, dim = sets.shape
    if z.shape[-1] != dim:
        raise InvalidParameterError(f"rows of width {z.shape[-1]} against a set of width {dim}")
    out = [np.empty((k, z.shape[0])) for _ in kinds]
    columns = z.transpose(1, 0, 2)[:, :, None, :]  # (k or 1, rows, 1, dim)
    for rows in blocks(z.shape[0], k * n):
        coords = (columns[:, rows, :, c] - sets[:, None, :, c] for c in range(dim))
        for means, values in zip(out, kernel._values(coords, kinds)):
            means[:, rows] = values.mean(axis=2)
    return out


def kde_evaluate(s, kernel: KernelSpec, z):
    """Kernel density estimate built on ``s``, evaluated at ``z``.

    ``z`` may be a single point or an array of points; a float is returned
    for a single point. A NaN or infinite entry of ``s`` or ``z`` raises.
    """
    pts = _as_points(s, "the reference set s", rows=1)
    z_arr = np.asarray(z, dtype=float)
    rows = _as_points(np.atleast_2d(z_arr), "z")
    out = _kernel_means(kernel, pts[None], rows[:, None, :])[0][0]
    return in_shape(out, z_arr.shape[:-1])


def _mean_self_convolution(kernel: KernelSpec, sets: np.ndarray) -> np.ndarray:
    """Exact ``integral p_hat^2`` of each set of the stack, via pairwise self-convolutions."""
    (conv,) = _kernel_means(kernel, sets, sets.transpose(1, 0, 2), ["self_convolution"])
    return conv.mean(axis=1)


def _gaussian_loo_scores(pts, grid):
    # A block of rows serves every bandwidth and scores each pair j > i once, counted twice,
    # from one contiguous vector of the block's pairs. Terms below the smallest normal double
    # are 0, skipping exp's slow subnormal path: they square to 0 in `cross` and are far below
    # `square`'s n diagonal terms of 1. A bandwidth that gates the block's closest pair skips
    # the block; one that gates only some pairs takes exp of the others alone.
    n, dim = pts.shape
    h = np.asarray(grid)
    square = np.full(h.size, float(n))  # sums of exp(-sq / 4h^2) over all pairs, i = j too
    cross = np.zeros(h.size)   # sums of exp(-sq / 2h^2) over pairs i != j
    norms = np.sum(pts ** 2, axis=1)
    with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
        scale = -0.25 / (h * h)
        for rows in blocks(n - 1, n):
            sq = pts[rows] @ (-2.0 * pts[rows.start:].T)
            sq += norms[rows, None]
            sq += norms[rows.start:]
            pairs = np.maximum(np.concatenate([row[i + 1:] for i, row in enumerate(sq)]), 0.0)
            near, far = pairs.min(), pairs.max()
            for gi, s in enumerate(scale):
                if near * s >= LOG_TINY:  # else every pair of the block is gated
                    arg = pairs * s
                    arg = arg if far * s >= LOG_TINY else arg[arg >= LOG_TINY]
                    wide = np.exp(arg, out=arg)
                    square[gi] += 2.0 * wide.sum()
                    cross[gi] += 2.0 * np.einsum("i,i", wide, wide)
        return (square / (n * n * (4.0 * np.pi * h * h) ** (dim / 2.0))
                - 2.0 * cross / (n * (n - 1) * (2.0 * np.pi * h * h) ** (dim / 2.0)))


def _as_bandwidths(grid) -> list:
    """``grid`` as a list of floats; refused unless nonempty, finite and positive."""
    grid = [float(h) for h in grid]
    if not grid:
        raise InvalidParameterError("bandwidth grid must be nonempty")
    if not all(np.isfinite(h) and h > 0 for h in grid):
        raise InvalidParameterError(f"bandwidths must be finite and positive, got {grid}")
    return grid


def select_bandwidth(samples, grid) -> float:
    """Pick the grid bandwidth minimizing the leave-one-out least-squares CV score.

    The score is ``integral p_hat^2 - (2/n) * sum_i p_hat_{-i}(x_i)`` for the
    Gaussian kernel, where ``p_hat_{-i}`` leaves sample ``i`` out: the
    integrated squared error up to a constant. Ties break toward the larger
    bandwidth. Raises on a non-finite sample or when no grid entry yields a finite score.
    """
    pts = _as_points(samples, "samples", rows=2)  # leave-one-out CV needs two
    grid = _as_bandwidths(grid)
    if len(grid) == 1:
        return grid[0]

    scores = _gaussian_loo_scores(pts, grid)
    if not np.isfinite(scores).any():
        raise BandwidthSelectionError("no bandwidth in the grid produced a finite CV score")
    best = np.min(scores[np.isfinite(scores)])
    return max(h for h, s in zip(grid, scores) if s == best)


def coeff_A(n: int, m: int) -> float:
    """``(1/m) * sum_{j=1}^{m} n^2 / (j + n - 1)^2``."""
    check_count(n, 1, "n")
    check_count(m, 1, "m")
    j = np.arange(1, m + 1, dtype=float)
    return float(np.sum(n ** 2 / (j + n - 1.0) ** 2) / m)


def coeff_B(n: int, m: int) -> float:
    """``(1/m) * sum_{j=2}^{m} 2 n (j - 1) / (j + n - 1)^2``."""
    check_count(n, 1, "n")
    check_count(m, 1, "m")
    j = np.arange(2, m + 1, dtype=float)
    return float(np.sum(2.0 * n * (j - 1.0) / (j + n - 1.0) ** 2) / m)


def _set_values(kernel: KernelSpec, sets: np.ndarray, bg: np.ndarray, a: float, b: float,
                return_components: bool) -> list:
    """``dshapley_density``'s value and ``std_error`` of each set of the stack ``sets``,
    then, with ``return_components``, its fit and bias terms: one (sets,) array each."""
    # (sets, rows) each: p_hat, and the cross term that becomes t_r
    p_hat, per_row = _kernel_means(kernel, sets, bg[:, None, :], ["evaluate", "self_convolution"])
    square = _mean_self_convolution(kernel, sets)
    if return_components:
        p_mean = p_hat.mean(axis=1)
        components = [-a * (square - 2.0 * p_mean), b * (p_mean - per_row.mean(axis=1))]
    per_row *= -b
    p_hat *= 2.0 * a + b
    per_row += p_hat
    per_row -= a * square[:, None]
    value = per_row.mean(axis=1)
    std_error = (per_row.std(axis=1, ddof=1) / np.sqrt(bg.shape[0]) if bg.shape[0] > 1
                 else np.zeros_like(value))
    return [value, std_error] + (components if return_components else [])


def dshapley_density(request: DensityValueRequest, background, kernel: KernelSpec, *,
                     return_components: bool = False):
    """Set value of ``request.s_star`` for the kernel density estimator.

    The value is the exact expectation over the background rows, which stand
    in for the data distribution. With ``p_hat`` built on the valued set
    ``s_1..s_n``, row ``r`` contributes
    ``(2A + B) p_hat(r) - B mean_i (k*k)(s_i - r) - A int p_hat^2``;
    ``std_error`` is the standard error of the row mean. A stack of sets is
    valued in chunks of sets, each in one pass over the rows, and gives ``(k,)``
    arrays; one set is a stack of one and gives floats. However many sets and
    rows there are, the work holds a few arrays, each of at most a budget of
    floats or one set's rows. ``return_components`` adds the row means
    of the fit term ``-A (int p_hat^2 - 2 p_hat(r))`` and of the bias term, the rest. Nothing
    is drawn. The value is reported up to an additive constant shared by all sets of the same
    size and horizon, so only differences and rankings at fixed set size are meaningful.
    """
    bg = _as_points(background, "background", rows=1)
    shape = request.s_star.shape[:-2]
    sets = request.s_star.reshape((-1,) + request.s_star.shape[-2:])
    a, b = coeff_A(sets.shape[1], request.m), coeff_B(sets.shape[1], request.m)
    # a chunk of sets holds about four (sets, rows) arrays at a time, one budget in all;
    # a set's arithmetic is the same in any chunk, so its bits do not depend on the chunk
    results = [np.empty(sets.shape[0]) for _ in range(4 if return_components else 2)]
    for chunk in blocks(sets.shape[0], 4 * bg.shape[0]):
        for out, part in zip(results, _set_values(kernel, sets[chunk], bg, a, b, return_components)):
            out[chunk] = part
    results = [in_shape(r, shape) for r in results]
    estimate = ValueEstimate(value=results[0], std_error=results[1])
    return (estimate, tuple(results[2:])) if return_components else estimate


def _h2_term(n: int, s: int, h: float) -> float:
    """Size-only part of the marginal contribution for the uniform kernel on [0, 1]."""
    n2 = float(n)
    s2 = float(s)
    lead = (n2 ** 2 + 2.0 * n2 * s2) / (s2 + n2) ** 2
    body = (12.0 - 15.0 * h + (5.0 + s2) * h ** 2) / (12.0 * s2 * h)
    tail = (2.0 * n2 * s2 / (s2 + n2) ** 2) * (h / 4.0)
    return lead * body - tail


def _c0(n: int, m: int, h: float, c_den: float) -> float:
    if not np.isfinite(c_den):
        raise InvalidParameterError(f"C_den must be finite, got {c_den}")
    total = sum(_h2_term(n, j - 1, h) for j in range(2, m + 1))
    return c_den / m + total / m


def _pair_fit_coefficient(delta, h):
    """Set-size-2 fit coefficient; branches on whether the points overlap."""
    delta = np.asarray(delta, dtype=float)
    near = 1.0 - 1.0 / h + delta / (2.0 * h ** 2)
    far = 1.0 - 1.0 / (2.0 * h)
    return np.where(delta >= h, far, near)


def uniform_closed_form(points, h: float, m: int, C_den: float) -> float:
    """Closed-form set value for one or two points under the uniform kernel.

    Valid for the uniform density on [0, 1] when every point keeps its full
    kernel window inside the interval (``h <= 2 * min(z, 1 - z)``); outside
    that regime the expression does not apply and an error is raised.
    """
    pts = np.asarray(points, dtype=float).ravel()
    if not 1 <= pts.size <= 2:
        raise InvalidParameterError("closed form covers sets of one or two points")
    _as_bandwidths([h])
    margin = 2.0 * min(float(np.min(pts)), float(1.0 - np.max(pts)))
    if not h <= margin:  # a NaN point makes the margin NaN
        raise InvalidParameterError(
            f"bandwidth {h} violates the interior condition (limit {margin:.6g})")
    n = pts.size
    if n == 1:
        fit = 1.0 - 1.0 / h
    else:
        fit = float(_pair_fit_coefficient(abs(pts[0] - pts[1]), h))
    return coeff_A(n, m) * fit + _c0(n, m, h, C_den)


def synergy_scan(h_grid, m: int = 100, C_den: float = 0.2, n_draws: int = 5000, *,
                 rng: RandomStream) -> SynergyScanResult:
    """Probe, per bandwidth, when a pair is worth more than its two members.

    Both points of a pair are drawn uniformly from ``[h/2, 1 - h/2]``, the part
    of the unit interval where the closed form applies, so none is rejected. For each
    bandwidth the scan records the smallest pair distance exhibiting synergy
    and the fraction of synergetic pairs.
    """
    grid = _as_bandwidths(h_grid)
    if any(h >= 1.0 for h in grid):
        raise InvalidParameterError("bandwidths must lie in (0, 1)")
    check_count(n_draws, 1, "n_draws")
    records = []
    for gi, h in enumerate(grid):
        gen = rng.substream(gi).generator
        lo, hi = h / 2.0, 1.0 - h / 2.0
        z1 = gen.uniform(lo, hi, size=n_draws)
        z2 = gen.uniform(lo, hi, size=n_draws)
        delta = np.abs(z1 - z2)
        pair_value = coeff_A(2, m) * _pair_fit_coefficient(delta, h) + _c0(2, m, h, C_den)
        single_value = coeff_A(1, m) * (1.0 - 1.0 / h) + _c0(1, m, h, C_den)
        synergy = pair_value >= 2.0 * single_value
        probability = float(synergy.mean())
        threshold = float(delta[synergy].min()) if synergy.any() else None
        records.append(SynergyRecord(bandwidth=h, threshold=threshold,
                                     probability=probability))
    return SynergyScanResult(records=records)
