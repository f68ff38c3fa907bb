"""Seedable randomness, SPD linear algebra, and the block and count rules shared by every estimator.

All operations here are pure given their inputs. Parallel Monte-Carlo work
should be partitioned by stream so results do not depend on scheduling.
"""

from __future__ import annotations

from contextlib import suppress

import numpy as np
from numpy.random import SeedSequence, default_rng

from .errors import InvalidParameterError, RankDeficiencyError, SingularMatrixError

__all__ = [
    "RandomStream",
    "SpdMatrix",
    "spd_inverse",
    "estimate_second_moment",
    "mahalanobis_sq",
    "inv_logit",
]


class RandomStream:
    """Reproducible random source keyed by ``(seed, stream_id)``.

    Identical ``(seed, stream_id)`` pairs replay bit-identical draw
    sequences; distinct stream ids give statistically independent
    sequences. :meth:`substream` derives further independent streams
    (one per valued point, grid entry, repetition, ...) so parallel
    work stays reproducible regardless of execution order.
    """

    def __init__(self, seed: int, stream_id: int = 0, _path: tuple = ()):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._path = tuple(int(i) for i in _path)
        self._generator = None

    @property
    def generator(self) -> np.random.Generator:
        """The underlying generator, created lazily on first use."""
        if self._generator is None:
            key = (self.stream_id,) + self._path
            self._generator = default_rng(SeedSequence(self.seed, spawn_key=key))
        return self._generator

    def substream(self, index: int) -> "RandomStream":
        """Independent child stream identified by ``index``."""
        return RandomStream(self.seed, self.stream_id, self._path + (int(index),))

    def __repr__(self):
        path = "".join(f".{i}" for i in self._path)
        return f"RandomStream(seed={self.seed}, stream_id={self.stream_id}{path})"


def _cholesky_lower(matrix: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor; on failure the pivot is the first leading minor that fails."""
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        pass
    for pivot in range(1, matrix.shape[0] + 1):
        try:
            np.linalg.cholesky(matrix[:pivot, :pivot])
        except np.linalg.LinAlgError:
            break
    raise SingularMatrixError("matrix is not positive definite", pivot=pivot)


class SpdMatrix:
    """A symmetric positive definite matrix with a cached Cholesky factor.

    Symmetry is required to within 1e-12 relative tolerance and the
    factorization must succeed; both are checked on construction.
    """

    _SYM_RTOL = 1e-12

    def __init__(self, values):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise InvalidParameterError("SpdMatrix requires a square 2-d array")
        scale = np.linalg.norm(values)
        asym = np.linalg.norm(values - values.T)
        if scale > 0 and asym > self._SYM_RTOL * scale:
            raise InvalidParameterError(
                f"matrix is not symmetric (relative asymmetry {asym / scale:.3e})"
            )
        self.values = values
        self._chol = _cholesky_lower(values)

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def cholesky(self) -> np.ndarray:
        return self._chol

    def __repr__(self):
        return f"SpdMatrix(dim={self.dim})"


def spd_inverse(matrix: SpdMatrix) -> SpdMatrix:
    """Invert an SPD matrix through its lower Cholesky factor, ``L^-T L^-1``."""
    factor_inv = np.linalg.inv(matrix.cholesky())
    inv = factor_inv.T @ factor_inv
    return SpdMatrix(0.5 * (inv + inv.T))  # exact symmetry, not just up to rounding


def solve_each(a, b):
    """Solve each system of a stack, ``a`` (..., p, p) against ``b`` (..., p, r), as if
    alone; a singular one gives NaN and a True flag in the returned mask."""
    try:
        return np.linalg.solve(a, b), np.zeros(a.shape[:-2], dtype=bool)
    except np.linalg.LinAlgError:
        out, singular = np.full(b.shape, np.nan), np.ones(a.shape[:-2], dtype=bool)
        for i in np.ndindex(singular.shape):
            with suppress(np.linalg.LinAlgError):
                out[i], singular[i] = np.linalg.solve(a[i], b[i]), False
        return out, singular


def estimate_second_moment(samples) -> SpdMatrix:
    """Uncentered second moment ``(1/N) sum_i x_i x_i^T``.

    Requires at least ``p`` samples; the result must be positive definite,
    which holds whenever the samples span R^p.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 2:
        raise InvalidParameterError("samples must form an (N, p) array")
    n, p = x.shape
    if n < p:
        raise RankDeficiencyError(
            f"{n} samples cannot identify a {p}-dimensional second moment"
        )
    moment = (x.T @ x) / n
    # exact symmetrization guards against accumulation asymmetry
    moment = 0.5 * (moment + moment.T)
    return SpdMatrix(moment)


def mahalanobis_sq(x, sigma_inv: SpdMatrix):
    """Quadratic form ``x^T sigma_inv x`` (squared Mahalanobis distance from zero).

    A vector gives a float and the rows of an ``(n, p)`` array an ``(n,)`` array, each row summed alone.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != sigma_inv.dim:
        raise InvalidParameterError(
            f"dimension mismatch: input of shape {x.shape} vs matrix dim {sigma_inv.dim}"
        )
    return in_shape(np.maximum(np.einsum("...i,ij,...j->...", x, sigma_inv.values, x), 0.0),
                    x.shape[:-1])


def check_count(value, minimum, name: str) -> None:
    """The one rule for a count (a horizon, a gate, a size, a number of draws): raise
    ``InvalidParameterError`` naming it unless ``minimum <= value < inf``, so NaN and
    infinity fail with the rest, and unless it is a whole number (``5.0`` is one)."""
    if not minimum <= value < np.inf:
        raise InvalidParameterError(f"{name} must be at least {minimum}, got {value!r}")
    if value != int(value):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")


def check_nonnegative(obj, names) -> None:
    """Raise ``InvalidParameterError`` naming the first of the fields ``names`` of ``obj`` with an
    entry that is not finite and nonnegative (NaN fails too). An infinite statistic, which a
    finite but large input makes, leaves the kernels no finite value."""
    for name in names:
        value = np.asarray(getattr(obj, name), dtype=float)
        ok = (value >= 0) & (value < np.inf)
        if not ok.all():
            raise InvalidParameterError(
                f"{name} must be finite and nonnegative, got {float(value[~ok].flat[0])}")


def check_row_norms(x, name: str) -> None:
    """Raise ``InvalidParameterError`` naming the first row (1-based) of ``x`` (n, p) whose
    squared norm is not finite: a row of finite entries such as 1e200 still overflows the
    Gram of any fit that takes it."""
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.einsum("ij,ij->i", x, x)
    bad = np.flatnonzero(~np.isfinite(sq))
    if bad.size:
        raise InvalidParameterError(
            f"{name} row {bad[0] + 1} has a squared norm that is not finite, got {float(sq[bad[0]])!r}")


# Floats one block of a bounded kernel may hold, read at each call: _BLOCK_FLOATS bounds
# memory, the smaller _CACHE_FLOATS keeps a working set in cache where that is faster.
_BLOCK_FLOATS = 1 << 16
_CACHE_FLOATS = 1 << 14


def blocks(stop: int, width: int, *, cache: bool = False):
    """Slices cutting ``range(stop)`` in order into blocks of as many rows of ``width`` floats
    as one budget holds (``_CACHE_FLOATS`` with ``cache``, else ``_BLOCK_FLOATS``), or one row.
    The last slice may reach past ``stop``. A generator: no list of slices is held."""
    step = max(1, (_CACHE_FLOATS if cache else _BLOCK_FLOATS) // max(width, 1))
    for start in range(0, stop, step):
        yield slice(start, start + step)


def text_blocks(handle):
    """Blocks of whole lines of a text ``handle``: reads of ``8 * _CACHE_FLOATS`` characters
    (the bytes of one cache block), each cut after its last line end (LF or CR) and the rest
    carried to the next; a line longer than a read grows its block. The last block may lack a
    line end. A CR LF pair may be cut between its two characters. A generator: it holds one
    read and the block cut from it, never the file."""
    size = 8 * _CACHE_FLOATS
    rest = ""
    while chunk := handle.read(size):
        text = rest + chunk
        cut = max(text.rfind("\n"), text.rfind("\r")) + 1
        if cut:
            yield text[:cut]
        rest = text[cut:]
    if rest:
        yield rest


def runs(cost, budget: int | None = None):
    """Slices cutting the ascending ``cost`` in order into runs, each of the most entries
    whose count times the run's last cost stays within ``budget`` (``_BLOCK_FLOATS`` when
    None), or of one entry."""
    budget = _BLOCK_FLOATS if budget is None else budget
    start = 0
    while start < len(cost):
        total = np.arange(1, len(cost) - start + 1) * cost[start:]
        end = start + max(1, int(np.searchsorted(total, budget, side="right")))
        yield slice(start, end)
        start = end


LOG_TINY = np.log(np.finfo(float).tiny)  # exp of less is subnormal (slow); taken as 0


def exp_or_zero(arg):
    """``exp(arg)``, with 0 wherever ``arg`` lies below ``LOG_TINY``."""
    return np.exp(arg, out=np.zeros(np.shape(arg)), where=arg >= LOG_TINY)


def in_shape(values, shape):
    """A kernel's results for a batch, in the shape its query came in: a batch's ``(n,)``
    as they are, and a point's (``shape`` is ``()``) its one entry as a Python scalar."""
    return values if shape else np.asarray(values).item()


def inv_logit(t):
    """Numerically stable sigmoid ``exp(t) / (1 + exp(t))``.

    Saturates to 0 or 1 for very large ``|t|`` instead of overflowing;
    accepts scalars or arrays. With ``e = exp(-|t|)`` it is ``1 / (1 + e)``
    where ``t >= 0`` and ``e / (1 + e)`` elsewhere, one division for both; the numerator
    is ``max(e, t >= 0)``, since ``e <= 1``.
    """
    arr = np.asarray(t, dtype=float)
    e = np.exp(-np.abs(arr))
    return in_shape(np.divide(np.maximum(e, arr >= 0), 1.0 + e), arr.shape)
