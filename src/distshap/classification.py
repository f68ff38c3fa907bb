"""Distributional Shapley bounds for binary classification via the IRLS transform.

A logistic model is fitted by iteratively reweighted least squares; each
datum is then mapped to its working response and weight, after which the
weighted point is valued with the sub-Gaussian regression bounds (the
working-response model has unit conditional variance, so no noise estimate
is needed). Only the lower bound is recommended for ranking; the upper
bound is exposed for comparison but ranks poorly in practice.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    InsufficientDataError,
    InvalidParameterError,
    NotConvergedError,
    SaturationError,
    SingularMatrixError,
)
from .estimates import BoundParams, BoundsResult
from .numerics import SpdMatrix, estimate_second_moment, in_shape, inv_logit, mahalanobis_sq, solve_each
from .regression import _envelope_bounds

__all__ = [
    "IRLSState",
    "BinaryPointQuery",
    "irls_fit",
    "transform_query",
    "estimate_weighted_second_moment",
    "dshapley_binary_bounds",
]

_WEIGHT_FLOOR = 1e-10


@dataclass
class IRLSState:
    """Outcome of an IRLS logistic fit, or of a stack of fits as (k, ...) arrays."""

    beta: np.ndarray
    iterations: int
    converged: bool
    final_step_norm: float


@dataclass
class BinaryPointQuery:
    """A labelled datum mapped to its working-response statistics.

    ``pi_star`` is the fitted class-1 probability, ``w_star`` its variance
    weight, ``z_star`` the working response, ``e2_b`` the weighted squared
    error and ``d_tilde`` the weighted Mahalanobis statistic driving the
    value bounds. A batch holds ``(n, p)`` inputs and ``(n,)`` arrays; a point
    holds scalars. The bounds value a point as a batch of one, and the shape
    of ``d_tilde`` is the shape of their results.
    """

    x_star: np.ndarray
    y_star: int
    pi_star: float
    w_star: float
    z_star: float
    e2_b: float
    d_tilde: float

    def __post_init__(self):
        self.x_star = np.asarray(self.x_star, dtype=float)
        if not np.all(np.isin(self.y_star, (0, 1))):
            raise InvalidParameterError("y_star must be 0 or 1")
        w = np.asarray(self.w_star)
        if not np.all((0.0 < w) & (w <= 0.25)):
            raise InvalidParameterError("w_star must lie in (0, 0.25]")
        if np.any(np.asarray(self.e2_b) < 0) or np.any(np.asarray(self.d_tilde) < 0):
            raise InvalidParameterError("e2_b and d_tilde must be nonnegative")


def _irls_stack(x, y, members, tol: float, max_iter: int):
    """The IRLS loop on a stack of subsets: row i of ``x[a]`` (k, s, p) and ``y[a]`` (k, s)
    is in subset a where ``members[a, i]`` is 1. Each subset stops at its own ``tol``, at
    ``max_iter`` or where its normal equations are singular. No product is a gemv, whose sums
    depend on the row count, so a fit's bits depend neither on the other subsets nor on the
    padding width (for p^2 * width < 10^6). Returns an ``IRLSState`` of (k, ...) arrays and
    the (k,) singular flags.
    """
    k, p = members.shape[0], x.shape[-1]
    beta = np.zeros((k, p))
    step = np.full(k, np.inf)
    iterations = np.zeros(k, dtype=int)
    converged, singular = np.zeros(k, dtype=bool), np.zeros(k, dtype=bool)
    active = np.arange(k)  # subsets still iterating
    for it in range(1, max_iter + 1):
        if active.size == 0:
            break
        xa, ya = (x, y) if active.size == k else (x[active], y[active])
        eta = np.einsum("...ij,...j->...i", xa, beta[active])
        pi = inv_logit(eta)
        w = np.maximum(pi * (1.0 - pi), _WEIGHT_FLOOR)
        z = eta + (ya - pi) / w
        wx = (w * members[active])[..., None] * xa  # rows outside a subset weigh 0
        rhs = np.swapaxes(wx, -1, -2) @ np.stack([z, z], -1)  # two columns: a gemm, not a gemv
        new, bad = solve_each(np.swapaxes(xa, -1, -2) @ wx, rhs[..., :1])
        new = new[..., 0]
        moved = np.sqrt(_sq_norms(new - beta[active])) / (1.0 + np.sqrt(_sq_norms(new)))
        ok = ~bad
        beta[active[ok]] = new[ok]
        step[active[ok]] = moved[ok]
        iterations[active] = it
        singular[active[bad]] = True
        done = ok & (moved <= tol)
        converged[active[done]] = True
        active = active[ok & ~done]
    return IRLSState(beta=beta, iterations=iterations, converged=converged,
                     final_step_norm=step), singular


def _sq_norms(v):
    # row by row as a dot product, which is what np.linalg.norm takes of one vector
    return (v[:, None, :] @ v[:, :, None])[:, 0, 0]


def irls_fit(x, y, tol: float = 1e-8, max_iter: int = 100) -> IRLSState:
    """Fit logistic-regression coefficients by iteratively reweighted least squares.

    Iterates the weighted normal equations on the working responses until the
    relative step norm drops to ``tol``. Equals the maximum-likelihood
    estimate at convergence. Separable data never converge (the MLE does not
    exist); the returned state then has ``converged=False`` and a growing
    coefficient norm. This is the IRLS loop on a stack of one subset.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    n, p = x.shape
    if n <= p:
        raise InsufficientDataError(f"need more than p={p} samples, got {n}")
    classes = np.unique(y)
    if not np.array_equal(classes, [0.0, 1.0]):
        if classes.size < 2:
            raise InvalidParameterError("both classes must be present")
        raise InvalidParameterError("labels must be 0/1")

    state, singular = _irls_stack(x[None], y[None], np.ones((1, n)), tol, max_iter)
    if singular[0]:
        raise SingularMatrixError("weighted normal equations are singular")
    beta, converged = state.beta[0], bool(state.converged[0])
    if not converged:
        warnings.warn(
            f"IRLS did not converge in {max_iter} iterations "
            f"(coefficient norm {np.linalg.norm(beta):.3g}, still moving); "
            "the data may be separable", stacklevel=2)
    return IRLSState(beta=beta, iterations=int(state.iterations[0]), converged=converged,
                     final_step_norm=float(state.final_step_norm[0]))


def estimate_weighted_second_moment(x, beta) -> SpdMatrix:
    """Uncentered second moment of the weight-scaled inputs ``sqrt(w) * x``.

    Weights are the fitted variance weights ``pi (1 - pi)`` at ``beta``.
    """
    x = np.asarray(x, dtype=float)
    pi = inv_logit(x @ np.asarray(beta, dtype=float))
    w = pi * (1.0 - pi)
    return estimate_second_moment(np.sqrt(w)[:, None] * x)


def transform_query(x_star, y_star, state: IRLSState, sigma_tilde_inv: SpdMatrix,
                    *, clamp_weight: bool = False) -> BinaryPointQuery:
    """Map a labelled datum, or the rows of an ``(n, p)`` batch, to its working-response query.

    Refuses to proceed on a non-converged fit (the transformed quantities
    are meaningless when the MLE diverges). A probability that saturates to
    numerically 0 or 1 raises ``SaturationError`` unless ``clamp_weight``
    opts into flooring the weight at 1e-12. A datum is a batch of one, and
    each row's statistics do not depend on the rows beside it.
    """
    if not state.converged:
        raise NotConvergedError("transform requires a converged IRLS fit")
    if not np.all(np.isin(y_star, (0, 1))):
        raise InvalidParameterError("y_star must be 0 or 1")
    x_star = np.asarray(x_star, dtype=float)
    rows, shape = np.atleast_2d(x_star), x_star.shape[:-1]
    y = np.atleast_1d(y_star).astype(int)
    eta = np.einsum("ij,j->i", np.ascontiguousarray(rows), state.beta)
    pi = inv_logit(eta)
    w = pi * (1.0 - pi)
    saturated = w <= 0.0
    if saturated.any() and not clamp_weight:
        raise SaturationError(f"fitted probability saturated (linear predictor {eta[saturated][0]:.3g})")
    w[saturated] = 1e-12
    stats = dict(y_star=y, pi_star=pi, w_star=w, z_star=eta + (y - pi) / w, e2_b=(y - pi) ** 2 / w,
                 d_tilde=w * mahalanobis_sq(rows, sigma_tilde_inv))
    return BinaryPointQuery(x_star=x_star, **{k: in_shape(v, shape) for k, v in stats.items()})


def dshapley_binary_bounds(query: BinaryPointQuery, m: int, q: int,
                           params: BoundParams | None = None, *,
                           _side: str | None = None) -> BoundsResult:
    """Deterministic lower/upper value bounds for a transformed binary datum or batch.

    The regression envelope bounds at zero ridge, with the conditional
    variance fixed at 1 by the working-response model. Summation runs until
    the running lower bound's relative change drops to ``params.rho``;
    indices with vacuous concentration (deviation >= 1) are skipped and
    counted. ``_side`` ("lower" or "upper") computes that side alone and
    leaves the other None; the stop always follows the lower bound.
    """
    params = params if params is not None else BoundParams()
    p = query.x_star.shape[-1]
    if m < 1:
        raise InvalidParameterError("valuation horizon m must be at least 1")
    if q < p + 3:
        raise InvalidParameterError(f"binary bounds need q >= p + 3, got q={q}, p={p}")
    return _envelope_bounds(query.d_tilde, query.e2_b, sigma2=1.0, m=m, q=q, p=p, params=params,
                            early_stop=True, side=_side)
