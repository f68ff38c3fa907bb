"""Distributional Shapley bounds for binary classification via the IRLS transform.

A logistic model is fitted by iteratively reweighted least squares; each
datum is then mapped to its working response and weight, after which the
weighted point is valued with the sub-Gaussian regression bounds (the
working-response model has unit conditional variance, so no noise estimate
is needed); both sides come from one pass, each part at its own eigenvalue
extreme, and each part is a Laplace integral of the point's decay against
size tables built once a call. Only the lower bound is recommended for
ranking; the upper bound is exposed for comparison but ranks poorly in
practice.
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
from .estimates import BoundsResult
from .numerics import SpdMatrix, check_count, check_nonnegative, check_row_norms, check_sample, estimate_second_moment, in_shape, inv_logit, mahalanobis_sq, solve_each
from .regression import _check_q, _envelope_bounds

__all__ = [
    "IRLSState",
    "BinaryPointQuery",
    "irls_fit",
    "transform_query",
    "estimate_weighted_second_moment",
    "dshapley_binary_bounds",
]

_WEIGHT_FLOOR = 1e-10
_IRLS_TOL = 1e-8  # the relative step norm at which a fit has converged
_GRAM_ROWS = 256  # rows per block of the IRLS Gram, summed in order


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
    of ``d_tilde`` is the shape of their results. Every entry of ``e2_b`` and
    ``d_tilde`` must be finite and nonnegative.
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
        check_nonnegative(self, ("d_tilde", "e2_b"))


def _irls_stack(x, y, sizes, max_iter: int):
    """The IRLS loop on a stack of subsets: subset a is the first ``sizes[a]`` rows of ``x[a]``
    (k, s, p) and ``y[a]`` (k, s). Each iteration is the Newton increment on a feature-major
    (k, p, s) copy of the stack, taken once a call with the rows past a subset's size set to
    x = 0 and y = 1/2, so that their weighted rows ``w x`` and residuals ``r = y - pi`` are
    exact zeros. With the floored weights ``w = max(pi (1 - pi), 1e-10)``, one product of x
    with ``[w x ; r]``, summed over fixed 256-row blocks, gives the Gram G and ``X^T r``, and
    beta moves by the solution of ``G d = X^T r``: the working-response step ``G^-1 X^T W z``,
    since ``X^T W z = G beta + X^T r``. Each subset stops at its own ``|d| / (1 + |beta|) <=
    _IRLS_TOL``, at ``max_iter`` or where G is singular, and the stack is cut to the subsets
    still iterating only when one stops. No product is a gemv, whose sums depend on the row
    count, so a fit's bits depend neither on the other subsets nor on the padding width.
    Returns an ``IRLSState`` of (k, ...) arrays and the (k,) singular flags.
    """
    k, s, p = np.shape(x)
    inside = np.arange(s) < np.asarray(sizes)[:, None]
    xt = np.multiply(np.swapaxes(x, -1, -2), inside[:, None], order="C")  # (k, p, s)
    y = np.where(inside, y, 0.5)
    buf = np.empty((k, p + 1, s))  # [w x ; r] of the subsets still iterating
    beta = np.zeros((k, p))
    step = np.full(k, np.inf)
    iterations = np.zeros(k, dtype=int)
    converged, singular = np.zeros(k, dtype=bool), np.zeros(k, dtype=bool)
    active = np.arange(k)  # subsets still iterating
    for it in range(1, max_iter + 1):
        if active.size == 0:
            break
        part, old = buf[:active.size], beta[active]
        pi = inv_logit(np.einsum("kjs,kj->ks", xt, old))
        w = np.maximum(pi * (1.0 - pi), _WEIGHT_FLOOR)
        np.multiply(xt, w[:, None], out=part[:, :p])
        np.subtract(y, pi, out=part[:, p])
        both = np.swapaxes(part, -1, -2)  # (k, s, p + 1): G and X^T r from one product
        prod = xt[..., :_GRAM_ROWS] @ both[..., :_GRAM_ROWS, :]
        for at in range(_GRAM_ROWS, s, _GRAM_ROWS):
            prod += xt[..., at:at + _GRAM_ROWS] @ both[..., at:at + _GRAM_ROWS, :]
        delta, bad = solve_each(prod[..., :p], prod[..., p:])
        delta = delta[..., 0]
        new = old + delta
        moved = np.sqrt(_sq_norms(delta)) / (1.0 + np.sqrt(_sq_norms(new)))
        iterations[active] = it
        converged[active] = done = moved <= _IRLS_TOL  # False where singular: moved is NaN
        if bad.any():  # a singular subset stops with its last beta and step
            singular[active[bad]] = True
            new[bad], moved[bad] = old[bad], step[active[bad]]
        beta[active], step[active] = new, moved
        stay = ~(done | bad)
        if not stay.all():
            active, xt, y = active[stay], xt[stay], y[stay]
    return IRLSState(beta=beta, iterations=iterations, converged=converged,
                     final_step_norm=step), singular


def _sq_norms(v):
    # row by row as a dot product, which is what np.linalg.norm takes of one vector
    return (v[:, None, :] @ v[:, :, None])[:, 0, 0]


def irls_fit(x, y, max_iter: int = 100) -> IRLSState:
    """Fit logistic-regression coefficients by iteratively reweighted least squares.

    Takes Newton increments, each the solution of the weighted normal equations
    against ``X^T (y - pi)`` (the working-response step), until the relative
    step norm ``|d| / (1 + |beta|)`` drops to 1e-8 (``_IRLS_TOL``). Equals the
    maximum-likelihood estimate at convergence. Separable data never converge
    (the MLE does not exist); the returned state then has ``converged=False``
    and a growing coefficient norm. A row whose squared norm or label is not finite
    is refused by its 1-based number. This is the IRLS loop on a stack of one subset.
    """
    check_count(max_iter, 1, "max_iter")
    x, y = check_sample(x, y)
    n, p = x.shape
    if n <= p:
        raise InsufficientDataError(f"need more than p={p} samples, got {n}")
    check_row_norms(x, "background")
    classes = np.unique(y)
    if not np.array_equal(classes, [0.0, 1.0]):
        if classes.size < 2:
            raise InvalidParameterError("both classes must be present")
        raise InvalidParameterError("labels must be 0/1")

    state, singular = _irls_stack(x[None], y[None], [n], max_iter)
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
    check_sample(rows, y, ("x_star", "y_star"))
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


def dshapley_binary_bounds(query: BinaryPointQuery, m: int, q: int) -> BoundsResult:
    """Deterministic lower/upper value bounds for a transformed binary datum or batch.

    The regression envelope bounds at zero ridge, with the conditional
    variance fixed at 1 by the working-response model, over every admitted
    size, both sides at once with each side's noise and error sums; indices
    with vacuous concentration (deviation >= 1) are skipped and counted.
    """
    p = query.x_star.shape[-1]
    check_count(m, 1, "valuation horizon m")
    _check_q(q, p, "the binary bounds")
    return _envelope_bounds(query.d_tilde, query.e2_b, sigma2=1.0, m=m, q=q, p=p)
