"""Distributional Shapley estimators for least-squares and ridge regression.

Four routes are provided:

* :func:`dshapley_regression_quadrature` evaluates the closed form that
  holds for Gaussian inputs at zero ridge, where the value of a point
  reduces to its squared error and Mahalanobis distance plus chi-squared
  expectations, as one deterministic integral over every admitted size.
* :func:`dshapley_regression_exact` samples the same closed form over every
  admitted size, a fixed count of draws each; it is kept as the sampled
  reference.
* :func:`dshapley_regression_bounds` evaluates deterministic lower/upper
  bounds valid for sub-Gaussian inputs at any ridge.
* :func:`dshapley_regression_general_mc` Monte-Carlo integrates the general
  ridge-leverage form, which needs no input distribution assumption beyond
  a second moment.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, InvalidParameterError, SingularMatrixError
from .estimates import BoundsResult, ValueEstimate
from .numerics import LOG_TINY, RandomStream, SpdMatrix, blocks, check_count, check_nonnegative, check_row_norms, check_sample, estimate_second_moment, exp_or_zero, in_shape, mahalanobis_sq, spd_inverse

__all__ = [
    "RegressionEnvironment",
    "PointQuery",
    "fit_background",
    "dshapley_regression_quadrature",
    "dshapley_regression_exact",
    "dshapley_regression_bounds",
    "dshapley_regression_general_mc",
    "normalization_shift",
    "analytic_utility_constant",
    "make_gaussian_sampler",
]

_INNER_BLOCK = 128  # the exact sampler's default draws, and each size's first values
_TABLE_SIZES = 51  # sizes per block of every size table; the cut fixes its bits

# the one Laplace rule of both regression routes: nodes v = exp(x) at x = _LAPLACE_FROM + k
# _LAPLACE_STEP (7/32, exact in binary, so is every x), to x = _QUAD_TOP for the quadrature
# (651 nodes), and for the bounds to where exp(-v a) <= exp(-_BOUND_TAIL) at the smallest a
_LAPLACE_FROM, _LAPLACE_STEP, _QUAD_TOP, _BOUND_TAIL = -62.0, 0.21875, 80.0, 60.0
# the quadrature's std_error per unit of value: a rounding bound (the error read <= 6 eps)
_QUAD_ROUNDING = 64.0 * np.finfo(float).eps


@dataclass
class RegressionEnvironment:
    """Fitted background quantities plus the valuation parameters.

    ``m`` is the valuation horizon (the hypothetical dataset size), ``q`` the subset size below
    which the utility is gated to zero, ``gamma`` the ridge penalty of the valued estimator.
    The dimension ``p`` is the length of ``beta_hat``.
    """

    m: int
    q: int
    gamma: float
    sigma2: float
    beta_hat: np.ndarray
    sigma_inv: SpdMatrix

    def __post_init__(self):
        self.beta_hat = np.asarray(self.beta_hat, dtype=float)
        check_count(self.beta_hat.size, 1, "dimension p")
        check_count(self.m, 1, "valuation horizon m")
        check_count(self.q, 2, "utility gate q")
        check_nonnegative(self, ("gamma", "sigma2"))
        if self.beta_hat.shape != (self.sigma_inv.dim,):
            raise InvalidParameterError(f"beta_hat of shape {self.beta_hat.shape} and a "
                                        f"{self.sigma_inv.dim}-d sigma_inv must share one dimension p")

    @property
    def p(self) -> int:
        return self.beta_hat.shape[0]


@dataclass
class PointQuery:
    """A datum to be valued, with its derived statistics.

    ``e2`` is the squared prediction error against the environment's fit and
    ``d`` the squared Mahalanobis distance of the input from zero. A batch
    holds ``(n, p)`` inputs and ``(n,)`` arrays of targets and statistics, a
    point floats; the kernels value a point as a batch of one. Every entry
    of ``e2`` and ``d`` must be finite and nonnegative.
    """

    x_star: np.ndarray
    y_star: float
    e2: float
    d: float

    def __post_init__(self):
        self.x_star = np.asarray(self.x_star, dtype=float)
        check_nonnegative(self, ("d", "e2"))

    @classmethod
    def from_point(cls, x, y, env: RegressionEnvironment) -> "PointQuery":
        """Query for one input ``x`` (p,) or the rows of an (n, p) batch, each row summed alone."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        with np.errstate(over="ignore"):  # an overflow to inf is refused by name, not warned of
            e2 = (y - np.einsum("...j,j->...", np.ascontiguousarray(x), env.beta_hat)) ** 2
        return cls(x_star=x, y_star=in_shape(y, x.shape[:-1]), e2=in_shape(e2, x.shape[:-1]),
                   d=mahalanobis_sq(x, env.sigma_inv))


def fit_background(x, y, *, m: int, q: int, gamma: float = 0.0) -> RegressionEnvironment:
    """Estimate the unknown background quantities from a reference sample.

    Fits ``beta_hat`` by least squares, the noise variance by
    ``RSS / (N - p)``, and the inverse uncentered second moment of the
    inputs; ``gamma`` is stored as the valuation-time penalty. A row whose
    squared norm or target is not finite is refused by its 1-based number.
    """
    x, y = check_sample(x, y)
    n, p = x.shape
    if n <= p:
        raise InsufficientDataError(f"need more than p={p} samples, got {n}")
    check_row_norms(x, "background")
    try:
        beta_hat = np.linalg.solve(x.T @ x, x.T @ y)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("background normal equations are singular") from exc
    rss = float(np.sum((y - x @ beta_hat) ** 2))
    sigma2 = rss / (n - p)
    # residuals at rounding scale mean the background is an exact linear fit
    if sigma2 <= 1e-20 * max(1.0, float(np.mean(y ** 2))):
        sigma2 = 0.0
        warnings.warn("background fit is noiseless (sigma2 = 0); values will be "
                      "driven by squared errors only", stacklevel=2)
    sigma_inv = spd_inverse(estimate_second_moment(x))
    return RegressionEnvironment(m=m, q=q, gamma=gamma, sigma2=sigma2, beta_hat=beta_hat, sigma_inv=sigma_inv)


def _check_q(q: int, p: int, route: str) -> None:
    """The chi-squared forms need ``q >= p + 3``: below it the smallest admitted size
    divides by zero or flips a sign."""
    check_count(q, p + 3, f"{route}: the gate q (q >= p + 3 is required, got q={q}, p={p})")


def _empty_sum(m, q, shape=(), stacklevel: int = 3) -> ValueEstimate | None:
    """None where the horizon m admits a size; else, with a warning, the zero estimate."""
    if m >= q:
        return None
    warnings.warn(
        f"valuation horizon m={m} is below the utility gate q={q}; "
        "the value is an empty sum and exactly 0", stacklevel=stacklevel)
    return ValueEstimate(value=in_shape(np.zeros(shape), shape), std_error=in_shape(np.zeros(shape), shape))


def _gaussian_sizes(env: RegressionEnvironment, route: str, shape):
    """(empty, sizes, weights, dofs) of the Gaussian closed form's routes, which need gamma = 0
    and q >= p + 3: the sizes ``j = q-1 .. m-1`` with weights ``(j-1)/(j-p)`` and chi-squared
    degrees of freedom ``j-p+1``, and when ``m < q``, ``empty``, the empty sum's estimate."""
    if env.gamma != 0.0:
        raise InvalidParameterError(f"{route} requires gamma = 0")
    _check_q(env.q, env.p, route)
    js = np.arange(env.q - 1, env.m, dtype=float)
    empty = _empty_sum(env.m, env.q, shape, stacklevel=4)
    return empty, js, (js - 1.0) / (js - env.p), js - env.p + 1.0


def _laplace_nodes(top: float) -> np.ndarray:
    """Nodes ``exp(x)`` of the Laplace rule, from ``x = _LAPLACE_FROM`` to the first ``x`` at or
    past ``top``."""
    count = np.ceil((top - _LAPLACE_FROM) / _LAPLACE_STEP) + 1
    return np.exp(_LAPLACE_FROM + _LAPLACE_STEP * np.arange(count))


def _size_table(rates, exponents, weights) -> np.ndarray:
    """``sum_j weights[:, j] exp(-rates[i] exponents[j])`` at each node ``i``, a ``(k, nodes)``
    array for ``k`` rows of weights, summed ``_TABLE_SIZES`` sizes a block. ``rates`` ascend
    and ``exponents`` are positive, so a block's products stop at the first node where its
    smallest exponent's term underflows to ``exp_or_zero``'s 0, as all its later terms do."""
    table = np.zeros((weights.shape[0], rates.size))
    for start in range(0, exponents.size, _TABLE_SIZES):
        sizes = slice(start, start + _TABLE_SIZES)
        stop = np.searchsorted(rates * exponents[sizes].min(), -LOG_TINY, side="right")
        terms = exp_or_zero(np.outer(-exponents[sizes], rates[:stop]))  # (sizes, nodes)
        table[:, :stop] += weights[:, sizes] @ terms
    return table


def _laplace_sums(d, v, tables) -> np.ndarray:
    """``int_0^inf v exp(-d v) F(v) dv`` at each point of ``d`` for each table ``F`` given at the
    nodes ``v``: ``(tables, points)`` trapezoid sums in ``x``, weights ``_LAPLACE_STEP v^2``.
    Points go in row blocks of a cache budget of (points x nodes) entries, one decay row a
    point shared by every table, each sum an ``einsum`` over one row, not a matrix product,
    whose summation order depends on the row count: a point's bits do not depend on its block."""
    tables = _LAPLACE_STEP * v * v * np.asarray(tables)
    sums = np.empty((len(tables), d.size))
    for rows in blocks(d.size, v.size, cache=True):
        decay = exp_or_zero(np.outer(-d[rows], v))  # (points, nodes)
        for k, table in enumerate(tables):
            sums[k, rows] = np.einsum("ij,j->i", decay, table)
    return sums


def dshapley_regression_quadrature(query: PointQuery, env: RegressionEnvironment) -> ValueEstimate:
    """Integrate the Gaussian-input closed form of the value of one point or a batch.

    Over the admitted sizes ``j = q-1 .. m-1``, with ``T ~ chi2(nu)``, ``nu = j-p+1``, the
    value is ``-(s2 P + d e2 Q) / m`` with ``P = sum_j (j-1)/(j-p) E[T/(d+T)^2]`` and ``Q =
    sum_j (j-1)/(j-p) E[1/(d+T)^2]``. ``E[exp(-uT)] = (1 + 2u)^(-nu/2)`` and ``E[T exp(-uT)] =
    nu (1 + 2u)^(-nu/2-1)`` make both Laplace integrals of positive integrands::

        P = int_0^inf u exp(-u d) G1(u) / (1 + 2u) du,   Q = int_0^inf u exp(-u d) G0(u) du
        Gk(u) = sum_j (j-1)/(j-p) nu^k (1 + 2u)^(-nu/2)

    ``G0`` and ``G1`` depend on ``(m, p, q)`` alone: :func:`_size_table` tabulates them at the
    nodes of the Laplace rule up to ``x = _QUAD_TOP``, and :func:`_laplace_sums` sums the
    points against them. No size is truncated and nothing is drawn. Both parts are sums of
    positive terms, so the rule's error is at rounding level: ``std_error`` is
    ``_QUAD_ROUNDING`` times the value's magnitude, plus a bound on the integrals past the
    top node ``U``, from ``Gk(u) <= Gk(U) ((1 + 2U) / (1 + 2u))^(nu0/2)`` with ``nu0 = q - p``
    the smallest ``nu``. It is exactly 0 once ``exp(-U d)`` underflows, for ``d`` above 1.4e-32.

    Requires ``gamma = 0`` and ``q >= p + 3``. Returns exact 0 (with a
    warning) when the horizon sits below the gate. The value and ``std_error``
    take the shape of ``query.d``; no point's bits depend on the batch.
    """
    shape = np.shape(query.d)
    empty, _, coef, dfs = _gaussian_sizes(env, "the quadrature route", shape)
    if empty is not None:
        return empty
    d, e2 = np.atleast_1d(query.d).astype(float), np.atleast_1d(query.e2).astype(float)

    u = _laplace_nodes(_QUAD_TOP)
    g0, g1 = _size_table(np.log1p(2.0 * u), dfs / 2.0, np.stack((coef, coef * dfs)))
    big_p, big_q = _laplace_sums(d, u, (g1 / (1.0 + 2.0 * u), g0))
    value = -(env.sigma2 * big_p + d * e2 * big_q) / env.m
    top, nu0 = u[-1], env.q - env.p
    tail = exp_or_zero(-top * d) * (env.sigma2 * g1[-1] * (1.0 + 2.0 * top) / (2.0 * (nu0 - 2))
                                    + np.where(d > 0.0, e2 * g0[-1] * top, 0.0)) / env.m
    return ValueEstimate(value=in_shape(value, shape),
                         std_error=in_shape(_QUAD_ROUNDING * np.abs(value) + tail, shape))


def dshapley_regression_exact(query: PointQuery, env: RegressionEnvironment,
                              draws: int | None, rng: RandomStream) -> ValueEstimate:
    """Sample the Gaussian-input closed form of the value of one point.

    The gated utility admits background subsets of sizes ``q - 1`` through
    ``m - 1``; for each size ``s`` the summand is an expectation over a
    chi-squared variable with ``s - p + 1`` degrees of freedom. Every size
    takes ``draws`` values (``_INNER_BLOCK`` when None, at least 2): its first
    ``min(_INNER_BLOCK, draws)`` come from one chi-squared draw over every size
    in size order, taken in row blocks, and then each size draws the rest, one
    size after another. The value sums every admitted size, and ``std_error``
    is the sampling error of that sum.

    Requires ``gamma = 0`` and ``q >= p + 3``. Returns exact 0 (with a
    warning) when the horizon sits below the gate.
    """
    draws = _INNER_BLOCK if draws is None else draws
    check_count(draws, 2, "draws")
    empty, js, coef, dfs = _gaussian_sizes(env, "the exact route", ())
    if empty is not None:
        return empty

    d, e2, s2, gen = query.d, query.e2, env.sigma2, rng.generator
    sums, sqsums = np.zeros(js.size), np.zeros(js.size)

    def add(rows, values):
        vals = coef[rows, None] * (d * e2 + values * s2) / (d + values) ** 2
        sums[rows] += vals.sum(axis=1)
        sqsums[rows] += (vals * vals).sum(axis=1)

    first = min(_INNER_BLOCK, draws)
    for rows in blocks(js.size, first):
        df = dfs[rows, None]
        add(rows, gen.chisquare(df, size=(df.shape[0], first)))
    rest = draws - first
    for row in range(js.size if rest else 0):
        # one size draws with a scalar df, the same values at a third of the call cost
        for cols in blocks(rest, 1):
            add(slice(row, row + 1), gen.chisquare(dfs[row], size=(1, min(cols.stop, rest) - cols.start)))

    means = sums / draws
    variances = np.maximum((sqsums - draws * means ** 2) / (draws - 1), 0.0)
    std_error = float(np.sqrt(np.sum(variances / draws)) / env.m)
    # a running sum in size order, not numpy's pairwise sum: it fixes the value's bits
    return ValueEstimate(value=float(np.cumsum(-means / env.m)[-1]), std_error=std_error,
                         inner_iters_used=[draws] * js.size)


def _envelope_bounds(d, e2, *, sigma2: float, m: int, q: int, p: int,
                     ridge: tuple = (0.0, 0.0)) -> BoundsResult:
    """Eigenvalue-envelope value bounds, in the shape of ``d``, for ``d`` and ``e2``.

    Each admitted subset size ``j`` carries envelopes ``up, lo = 1 / a`` with ``a = j (1 -+
    delta_j)^2 + ridge`` for the inverse design Gram matrix, where ``ridge`` holds ``gamma``
    times the extreme eigenvalues of the inverse second moment. Sizes where the
    concentration deviation ``delta_j = (sqrt(p) + sqrt(log(j m) / 2)) / sqrt(j)``
    (sub-Gaussian constants C = c = 1) reaches 1 are skipped and counted, since the bound is
    vacuous there. At ``t = d`` the error part ``E`` sums ``t lam^2 / (1 + t lam)^2 =
    t / (a + t)^2`` over the admitted sizes and the noise part ``S`` sums ``t lam^2 (2 + t
    lam) / (1 + t lam)^2``, which is ``2 E`` plus the sum of ``t^2 / (a (a + t)^2)``. Both
    increase with ``lam``, so each is taken at its own extreme: lower = ``(sigma2 S(lo) - e2
    E(up)) / m``, upper = ``(sigma2 S(up) - e2 E(lo)) / m``.

    With ``1 / (a + t)^2 = int_0^inf v exp(-v (a + t)) dv`` both sums are Laplace integrals
    against the size tables ``H(v) = sum_j exp(-v a_j)`` and ``K(v) = sum_j exp(-v a_j) /
    a_j``: ``E = t int v exp(-v t) H dv`` and ``S = 2 E + t^2 int v exp(-v t) K dv``.
    :func:`_size_table` builds both tables of each extreme at the nodes of the Laplace rule
    up to ``log(_BOUND_TAIL / a_min)``, and :func:`_laplace_sums` sums the points against
    them. Every weight is positive and ``a_lo >= a_up`` size by size, so every table entry
    and every node sum of the lower extreme is at most that of the upper, and lower <=
    upper. The result carries each side's noise and error sums.
    """
    shape = np.shape(d)
    _empty_sum(m, q, stacklevel=4)  # warns where m < q: both sides are then exact zeros
    d, e2 = np.atleast_1d(d), np.atleast_1d(e2)
    js = np.arange(q - 1, m, dtype=float)
    delta = (np.sqrt(p) + np.sqrt(np.log(js * m) / 2.0)) / np.sqrt(js)
    valid = delta < 1.0
    js, delta = js[valid], delta[valid]
    extremes = (js * (1.0 + delta) ** 2 + ridge[1], js * (1.0 - delta) ** 2 + ridge[0])  # lo, up
    v = _laplace_nodes(np.log(_BOUND_TAIL / extremes[1].min()) if js.size else _LAPLACE_FROM)
    h_lo, k_lo, h_up, k_up = _laplace_sums(d, v, np.concatenate(
        [_size_table(v, a, np.stack((np.ones_like(a), 1.0 / a))) for a in extremes]))
    e_lo, e_up = d * h_lo, d * h_up
    s_lo, s_up = 2.0 * e_lo + d * d * k_lo, 2.0 * e_up + d * d * k_up
    lower = (sigma2 * s_lo - e2 * e_up) / m
    upper = (sigma2 * s_up - e2 * e_lo) / m
    return BoundsResult(lower=in_shape(lower, shape), upper=in_shape(upper, shape),
                        lower_noise=in_shape(s_lo, shape), lower_error=in_shape(e_up, shape),
                        upper_noise=in_shape(s_up, shape), upper_error=in_shape(e_lo, shape),
                        skipped_terms=int(np.count_nonzero(~valid)))


def dshapley_regression_bounds(query: PointQuery, env: RegressionEnvironment) -> BoundsResult:
    """Deterministic lower/upper value bounds for sub-Gaussian inputs.

    Evaluates :func:`_envelope_bounds` for one point or a batch of points
    (array-valued bounds), both sides at once. The ridge remainder term is
    evaluated as zero, so bounds at ``gamma > 0`` are approximate.
    """
    eigs = np.linalg.eigvalsh(env.sigma_inv.values)
    return _envelope_bounds(query.d, query.e2, sigma2=env.sigma2, m=env.m, q=env.q, p=env.p,
                            ridge=(env.gamma * eigs[0], env.gamma * eigs[-1]))


def make_gaussian_sampler(sigma_x: SpdMatrix):
    """Sampler drawing i.i.d. mean-zero Gaussian inputs with the given second moment."""
    chol = sigma_x.cholesky()
    p = sigma_x.dim

    def sampler(count: int, rng: RandomStream) -> np.ndarray:
        return rng.generator.standard_normal((count, p)) @ chol.T

    return sampler


def dshapley_regression_general_mc(query: PointQuery, env: RegressionEnvironment,
                                   input_sampler, n_outer: int,
                                   rng: RandomStream) -> ValueEstimate:
    """Monte-Carlo the general ridge-leverage form of the value of one point.

    ``input_sampler(count, rng)`` must return ``count`` i.i.d. input vectors
    as a ``(count, p)`` array. For each subset size, ``n_outer`` design
    matrices (at least 2) are sampled and the leverage statistics of
    ``x_star`` under ``(X^T X + gamma I)^{-1}`` are averaged. At
    ``gamma = 0`` sizes below ``p`` cannot be inverted and are skipped
    (recorded as 0 draws).

    The value is reported under the general-form normalization; see
    :func:`normalization_shift` for the constant separating it from the
    Gaussian closed form.
    """
    check_count(n_outer, 2, "n_outer")
    if env.m < env.q:
        return _empty_sum(env.m, env.q)

    sigma_x = spd_inverse(env.sigma_inv).values
    x = query.x_star
    p = env.p
    d_e2, s2, gamma = query.e2, env.sigma2, env.gamma
    js = np.arange(env.q, env.m + 1)
    total = 0.0
    var_total = 0.0
    used = []
    for j in js:
        k = j - 1
        if gamma == 0.0 and k < p:
            used.append(0)
            continue
        sub = rng.substream(int(j))
        xs = np.asarray(input_sampler(n_outer * k, sub), dtype=float).reshape(n_outer, k, p)
        gram = np.einsum("nkp,nkq->npq", xs, xs)
        if gamma != 0.0:
            gram += gamma * np.eye(p)
        rhs = np.broadcast_to(x[:, None], (n_outer, p, 1))
        u = np.linalg.solve(gram, rhs)[..., 0]
        lev = u @ x
        quad = np.einsum("np,pq,nq->n", u, sigma_x, u)
        terms = quad * ((2.0 + lev) * s2 - d_e2) / (1.0 + lev) ** 2
        total += float(terms.mean())
        var_total += float(terms.var(ddof=1)) / n_outer
        used.append(n_outer)
    value = total / env.m
    std_error = float(np.sqrt(var_total) / env.m)
    return ValueEstimate(value=value, std_error=std_error, inner_iters_used=used)


def normalization_shift(env: RegressionEnvironment) -> float:
    """Constant separating the two reported value normalizations.

    The Gaussian closed form and the general ridge-leverage form each absorb
    a different utility constant; over the admitted subset sizes
    ``s = q - 1 .. m - 1`` their values differ by
    ``(sigma2 / m) * sum_s (s - 1) / ((s - p) (s - p - 1))``. Subtract this
    from a general-form estimate to compare it with the Gaussian-form
    estimate of the same point. Rankings and value differences are
    unaffected either way. Requires ``q >= p + 3``.
    """
    _check_q(env.q, env.p, "normalization_shift")
    sizes = np.arange(env.q - 1, env.m, dtype=float)
    return float(env.sigma2 / env.m
                 * np.sum((sizes - 1.0) / ((sizes - env.p) * (sizes - env.p - 1.0))))


def analytic_utility_constant(env: RegressionEnvironment) -> float:
    """Utility constant under which the sampled defining expectation matches
    the Gaussian closed form.

    Equals ``sigma2 * (1 + p / (q - p - 2))`` minus ``m`` times
    :func:`normalization_shift`; using it in the analytic regression-risk
    utility makes the slow baseline estimate the same normalized value the
    exact route reports. Requires ``q >= p + 3``.
    """
    _check_q(env.q, env.p, "analytic_utility_constant")
    lead = env.sigma2 * (1.0 + env.p / (env.q - env.p - 2.0))
    return float(lead - env.m * normalization_shift(env))
