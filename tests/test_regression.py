import contextlib
import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chi2

from distshap import (
    BinaryPointQuery,
    InsufficientDataError,
    InvalidParameterError,
    PointQuery,
    RandomStream,
    RegressionEnvironment,
    SingularMatrixError,
    SpdMatrix,
    dshapley_binary_bounds,
    dshapley_regression_bounds,
    dshapley_regression_exact,
    dshapley_regression_general_mc,
    dshapley_regression_quadrature,
    estimate_weighted_second_moment,
    fit_background,
    gen_gaussian_c,
    gen_gaussian_r,
    irls_fit,
    mahalanobis_sq,
    make_gaussian_sampler,
    spd_inverse,
    transform_query,
)
from distshap import numerics
from distshap.estimates import ValueEstimate
from distshap.regression import (
    _QUAD_TOP, _laplace_nodes, analytic_utility_constant, normalization_shift)

TIGHT = 10**5


def make_env(p=2, m=10, q=5, sigma2=1.0, gamma=0.0):
    return RegressionEnvironment(m=m, q=q, gamma=gamma, sigma2=sigma2,
                                 beta_hat=np.zeros(p), sigma_inv=SpdMatrix(np.eye(p)))


def empty_sum_warning(expected):
    """``pytest.warns`` of the empty sum's warning where ``expected``; else none may be given."""
    return pytest.warns(UserWarning, match="empty sum") if expected else contextlib.nullcontext()


class TestFitBackground:
    def test_noiseless_recovers_beta_and_flags(self):
        gen = np.random.default_rng(0)
        x = gen.standard_normal((50, 3))
        beta = np.array([1.0, -2.0, 0.5])
        with pytest.warns(UserWarning, match="noiseless"):
            env = fit_background(x, x @ beta, m=100, q=6)
        assert env.sigma2 == 0.0
        assert np.abs(env.beta_hat - beta).max() < 1e-8

    def test_independent_noise_oracle(self):
        n = 10**4
        gen = RandomStream(17).generator
        x = gen.standard_normal((n, 3))
        y = gen.standard_normal(n)  # independent of x
        env = fit_background(x, y, m=100, q=6)
        assert np.abs(env.beta_hat).max() < 4.0 / np.sqrt(n)
        assert abs(env.sigma2 - 1.0) < 0.1

    def test_one_dimensional_normal_equation(self):
        x = np.array([[1.0], [2.0], [3.0]])
        y = np.array([2.0, 4.0, 6.3])
        env = fit_background(x, y, m=10, q=4)
        # no-intercept least squares slope, evaluated by hand
        slope = float(np.sum(x.ravel() * y) / np.sum(x.ravel() ** 2))
        assert slope == pytest.approx(28.9 / 14.0)
        assert env.beta_hat[0] == pytest.approx(slope, rel=1e-12)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            fit_background(np.ones((3, 3)), np.ones(3), m=10, q=6)
        x = np.random.default_rng(0).standard_normal((8, 2))
        for x, y, message in ((np.ones(5), np.ones(5), r"^x must be an \(N, p\) array$"),
                              (np.ones((5, 2)), np.ones(4), "^x and y lengths differ$"),
                              (x, np.r_[1.0, 2.0, np.nan, np.ones(5)], "^y row 3 is not finite, got nan$"),
                              (x, np.r_[np.inf, np.ones(7)], "^y row 1 is not finite, got inf$")):
            with pytest.raises(InvalidParameterError, match=message):
                fit_background(x, y, m=10, q=6)

    def test_an_overflowing_row_is_refused_by_number(self):
        # 1e200 is finite, but its square is not: the fit warned twice and then failed on
        # a pivot of the second moment, a message that named no input
        gen = np.random.default_rng(0)
        x = gen.standard_normal((50, 3))
        x[3, 0] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError,
                               match=r"^background row 4 has a squared norm that is not finite, got inf$"):
                fit_background(x, gen.standard_normal(50), m=100, q=6)

    def test_duplicated_column_raises_singular(self):
        gen = RandomStream(4).generator
        x = gen.standard_normal((50, 2))
        x = np.column_stack([x, x[:, 0]])
        with pytest.raises(SingularMatrixError) as excinfo:
            fit_background(x, gen.standard_normal(50), m=100, q=6)
        assert isinstance(excinfo.value.__cause__, np.linalg.LinAlgError)


class TestExactEstimator:
    def test_empty_sum_below_gate(self):
        env = make_env(m=4, q=5)
        query = PointQuery(x_star=np.zeros(2), y_star=0.0, e2=1.0, d=0.0)
        with pytest.warns(UserWarning, match="empty sum"):
            est = dshapley_regression_exact(query, env, None, RandomStream(0))
        assert est.value == 0.0 and est.std_error == 0.0

    def test_single_admitted_size(self):
        # m == q admits the one size q - 1; at the origin its summand is exact
        env = make_env(m=5, q=5)
        query = PointQuery(x_star=np.zeros(2), y_star=0.0, e2=0.0, d=0.0)
        est = dshapley_regression_exact(query, env, TIGHT, RandomStream(0))
        assert len(est.inner_iters_used) == 1
        assert est.value == pytest.approx(-(1 / 5) * 3 / (2 * 1), rel=0.01)

    def test_gate_precondition(self):
        env = make_env(q=4)  # p + 3 = 5 required
        query = PointQuery(x_star=np.zeros(2), y_star=0.0, e2=0.0, d=0.0)
        with pytest.raises(InvalidParameterError):
            dshapley_regression_exact(query, env, None, RandomStream(0))

    def test_requires_zero_ridge(self):
        env = make_env(gamma=0.5)
        query = PointQuery(x_star=np.zeros(2), y_star=0.0, e2=0.0, d=0.0)
        with pytest.raises(InvalidParameterError):
            dshapley_regression_exact(query, env, None, RandomStream(0))

    def test_origin_query_matches_analytic_identity(self):
        # at the origin each size-s summand reduces to E[1/chi2_{s-p+1}] = 1/(s-p-1),
        # giving -(1/m) sum_{s=q-1}^{m-1} (s-1)/((s-p)(s-p-1)) exactly
        expected = -Fraction(1, 10) * sum(
            Fraction(s - 1, (s - 2) * (s - 3)) for s in range(4, 10))
        env = make_env(m=10, q=5)
        query = PointQuery(x_star=np.zeros(2), y_star=0.0, e2=0.0, d=0.0)
        est = dshapley_regression_exact(query, env, TIGHT, RandomStream(0))
        assert est.value == pytest.approx(float(expected), rel=0.01)

    def test_monotone_in_squared_error(self):
        env = make_env(m=12, q=5)
        x = np.array([1.1, -0.4])
        d = float(x @ x)
        high = PointQuery(x_star=x, y_star=0.0, e2=4.0, d=d)
        low = PointQuery(x_star=x, y_star=0.0, e2=1.0, d=d)
        v_high = dshapley_regression_exact(high, env, None, RandomStream(3))
        v_low = dshapley_regression_exact(low, env, None, RandomStream(3))
        assert v_high.value <= v_low.value

    def test_error_coefficient_is_nonpositive_per_term(self):
        # value as a function of e2 is linear with slope -(1/m) sum coeff*E[d/(d+T)^2]
        env = make_env(m=12, q=5)
        x = np.array([1.0, 0.0])
        vals = []
        for e2 in (0.0, 1.0, 2.0):
            q = PointQuery(x_star=x, y_star=0.0, e2=e2, d=1.0)
            vals.append(dshapley_regression_exact(q, env, TIGHT, RandomStream(5)).value)
        assert vals[0] >= vals[1] >= vals[2]
        # linearity of the shared-draw estimate in e2
        assert (vals[1] - vals[0]) == pytest.approx(vals[2] - vals[1], rel=1e-6)

    def test_deterministic(self):
        env = make_env(m=30, q=5)
        query = PointQuery(x_star=np.array([0.7, 0.2]), y_star=0.0, e2=2.0, d=0.53)
        a = dshapley_regression_exact(query, env, None, RandomStream(9))
        b = dshapley_regression_exact(query, env, None, RandomStream(9))
        assert a.value == b.value and a.std_error == b.std_error
        assert a.inner_iters_used == b.inner_iters_used

    def test_default_controls_sum_every_size(self):
        # at m = 1000 the running sum changes by under 0.5% a size long before its last size,
        # and a sum cut there reads about half the value: every admitted size must be summed
        points = 200
        data = gen_gaussian_r(points + 2000, 10, RandomStream(1))
        env = fit_background(data.x[points:], data.y[points:], m=1000, q=13)
        xs, ys = data.x[:points], data.y[:points]
        want = dshapley_regression_quadrature(PointQuery.from_point(xs, ys, env), env).value
        stream = RandomStream(2)
        got = [dshapley_regression_exact(PointQuery.from_point(x, y, env), env, None, stream.substream(i))
               for i, (x, y) in enumerate(zip(xs, ys))]
        values, errors = np.array([e.value for e in got]), np.array([e.std_error for e in got])
        assert np.median(values / want) == pytest.approx(1.0, abs=0.02)
        # a fixed count per size neither biases the value nor understates its error: a
        # per-size stop on the running mean read a mean z of -0.42 and 193/200 here
        z = (values - want) / errors
        assert abs(np.mean(z)) <= 0.25
        assert np.mean(np.abs(z) <= 3.0) >= 0.98


def eager_exact(query, env, draws, rng):
    """Sampler drawing a fixed count per size: every size's first block up front.

    One (sizes, block) chi-squared draw, then each size draws its remaining values in one
    call, one size after another, and every size is summed.
    """
    draws = 128 if draws is None else draws
    js = np.arange(env.q - 1, env.m)
    dfs = (js - env.p + 1).astype(float)
    coef = (js - 1.0) / (js - env.p)
    d, e2, s2 = query.d, query.e2, env.sigma2
    gen = rng.generator
    block = min(draws, 128)
    parts = [gen.chisquare(dfs[:, None], size=(js.size, block))]
    if draws > block:
        parts.append(np.array([gen.chisquare(df, size=draws - block) for df in dfs]))
    sums, sqsums = np.zeros(js.size), np.zeros(js.size)
    for values in parts:
        summands = coef[:, None] * (d * e2 + values * s2) / (d + values) ** 2
        sums += summands.sum(axis=1)
        sqsums += (summands ** 2).sum(axis=1)
    means = sums / draws
    variances = np.maximum((sqsums - draws * means ** 2) / (draws - 1), 0.0)
    return ValueEstimate(value=float(np.cumsum(-means / env.m)[-1]),
                         std_error=float(np.sqrt(np.sum(variances / draws)) / env.m),
                         inner_iters_used=[draws] * js.size)


class TestDrawOrder:
    """The sampler against an eager reference that draws the same values in its own loop."""

    QUERIES = [(2.0, 1.0), (0.3, 4.0), (9.0, 0.2), (0.0, 1.5)]

    def compare(self, env, draws, seed, exact_values):
        for d, e2 in self.QUERIES:
            query = PointQuery(x_star=np.array([np.sqrt(d), 0.0]), y_star=0.0, e2=e2, d=d)
            got = dshapley_regression_exact(query, env, draws, RandomStream(seed))
            want = eager_exact(query, env, draws, RandomStream(seed))
            assert got.inner_iters_used == want.inner_iters_used
            if exact_values:
                assert (got.value, got.std_error) == (want.value, want.std_error)
            else:
                assert got.value == pytest.approx(want.value, rel=1e-12)
                assert got.std_error == pytest.approx(want.std_error, rel=1e-12)
        return got

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bit_identical_at_default_controls(self, seed):
        self.compare(make_env(p=3, m=2000, q=6, sigma2=0.8), None, seed, True)

    def test_tight_controls_continue_every_size(self):
        est = self.compare(make_env(m=12, q=5), TIGHT, 4, False)
        assert min(est.inner_iters_used) > 128

    def test_fallback_after_windows(self):
        # 300 draws a size: each size draws its other 172 values once every
        # size's first block is drawn
        est = self.compare(make_env(m=600, q=5), 300, 5, False)
        assert max(est.inner_iters_used) > 128

    def test_single_admitted_size(self):
        self.compare(make_env(m=5, q=5), None, 6, True)
        self.compare(make_env(m=5, q=5), TIGHT, 6, False)


def chi2_expect_value(p, m, q, d, e2, s2):
    """The Gaussian closed form summed over every admitted size with ``chi2.expect``."""
    def summand(t):
        return (d * e2 + t * s2) / (d + t) ** 2

    total = sum((j - 1.0) / (j - p) * chi2.expect(summand, args=(j - p + 1,))
                for j in range(q - 1, m))
    return -total / m


def _random_cells(count, seed):
    gen = np.random.default_rng(seed)
    cells = []
    for _ in range(count):
        p = int(gen.integers(1, 9))
        q = p + int(gen.integers(3, 10))
        m = int(gen.integers(q, 61))
        cells.append((p, q, m, float(10.0 ** gen.uniform(-3, 2)),
                      float(gen.uniform(0, 5)), float(gen.uniform(0.1, 3))))
    return cells


class TestQuadrature:
    """The deterministic integral over every admitted size."""

    @pytest.mark.parametrize("p, q, m, d, e2, s2", [
        (2, 5, 30, 0.0, 1.2, 0.8),   # at the origin
        (3, 6, 40, 1.7, 0.0, 1.1),   # no prediction error
        (4, 9, 60, 0.6, 2.5, 0.0),   # noiseless background
        (1, 4, 4, 0.3, 0.7, 1.0),    # one admitted size, the fewest degrees of freedom
    ] + _random_cells(5, 11))
    def test_matches_chi2_expect_over_every_size(self, p, q, m, d, e2, s2):
        env = make_env(p=p, m=m, q=q, sigma2=s2)
        query = PointQuery(x_star=np.zeros(p), y_star=0.0, e2=e2, d=d)
        est = dshapley_regression_quadrature(query, env)
        expected = chi2_expect_value(p, m, q, d, e2, s2)
        # chi2.expect's own tolerance is ~1.5e-8 relative
        assert est.value == pytest.approx(expected, rel=1e-8)
        assert 0.0 <= est.std_error <= 1e-8 * abs(expected)
        assert est.inner_iters_used == []

    @pytest.mark.parametrize("p, q", [(2, 5), (10, 13), (3, 5000)])
    def test_origin_identity_at_one_size(self, p, q):
        # d = 0, m = q: the one size q - 1 gives s2 E[1/chi2_k] = s2 / (k - 2), k = q - p
        s2 = 1.7
        env = make_env(p=p, m=q, q=q, sigma2=s2)
        query = PointQuery(x_star=np.zeros(p), y_star=0.0, e2=0.4, d=0.0)
        est = dshapley_regression_quadrature(query, env)
        expected = -(1.0 / q) * (q - 2.0) / (q - 1.0 - p) * s2 / (q - p - 2.0)
        assert est.value == pytest.approx(expected, rel=1e-12)

    def test_batch_matches_per_point(self, monkeypatch):
        # the batch in one block of points, then in blocks of 7 points, the last one short
        gen = np.random.default_rng(4)
        env = RegressionEnvironment(m=500, q=6, gamma=0.0, sigma2=0.9,
                                    beta_hat=np.array([0.5, -1.0, 0.2]),
                                    sigma_inv=SpdMatrix(np.diag([1.0, 2.0, 0.5])))
        xs = np.vstack([np.zeros(3), 3.0 * gen.standard_normal((40, 3))])
        ys = gen.standard_normal(41)
        nodes = _laplace_nodes(_QUAD_TOP).size
        for block_floats in (numerics._CACHE_FLOATS, 7 * nodes):
            monkeypatch.setattr(numerics, "_CACHE_FLOATS", block_floats)
            batch = dshapley_regression_quadrature(PointQuery.from_point(xs, ys, env), env)
            assert batch.value.shape == batch.std_error.shape == (41,)
            for i, (x, y) in enumerate(zip(xs, ys)):
                one = dshapley_regression_quadrature(PointQuery.from_point(x, y, env), env)
                assert isinstance(one.value, float)
                assert (one.value, one.std_error) == (batch.value[i], batch.std_error[i])

    def test_empty_sum_below_gate(self):
        env = make_env(m=4, q=5)
        one = PointQuery(x_star=np.ones(2), y_star=0.0, e2=1.0, d=2.0)
        with pytest.warns(UserWarning, match="empty sum"):
            est = dshapley_regression_quadrature(one, env)
        assert est.value == 0.0 and est.std_error == 0.0
        batch = PointQuery(x_star=np.ones((3, 2)), y_star=np.zeros(3), e2=np.ones(3),
                           d=np.full(3, 2.0))
        with pytest.warns(UserWarning, match="empty sum"):
            est = dshapley_regression_quadrature(batch, env)
        assert np.array_equal(est.value, np.zeros(3)) and np.array_equal(est.std_error, np.zeros(3))

    def test_preconditions(self):
        query = PointQuery(x_star=np.zeros(2), y_star=0.0, e2=0.0, d=0.0)
        with pytest.raises(InvalidParameterError):
            dshapley_regression_quadrature(query, make_env(gamma=0.5))
        with pytest.raises(InvalidParameterError):
            dshapley_regression_quadrature(query, make_env(q=4))  # p + 3 = 5 required


def _binary_query(e2_b, d_tilde):
    return BinaryPointQuery(x_star=np.zeros(2), y_star=1, pi_star=0.5, w_star=0.25,
                            z_star=2.0, e2_b=e2_b, d_tilde=d_tilde)


# NaN compares False with 0, so each sign check must be written to fail on it
NOT_NONNEGATIVE = {
    "sigma2-nan": lambda: make_env(sigma2=np.nan),
    "sigma2-inf": lambda: make_env(sigma2=np.inf),
    "e2-nan": lambda: PointQuery(x_star=np.zeros(2), y_star=0.0, e2=np.nan, d=1.0),
    "d-nan-in-a-batch": lambda: PointQuery(x_star=np.zeros((2, 2)), y_star=np.zeros(2),
                                           e2=np.ones(2), d=np.array([1.0, np.nan])),
    "e2_b-nan": lambda: _binary_query(np.nan, 1.0),
    "d_tilde-nan": lambda: _binary_query(1.0, np.nan),
}


# an infinite statistic, of a point or of an entry of a batch: (build, the field it names)
NOT_FINITE = {
    "e2-inf": (lambda: PointQuery(x_star=np.zeros(2), y_star=0.0, e2=np.inf, d=1.0), "e2"),
    "d-inf-in-a-batch": (lambda: PointQuery(x_star=np.zeros((2, 2)), y_star=np.zeros(2),
                                            e2=np.ones(2), d=np.array([1.0, np.inf])), "d"),
    "d-minus-inf": (lambda: PointQuery(x_star=np.zeros(2), y_star=0.0, e2=1.0, d=-np.inf), "d"),
    "e2_b-inf": (lambda: _binary_query(np.inf, 1.0), "e2_b"),
    "d_tilde-inf-in-a-batch": (lambda: _binary_query(np.ones(2), np.array([np.inf, 1.0])),
                               "d_tilde"),
}


def _binary_route(x):
    data = gen_gaussian_c(300, RandomStream(3))
    state = irls_fit(data.x, data.y)
    sigma_tilde_inv = spd_inverse(estimate_weighted_second_moment(data.x, state.beta))
    return dshapley_binary_bounds(transform_query(x, 1, state, sigma_tilde_inv, clamp_weight=True),
                                  100, 6)


# each valuation route from a finite input whose statistic overflows: (call, the field named)
LARGE_INPUT_ROUTES = {
    "bounds": (lambda x: dshapley_regression_bounds(PointQuery.from_point(x, 0.0, make_env(m=100)),
                                                    make_env(m=100)), "d"),
    "quadrature": (lambda x: dshapley_regression_quadrature(
        PointQuery.from_point(x, 0.0, make_env(m=100)), make_env(m=100)), "d"),
    "exact": (lambda x: dshapley_regression_exact(PointQuery.from_point(x, 0.0, make_env(m=100)),
                                                  make_env(m=100), None, RandomStream(0)), "d"),
    "binary-bounds": (lambda x: _binary_route(np.concatenate([x, [0.0]])), "d_tilde"),
}


class TestEnvironmentDimension:
    def test_p_is_the_length_of_beta_hat(self):
        assert make_env(p=3).p == 3
        assert "p" not in {field.name for field in dataclasses.fields(RegressionEnvironment)}

    @pytest.mark.parametrize("beta_hat", [np.zeros(0), np.zeros((2, 1)), np.float64(0.0)],
                             ids=["empty", "2-d", "0-d"])
    def test_beta_hat_without_a_dimension_rejected(self, beta_hat):
        with pytest.raises(InvalidParameterError, match="dimension p"):
            RegressionEnvironment(m=10, q=5, gamma=0.0, sigma2=1.0, beta_hat=beta_hat,
                                  sigma_inv=SpdMatrix(np.eye(2)))

    def test_sigma_inv_of_another_width_rejected(self):
        with pytest.raises(InvalidParameterError, match="3-d sigma_inv must share one dimension p"):
            RegressionEnvironment(m=10, q=5, gamma=0.0, sigma2=1.0, beta_hat=np.zeros(2),
                                  sigma_inv=SpdMatrix(np.eye(3)))


class TestNonFiniteParameters:
    @pytest.mark.parametrize("gamma", [np.nan, np.inf])
    def test_gamma_rejected(self, gamma):
        with pytest.raises(InvalidParameterError, match="gamma"):
            make_env(gamma=gamma)

    @pytest.mark.parametrize("build, name", [
        (lambda: dshapley_regression_exact(PointQuery(x_star=np.zeros(2), y_star=0.0, e2=0.0, d=0.0),
                                           make_env(), np.nan, RandomStream(0)), "draws"),
        (lambda: ValueEstimate(value=1.0, std_error=np.nan), "std_error"),
        (lambda: ValueEstimate(value=np.ones(2), std_error=np.array([0.1, np.nan])), "std_error"),
        (lambda: make_env(m=np.nan), "horizon m"),
        (lambda: make_env(q=np.nan), "gate q"),
    ], ids=["draws-nan", "std_error-nan", "std_error-nan-in-a-batch", "m-nan", "q-nan"])
    def test_nan_fails_the_estimate_checks(self, build, name):
        with pytest.raises(InvalidParameterError, match=name):
            build()

    @pytest.mark.parametrize("build", NOT_NONNEGATIVE.values(), ids=NOT_NONNEGATIVE.keys())
    def test_nan_fails_the_sign_checks(self, build):
        with pytest.raises(InvalidParameterError, match="nonnegative"):
            build()

    @pytest.mark.parametrize("build, name", NOT_FINITE.values(), ids=NOT_FINITE.keys())
    def test_an_infinite_statistic_is_refused_by_name(self, build, name):
        with pytest.raises(InvalidParameterError,
                           match=f"^{name} must be finite and nonnegative, got -?inf$"):
            build()

    @pytest.mark.parametrize("route, name", LARGE_INPUT_ROUTES.values(), ids=LARGE_INPUT_ROUTES.keys())
    def test_a_large_finite_input_is_refused_before_the_route(self, route, name):
        # 1e200 squared overflows: d was inf, and the bounds gave (nan, nan) while the
        # quadrature and the exact sampler failed on a negative std_error
        with pytest.raises(InvalidParameterError, match=f"^{name} must be finite"):
            route(np.array([1e200, 0.0]))


class TestBounds:
    def test_lower_le_upper(self):
        env = make_env(m=200, q=5)
        for d, e2 in [(0.5, 0.0), (2.0, 1.0), (8.0, 4.0)]:
            query = PointQuery(x_star=np.array([np.sqrt(d), 0.0]), y_star=0.0, e2=e2, d=d)
            res = dshapley_regression_bounds(query, env)
            assert res.lower <= res.upper
            assert res.skipped_terms > 0

    def test_lower_le_upper_at_tiny_d_and_huge_e2(self):
        # the statistics of a confidently misclassified binary point: lower is about
        # -879.4 and upper about 0.53
        env = make_env(p=10, m=1000, q=13)
        query = PointQuery(x_star=np.r_[0.1, np.zeros(9)], y_star=0.0, e2=1e4, d=0.01)
        res = dshapley_regression_bounds(query, env)
        assert res.lower <= res.upper

    def test_zero_point_collapses(self):
        env = make_env(m=100, q=5)
        query = PointQuery(x_star=np.zeros(2), y_star=0.0, e2=0.0, d=0.0)
        res = dshapley_regression_bounds(query, env)
        assert res.lower == 0.0 and res.upper == 0.0

    def test_unpacks_as_pair(self):
        env = make_env(m=50, q=5)
        query = PointQuery(x_star=np.array([1.0, 0.0]), y_star=0.0, e2=0.5, d=1.0)
        lo, hi = dshapley_regression_bounds(query, env)
        assert lo <= hi

    def test_matches_naive_summation(self):
        # independent plain-loop evaluation of the envelope sums, point by point
        # over a batch holding a d=0 row and an e2=0 row
        env = make_env(m=120, q=5, sigma2=1.3)
        rows = [(1.7, 0.8), (0.0, 0.8), (2.4, 0.0), (6.0, 5.0)]
        d_all = np.array([d for d, _ in rows])
        e2_all = np.array([e2 for _, e2 in rows])
        x_all = np.column_stack([np.sqrt(d_all), np.zeros(len(rows))])
        batch = PointQuery(x_star=x_all, y_star=np.zeros(len(rows)), e2=e2_all, d=d_all)
        res = dshapley_regression_bounds(batch, env)
        for i, (d, e2) in enumerate(rows):
            single = dshapley_regression_bounds(
                PointQuery(x_star=x_all[i], y_star=0.0, e2=e2, d=d), env)
            assert (single.lower, single.upper) == (res.lower[i], res.upper[i])
            lower = upper = 0.0
            skipped = 0
            for j in range(env.q - 1, env.m):
                delta = (np.sqrt(env.p) + np.sqrt(np.log(j * env.m) / 2.0)) / np.sqrt(j)
                if delta >= 1.0:
                    skipped += 1
                    continue
                up = 1.0 / (j * (1.0 - delta) ** 2)
                lo = 1.0 / (j * (1.0 + delta) ** 2)
                # E and S terms at each extreme; each side takes S at one and E at the other
                e_lo, e_up = d * lo**2 / (1.0 + d * lo) ** 2, d * up**2 / (1.0 + d * up) ** 2
                lower += (2.0 + d * lo) * e_lo * env.sigma2 - e2 * e_up
                upper += (2.0 + d * up) * e_up * env.sigma2 - e2 * e_lo
            assert res.lower[i] == pytest.approx(lower / env.m, rel=1e-12)
            assert res.upper[i] == pytest.approx(upper / env.m, rel=1e-12)
            assert res.skipped_terms == skipped
        assert res.lower[1] == 0.0 and res.upper[1] == 0.0

    def test_sandwich_recorded_per_size(self, capsys):
        # Empirical check only: per admitted size, does the envelope bracket the
        # per-size expectation under the general-form normalization? The record
        # is informational; small sizes are often vacuous.
        env = make_env(m=200, q=5)
        d, e2 = 1.0, 0.0
        query = PointQuery(x_star=np.array([1.0, 0.0]), y_star=0.0, e2=e2, d=d)
        gen = RandomStream(31).generator
        record = []
        for j in range(env.q - 1, env.m):
            delta = (np.sqrt(env.p) + np.sqrt(np.log(j * env.m) / 2.0)) / np.sqrt(j)
            if delta >= 1.0:
                continue
            up_env = 1.0 / (j * (1.0 - delta) ** 2)
            lo_env = 1.0 / (j * (1.0 + delta) ** 2)
            e_lo, e_up = d * lo_env**2 / (1.0 + d * lo_env) ** 2, d * up_env**2 / (1.0 + d * up_env) ** 2
            lower_term = (2.0 + d * lo_env) * e_lo - e2 * e_up
            upper_term = (2.0 + d * up_env) * e_up - e2 * e_lo
            t = gen.chisquare(j - env.p + 1, size=10**5)
            gauss_term = (j - 1.0) / (j - env.p) * np.mean((d * e2 + t) / (d + t) ** 2)
            shift = (j - 1.0) / ((j - env.p) * (j - env.p - 1.0))
            general_term = shift - gauss_term
            record.append((j, lower_term <= general_term <= upper_term))
        assert record, "no admitted sizes"
        passed = sum(ok for _, ok in record)
        print(f"sandwich holds at {passed}/{len(record)} admitted sizes "
              f"(first admitted size {record[0][0]})")
        # bracketing must hold somewhere once the envelopes tighten
        assert any(ok for _, ok in record)


class TestBoundsBracket:
    @pytest.mark.parametrize("seed", range(1, 11))
    def test_gaussian_value_lies_within_the_bounds(self, seed):
        # the bounds use the general-form normalization, in which the Gaussian closed form
        # is the quadrature value plus normalization_shift; rows of large residual fell
        # below the lower side when each side took the error part at the wrong extreme
        data = gen_gaussian_r(2200, 10, RandomStream(seed))
        env = fit_background(data.x[:2000], data.y[:2000], m=1000, q=13)
        query = PointQuery.from_point(data.x[2000:], data.y[2000:], env)
        value = dshapley_regression_quadrature(query, env).value + normalization_shift(env)
        lower, upper = dshapley_regression_bounds(query, env)
        assert np.all((lower <= value) & (value <= upper))

    @pytest.mark.parametrize("m", [12, 13, 1000], ids=["m=q-1", "m=q", "m=1000"])
    def test_lower_le_upper_over_the_grid(self, m):
        p, q = 10, 13
        d, e2 = (v.ravel() for v in np.meshgrid([0.0, 1e-8, 1e-3, 1.0, 100.0, 1e4, 1e9], [0.0, 1.0, 1e4]))
        x, n = np.zeros((d.size, p)), d.size
        with empty_sum_warning(m < q):
            sides = [dshapley_regression_bounds(PointQuery(x_star=x, y_star=np.zeros(n), e2=e2, d=d),
                                                make_env(p=p, m=m, q=q, sigma2=sigma2))
                     for sigma2 in (0.0, 1.0)]
        with empty_sum_warning(m < q):
            sides.append(dshapley_binary_bounds(BinaryPointQuery(
                x_star=x, y_star=np.ones(n, dtype=int), pi_star=np.full(n, 0.5), w_star=np.full(n, 0.25),
                z_star=np.full(n, 2.0), e2_b=e2, d_tilde=d), m, q))
        for lower, upper in sides:
            assert np.all(np.isfinite(lower) & np.isfinite(upper)) and np.all(lower <= upper)


def _parts_by_size(d, m, q, p, ridge):
    """E and S at each extreme, ``{"lo": (E, S), "up": (E, S)}``, from the terms
    ``t lam^2 / (1 + t lam)^2`` and ``(2 + t lam)`` times it, size by size, each sum exact."""
    terms = {"lo": [], "up": []}
    for j in range(q - 1, m):
        delta = (np.sqrt(p) + np.sqrt(np.log(j * m) / 2.0)) / np.sqrt(j)
        if delta >= 1.0:
            continue
        for name, a in (("lo", j * (1.0 + delta) ** 2 + ridge[1]), ("up", j * (1.0 - delta) ** 2 + ridge[0])):
            lam = 1.0 / a
            e = d * lam**2 / (1.0 + d * lam) ** 2
            terms[name].append((e, (2.0 + d * lam) * e))
    return {name: tuple(np.array([math.fsum(size[part][i] for size in sizes) for i in range(d.size)])
                        for part in (0, 1))
            for name, sizes in terms.items()}


BOUND_GRID_D = np.array([0.0, 1e-12, 1e-8, 1e-4, 0.01, 1.0, 10.0, 100.0, 1e4, 1e6, 1e9, 1e12])
BOUND_GRID_SIZES = [(120, 5, 2), (1000, 6, 3), (1000, 13, 10), (5000, 13, 10), (1000, 33, 30),
                    (1140, 5, 2), (12, 13, 10), (13, 13, 10)]


class TestBoundParts:
    # (1140, 5, 2) has the smallest a = 1 / lam of the grid, 4.7e-10 at zero ridge
    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    @pytest.mark.parametrize("m, q, p", BOUND_GRID_SIZES,
                             ids=[f"m={m}-q={q}-p={p}" for m, q, p in BOUND_GRID_SIZES])
    def test_each_part_matches_a_per_size_sum(self, m, q, p, gamma):
        sigma_inv = SpdMatrix(np.diag(np.linspace(0.5, 2.0, p)))
        env = RegressionEnvironment(m=m, q=q, gamma=gamma, sigma2=1.0, beta_hat=np.zeros(p),
                                    sigma_inv=sigma_inv)
        d = BOUND_GRID_D
        query = PointQuery(x_star=np.zeros((d.size, p)), y_star=np.zeros(d.size), e2=np.ones(d.size), d=d)
        with empty_sum_warning(m < q):
            res = dshapley_regression_bounds(query, env)
        ref = _parts_by_size(d, m, q, p, (gamma * 0.5, gamma * 2.0))
        # the lower side takes S at lo and E at up, the upper side the reverse
        for got, want in ((res.lower_noise, ref["lo"][1]), (res.lower_error, ref["up"][0]),
                          (res.upper_noise, ref["up"][1]), (res.upper_error, ref["lo"][0])):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_empty_sum_below_gate(self):
        # m = 4 < q = 6 admits no size: both bound routes warn as the estimators do, at the
        # caller's line, and every side and part is an exact zero
        d, e2 = np.array([0.0, 2.0, 50.0]), np.array([1.0, 0.5, 3.0])
        query = PointQuery(x_star=np.ones((3, 2)), y_star=np.zeros(3), e2=e2, d=d)
        binary = BinaryPointQuery(x_star=np.ones((3, 2)), y_star=np.ones(3, dtype=int),
                                  pi_star=np.full(3, 0.5), w_star=np.full(3, 0.25),
                                  z_star=np.full(3, 2.0), e2_b=e2, d_tilde=d)
        for route in (lambda: dshapley_regression_bounds(query, make_env(p=2, m=4, q=6)),
                      lambda: dshapley_binary_bounds(binary, 4, 6)):
            with pytest.warns(UserWarning, match=r"^valuation horizon m=4 is below the utility "
                              r"gate q=6; the value is an empty sum and exactly 0$") as record:
                res = route()
            assert len(record) == 1 and record[0].filename == __file__
            for side in (res.lower, res.upper, res.lower_noise, res.lower_error,
                         res.upper_noise, res.upper_error):
                assert side.tobytes() == np.zeros(3).tobytes()

    def test_each_side_is_made_of_its_sums(self):
        gen = np.random.default_rng(12)
        d, e2 = gen.exponential(5.0, 50), gen.exponential(3.0, 50)
        env = make_env(p=3, m=400, q=6, sigma2=1.7, gamma=0.3)
        binary = BinaryPointQuery(x_star=np.zeros((50, 3)), y_star=np.ones(50, dtype=int),
                                  pi_star=np.full(50, 0.5), w_star=np.full(50, 0.25),
                                  z_star=np.full(50, 2.0), e2_b=e2, d_tilde=d)
        for res, sigma2 in ((dshapley_regression_bounds(PointQuery(
                x_star=np.zeros((50, 3)), y_star=np.zeros(50), e2=e2, d=d), env), env.sigma2),
                            (dshapley_binary_bounds(binary, m=400, q=6), 1.0)):
            assert ((sigma2 * res.lower_noise - e2 * res.lower_error) / 400).tobytes() == res.lower.tobytes()
            assert ((sigma2 * res.upper_noise - e2 * res.upper_error) / 400).tobytes() == res.upper.tobytes()
            assert np.all((res.lower_noise <= res.upper_noise) & (res.upper_error <= res.lower_error))
        one = dshapley_regression_bounds(PointQuery(x_star=np.zeros(3), y_star=0.0, e2=e2[0], d=d[0]), env)
        assert all(isinstance(v, float) for v in (one.lower_noise, one.lower_error,
                                                  one.upper_noise, one.upper_error))


class TestGeneralMC:
    def test_origin_is_exact_zero(self):
        env = make_env(m=12, q=5, sigma2=1.0)
        query = PointQuery(x_star=np.zeros(2), y_star=0.0, e2=2.0, d=0.0)
        sampler = make_gaussian_sampler(SpdMatrix(np.eye(2)))
        est = dshapley_regression_general_mc(query, env, sampler, 200, RandomStream(1))
        assert est.value == 0.0 and est.std_error == 0.0

    def test_empty_sum(self):
        env = make_env(m=3, q=5)
        query = PointQuery(x_star=np.zeros(2), y_star=0.0, e2=0.0, d=0.0)
        sampler = make_gaussian_sampler(SpdMatrix(np.eye(2)))
        with pytest.warns(UserWarning, match="empty sum"):
            est = dshapley_regression_general_mc(query, env, sampler, 10, RandomStream(1))
        assert est.value == 0.0

    def test_agrees_with_exact_route(self):
        env = make_env(p=2, m=20, q=7, sigma2=1.0)
        x = np.array([1.0, 1.0])
        query = PointQuery(x_star=x, y_star=0.0, e2=1.0, d=float(x @ x))
        exact = dshapley_regression_exact(query, env, TIGHT, RandomStream(77))
        sampler = make_gaussian_sampler(SpdMatrix(np.eye(2)))
        est = dshapley_regression_general_mc(query, env, sampler, 6000, RandomStream(13))
        diff = abs(est.value - normalization_shift(env) - exact.value)
        assert diff < 3.0 * np.hypot(exact.std_error, est.std_error)

    def test_deterministic(self):
        env = make_env(m=15, q=5)
        query = PointQuery(x_star=np.array([0.5, -0.5]), y_star=0.0, e2=1.0, d=0.5)
        sampler = make_gaussian_sampler(SpdMatrix(np.eye(2)))
        a = dshapley_regression_general_mc(query, env, sampler, 500, RandomStream(4))
        b = dshapley_regression_general_mc(query, env, sampler, 500, RandomStream(4))
        assert a.value == b.value and a.std_error == b.std_error

    @pytest.mark.parametrize("gamma, skipped", [(0.7, 0), (0.0, 2)])
    def test_matches_a_per_size_loop(self, gamma, skipped):
        # At gamma > 0 every size is valued through the ridge term; at gamma = 0 the sizes
        # k = 1, 2 below p = 3 cannot be inverted and record 0 draws. Size j draws its
        # designs from substream j, here one design at a time.
        p, m, q, n_outer, s2, e2 = 3, 9, 2, 40, 0.8, 1.3
        sigma_x = np.array([[1.0, 0.3, 0.0], [0.3, 2.0, 0.1], [0.0, 0.1, 0.5]])
        env = RegressionEnvironment(m=m, q=q, gamma=gamma, sigma2=s2, beta_hat=np.zeros(p),
                                    sigma_inv=spd_inverse(SpdMatrix(sigma_x)))
        x = np.array([0.4, -1.1, 0.7])
        query = PointQuery(x_star=x, y_star=0.0, e2=e2, d=mahalanobis_sq(x, env.sigma_inv))
        sampler = make_gaussian_sampler(SpdMatrix(sigma_x))
        est = dshapley_regression_general_mc(query, env, sampler, n_outer, RandomStream(5))
        total = var = 0.0
        used = []
        for j in range(q, m + 1):
            k = j - 1
            if gamma == 0.0 and k < p:
                used.append(0)
                continue
            designs = sampler(n_outer * k, RandomStream(5).substream(j)).reshape(n_outer, k, p)
            terms = []
            for design in designs:
                u = np.linalg.solve(design.T @ design + gamma * np.eye(p), x)
                lev = u @ x
                terms.append(u @ sigma_x @ u * ((2.0 + lev) * s2 - e2) / (1.0 + lev) ** 2)
            total += np.mean(terms)
            var += np.var(terms, ddof=1) / n_outer
            used.append(n_outer)
        assert est.inner_iters_used == used and used.count(0) == skipped
        assert est.value == pytest.approx(total / m, rel=1e-12)
        assert est.std_error == pytest.approx(np.sqrt(var) / m, rel=1e-12)


class TestNormalizationConstants:
    def test_shift_matches_plain_sum(self):
        env = make_env(p=2, m=12, q=5, sigma2=2.0)
        total = sum(Fraction(s - 1, (s - 2) * (s - 3)) for s in range(4, 12))
        assert normalization_shift(env) == pytest.approx(2.0 * float(total) / 12.0, rel=1e-12)

    def test_shift_is_zero_below_the_gate(self):
        # a horizon below the gate admits no size: the sum is empty
        env = make_env(p=2, m=4, q=5, sigma2=2.0)
        assert normalization_shift(env) == 0.0
        assert analytic_utility_constant(env) == 2.0 * (1.0 + 2.0 / (5 - 2 - 2))

    def test_analytic_constant_decomposition(self):
        env = make_env(p=2, m=12, q=5, sigma2=1.0)
        expected = 1.0 * (1.0 + 2.0 / (5 - 2 - 2)) - 12 * normalization_shift(env)
        assert analytic_utility_constant(env) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("q", (3, 4))
    @pytest.mark.parametrize("route", ["normalization_shift", "analytic_utility_constant",
                                       "quadrature", "exact"])
    def test_q_below_p_plus_3_rejected(self, route, q):
        # at p = 2, q = 4 the shift was inf and the constant a ZeroDivisionError; at q = 3, NaN
        env = make_env(p=2, m=12, q=q)
        query = PointQuery(x_star=np.array([1.0, 0.0]), y_star=0.0, e2=1.0, d=1.0)
        call = {"normalization_shift": lambda: normalization_shift(env),
                "analytic_utility_constant": lambda: analytic_utility_constant(env),
                "quadrature": lambda: dshapley_regression_quadrature(query, env),
                "exact": lambda: dshapley_regression_exact(query, env, None, RandomStream(0))}[route]
        with pytest.raises(InvalidParameterError, match=rf"q >= p \+ 3 is required, got q={q}, p=2"):
            call()
