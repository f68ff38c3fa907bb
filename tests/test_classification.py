import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distshap import (
    BinaryPointQuery,
    InvalidParameterError,
    NotConvergedError,
    PointQuery,
    RandomStream,
    RegressionEnvironment,
    SaturationError,
    SingularMatrixError,
    SpdMatrix,
    dshapley_binary_bounds,
    dshapley_regression_bounds,
    estimate_weighted_second_moment,
    gen_gaussian_c,
    gen_mixture_c,
    inv_logit,
    irls_fit,
    spd_inverse,
    transform_query,
)
from distshap import numerics
from distshap.classification import _irls_stack
from distshap.regression import _size_table


@pytest.fixture(scope="module")
def fitted_background():
    data = gen_gaussian_c(8000, RandomStream(42))
    state = irls_fit(data.x, data.y)
    sigma_tilde_inv = spd_inverse(estimate_weighted_second_moment(data.x, state.beta))
    return data, state, sigma_tilde_inv


_SMALL_FIT = []


def _small_fit():
    if not _SMALL_FIT:
        data = gen_gaussian_c(500, RandomStream(7))
        state = irls_fit(data.x, data.y)
        sti = spd_inverse(estimate_weighted_second_moment(data.x, state.beta))
        _SMALL_FIT.append((state, sti))
    return _SMALL_FIT[0]


class TestIrlsFit:
    def test_symmetric_data_zero_coefficient(self):
        x = np.array([[1.0], [1.0], [-1.0], [-1.0]])
        y = np.array([1.0, 0.0, 0.0, 1.0])
        state = irls_fit(x, y)
        assert state.converged
        assert state.beta[0] == pytest.approx(0.0, abs=1e-12)

    def test_separable_does_not_converge(self):
        x = np.linspace(-2, 2, 40)[:, None]
        y = (x.ravel() > 0).astype(float)
        with pytest.warns(UserWarning, match="separable"):
            short = irls_fit(x, y, max_iter=25)
        assert not short.converged
        with pytest.warns(UserWarning):
            longer = irls_fit(x, y, max_iter=50)
        # the coefficient norm keeps growing, the signature of a diverging MLE
        assert np.linalg.norm(longer.beta) > np.linalg.norm(short.beta)

    def test_recovers_generating_coefficients(self, fitted_background):
        data, state, _ = fitted_background
        assert state.converged
        assert np.abs(state.beta - data.beta_true).max() < 0.15

    def test_gradient_small_at_convergence(self, fitted_background):
        data, state, _ = fitted_background
        pi = inv_logit(data.x @ state.beta)
        grad = data.x.T @ (data.y - pi) / data.x.shape[0]
        assert np.linalg.norm(grad) <= 10.0 * 1e-8

    def test_single_class_rejected(self):
        with pytest.raises(InvalidParameterError):
            irls_fit(np.random.default_rng(0).standard_normal((10, 2)), np.ones(10))

    def test_stack_fits_each_subset_as_alone(self):
        # irls_fit is the stack of one; in a stack each subset stops on its own,
        # and a singular one fails without touching the others
        gen = np.random.default_rng(5)
        x = gen.standard_normal((5, 60, 3))
        y = (gen.uniform(size=(5, 60)) < inv_logit(x @ np.array([1.5, -1.0, 0.0]))).astype(float)
        x[2, :, 1] = x[2, :, 0]  # duplicated feature: singular normal equations
        state, singular = _irls_stack(x, y, np.ones((5, 60)), 1e-8, 100)
        assert singular.tolist() == [False, False, True, False, False]
        for a in (0, 1, 3, 4):
            alone = irls_fit(x[a], y[a])
            assert np.array_equal(state.beta[a], alone.beta)
            assert state.iterations[a] == alone.iterations and state.converged[a]
            assert state.final_step_norm[a] == alone.final_step_norm
        # subsets of one row set, broadcast: row i is in subset a for i < sizes[a]
        sizes = np.array([20, 35, 60])
        members = (np.arange(60) < sizes[:, None]).astype(float)
        shared, _ = _irls_stack(np.broadcast_to(x[0], (3, 60, 3)), np.broadcast_to(y[0], (3, 60)),
                                members, 1e-8, 100)
        for a, size in enumerate(sizes):
            alone = irls_fit(x[0, :size], y[0, :size])
            assert np.allclose(shared.beta[a], alone.beta, rtol=1e-12, atol=1e-14)
            assert shared.iterations[a] == alone.iterations

    def test_newton_increment_is_the_working_response_step(self):
        # one fit as IRLS is usually written, through the working response z and the
        # floored weights, against the stack's Newton increment: six fits padded to 80
        # rows, three ordinary, two separable that stop at the cap, one singular
        def working_response(x, y, tol, max_iter):
            beta = np.zeros(x.shape[1])
            for it in range(1, max_iter + 1):
                eta = x @ beta
                pi = inv_logit(eta)
                w = np.maximum(pi * (1.0 - pi), 1e-10)
                z = eta + (y - pi) / w
                try:
                    new = np.linalg.solve(x.T @ (w[:, None] * x), x.T @ (w * z))
                except np.linalg.LinAlgError:
                    return beta, it, False, True
                moved = np.linalg.norm(new - beta) / (1.0 + np.linalg.norm(new))
                beta = new
                if moved <= tol:
                    return beta, it, True, False
            return beta, max_iter, False, False

        gen = np.random.default_rng(11)
        x = gen.standard_normal((6, 80, 3))
        y = (gen.uniform(size=(6, 80)) < inv_logit(x @ np.array([1.0, -0.5, 0.3]))).astype(float)
        y[3], y[5] = x[3, :, 0] > 0.0, x[5, :, 1] + x[5, :, 2] > 0.0  # separable
        x[4, :, 2] = x[4, :, 0]  # duplicated feature: singular normal equations
        sizes = np.array([80, 55, 30, 60, 70, 40])
        members = (np.arange(80) < sizes[:, None]).astype(float)
        with np.errstate(all="ignore"):
            state, singular = _irls_stack(x, y, members, 1e-8, 25)
            alone = [working_response(x[a, :k], y[a, :k], 1e-8, 25) for a, k in enumerate(sizes)]
        assert singular.tolist() == [False, False, False, False, True, False]
        assert state.converged.tolist() == [True, True, True, False, False, False]
        assert state.iterations[[3, 5]].tolist() == [25, 25]
        for a, (beta, iterations, converged, bad) in enumerate(alone):
            assert (state.iterations[a], state.converged[a], singular[a]) == (iterations, converged, bad)
            if converged:
                assert np.allclose(state.beta[a], beta, rtol=1e-10, atol=0.0)

    def test_an_overflowing_row_is_refused_by_number(self):
        # 1e200 is finite, but its square is not: the fit returned converged=True and a
        # beta of [-0, 0.096, 0.067] without a word
        data = gen_mixture_c(200, 3, RandomStream(1))
        x = data.x.copy()
        x[3, 0] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError,
                               match=r"^background row 4 has a squared norm that is not finite, got inf$"):
                irls_fit(x, data.y)

    def test_rank_deficient_design(self):
        gen = np.random.default_rng(3)
        col = gen.standard_normal(30)
        x = np.column_stack([col, col])  # duplicated feature
        y = (gen.uniform(size=30) < 0.5).astype(float)
        with pytest.raises(SingularMatrixError):
            irls_fit(x, y)


class TestTransformQuery:
    def test_centre_point_working_response(self, fitted_background):
        _, state, sti = fitted_background
        q1 = transform_query(np.zeros(3), 1, state, sti)
        q0 = transform_query(np.zeros(3), 0, state, sti)
        assert q1.pi_star == pytest.approx(0.5)
        assert q1.w_star == pytest.approx(0.25)
        assert q1.z_star == pytest.approx(2.0)
        assert q0.z_star == pytest.approx(-2.0)
        assert q1.e2_b == pytest.approx(1.0)
        assert q0.e2_b == pytest.approx(1.0)

    @given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.integers(0, 1))
    @settings(max_examples=40, deadline=None)
    def test_weighted_error_identity(self, a, b, label):
        state, sti = _small_fit()
        x = np.array([a, b, 0.3])
        q = transform_query(x, label, state, sti)
        eta = float(x @ state.beta)
        assert q.e2_b == pytest.approx(q.w_star * (q.z_star - eta) ** 2, abs=1e-10)

    def test_saturation(self, fitted_background):
        _, state, sti = fitted_background
        x = np.array([1e4, 0.0, 0.0])
        with pytest.raises(SaturationError):
            transform_query(x, 1, state, sti)
        q = transform_query(x, 1, state, sti, clamp_weight=True)
        assert q.w_star == 1e-12
        # in a batch, one saturated row is enough to refuse the whole batch
        rows = np.array([[0.2, -0.1, 0.3], [1e4, 0.0, 0.0], [-0.5, 0.4, 0.0]])
        labels = np.array([0, 1, 1])
        with pytest.raises(SaturationError):
            transform_query(rows, labels, state, sti)
        batch = transform_query(rows, labels, state, sti, clamp_weight=True)
        assert batch.w_star[1] == 1e-12
        for i in (0, 2):
            single = transform_query(rows[i], labels[i], state, sti)
            assert (batch.d_tilde[i], batch.e2_b[i]) == (single.d_tilde, single.e2_b)

    def test_requires_convergence(self, fitted_background):
        _, state, sti = fitted_background
        from distshap import IRLSState
        bad = IRLSState(beta=state.beta, iterations=5, converged=False, final_step_norm=1.0)
        with pytest.raises(NotConvergedError):
            transform_query(np.zeros(3), 1, bad, sti)

    def test_label_validation(self, fitted_background):
        _, state, sti = fitted_background
        with pytest.raises(InvalidParameterError):
            transform_query(np.zeros(3), 2, state, sti)


_BLOCK_M, _BLOCK_Q, _BLOCK_P = 1000, 6, 3


def _block_inputs(rows):
    """Statistics of ``rows - 2`` random points, a d=0 point and an e2=0 point."""
    gen = RandomStream(8).generator
    d = np.concatenate([gen.exponential(1.0, 300)[:rows - 2], [0.0, 1.5]])
    e2 = np.concatenate([gen.exponential(2.0, 300)[:rows - 2], [1.0, 0.0]])
    return d, e2


def _one_pass_bounds(d, e2, sigma2, ridge):
    """Bounds at m=1000, q=6, p=3 by the log-uniform Laplace rule, every point's decay at
    every node as one (points, nodes) array and one row-wise sum per point and table; the
    tables, which depend on no point, come from the shared ``_size_table``.
    Returns the sides, the sides' (noise, error) sums, the skipped sizes and the nodes."""
    m, q, p = _BLOCK_M, _BLOCK_Q, _BLOCK_P
    js = np.arange(q - 1, m, dtype=float)
    delta = (np.sqrt(p) + np.sqrt(np.log(js * m) / 2.0)) / np.sqrt(js)
    js, delta = js[delta < 1.0], delta[delta < 1.0]
    a_lo, a_up = js * (1.0 + delta) ** 2 + ridge[1], js * (1.0 - delta) ** 2 + ridge[0]
    # nodes v = exp(x), x = -62, -62 + h, ... up to log(60 / a_min), weights h v^2, h = 7/32
    h = 0.21875
    v = np.exp(-62.0 + h * np.arange(int(np.ceil((np.log(60.0 / a_up.min()) + 62.0) / h)) + 1))
    decay = numerics.exp_or_zero(np.outer(-d, v))

    def parts(a):  # E = t int v e^(-vt) H dv and S = 2 E + t^2 int v e^(-vt) K dv
        big_h, big_k = _size_table(v, a, np.stack((np.ones_like(a), 1.0 / a)))
        e = d * np.einsum("ij,j->i", decay, h * v * v * big_h)
        return e, 2.0 * e + d * d * np.einsum("ij,j->i", decay, h * v * v * big_k)

    (e_lo, s_lo), (e_up, s_up) = parts(a_lo), parts(a_up)
    return ((sigma2 * s_lo - e2 * e_up) / m, (sigma2 * s_up - e2 * e_lo) / m,
            (s_lo, e_up, s_up, e_lo), m - q + 1 - js.size, v.size)


def _batch_query(d, e2):
    shape = np.shape(d)
    return BinaryPointQuery(x_star=np.zeros(shape + (_BLOCK_P,)), y_star=np.ones(shape, dtype=int),
                            pi_star=np.full(shape, 0.5), w_star=np.full(shape, 0.25),
                            z_star=np.full(shape, 2.0), e2_b=e2, d_tilde=d)


def make_query(d_tilde, e2_b, p=3):
    return BinaryPointQuery(x_star=np.zeros(p), y_star=1, pi_star=0.5, w_star=0.25,
                            z_star=2.0, e2_b=e2_b, d_tilde=d_tilde)


class TestBinaryBounds:
    def test_zero_statistic_collapses(self):
        res = dshapley_binary_bounds(make_query(0.0, 1.0), m=500, q=6)
        assert res.lower == 0.0 and res.upper == 0.0

    def test_zero_error_lower_nonnegative(self):
        res = dshapley_binary_bounds(make_query(0.8, 0.0), m=500, q=6)
        assert res.lower >= 0.0
        assert res.lower <= res.upper

    def test_lower_le_upper(self):
        for d_tilde, e2b in [(0.1, 0.5), (1.0, 2.0), (3.0, 8.0)]:
            res = dshapley_binary_bounds(make_query(d_tilde, e2b), m=800, q=6)
            assert res.lower <= res.upper
        # every point of a mixture batch; a confidently misclassified point
        # (tiny d, huge e2) can cross, which this batch does not reach
        data = gen_mixture_c(2200, 10, RandomStream(5))
        state = irls_fit(data.x[:2000], data.y[:2000])
        sti = spd_inverse(estimate_weighted_second_moment(data.x[:2000], state.beta))
        batch = transform_query(data.x[2000:], data.y[2000:], state, sti, clamp_weight=True)
        res = dshapley_binary_bounds(batch, m=1000, q=13)
        assert res.lower.shape == (200,) and np.all(res.lower <= res.upper)

    def test_lower_le_upper_when_confidently_misclassified(self):
        # y = 1 at a fitted probability of 1e-4: e2_b = (1 - pi)^2 / w = 9,999, and at
        # d_tilde = 0.01 lower is about -879 and upper about 0.53
        pi = 1e-4
        res = dshapley_binary_bounds(make_query(0.01, (1.0 - pi) ** 2 / (pi * (1.0 - pi)), p=10),
                                     m=1000, q=13)
        assert res.lower <= res.upper

    def test_gate_precondition(self):
        with pytest.raises(InvalidParameterError):
            dshapley_binary_bounds(make_query(1.0, 1.0), m=100, q=5)  # p + 3 = 6

    @pytest.mark.parametrize("m", [0, -3])
    def test_horizon_below_one_rejected(self, m):
        with pytest.raises(InvalidParameterError, match="valuation horizon m must be at least 1"):
            dshapley_binary_bounds(make_query(1.0, 1.0), m=m, q=6)

    def test_ranking_prefers_smaller_error(self):
        res_small = dshapley_binary_bounds(make_query(1.0, 0.5), m=800, q=6)
        res_big = dshapley_binary_bounds(make_query(1.0, 4.0), m=800, q=6)
        assert res_small.lower > res_big.lower

    def test_matches_naive_summation_and_shrinks_with_horizon(self):
        # independent plain-loop sum over every admitted size, over a batch
        # holding a d=0 row and an e2=0 row
        rows = [(1.3, 0.7), (0.0, 1.0), (0.9, 0.0), (2.5, 3.0)]
        n, p = len(rows), 3
        batch = BinaryPointQuery(x_star=np.zeros((n, p)), y_star=np.ones(n, dtype=int),
                                 pi_star=np.full(n, 0.5), w_star=np.full(n, 0.25),
                                 z_star=np.full(n, 2.0),
                                 e2_b=np.array([e2b for _, e2b in rows]),
                                 d_tilde=np.array([t for t, _ in rows]))
        results = {}
        for m in (100, 120, 2000):
            res = dshapley_binary_bounds(batch, m=m, q=6)
            for i, (t, e2b) in enumerate(rows):
                lower = upper = 0.0
                skipped = 0
                for j in range(5, m):
                    delta = (np.sqrt(p) + np.sqrt(np.log(j * m) / 2.0)) / np.sqrt(j)
                    if delta >= 1.0:
                        skipped += 1
                        continue
                    up = 1.0 / (j * (1.0 - delta) ** 2)
                    lo = 1.0 / (j * (1.0 + delta) ** 2)
                    # E and S terms at each extreme; each side takes S at one and E at the other
                    e_lo, e_up = t * lo**2 / (1.0 + t * lo) ** 2, t * up**2 / (1.0 + t * up) ** 2
                    lower += (2.0 + t * lo) * e_lo - e2b * e_up
                    upper += (2.0 + t * up) * e_up - e2b * e_lo
                assert res.lower[i] == pytest.approx(lower / m, rel=1e-12)
                assert res.upper[i] == pytest.approx(upper / m, rel=1e-12)
                assert res.skipped_terms == skipped
            results[m] = res
        # extra admitted terms decay like 1/j^2 while the prefactor grows, so
        # the per-point magnitude shrinks once the horizon is well past the gate
        assert abs(results[2000].lower[0]) < abs(results[120].lower[0])
        assert results[2000].lower[1] == 0.0 == results[2000].upper[1]

    @pytest.mark.parametrize("width", [1, 7, 64, 2000])
    @pytest.mark.parametrize("rows", [128, 5])
    def test_chunked_stop_is_bit_identical(self, monkeypatch, width, rows):
        # a batch of `rows` points is summed in row blocks of
        # _CACHE_FLOATS // nodes rows, set here to `width` rows (a ragged last
        # block at 128-7, one partial block at 5-7 and 128-2000); on both
        # routes every bit must be that of one pass over all points and nodes
        d, e2 = _block_inputs(rows)
        env = RegressionEnvironment(m=_BLOCK_M, q=_BLOCK_Q, gamma=0.5, sigma2=1.3,
                                    beta_hat=np.zeros(_BLOCK_P),
                                    sigma_inv=SpdMatrix(np.diag([0.5, 1.0, 2.0])))
        eigs = np.linalg.eigvalsh(env.sigma_inv.values)
        query = PointQuery(x_star=np.zeros((d.size, _BLOCK_P)), y_star=np.zeros(d.size), e2=e2, d=d)
        routes = [
            (partial(dshapley_binary_bounds, _batch_query(d, e2), m=_BLOCK_M, q=_BLOCK_Q),
             _one_pass_bounds(d, e2, 1.0, (0.0, 0.0))),
            (partial(dshapley_regression_bounds, query, env),
             _one_pass_bounds(d, e2, env.sigma2, (env.gamma * eigs[0], env.gamma * eigs[-1]))),
        ]
        for bounds, (lower, upper, sums, skipped, nodes) in routes:
            monkeypatch.setattr(numerics, "_CACHE_FLOATS", width * nodes)
            res = bounds()
            assert res.lower.tobytes() == lower.tobytes() and res.upper.tobytes() == upper.tobytes()
            got = (res.lower_noise, res.lower_error, res.upper_noise, res.upper_error)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, sums))
            assert res.skipped_terms == skipped
