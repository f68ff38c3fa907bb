import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distshap import (
    BinaryPointQuery,
    BoundParams,
    InvalidParameterError,
    NotConvergedError,
    RandomStream,
    SaturationError,
    SingularMatrixError,
    dshapley_binary_bounds,
    estimate_weighted_second_moment,
    gen_gaussian_c,
    inv_logit,
    irls_fit,
    spd_inverse,
    transform_query,
)
import distshap.regression as regression
from distshap.classification import _irls_stack


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


_STOP_M, _STOP_Q, _STOP_P = 1000, 6, 3


def _stop_inputs():
    """Statistics of 300 random points, a d=0 point and an e2=0 point, and the
    admitted sizes with their envelopes at m=1000, q=6, p=3."""
    m, q, p = _STOP_M, _STOP_Q, _STOP_P
    js = np.arange(q - 1, m, dtype=float)
    delta = (np.sqrt(p) + np.sqrt(np.log(js * m) / 2.0)) / np.sqrt(js)
    js, delta = js[delta < 1.0], delta[delta < 1.0]
    gen = RandomStream(8).generator
    d = np.concatenate([gen.exponential(1.0, 300), [0.0, 1.5]])
    e2 = np.concatenate([gen.exponential(2.0, 300), [1.0, 0.0]])
    return d, e2, js, 1.0 / (js * (1.0 + delta) ** 2), 1.0 / (js * (1.0 - delta) ** 2)


def _one_pass_bounds(d, e2, js, env_lo, env_up, rho):
    """Unit-noise bounds from every size's terms at once, as one cumsum and
    one pairwise sum per point: (lower, upper, stopped_at_j, relative changes)."""
    m = _STOP_M
    t, err = d[:, None], e2[:, None]
    ratio = ((1.0 + t * env_lo) / (1.0 + t * env_up)) ** 2
    lower_terms = t * env_lo ** 2 / (1.0 + t * env_up) ** 2 * ((2.0 + t * env_lo) * 1.0 - err / ratio)
    upper_terms = t * env_up ** 2 / (1.0 + t * env_lo) ** 2 * ((2.0 + t * env_up) * 1.0 - ratio * err)
    running = np.cumsum(lower_terms, axis=1) / m
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(running[:, :-1] / running[:, 1:] - 1.0)
    ok = (running[:, 1:] != 0.0) & (rel <= rho)
    hit = ok.any(axis=1)
    counts = np.where(hit, np.argmax(ok, axis=1) + 2, js.size)
    summed = np.arange(js.size) < counts[:, None]
    lower = np.where(summed, lower_terms, 0.0).sum(axis=1) / m
    upper = np.where(summed, upper_terms, 0.0).sum(axis=1) / m
    return lower, upper, [int(js[k - 1]) if h else None for h, k in zip(hit, counts)], rel


def _stop_query(d, e2):
    shape = np.shape(d)
    return BinaryPointQuery(x_star=np.zeros(shape + (_STOP_P,)), y_star=np.ones(shape, dtype=int),
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
        # independent plain-loop oracle with the relative-change early stop, over
        # a batch holding a d=0 row and an e2=0 row; at m=100 and the default rho
        # the e2=0 row never stops and rows 0 and 3 do, at rho=1e-12 none stops
        rows = [(1.3, 0.7), (0.0, 1.0), (0.9, 0.0), (2.5, 3.0)]
        n, p = len(rows), 3
        batch = BinaryPointQuery(x_star=np.zeros((n, p)), y_star=np.ones(n, dtype=int),
                                 pi_star=np.full(n, 0.5), w_star=np.full(n, 0.25),
                                 z_star=np.full(n, 2.0),
                                 e2_b=np.array([e2b for _, e2b in rows]),
                                 d_tilde=np.array([t for t, _ in rows]))
        results = {}
        for m, rho in ((120, 1e-12), (2000, 1e-12), (100, BoundParams().rho)):
            res = dshapley_binary_bounds(batch, m=m, q=6, params=BoundParams(rho=rho))
            for i, (t, e2b) in enumerate(rows):
                lower = upper = 0.0
                skipped = 0
                stopped = None
                for j in range(5, m):
                    delta = (np.sqrt(p) + np.sqrt(np.log(j * m) / 2.0)) / np.sqrt(j)
                    if delta >= 1.0:
                        skipped += 1
                        continue
                    if stopped is not None:
                        continue
                    up = 1.0 / (j * (1.0 - delta) ** 2)
                    lo = 1.0 / (j * (1.0 + delta) ** 2)
                    ratio = ((1.0 + t * lo) / (1.0 + t * up)) ** 2
                    prev = lower / m
                    lower += t * lo**2 / (1.0 + t * up) ** 2 * ((2.0 + t * lo) - e2b / ratio)
                    upper += t * up**2 / (1.0 + t * lo) ** 2 * ((2.0 + t * up) - ratio * e2b)
                    cur = lower / m
                    if cur != 0.0 and abs(prev / cur - 1.0) <= rho:
                        stopped = j
                assert res.lower[i] == pytest.approx(lower / m, rel=1e-12)
                assert res.upper[i] == pytest.approx(upper / m, rel=1e-12)
                assert res.skipped_terms == skipped
                assert res.stopped_at_j[i] == stopped
            results[m] = res
        assert results[100].stopped_at_j[1:3] == [None, None]
        assert None not in results[100].stopped_at_j[::3]
        assert results[2000].stopped_at_j == [None] * n
        # extra admitted terms decay like 1/j^2 while the prefactor grows, so
        # the per-point magnitude shrinks once the horizon is well past the gate
        assert abs(results[2000].lower[0]) < abs(results[120].lower[0])
        assert results[2000].lower[1] == 0.0 == results[2000].upper[1]

    @pytest.mark.parametrize("width", [1, 7, regression._STOP_CHUNK, 2000])
    @pytest.mark.parametrize("rows", [regression._BOUND_ROWS, 5])
    def test_chunked_stop_is_bit_identical(self, monkeypatch, width, rows):
        # the stop computes sizes in chunks and ends a row block once all its
        # points stopped; every bit must be that of one pass over all sizes
        d, e2, js, env_lo, env_up = _stop_inputs()
        # the second term's bracket vanishes, so the first pair stops
        e2[17] = (2.0 + d[17] * env_lo[1]) * ((1.0 + d[17] * env_lo[1]) / (1.0 + d[17] * env_up[1])) ** 2
        lower, upper, stopped, _ = _one_pass_bounds(d, e2, js, env_lo, env_up, BoundParams().rho)
        assert stopped[17] == js[1] and stopped[300] is None and None not in stopped[:300]

        monkeypatch.setattr(regression, "_STOP_CHUNK", width)
        monkeypatch.setattr(regression, "_BOUND_ROWS", rows)
        batch = _stop_query(d, e2)
        res = dshapley_binary_bounds(batch, m=_STOP_M, q=_STOP_Q)
        assert res.lower.tobytes() == lower.tobytes() and res.upper.tobytes() == upper.tobytes()
        assert res.stopped_at_j == stopped
        assert res.skipped_terms == _STOP_M - _STOP_Q + 1 - js.size
        for side, expected in (("lower", lower), ("upper", upper)):
            alone = dshapley_binary_bounds(batch, m=_STOP_M, q=_STOP_Q, _side=side)
            assert getattr(alone, side).tobytes() == expected.tobytes()
            assert getattr(alone, "upper" if side == "lower" else "lower") is None
            assert alone.stopped_at_j == stopped

    @pytest.mark.parametrize("width", [7, regression._STOP_CHUNK])
    def test_chunked_stop_keeps_one_pass_running_sums(self, monkeypatch, width):
        # a rho equal to a pair's relative change stops there only if the
        # running lower sums across chunks have the bits of one cumsum
        d, e2, js, env_lo, env_up = _stop_inputs()
        _, _, _, rel = _one_pass_bounds(d, e2, js, env_lo, env_up, BoundParams().rho)
        edges = [(i, k) for i in range(d.size - 2) for k in range(70, 250) if rel[i, k] < rel[i, :k].min()]
        monkeypatch.setattr(regression, "_STOP_CHUNK", width)
        for i, k in edges[::len(edges) // 80]:
            res = dshapley_binary_bounds(_stop_query(d[i], e2[i]), m=_STOP_M, q=_STOP_Q,
                                         params=BoundParams(rho=rel[i, k]))
            assert res.stopped_at_j == js[k + 1]

    def test_early_stop_reported(self):
        res = dshapley_binary_bounds(make_query(1.0, 0.2), m=5000, q=6)
        assert res.stopped_at_j is not None
        assert res.stopped_at_j < 5000
