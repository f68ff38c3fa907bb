import io
import re
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distshap import (
    DensityUtility,
    DensityValueRequest,
    InvalidParameterError,
    KernelSpec,
    PointQuery,
    RandomStream,
    RankDeficiencyError,
    RegressionEnvironment,
    SingularMatrixError,
    SpdMatrix,
    dshapley_density,
    dshapley_regression_bounds,
    dshapley_regression_exact,
    dshapley_regression_quadrature,
    estimate_second_moment,
    inv_logit,
    kde_evaluate,
    load_csv,
    mahalanobis_sq,
    prefix_utilities,
    spd_inverse,
    write_results,
)
import distshap as ds
from distshap import numerics
from distshap.density import _gaussian_loo_scores


class TestRandomStream:
    def test_same_seed_bit_identical(self):
        a = RandomStream(77, 1).generator.chisquare(3, size=1000)
        b = RandomStream(77, 1).generator.chisquare(3, size=1000)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RandomStream(77, 1).generator.chisquare(3, size=1000)
        b = RandomStream(77, 2).generator.chisquare(3, size=1000)
        assert not np.array_equal(a, b)

    def test_substreams_reproducible_and_independent(self):
        root = RandomStream(5)
        a = root.substream(3).generator.standard_normal(100)
        b = RandomStream(5).substream(3).generator.standard_normal(100)
        c = root.substream(4).generator.standard_normal(100)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestSpdInverse:
    def test_identity(self):
        inv = spd_inverse(SpdMatrix(np.eye(3)))
        assert np.allclose(inv.values, np.eye(3), atol=1e-14)

    def test_diagonal(self):
        inv = spd_inverse(SpdMatrix(np.diag([4.0, 1.0])))
        assert np.allclose(inv.values, np.diag([0.25, 1.0]), atol=1e-14)

    def test_multiply_back(self):
        gen = np.random.default_rng(8)
        a = gen.standard_normal((6, 6))
        m = SpdMatrix(a @ a.T + 0.5 * np.eye(6))
        inv = spd_inverse(m)
        err = np.linalg.norm(m.values @ inv.values - np.eye(6))
        assert err < 1e-8
        assert np.array_equal(inv.values, inv.values.T)

    def test_involution(self):
        gen = np.random.default_rng(9)
        a = gen.standard_normal((5, 5))
        m = SpdMatrix(a @ a.T + 0.5 * np.eye(5))
        back = spd_inverse(spd_inverse(m))
        rel = np.linalg.norm(back.values - m.values) / np.linalg.norm(m.values)
        assert rel < 1e-6

    @pytest.mark.parametrize("diagonal, pivot", [
        ([-1.0, 1.0, 2.0], 1), ([1.0, -1.0, 2.0], 2), ([1.0, 2.0, -1.0], 3)],
        ids=("pivot1", "pivot2", "pivot3"))
    def test_non_spd_names_pivot(self, diagonal, pivot):
        with pytest.raises(SingularMatrixError) as excinfo:
            SpdMatrix(np.diag(diagonal))
        assert excinfo.value.pivot == pivot

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidParameterError):
            SpdMatrix(np.array([[1.0, 0.5], [0.0, 1.0]]))
        for values in (np.ones((2, 3)), np.ones(3)):
            with pytest.raises(InvalidParameterError, match="^SpdMatrix requires a square 2-d array$"):
                SpdMatrix(values)


class TestSecondMoment:
    def test_symmetric_four_points(self):
        pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        m = estimate_second_moment(pts)
        assert np.allclose(m.values, np.diag([0.5, 0.5]), atol=1e-15)

    def test_law_of_large_numbers(self):
        pts = RandomStream(11).generator.standard_normal((10**5, 3))
        m = estimate_second_moment(pts)
        assert np.abs(np.diag(m.values) - 1.0).max() < 0.05
        off = m.values - np.diag(np.diag(m.values))
        assert np.abs(off).max() < 0.05

    def test_rank_deficiency(self):
        with pytest.raises(RankDeficiencyError):
            estimate_second_moment(np.ones((2, 3)))
        with pytest.raises(InvalidParameterError, match=r"^samples must form an \(N, p\) array$"):
            estimate_second_moment(np.ones(3))

    def test_degenerate_samples_singular(self):
        pts = np.ones((5, 2))  # rank one
        with pytest.raises(SingularMatrixError):
            estimate_second_moment(pts)


class TestMahalanobis:
    def test_identity_metric(self):
        assert mahalanobis_sq(np.array([3.0, 4.0]), SpdMatrix(np.eye(2))) == 25.0

    def test_zero_vector(self):
        assert mahalanobis_sq(np.zeros(2), SpdMatrix(np.eye(2))) == 0.0

    def test_diagonal_metric(self):
        sigma_inv = spd_inverse(SpdMatrix(np.diag([4.0, 1.0])))
        assert mahalanobis_sq(np.array([2.0, 0.0]), sigma_inv) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidParameterError):
            mahalanobis_sq(np.ones(3), SpdMatrix(np.eye(2)))

    @given(st.floats(-100.0, 100.0), st.floats(0.01, 50.0))
    @settings(max_examples=50, deadline=None)
    def test_quadratic_scaling(self, x0, c):
        sigma_inv = SpdMatrix(np.array([[2.0, 0.3], [0.3, 1.0]]))
        x = np.array([x0, 1.5])
        lhs = mahalanobis_sq(c * x, sigma_inv)
        rhs = c * c * mahalanobis_sq(x, sigma_inv)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestInvLogit:
    def test_midpoint(self):
        assert inv_logit(0.0) == 0.5

    @given(st.floats(-700.0, 700.0))
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, t):
        assert inv_logit(t) + inv_logit(-t) == pytest.approx(1.0, abs=1e-15)

    def test_saturation_no_overflow(self):
        with np.errstate(over="raise", invalid="raise"):
            high = inv_logit(40.0)
            assert 1.0 - high < 1e-17
            assert inv_logit(700.0) == 1.0
            assert inv_logit(-700.0) == pytest.approx(0.0, abs=1e-300)

    def test_vectorized(self):
        out = inv_logit(np.array([-1.0, 0.0, 1.0]))
        assert out.shape == (3,)
        assert out[1] == 0.5

    def test_one_division_rounds_as_two_branches(self):
        # 1 / (1 + e) at t >= 0 and e / (1 + e) below, each its own division
        edges = np.array([0.0, 1e-300, 1.0, 36.0, 745.0, np.inf])
        t = np.concatenate([edges, -edges, [np.nan],
                            np.random.default_rng(9).normal(0.0, 20.0, 1000)])
        e = np.exp(-np.abs(t))
        with np.errstate(invalid="ignore"):
            two_branch = np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        assert inv_logit(t).tobytes() == two_branch.tobytes()
        assert all(np.float64(inv_logit(s)).tobytes() == b.tobytes() for s, b in zip(t, two_branch))


class TestRowNorms:
    def test_names_the_first_row_whose_square_is_not_finite(self):
        x = np.ones((6, 3))
        numerics.check_row_norms(x, "background")  # finite rows pass
        x[4, 1], x[2, 0] = np.nan, -1e160  # 3 * 1e320 overflows, as does one 1e160 squared
        with np.errstate(all="raise"):
            with pytest.raises(InvalidParameterError, match=r"^x row 3 has a squared norm that is not finite, got inf$"):
                numerics.check_row_norms(x, "x")
        x[2, 0] = 1e150  # its square is 1e300: finite
        with pytest.raises(InvalidParameterError, match=r"^x row 5 .* got nan$"):
            numerics.check_row_norms(x, "x")


class TestBlocks:
    def test_blocks_cut_in_order_under_each_budget(self, monkeypatch):
        monkeypatch.setattr(numerics, "_BLOCK_FLOATS", 30)
        monkeypatch.setattr(numerics, "_CACHE_FLOATS", 12)
        assert list(numerics.blocks(25, 7)) == [slice(0, 4), slice(4, 8), slice(8, 12),
                                                slice(12, 16), slice(16, 20), slice(20, 24),
                                                slice(24, 28)]
        assert list(numerics.blocks(7, 5, cache=True)) == [slice(0, 2), slice(2, 4),
                                                           slice(4, 6), slice(6, 8)]
        # a row wider than the budget, or of no floats, is still a block
        assert list(numerics.blocks(2, 100)) == [slice(0, 1), slice(1, 2)]
        assert list(numerics.blocks(3, 0, cache=True)) == [slice(0, 12)]
        assert list(numerics.blocks(0, 5)) == []

    def test_runs_take_the_most_entries_that_fit(self, monkeypatch):
        monkeypatch.setattr(numerics, "_BLOCK_FLOATS", 12)
        cost = np.array([1, 2, 2, 3, 5, 13, 13])
        # counts times last costs: 1, 4, 6, 12 | 5 | 13 | 13
        assert list(numerics.runs(cost)) == [slice(0, 4), slice(4, 5), slice(5, 6), slice(6, 7)]
        assert list(numerics.runs(cost, 26)) == [slice(0, 5), slice(5, 7)]
        assert list(numerics.runs(cost[:0])) == []

    def test_runs_match_a_plain_loop(self):
        gen = np.random.default_rng(3)
        for _ in range(50):
            cost = np.sort(gen.integers(1, 40, size=gen.integers(1, 30)))
            budget = int(gen.integers(1, 200))
            cuts, start = [], 0
            while start < cost.size:
                end = start + 1
                while end < cost.size and (end + 1 - start) * cost[end] <= budget:
                    end += 1
                cuts.append(slice(start, end))
                start = end
            assert list(numerics.runs(cost, budget)) == cuts

    def test_line_blocks_end_at_a_line_end(self, monkeypatch):
        def cut(text):
            return list(numerics.line_blocks(io.StringIO(text, newline=None)))

        monkeypatch.setattr(numerics, "_CACHE_FLOATS", 1)  # read at each call: 8-character hints
        assert cut("ab\ncd\nef\ngh\n") == [["ab\n", "cd\n", "ef\n"], ["gh\n"]]  # past 8, then stop
        assert cut("a,b\rc,d\r\ne") == [["a,b\n", "c,d\n", "e"]]  # CR, CR LF read as LF; the last may not end
        assert cut("0123456789abc\nx") == [["0123456789abc\n"], ["x"]]  # a long line fills its block
        assert cut("") == []
        monkeypatch.setattr(numerics, "_CACHE_FLOATS", 2)
        assert cut("ab\ncd\nef\ngh\n") == [["ab\n", "cd\n", "ef\n", "gh\n"]]

    @given(st.text(alphabet="ab,#\r\n", max_size=60), st.integers(1, 3))
    def test_line_blocks_are_whole_lines_of_the_text(self, text, cache):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(numerics, "_CACHE_FLOATS", cache)
            blocks = list(numerics.line_blocks(io.StringIO(text, newline=None)))
        lines = [line for block in blocks for line in block]
        assert "".join(lines) == text.replace("\r\n", "\n").replace("\r", "\n")
        assert all(line and "\n" not in line[:-1] for line in lines)
        assert all(line[-1] == "\n" for line in lines[:-1])
        # every block but the last passes the hint, and by at most its last line
        assert all(len("".join(block)) > 8 * cache for block in blocks[:-1])
        assert all(len("".join(block[:-1])) <= 8 * cache for block in blocks)


# case: the budget its blocks obey and the value the case sets it to (None keeps the
# default). Unblocked, the quadrature's (points, nodes) table of 20,000 points held 44 times
# its bound and the envelope's (points, nodes) table about as much; the kernel means would hold 146
# budgets and LSCV 549, the stack of 300 sets held 41 in one chunk, and a 600-row set's
# pairs, 5.5 budgets, held ~17 in one block. Read whole, the 20,000-row file's text, its
# decoded copy and its lines held 1.9 times the reader's bound (0.6 read in blocks); written
# whole, the table's cell strings and payload held 6.9 times the writer's (0.66 in blocks).
# Drawn in one (sizes, 128) block, the exact sampler's 20,000 sizes held 26 times its bound.
GUARDS = {"quadrature": ("_CACHE_FLOATS", None), "envelope": ("_CACHE_FLOATS", None),
          "kernel-means": ("_BLOCK_FLOATS", 1 << 12), "density-sets": ("_BLOCK_FLOATS", 1 << 12),
          "density-stack": ("_BLOCK_FLOATS", 1 << 12), "lscv": ("_BLOCK_FLOATS", 1 << 12),
          "pairs-one-prefix": ("_BLOCK_FLOATS", None), "pairs-every-prefix": ("_BLOCK_FLOATS", None),
          "load-csv": ("_CACHE_FLOATS", None), "write-results": ("_CACHE_FLOATS", None),
          "exact-sampler": ("_BLOCK_FLOATS", None)}


def _guarded_call(case, tmp_path):
    """The case's call, its inputs made outside the traced region, and the floats it holds
    besides its blocks."""
    if case == "load-csv":
        rows, width = 20_000, 11
        table = np.random.default_rng(7).standard_normal((rows, width))
        path = tmp_path / "data.csv"
        path.write_text(",".join(f"x{i}" for i in range(width - 1)) + ",y\n"
                        + "".join(",".join(map(repr, row)) + "\n" for row in table.tolist()))
        load_csv(path, target_column="y")  # first-call allocations
        # the parsed blocks, their concatenation and the features split from it
        return partial(load_csv, path, target_column="y"), 3 * rows * width
    if case == "write-results":
        rows = 20_000
        gen = np.random.default_rng(8)
        columns = {"index": np.arange(rows), "value": gen.standard_normal(rows),
                   "std_error": gen.exponential(size=rows), "method": ["bounds-lower"] * rows,
                   "m": [1000] * rows, "q": [13] * rows, "seed": [1] * rows}
        table = ds.ResultTable(columns, {"seed": 1})
        write_results(table, tmp_path / "warm.csv")  # first-call allocations
        return partial(write_results, table, tmp_path / "out.csv"), 0
    if case == "exact-sampler":
        sizes = 20_000
        env = RegressionEnvironment(m=sizes + 4, q=5, gamma=0.0, sigma2=1.0,
                                    beta_hat=np.zeros(2), sigma_inv=SpdMatrix(np.eye(2)))
        query = PointQuery(x_star=np.array([1.0, 0.0]), y_star=0.0, e2=1.0, d=1.0)
        return partial(dshapley_regression_exact, query, env, None, RandomStream(0)), 8 * sizes
    if case in ("quadrature", "envelope"):
        points = 20_000
        gen = np.random.default_rng(6)
        query = PointQuery(x_star=np.zeros((points, 2)), y_star=np.zeros(points),
                           e2=gen.exponential(size=points), d=gen.exponential(size=points))
        env = RegressionEnvironment(m=1000, q=5, gamma=0.0, sigma2=1.0,
                                    beta_hat=np.zeros(2), sigma_inv=SpdMatrix(np.eye(2)))
        route = dshapley_regression_quadrature if case == "quadrature" else dshapley_regression_bounds
        return partial(route, query, env), 8 * points  # eight floats a point
    if case.startswith("pairs"):
        gen = np.random.default_rng(11)
        pool, evals = gen.standard_normal((600, 3)), gen.standard_normal((40, 3))
        utility = DensityUtility(KernelSpec("gaussian", 0.6), evals, constant=0.3)
        prefix_utilities(pool, np.arange(5)[None], [5], utility)  # first-call allocations
        sizes = [600] if case == "pairs-one-prefix" else np.arange(1, 601)
        return partial(prefix_utilities, pool, np.arange(600)[None], sizes, utility), 0
    gen = RandomStream(18).generator
    pts = gen.standard_normal((1500, 10))
    sets, stack = gen.standard_normal((2, 400, 10)), gen.standard_normal((300, 4, 10))
    kern = KernelSpec("gaussian", 1.0)
    return {"kernel-means": partial(kde_evaluate, pts, kern, pts[:40]),
            "density-sets": partial(dshapley_density, DensityValueRequest(sets, m=50), pts[:300], kern),
            "density-stack": partial(dshapley_density, DensityValueRequest(stack, m=50), pts, kern),
            "lscv": partial(_gaussian_loo_scores, pts, [0.01, 0.1, 1.0])}[case], 0


@pytest.mark.parametrize("case", GUARDS)
def test_bounded_kernel_peak_stays_within_budgets(case, monkeypatch, tmp_path):
    """The peak-memory guard: each bounded kernel holds a few arrays of its budget's floats,
    however many points, rows, sets or pairs it values, besides a few floats a point (or,
    for the reader, a few arrays of what it returns)."""
    budget, value = GUARDS[case]
    if value is not None:
        monkeypatch.setattr(numerics, budget, value)
    call, held = _guarded_call(case, tmp_path)
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (8 * getattr(numerics, budget) + held)  # eight such arrays of floats


def _env(**changes):
    return RegressionEnvironment(**{**dict(m=10, q=5, gamma=0.0, sigma2=1.0, beta_hat=np.zeros(2),
                                           sigma_inv=SpdMatrix(np.eye(2))), **changes})


_BINARY = ds.BinaryPointQuery(x_star=np.zeros(3), y_star=1, pi_star=0.5, w_star=0.25, z_star=2.0,
                              e2_b=1.0, d_tilde=1.0)
_POINT = PointQuery(x_star=np.array([1.0, 0.0]), y_star=0.0, e2=1.0, d=1.0)
_LOGIT_X = np.column_stack([np.ones(8), np.arange(8.0)])
_LOGIT_Y = np.array([0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0])


def _baseline(**counts):
    return ds.dshapley_mc_baseline(np.zeros(1), np.zeros((5, 1)), lambda rows: 0.0,
                                   **{"m": 5, "max_draws": 10, **counts}, rng=RandomStream(0))


def _time_bench(**counts):
    return ds.run_time_bench([(10, 2)], ["regression"], RandomStream(0), **counts)


# entry point: (floor, the name its message gives the count, a call with the count set to v)
COUNTS = {
    "RegressionEnvironment.m": (1, "valuation horizon m", lambda v: _env(m=v)),
    "RegressionEnvironment.q": (2, "utility gate q", lambda v: _env(q=v)),
    "dshapley_regression_general_mc.n_outer": (2, "n_outer", lambda v: ds.dshapley_regression_general_mc(
        _POINT, _env(), ds.make_gaussian_sampler(SpdMatrix(np.eye(2))), v, RandomStream(0))),
    "dshapley_regression_exact.draws": (2, "draws", lambda v: ds.dshapley_regression_exact(
        _POINT, _env(), v, RandomStream(0))),
    "DensityValueRequest.m": (1, "m", lambda v: DensityValueRequest(np.zeros((1, 1)), v)),
    "coeff_A.n": (1, "n", lambda v: ds.coeff_A(v, 10)),
    "coeff_A.m": (1, "m", lambda v: ds.coeff_A(2, v)),
    "coeff_B.n": (1, "n", lambda v: ds.coeff_B(v, 10)),
    "coeff_B.m": (1, "m", lambda v: ds.coeff_B(2, v)),
    "synergy_scan.n_draws": (1, "n_draws", lambda v: ds.synergy_scan([0.1], n_draws=v, rng=RandomStream(0))),
    "synergy_scan.m": (1, "m", lambda v: ds.synergy_scan([0.1], m=v, n_draws=10, rng=RandomStream(0))),
    "uniform_closed_form.m": (1, "m", lambda v: ds.uniform_closed_form([0.5], 0.2, v, 0.2)),
    "RegressionUtility.gate": (1, "gate", lambda v: ds.RegressionUtility(v, x_test=np.zeros((1, 2)),
                                                                         y_test=np.zeros(1))),
    "AccuracyUtility.gate": (1, "gate", lambda v: ds.AccuracyUtility(v, np.zeros((1, 2)), np.zeros(1))),
    "dshapley_mc_baseline.m": (1, "m", lambda v: _baseline(m=v)),
    "dshapley_mc_baseline.max_draws": (2, "max_draws", lambda v: _baseline(max_draws=v)),
    "dshapley_binary_bounds.m": (1, "valuation horizon m", lambda v: ds.dshapley_binary_bounds(_BINARY, v, 6)),
    "dshapley_binary_bounds.q": (6, "the binary bounds: the gate q",
                                 lambda v: ds.dshapley_binary_bounds(_BINARY, 10, v)),
    "irls_fit.max_iter": (1, "max_iter", lambda v: ds.irls_fit(_LOGIT_X, _LOGIT_Y, max_iter=v)),
    "ExperimentConfig.n_value_points": (1, "n_value_points",
                                        lambda v: ds.ExperimentConfig("regression", n_value_points=v)),
    "ExperimentConfig.repetitions": (1, "repetitions", lambda v: ds.ExperimentConfig("regression", repetitions=v)),
    "ExperimentConfig.background_size": (1, "background_size",
                                         lambda v: ds.ExperimentConfig("regression", background_size=v)),
    "ExperimentConfig.heldout_size": (0, "heldout_size", lambda v: ds.ExperimentConfig("regression", heldout_size=v)),
    "ExperimentConfig.m": (1, "valuation horizon m", lambda v: ds.ExperimentConfig("regression", m=v)),
    "ExperimentConfig.baseline_draws": (2, "baseline_draws",
                                        lambda v: ds.ExperimentConfig("regression", baseline_draws=v)),
    "ExperimentConfig.q": (1, "utility gate q", lambda v: ds.ExperimentConfig("density", q=v)),
    "run_time_bench.repetitions": (1, "repetitions", lambda v: _time_bench(repetitions=v)),
    "run_time_bench.baseline_points": (1, "baseline_points", lambda v: _time_bench(baseline_points=v)),
    "run_time_bench.background_size": (1, "background_size", lambda v: _time_bench(background_size=v)),
    "gen_gaussian_r.m": (1, "m", lambda v: ds.gen_gaussian_r(v, 2, RandomStream(0))),
    "gen_gaussian_r.p": (1, "p", lambda v: ds.gen_gaussian_r(10, v, RandomStream(0))),
    "gen_gaussian_c.m": (1, "m", lambda v: ds.gen_gaussian_c(v, RandomStream(0))),
    "gen_mixture_c.m": (1, "m", lambda v: ds.gen_mixture_c(v, 2, RandomStream(0))),
    "gen_mixture_c.p": (1, "p", lambda v: ds.gen_mixture_c(10, v, RandomStream(0))),
}


class TestCountRule:
    @pytest.mark.parametrize("which", ["nan", "inf", "below", "fraction"])
    @pytest.mark.parametrize("entry", COUNTS)
    def test_entry_point_refuses_a_count_naming_it(self, entry, which):
        floor, name, call = COUNTS[entry]
        # a fraction above the floor: 2.5 where the floor is 1
        value = {"nan": float("nan"), "inf": float("inf"), "below": floor - 1, "fraction": floor + 1.5}[which]
        rule = "be an integer" if which == "fraction" else f"be at least {floor}"
        # a count the message qualifies, the gate q of the chi-squared forms, carries p in brackets
        message = rf"^{re.escape(name)}( \(.*\))? must {rule}, got {re.escape(repr(value))}$"
        with pytest.raises(InvalidParameterError, match=message):
            call(value)

    @pytest.mark.parametrize("value", [1, 5.0, 10 ** 30, np.int64(7)])
    def test_a_finite_count_at_or_above_its_floor_passes(self, value):
        numerics.check_count(value, 1, "n")

    @pytest.mark.parametrize("value", [2.5, np.float64(1.5), 10 ** 15 + 0.5])
    def test_a_fractional_count_is_refused(self, value):
        with pytest.raises(InvalidParameterError, match=rf"^n must be an integer, got {re.escape(repr(value))}$"):
            numerics.check_count(value, 1, "n")
