import numpy as np
import pytest

import distshap.experiments as experiments
from distshap import baseline
from distshap import (
    AccuracyUtility,
    Dataset,
    DensityUtility,
    DensityValueRequest,
    ExperimentConfig,
    InvalidParameterError,
    KernelSpec,
    PointQuery,
    RandomStream,
    RegressionUtility,
    UtilityEvaluationError,
    dshapley_binary_bounds,
    dshapley_mc_baseline,
    dshapley_regression_bounds,
    estimate_weighted_second_moment,
    evaluate_utility,
    fit_background,
    gen_gaussian_c,
    gen_gaussian_r,
    gen_mixture_c,
    irls_fit,
    run_point_addition,
    run_time_bench,
    select_bandwidth,
    spd_inverse,
    transform_query,
    value_points,
)
from distshap.classification import _irls_stack


def small_config(**overrides):
    base = dict(task="regression", method="fast", n_value_points=20, m=100,
                background_size=400, heldout_size=150, repetitions=3, seed=0)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_invalid_combinations(self):
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(task="density", method="bounds")
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(task="regression", method="nope")
        with pytest.raises(InvalidParameterError, match="^unknown task 'nope'$"):
            ExperimentConfig(task="nope")
        with pytest.raises(InvalidParameterError, match="^bound_side must be lower or upper$"):
            small_config(method="bounds", bound_side="middle")

    def test_split_sizes_validated(self):
        # a negative size would slice the split from its end
        with pytest.raises(InvalidParameterError, match="heldout_size"):
            small_config(heldout_size=-5)
        with pytest.raises(InvalidParameterError, match="background_size"):
            small_config(background_size=0)
        assert small_config(heldout_size=0, background_size=1).heldout_size == 0

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf, -1.0])
    def test_nonfinite_gamma_rejected(self, gamma):
        with pytest.raises(InvalidParameterError, match="gamma"):
            small_config(gamma=gamma)

    @pytest.mark.parametrize("field", ["n_value_points", "repetitions", "heldout_size",
                                       "background_size"])
    def test_nan_count_rejected(self, field):
        with pytest.raises(InvalidParameterError, match=field):
            small_config(**{field: np.nan})

    def test_value_points_exceeding_dataset(self):
        data = gen_gaussian_r(30, 2, RandomStream(0))
        config = small_config(n_value_points=100)
        with pytest.raises(InvalidParameterError, match="exceeds"):
            value_points(data, config, RandomStream(1))
        # valuing every row leaves none for the background
        with pytest.raises(InvalidParameterError, match="^no samples left for the background"):
            value_points(data, small_config(n_value_points=30), RandomStream(1))

    def test_a_split_is_three_index_arrays(self):
        # one index array was taken as the valued rows, and the split failed in the fits
        data = gen_gaussian_r(300, 2, RandomStream(0))
        message = r"^split must be three index arrays \(value_idx, held_idx, bg_idx\)$"
        for split in (np.arange(5), np.arange(3), (np.arange(5), np.arange(5, 50))):
            with pytest.raises(InvalidParameterError, match=message):
                value_points(data, small_config(), RandomStream(1), split)
            with pytest.raises(InvalidParameterError, match=message):
                run_point_addition(small_config(), data, RandomStream(1), split)


class TestValuePoints:
    def test_thread_count_does_not_change_results(self):
        data = gen_gaussian_r(800, 4, RandomStream(3))
        serial = small_config(threads=1)
        threaded = small_config(threads=4)
        i1, v1, s1 = value_points(data, serial, RandomStream(5))
        i4, v4, s4 = value_points(data, threaded, RandomStream(5))
        assert np.array_equal(i1, i4)
        assert np.array_equal(v1, v4)
        assert np.array_equal(s1, s4)

    def test_rerun_identical(self):
        data = gen_gaussian_r(800, 4, RandomStream(3))
        config = small_config()
        _, v1, _ = value_points(data, config, RandomStream(5))
        _, v2, _ = value_points(data, config, RandomStream(5))
        assert np.array_equal(v1, v2)

    @pytest.mark.parametrize("task", ["regression", "density"])
    def test_fast_route_draws_nothing(self, task):
        data = gen_gaussian_r(800, 4, RandomStream(3))
        split = (np.arange(20), np.arange(20, 170), np.arange(170, 800))
        config = small_config(task=task)
        _, v1, s1 = value_points(data, config, RandomStream(1), split)
        _, v2, s2 = value_points(data, config, RandomStream(2), split)
        assert v1.tobytes() == v2.tobytes() and s1.tobytes() == s2.tobytes()

    def test_density_values_all_points_in_one_call(self, monkeypatch):
        data = gen_gaussian_r(600, 3, RandomStream(4))
        split = (np.arange(25), np.arange(25, 100), np.arange(100, 600))
        config = small_config(task="density", n_value_points=25)
        calls = []
        original = experiments.dshapley_density

        def counted(*args, **kwargs):
            calls.append(args[0].s_star.shape)
            return original(*args, **kwargs)

        monkeypatch.setattr(experiments, "dshapley_density", counted)
        _, values, errs = value_points(data, config, RandomStream(1), split)
        assert calls == [(25, 1, 3)]

        background = data.x[split[2]]
        kernel = KernelSpec("gaussian", select_bandwidth(background, config.bandwidth_grid))
        loop = [original(DensityValueRequest(x[None, :], m=config.m), background, kernel)
                for x in data.x[split[0]]]
        np.testing.assert_allclose(values, [e.value for e in loop], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(errs, [e.std_error for e in loop], rtol=1e-12, atol=0.0)

    def test_density_baseline_values(self):
        # Each point's sampled baseline runs on its own substream, under the ISE utility at
        # the LSCV bandwidth with evaluation rows drawn from the background. A point at the
        # mode is worth more than one in either tail, as on the fast route.
        data = gen_gaussian_r(600, 1, RandomStream(4))
        value_idx = np.argsort(data.x[:, 0])[[300, 2, 597]]
        rest = np.setdiff1d(np.arange(600), value_idx)
        split = (value_idx, rest[:100], rest[100:])
        config = small_config(task="density", method="baseline", n_value_points=3, m=20,
                              baseline_draws=2000)
        _, values, errs = value_points(data, config, RandomStream(1), split)

        background = data.x[split[2]]
        kernel = KernelSpec("gaussian", select_bandwidth(background, config.bandwidth_grid))
        rows = RandomStream(1).substream(experiments._STREAM_EVAL_POINTS).generator.integers(
            0, len(background), size=experiments._DENSITY_EVAL_POINTS)
        utility = DensityUtility(kernel, background[rows])
        loop = [dshapley_mc_baseline(x, background, utility, m=20, max_draws=2000,
                                     rng=RandomStream(1).substream(i))
                for i, x in enumerate(data.x[value_idx])]
        assert values.tobytes() == np.array([e.value for e in loop]).tobytes()
        assert errs.tobytes() == np.array([e.std_error for e in loop]).tobytes()
        _, fast, _ = value_points(data, small_config(task="density", n_value_points=3, m=20),
                                  RandomStream(1), split)
        assert values[0] > values[1:].max() and fast[0] > fast[1:].max()

    def test_bounds_method(self):
        data = gen_gaussian_r(800, 4, RandomStream(3))
        config = small_config(method="bounds", q=9)
        _, values, errs = value_points(data, config, RandomStream(5))
        assert values.shape == (20,)
        assert np.all(errs == 0.0)

    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_batched_bounds_match_per_point_kernels(self, task):
        gen = gen_gaussian_r if task == "regression" else gen_mixture_c
        data = gen(900, 4, RandomStream(3))
        split = (np.arange(30), np.arange(30, 230), np.arange(230, 900))
        bx, by = data.x[split[2]], data.y[split[2]]
        if task == "regression":
            env = fit_background(bx, by, m=100, q=9)

            def per_point(x, y):
                return dshapley_regression_bounds(PointQuery.from_point(x, y, env), env)
        else:
            state = irls_fit(bx, by)
            sti = spd_inverse(estimate_weighted_second_moment(bx, state.beta))

            def per_point(x, y):
                query = transform_query(x, int(y), state, sti, clamp_weight=True)
                return dshapley_binary_bounds(query, 100, 9)
        expected = [per_point(x, y) for x, y in zip(data.x[:30], data.y[:30])]
        # library callers get both sides; value_points writes the side the config names
        assert all(isinstance(b.lower, float) and isinstance(b.upper, float) and b.lower <= b.upper
                   for b in expected)
        for side in ("lower", "upper"):
            config = small_config(task=task, method="bounds", q=9, bound_side=side,
                                  n_value_points=30)
            _, values, _ = value_points(data, config, RandomStream(5), split)
            assert values.tobytes() == np.array([getattr(b, side) for b in expected]).tobytes()


class TestPointAddition:
    def test_orderings_follow_emitted_values(self):
        data = gen_gaussian_r(800, 4, RandomStream(13))
        config = small_config(repetitions=1)
        result = run_point_addition(config, data, RandomStream(2))
        assert set(c.ordering for c in result.curves) == {"largest", "lowest", "random"}
        order = np.argsort(-result.rep0_values, kind="stable")
        reranked = result.rep0_indices[order]
        assert reranked.shape == (20,)
        # re-valuing the same split reproduces the ranking
        again = run_point_addition(config, data, RandomStream(2))
        assert np.array_equal(result.rep0_values, again.rep0_values)

    def test_curve_lengths_and_start(self):
        data = gen_gaussian_r(800, 4, RandomStream(13))
        config = small_config(repetitions=2)
        result = run_point_addition(config, data, RandomStream(2))
        for curve in result.curves:
            assert curve.utilities.shape == (21,)
            assert curve.utilities[0] == 0.0
            assert curve.repetitions == 2

    def test_identical_points_make_orderings_equivalent(self):
        gen = RandomStream(4).generator
        x_bg = gen.standard_normal((500, 3))
        beta = np.array([1.0, 0.0, -1.0])
        y_bg = x_bg @ beta + gen.standard_normal(500)
        point = np.array([0.5, 0.5, 0.5])
        x = np.vstack([np.tile(point, (20, 1)), x_bg])
        y = np.concatenate([np.full(20, float(point @ beta)), y_bg])
        data = Dataset(x=x, y=y)
        config = small_config(n_value_points=20, background_size=300, heldout_size=150,
                              repetitions=2)
        # pin the split so the valued set is exactly the block of identical points
        split = (np.arange(20), np.arange(20, 170), np.arange(170, 470))
        result = run_point_addition(config, data, RandomStream(6), split=split)
        # any ordering of identical points adds the same sets, so the three
        # curves coincide exactly
        largest, lowest, random = (next(c for c in result.curves if c.ordering == name)
                                   for name in ("largest", "lowest", "random"))
        assert np.array_equal(largest.utilities, lowest.utilities, equal_nan=True)
        assert np.array_equal(largest.utilities, random.utilities, equal_nan=True)

    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_value_points_and_point_addition_resolve_one_split_alike(self, task):
        # the fast route draws nothing, so on one pinned split value_points gives the
        # first repetition's values bit for bit
        gen = gen_gaussian_r if task == "regression" else gen_mixture_c
        data = gen(800, 4, RandomStream(3))
        split = (np.arange(20), np.arange(20, 170), np.arange(170, 800))
        config = small_config(task=task, repetitions=1)
        indices, values, _ = value_points(data, config, RandomStream(1), split)
        result = run_point_addition(config, data, RandomStream(2), split)
        assert np.array_equal(indices, split[0]) and np.array_equal(result.rep0_indices, split[0])
        assert values.tobytes() == result.rep0_values.tobytes()

    def test_accuracy_fits_are_stacked_with_little_padding(self, monkeypatch):
        # a repetition's three curves are one stack of 3 x 195 prefixes; cut into blocks of
        # 32 in curve order, 23% of the stacked rows were padding, and in order of size 4.7%
        stacked = []

        def spy(x, y, sizes, max_iter):
            stacked.append((sum(sizes), len(sizes) * x.shape[1]))
            return _irls_stack(x, y, sizes, max_iter)

        monkeypatch.setattr(baseline, "_irls_stack", spy)
        data = gen_gaussian_c(800, RandomStream(3))
        config = small_config(task="classification", method="bounds", n_value_points=200,
                              background_size=400, repetitions=1)
        run_point_addition(config, data, RandomStream(2))
        (members, rows) = np.sum(stacked, axis=0)
        assert len(stacked) > 1 and 1.0 - members / rows <= 0.10

    def test_random_orderings_share_asymptote(self):
        data = gen_gaussian_r(800, 4, RandomStream(13))
        config = small_config(repetitions=1)
        a = run_point_addition(config, data, RandomStream(21))
        b = run_point_addition(config, data, RandomStream(22))
        curve_a = next(c for c in a.curves if c.ordering == "random")
        curve_b = next(c for c in b.curves if c.ordering == "random")
        assert not np.allclose(curve_a.utilities[1:10], curve_b.utilities[1:10])
        # same split sizes, same dataset: the full-data utility depends only on
        # which points were selected, so compare within one run instead
        largest = next(c for c in a.curves if c.ordering == "largest")
        random = next(c for c in a.curves if c.ordering == "random")
        assert largest.utilities[-1] == pytest.approx(random.utilities[-1], rel=1e-12)


def _counting(monkeypatch, name):
    """Replace ``experiments.<name>`` with a wrapper that counts its calls."""
    calls = []
    original = getattr(experiments, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(experiments, name, counted)
    return calls


class TestCurvesUseBaselineUtilities:
    # density runs once without a target column and once with one it must ignore
    @pytest.mark.parametrize("task, drop_y", [("regression", False), ("classification", False),
                                              ("density", True), ("density", False)])
    def test_every_step_is_the_baseline_utility(self, task, drop_y):
        p, steps = 3, 12
        if task == "classification":
            data = gen_mixture_c(600, p, RandomStream(31))
        else:
            data = gen_gaussian_r(600, p, RandomStream(31))
        if drop_y:
            data = Dataset(x=data.x, y=None)
        split = (np.arange(steps), np.arange(steps, 212), np.arange(212, 600))
        hx = data.x[split[1]]
        # a one-entry grid fixes the bandwidth without cross-validation
        config = small_config(task=task, method="fast" if task == "density" else "bounds",
                              n_value_points=steps, repetitions=1, bandwidth_grid=(0.7,))
        q = config.resolved_q(p)
        if task == "regression":
            env = fit_background(data.x[split[2]], data.y[split[2]], m=config.m, q=q)
            utility = RegressionUtility(gate=q, constant=2.0 * env.sigma2, x_test=hx,
                                        y_test=data.y[split[1]])
        elif task == "classification":
            utility = AccuracyUtility(gate=q, x_test=hx, y_test=data.y[split[1]])
        else:
            utility = DensityUtility(kernel=KernelSpec("gaussian", 0.7), eval_points=hx)
        result = run_point_addition(config, data, RandomStream(8), split=split)
        curves = {c.ordering: c.utilities for c in result.curves}
        for name, sign in (("largest", -1.0), ("lowest", 1.0)):
            added = result.rep0_indices[np.argsort(sign * result.rep0_values, kind="stable")]
            expected = [0.0]
            for k in range(1, steps + 1):
                prefix = data.x[added[:k]]
                if task != "density":
                    prefix = (prefix, data.y[added[:k]])
                try:
                    expected.append(evaluate_utility(prefix, utility)
                                    if k >= utility.gate else np.nan)
                except UtilityEvaluationError:
                    expected.append(np.nan)
            assert np.array_equal(curves[name], expected, equal_nan=True)
            assert np.all(np.isnan(curves[name][1:utility.gate]))

    @pytest.mark.parametrize("task", ["regression", "classification", "density"])
    def test_one_utility_call_per_ordering(self, task, monkeypatch):
        generate = gen_mixture_c if task == "classification" else gen_gaussian_r
        data = generate(500, 3, RandomStream(7))
        if task == "density":
            data = Dataset(x=data.x, y=None)
        calls = _counting(monkeypatch, "prefix_utilities")
        config = small_config(task=task, method="fast" if task == "density" else "bounds",
                              n_value_points=15, background_size=200, heldout_size=100,
                              repetitions=2, bandwidth_grid=(0.5,))
        result = run_point_addition(config, data, RandomStream(4))
        assert len(calls) == config.repetitions  # the three orderings are one stack
        assert all(np.isfinite(c.utilities[config.resolved_q(3):]).all() for c in result.curves)

    @pytest.mark.parametrize("task, fitted", [("regression", "fit_background"),
                                              ("density", "select_bandwidth")])
    def test_background_fitted_once_per_repetition(self, task, fitted, monkeypatch):
        data = gen_gaussian_r(400, 2, RandomStream(17))
        if task == "density":
            data = Dataset(x=data.x, y=None)
        calls = _counting(monkeypatch, fitted)
        config = small_config(task=task, method="bounds" if task == "regression" else "fast",
                              n_value_points=6, background_size=150, heldout_size=100,
                              repetitions=2, bandwidth_grid=(0.3, 1.0))
        run_point_addition(config, data, RandomStream(4))
        assert len(calls) == 2

    def test_zero_ridge_gate_at_dimension_rejected_up_front(self, monkeypatch):
        data = gen_gaussian_r(400, 3, RandomStream(19))
        calls = _counting(monkeypatch, "fit_background")
        config = small_config(method="bounds", q=3, n_value_points=6, repetitions=2)
        with pytest.raises(InvalidParameterError, match="gate > p"):
            run_point_addition(config, data, RandomStream(4))
        assert calls == []
        ridged = small_config(method="bounds", q=3, gamma=0.5, n_value_points=6, repetitions=1)
        result = run_point_addition(ridged, data, RandomStream(4))
        assert np.isfinite(result.curves[0].utilities[3:]).all()


class TestTimeBench:
    def test_single_cell_structure(self):
        rows = run_time_bench([(20, 3)], ["regression"], RandomStream(0),
                              repetitions=1, baseline_points=5, background_size=200)
        assert len(rows) == 1
        row = rows[0]
        assert row["task"] == "regression"
        assert row["fast_seconds"] > 0 and row["baseline_seconds"] > 0
        assert row["speedup"] == pytest.approx(row["baseline_seconds"] / row["fast_seconds"])
        assert row["baseline_points_timed"] == 5

    def test_empty_grid(self):
        with pytest.raises(InvalidParameterError):
            run_time_bench([], ["regression"], RandomStream(0))

    @pytest.mark.parametrize("counts", [{"repetitions": 0}, {"baseline_points": 0},
                                        {"repetitions": -1}, {"background_size": -500},
                                        {"background_size": float("nan")}])
    def test_counts_below_one_rejected(self, counts):
        # each is refused under its own name, not by the generator it would reach
        with pytest.raises(InvalidParameterError, match=f"^{next(iter(counts))} must be at least 1"):
            run_time_bench([(20, 3)], ["regression"], RandomStream(0), **counts)
