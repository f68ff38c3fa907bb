import itertools
from functools import partial
from math import comb, factorial

import numpy as np
import pytest

from distshap import (
    AccuracyUtilityContext,
    BaselineFailureError,
    DensityUtilityContext,
    EnumerationSizeError,
    InvalidParameterError,
    KernelSpec,
    RandomStream,
    RegressionUtilityContext,
    SpdMatrix,
    UtilityEvaluationError,
    UtilitySpec,
    dshapley_mc_baseline,
    evaluate_utility,
    exact_data_shapley,
)
from distshap import baseline
from distshap.baseline import prefix_utilities
from distshap.classification import _irls_stack
from distshap.estimates import MCControls
from distshap.regression import (
    PointQuery,
    RegressionEnvironment,
    analytic_utility_constant,
    dshapley_regression_exact,
)


def tabulated_utility(seed):
    """Deterministic random utility on sorted index multisets; empty set is 0."""
    table = {}

    def util(subset):
        key = tuple(sorted(int(i) for i in np.ravel(subset)))
        if not key:
            return 0.0
        if key not in table:
            mix = seed
            for i in key:
                mix = (mix * 1000003 + i + 1) % (2**31 - 1)
            table[key] = float(np.random.default_rng(mix).uniform(-1.0, 1.0))
        return table[key]

    return util


def permutation_shapley(n, util):
    values = np.zeros(n)
    for perm in itertools.permutations(range(n)):
        prefix = []
        for player in perm:
            before = util(prefix)
            prefix.append(player)
            values[player] += (util(prefix) - before) / factorial(n)
    return values


def subsets_in_mask_order(n):
    """The member lists of the nonempty subsets of range(n), in mask order."""
    return [[i for i in range(n) if mask >> i & 1] for mask in range(1, 1 << n)]


def per_subset_shapley(data, util):
    """Exact values from one utility call per subset, in mask order, weighted as the
    enumerator weights them."""
    n = len(data[0]) if isinstance(data, tuple) else len(data)
    masks = np.arange(1 << n, dtype=np.uint32)
    u = np.zeros(1 << n)
    for mask, members in enumerate(subsets_in_mask_order(n), start=1):
        u[mask] = util(take(data, members))
    sizes = np.array([bin(mask).count("1") for mask in range(1 << n)])
    weights = np.array([1.0 / (n * comb(n - 1, s)) for s in range(n)])
    values = np.empty(n)
    for i in range(n):
        without = masks[(masks & np.uint32(1 << i)) == 0]
        gains = u[without | np.uint32(1 << i)] - u[without]
        values[i] = float(np.sum(weights[sizes[without]] * gains))
    return values, float(u[-1])


class TestEvaluateUtility:
    def test_empty_set_zero(self):
        spec = UtilitySpec("regression_risk", gate=4, constant=1.0, evaluation_mode="analytic")
        ctx = RegressionUtilityContext(beta_true=np.zeros(2), sigma_x=SpdMatrix(np.eye(2)), sigma2=1.0)
        assert evaluate_utility((np.empty((0, 2)), np.empty(0)), spec, ctx) == 0.0

    def test_below_gate_zero(self):
        spec = UtilitySpec("regression_risk", gate=4, constant=1.0, evaluation_mode="analytic")
        ctx = RegressionUtilityContext(beta_true=np.zeros(2), sigma_x=SpdMatrix(np.eye(2)), sigma2=1.0)
        x = np.random.default_rng(0).standard_normal((3, 2))
        assert evaluate_utility((x, np.zeros(3)), spec, ctx) == 0.0

    def test_perfect_fit_risk_is_noise_floor(self):
        beta = np.array([1.0, -1.0])
        spec = UtilitySpec("regression_risk", gate=3, constant=5.0, evaluation_mode="analytic")
        ctx = RegressionUtilityContext(beta_true=beta, sigma_x=SpdMatrix(np.eye(2)), sigma2=0.7)
        x = np.random.default_rng(1).standard_normal((8, 2))
        u = evaluate_utility((x, x @ beta), spec, ctx)
        assert u == pytest.approx(5.0 - 0.7, rel=1e-12)

    def test_zero_ridge_gate_must_exceed_dimension(self):
        spec = UtilitySpec("regression_risk", gate=2, constant=0.0, evaluation_mode="analytic")
        ctx = RegressionUtilityContext(beta_true=np.zeros(2), sigma_x=SpdMatrix(np.eye(2)), sigma2=1.0)
        x = np.random.default_rng(2).standard_normal((4, 2))
        with pytest.raises(InvalidParameterError):
            evaluate_utility((x, np.zeros(4)), spec, ctx)

    def test_accuracy_single_class_fails(self):
        spec = UtilitySpec("accuracy", gate=3)
        gen = np.random.default_rng(3)
        ctx = AccuracyUtilityContext(x_test=gen.standard_normal((20, 2)),
                                     y_test=(gen.uniform(size=20) < 0.5).astype(float))
        x = gen.standard_normal((6, 2))
        with pytest.raises(UtilityEvaluationError) as excinfo:
            evaluate_utility((x, np.ones(6)), spec, ctx)
        assert excinfo.value.subset_size == 6

    def test_density_empty_zero(self):
        spec = UtilitySpec("density_ise", gate=1, constant=0.3)
        ctx = DensityUtilityContext(kernel=KernelSpec("gaussian", 0.5, 1),
                                    eval_points=np.zeros((10, 1)))
        assert evaluate_utility(np.empty((0, 1)), spec, ctx) == 0.0


def family_stack(family, b=4, s=14, p=3):
    """A spec, its context and a stack of b row sets of s rows for one utility family."""
    gen = np.random.default_rng(11)
    x = gen.standard_normal((b, s, p))
    x_test = gen.standard_normal((40, p))
    beta = np.array([1.0, -0.5, 0.25])
    if family == "density":
        spec = UtilitySpec("density_ise", gate=1, constant=0.3)
        return spec, DensityUtilityContext(KernelSpec("gaussian", 0.6, p), x_test), x
    if family == "accuracy":
        y = (x @ beta + gen.standard_normal((b, s)) > 0).astype(float)
        ctx = AccuracyUtilityContext(x_test, (x_test @ beta > 0).astype(float))
        return UtilitySpec("accuracy", gate=4), ctx, (x, y)
    y = x @ beta + gen.standard_normal((b, s))
    if family == "analytic":
        ctx = RegressionUtilityContext(beta_true=beta, sigma_x=SpdMatrix(np.eye(p)), sigma2=1.0)
        return UtilitySpec("regression_risk", gate=5, constant=2.0, evaluation_mode="analytic"), ctx, (x, y)
    ctx = RegressionUtilityContext(x_test=x_test, y_test=x_test @ beta + gen.standard_normal(40))
    return UtilitySpec("regression_risk", gate=5, constant=2.0), ctx, (x, y)


def take(rows, idx):
    return tuple(part[idx] for part in rows) if isinstance(rows, tuple) else rows[idx]


FAMILIES = ("heldout", "analytic", "accuracy", "density")


class TestStackedUtilities:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_split_stack_is_bit_identical(self, family):
        spec, ctx, rows = family_stack(family)
        sizes = np.arange(1, 15)
        whole = prefix_utilities(rows, sizes, spec, ctx)
        assert np.isfinite(whole[:, sizes >= max(spec.gate, 5)]).all()
        by_sets = np.vstack([prefix_utilities(take(rows, slice(0, 1)), sizes, spec, ctx),
                             prefix_utilities(take(rows, slice(1, None)), sizes, spec, ctx)])
        by_sizes = np.hstack([prefix_utilities(rows, sizes[:6], spec, ctx),
                              prefix_utilities(rows, sizes[6:], spec, ctx)])
        assert np.array_equal(whole, by_sets, equal_nan=True)
        assert np.array_equal(whole, by_sizes, equal_nan=True)
        # one prefix evaluated alone is the stack of one
        for i, k in ((0, 14), (2, 9), (3, 5)):
            alone = evaluate_utility(take(take(rows, i), slice(k)), spec, ctx)
            assert alone == whole[i, k - 1]
        assert np.all(whole[:, sizes < spec.gate] == 0.0)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_a_prefix_has_the_same_bits_at_any_padding(self, family):
        # each set's prefixes valued alone (cut to the prefix), padded into its 600-row
        # set, and in one table beside different block-mates, in either order; a gemv in
        # IRLS gives a 50- and a 599-row prefix of a 600-row set bits of their own
        spec, ctx, rows = family_stack(family, b=3, s=600)
        table = np.array([[50, 599], [600, 37], [301, 50]])
        alone = np.array([[prefix_utilities(take(rows, (slice(i, i + 1), slice(k))), [k],
                                            spec, ctx)[0, 0] for k in row]
                          for i, row in enumerate(table)])
        assert np.isfinite(alone).all()
        padded = np.vstack([prefix_utilities(take(rows, slice(i, i + 1)), row, spec, ctx)
                            for i, row in enumerate(table)])
        together = prefix_utilities(rows, table, spec, ctx)
        reversed_ = prefix_utilities(take(rows, slice(None, None, -1)), table[::-1], spec, ctx)
        mixed = prefix_utilities(take(rows, [0, 2, 0]), [[50, 599], [301, 600], [599, 50]],
                                 spec, ctx)
        assert np.array_equal(padded, alone) and np.array_equal(together, alone)
        assert np.array_equal(reversed_[::-1], alone)
        assert mixed[0].tolist() == alone[0].tolist() == mixed[2, ::-1].tolist()
        assert mixed[1, 0] == alone[2, 0]
        if family == "accuracy":  # an accuracy moves in steps of 1/40: compare the fits too
            x, y = take(rows, 0)
            for k in (50, 599):
                fit, _ = _irls_stack(x[None, :k], y[None, :k], np.ones((1, k)), 1e-8, 25)
                wide, _ = _irls_stack(x[None], y[None], (np.arange(600) < k)[None] * 1.0, 1e-8, 25)
                assert np.array_equal(fit.beta, wide.beta)

    @pytest.mark.parametrize("family", ("heldout", "analytic", "accuracy"))
    def test_unfittable_member_fails_alone(self, family):
        spec, ctx, rows = family_stack(family)
        x, y = (part.copy() for part in rows)
        x[1, :, 2] = x[1, :, 0]  # set 1 has a singular Gram at every size
        if family == "accuracy":
            y[2] = 1.0  # set 2 has one class
        sizes = np.arange(spec.gate, 15)
        broken = prefix_utilities((x, y), sizes, spec, ctx)
        clean = prefix_utilities(rows, sizes, spec, ctx)
        failed = np.zeros(broken.shape, dtype=bool)
        failed[1] = True
        if family == "accuracy":
            failed[2] = True
            failed[:, sizes <= 3] = True  # at most p rows cannot identify a classifier
        assert np.array_equal(np.isnan(broken), failed)
        assert np.array_equal(broken[~failed], clean[~failed])
        with pytest.raises(UtilityEvaluationError) as excinfo:
            evaluate_utility((x[1], y[1]), spec, ctx)
        assert excinfo.value.subset_size == 14

    @pytest.mark.parametrize("family", FAMILIES)
    def test_size_outside_the_set_rejected(self, family):
        # each set has 14 rows; 0 and 14 are the ends of the valid range
        spec, ctx, rows = family_stack(family)
        assert prefix_utilities(rows, [0, 14], spec, ctx).shape == (4, 2)
        for size in (15, 25, 40, -1, -3):
            with pytest.raises(InvalidParameterError, match="prefix sizes"):
                prefix_utilities(rows, [5, size], spec, ctx)

    def test_empty_evaluation_rows_rejected(self):
        for family in ("heldout", "accuracy", "density"):
            spec, ctx, rows = family_stack(family)
            if family == "density":
                ctx = DensityUtilityContext(ctx.kernel, np.empty((0, 3)))
            else:
                ctx.x_test, ctx.y_test = ctx.x_test[:0], ctx.y_test[:0]
            with pytest.raises(InvalidParameterError, match="empty"):
                prefix_utilities(rows, [14], spec, ctx)


class TestExactShapley:
    def test_efficiency_and_permutation_oracle(self):
        for seed in range(5):
            n = 3 + seed % 4
            util = tabulated_utility(seed)
            res = exact_data_shapley(np.arange(n), util)
            assert res.values.sum() == pytest.approx(util(list(range(n))), abs=1e-10)
            assert np.abs(res.values - permutation_shapley(n, util)).max() < 1e-10
            assert res.subset_evaluations == 2**n

    def test_hand_enumerated_three_players(self):
        # marginal contributions averaged over the 6 orderings, by hand
        vals = {(): 0.0, (0,): 1.0, (1,): 2.0, (2,): 0.0,
                (0, 1): 4.0, (0, 2): 1.5, (1, 2): 2.0, (0, 1, 2): 5.0}

        def util(subset):
            return vals[tuple(sorted(int(i) for i in np.ravel(subset)))]

        res = exact_data_shapley(np.arange(3), util)
        expected = permutation_shapley(3, util)
        assert np.abs(res.values - expected).max() < 1e-12
        assert res.total == 5.0

    def test_symmetry_axiom(self):
        def util(subset):
            key = set(int(i) for i in np.ravel(subset))
            return 2.0 * len(key & {1, 2}) + (1.0 if 0 in key else 0.0)

        res = exact_data_shapley(np.arange(4), util)
        assert res.values[1] == pytest.approx(res.values[2], abs=1e-12)

    def test_null_player_axiom(self):
        def util(subset):
            key = set(int(i) for i in np.ravel(subset)) - {0}
            return 0.5 * len(key) + (1.3 if 2 in key else 0.0)

        res = exact_data_shapley(np.arange(4), util)
        assert res.values[0] == pytest.approx(0.0, abs=1e-12)

    def test_additivity_axiom(self):
        u1 = tabulated_utility(11)
        u2 = tabulated_utility(22)
        data = np.arange(5)
        res1 = exact_data_shapley(data, u1)
        res2 = exact_data_shapley(data, u2)
        both = exact_data_shapley(data, lambda s: u1(s) + u2(s))
        assert np.abs(both.values - res1.values - res2.values).max() < 1e-8

    def test_size_refusal(self):
        with pytest.raises(EnumerationSizeError, match="baseline"):
            exact_data_shapley(np.arange(21), lambda s: 0.0)

    def test_supervised_data_with_utility_spec(self):
        gen = np.random.default_rng(9)
        beta = np.array([0.5, -1.0])
        x = gen.standard_normal((6, 2))
        y = x @ beta + 0.1 * gen.standard_normal(6)
        spec = UtilitySpec("regression_risk", gate=4, constant=2.0,
                           evaluation_mode="analytic")
        ctx = RegressionUtilityContext(beta_true=beta, sigma_x=SpdMatrix(np.eye(2)),
                                       sigma2=0.01)
        res = exact_data_shapley((x, y), spec, ctx)
        full = evaluate_utility((x, y), spec, ctx)
        assert res.values.sum() == pytest.approx(full, abs=1e-10)
        assert res.subset_evaluations == 64

    @pytest.mark.parametrize("case", FAMILIES + ("callable-index", "callable-pairs"))
    def test_stacks_match_a_per_subset_loop(self, case):
        spec = ctx = None
        if case == "callable-index":
            data, util = np.arange(7), tabulated_utility(3)
        elif case == "callable-pairs":
            gen = np.random.default_rng(4)
            data = (gen.standard_normal((6, 2)), gen.standard_normal(6))
            util = lambda s: float(np.sum(s[0] @ [1.0, -2.0]) * np.sum(s[1] ** 3))  # noqa: E731
        else:
            spec, ctx, rows = family_stack(case, b=1, s=8)
            data = take(rows, 0)
            if case == "accuracy":  # 4 of each class: every set of 5 or more has both
                spec, data = UtilitySpec("accuracy", gate=5), (data[0], np.tile([1.0, 0.0], 4))
            util = partial(evaluate_utility, spec=spec, context=ctx)
        res = exact_data_shapley(data, spec or util, ctx)
        values, total = per_subset_shapley(data, util)
        assert np.array_equal(res.values, values) and res.total == total

    def test_unfittable_subset_raises_first_in_mask_order(self):
        spec, ctx, rows = family_stack("accuracy", b=1, s=7)
        x = take(rows, 0)[0]
        y = np.array([1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0])  # five positives: one-class sets fail
        first = None
        for members in subsets_in_mask_order(7):
            try:
                evaluate_utility((x[members], y[members]), spec, ctx)
            except UtilityEvaluationError as exc:
                first = exc.subset_size
                break
        with pytest.raises(UtilityEvaluationError) as excinfo:
            exact_data_shapley((x, y), spec, ctx)
        assert excinfo.value.subset_size == first == 4

    def test_callable_failure_raises_first_in_mask_order(self):
        # {0, 1} (mask 3) precedes {2} (mask 4): the size reported is 2, not 1
        def util(subset):
            if set(subset.tolist()) in ({0, 1}, {2}):
                raise UtilityEvaluationError("tabulated failure", subset_size=len(subset))
            return float(len(subset))

        with pytest.raises(UtilityEvaluationError) as excinfo:
            exact_data_shapley(np.arange(4), util)
        assert excinfo.value.subset_size == 2


def replay_baseline(z_star, background, spec, ctx, *, m, draws):
    """The baseline's estimate, and its mean, standard error, failures and subset sizes
    formed by replaying its draws one set at a time."""
    est = dshapley_mc_baseline(z_star, background, spec, m=m, max_draws=draws,
                               rng=RandomStream(5), context=ctx)
    gen, deltas, failed, sizes = RandomStream(5).generator, [], 0, []
    for _ in range(draws):
        j = int(gen.integers(1, m + 1))
        sizes.append(j)
        if j < spec.gate:
            deltas.append(0.0)
            continue
        subset = background(j - 1, gen)
        with_z = (tuple(np.concatenate([part, [z]]) for part, z in zip(subset, z_star))
                  if isinstance(subset, tuple) else np.concatenate([subset, [z_star]]))
        try:
            deltas.append(evaluate_utility(with_z, spec, ctx) - evaluate_utility(subset, spec, ctx))
        except UtilityEvaluationError:
            failed += 1
    total = total_sq = 0.0
    for delta in deltas:
        total, total_sq = total + delta, total_sq + delta * delta
    mean = total / len(deltas)
    var = max((total_sq - len(deltas) * mean * mean) / (len(deltas) - 1), 0.0)
    return est, (mean, float(np.sqrt(var / len(deltas))), failed, sizes)


class TestMcBaseline:
    def test_all_draws_gated_give_exact_zero(self):
        spec = UtilitySpec("regression_risk", gate=3, constant=0.0, evaluation_mode="analytic")
        ctx = RegressionUtilityContext(beta_true=np.zeros(2), sigma_x=SpdMatrix(np.eye(2)), sigma2=1.0)
        pool = (np.random.default_rng(0).standard_normal((20, 2)), np.zeros(20))
        est = dshapley_mc_baseline((np.zeros(2), 0.0), pool, spec, m=1, max_draws=100,
                                   rng=RandomStream(0), context=ctx)
        assert est.value == 0.0 and est.std_error == 0.0

    def test_deterministic(self):
        util = tabulated_utility(5)
        pool = np.arange(6).astype(float)
        a = dshapley_mc_baseline(np.array([2.0]), pool, util, m=4, max_draws=300,
                                 rng=RandomStream(8))
        b = dshapley_mc_baseline(np.array([2.0]), pool, util, m=4, max_draws=300,
                                 rng=RandomStream(8))
        assert a.value == b.value and a.std_error == b.std_error

    def test_persistent_failures_raise(self):
        def always_fails(subset):
            if len(np.ravel(subset)) == 0:
                return 0.0
            raise UtilityEvaluationError("nope", subset_size=len(np.ravel(subset)))

        with pytest.raises(BaselineFailureError):
            dshapley_mc_baseline(np.array([0.0]), np.zeros(10), always_fails,
                                 m=5, max_draws=200, rng=RandomStream(1))

    def test_failed_draws_counted(self):
        # a tabulated utility that fails on every set holding both 1 and 4;
        # replay the draws to count the failures and to form the mean by hand
        table = tabulated_utility(7)

        def util(subset):
            key = {int(i) for i in np.ravel(subset)}
            if {1, 4} <= key:
                raise UtilityEvaluationError("tabulated failure", subset_size=len(key))
            return table(subset)

        pool, z_star, m, draws = np.arange(6).astype(float), 2.0, 5, 400
        est = dshapley_mc_baseline(np.array([z_star]), pool, util, m=m, max_draws=draws,
                                   rng=RandomStream(13))
        gen = RandomStream(13).generator
        deltas, failed = [], 0
        for _ in range(draws):
            j = int(gen.integers(1, m + 1))
            subset = pool[gen.integers(0, pool.size, size=j - 1)]
            try:
                deltas.append(util(np.append(subset, z_star)) - util(subset))
            except UtilityEvaluationError:
                failed += 1
        assert 0 < failed < draws / 2
        assert (est.evaluated_draws, est.failed_draws) == (draws, failed)
        assert est.inner_iters_used == [draws - failed]
        assert est.value == pytest.approx(np.mean(deltas), rel=1e-12)

    def test_failure_threshold_judged_in_draw_order(self):
        # fails on sets of 3 or more: the draw order decides where the raise fires
        def util(subset):
            if np.size(subset) >= 3:
                raise UtilityEvaluationError("too large", subset_size=np.size(subset))
            return float(np.size(subset))

        gen = RandomStream(3).generator
        attempts = failures = 0
        for _ in range(200):
            j = int(gen.integers(1, 7))
            gen.integers(0, 10, size=j - 1)
            attempts += 1
            failures += j >= 3
            if j >= 3 and attempts >= 20 and failures > attempts / 2:
                break
        with pytest.raises(BaselineFailureError,
                           match=f"failed on {failures} of {attempts} evaluated draws"):
            dshapley_mc_baseline(np.array([0.0]), np.arange(10.0), util, m=6, max_draws=200,
                                 rng=RandomStream(3))

    def test_matches_exact_route_on_gaussian_truth(self):
        p, q, m = 2, 5, 12
        beta = np.array([1.0, -0.5])
        env = RegressionEnvironment(p=p, m=m, q=q, gamma=0.0, sigma2=1.0,
                                    beta_hat=beta, sigma_inv=SpdMatrix(np.eye(p)))
        spec = UtilitySpec("regression_risk", gate=q,
                           constant=analytic_utility_constant(env),
                           evaluation_mode="analytic")
        ctx = RegressionUtilityContext(beta_true=beta, sigma_x=SpdMatrix(np.eye(p)), sigma2=1.0)

        def background(k, gen):
            x = gen.standard_normal((k, p))
            return (x, x @ beta + gen.standard_normal(k))

        x_star = np.array([1.2, 0.8])
        query = PointQuery(x_star=x_star, y_star=float(x_star @ beta) + 1.0,
                           e2=1.0, d=float(x_star @ x_star))
        exact = dshapley_regression_exact(query, env,
                                          MCControls(max_inner=10**5, rho1=1e-12, rho2=1e-12),
                                          RandomStream(7))
        base = dshapley_mc_baseline((x_star, query.y_star), background, spec, m=m,
                                    max_draws=2 * 10**4, rng=RandomStream(3), context=ctx)
        assert abs(base.value - exact.value) < 3.0 * np.hypot(exact.std_error, base.std_error)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_callable_background_matches_a_one_set_replay(self, family):
        spec, ctx, rows = family_stack(family)
        beta = np.array([1.0, -0.5, 0.25])

        def background(k, gen):
            x = gen.standard_normal((k, 3))
            if family == "density":
                return x
            y = x @ beta + gen.standard_normal(k)
            return (x, (y > 0).astype(float)) if family == "accuracy" else (x, y)

        z_star = take(take(rows, 0), 0)
        est, (mean, std_error, failed, _) = replay_baseline(z_star, background, spec, ctx,
                                                            m=9, draws=300)
        assert est.failed_draws == failed and (failed > 0) == (family == "accuracy")
        assert est.value == mean and est.std_error == std_error
        # a wide horizon: the blocks of draws, taken by size, mix set widths up to 599 rows
        est, (mean, std_error, failed, sizes) = replay_baseline(z_star, background, spec, ctx,
                                                                m=600, draws=40)
        assert len(set(sizes)) > 8 and max(sizes) > 300
        assert est.failed_draws == failed
        assert est.value == mean and est.std_error == std_error

    def test_blocks_are_cut_by_padded_rows(self, monkeypatch):
        # the draws, sorted by size, share a stack while its draws times its widest set
        # stay within 8,192 rows: few calls for small sets, bounded stacks for wide ones
        spec, ctx, rows = family_stack("heldout")
        pool = take(rows, 0)
        stacks = []

        def spy(stack, *args):
            stacks.append(stack[0].shape[:2])  # (draws, padded width)
            return prefix_utilities(stack, *args)

        monkeypatch.setattr(baseline, "prefix_utilities", spy)
        dshapley_mc_baseline(take(pool, 0), pool, spec, m=12, max_draws=2000,
                             rng=RandomStream(4), context=ctx)
        assert 1 <= len(stacks) <= 4
        stacks.clear()
        dshapley_mc_baseline(take(pool, 0), pool, spec, m=1000, max_draws=200,
                             rng=RandomStream(4), context=ctx)
        assert max(draws * width for draws, width in stacks) <= 8192
        assert max(draws for draws, _ in stacks) > 8

    def test_pool_mean_matches_enumeration_average(self):
        # value of a pool element against datasets resampled from the pool:
        # enumeration averaged over sampled datasets vs the sampled estimator
        pool = np.arange(4).astype(float)
        util = tabulated_utility(33)
        m = 5
        z_star = 2.0

        gen = np.random.default_rng(99)
        phis = []
        for _ in range(1200):
            b = pool[gen.integers(0, 4, size=m - 1)]
            res = exact_data_shapley(np.append(b, z_star), util)
            phis.append(res.values[-1])
        phis = np.asarray(phis)
        truth, truth_se = phis.mean(), phis.std(ddof=1) / np.sqrt(phis.size)

        means = [dshapley_mc_baseline(np.array([z_star]), pool, util, m=m, max_draws=300,
                                      rng=RandomStream(seed)).value for seed in range(40)]
        means = np.asarray(means)
        pooled, pooled_se = means.mean(), means.std(ddof=1) / np.sqrt(means.size)
        assert abs(pooled - truth) < 3.0 * np.hypot(truth_se, pooled_se)
