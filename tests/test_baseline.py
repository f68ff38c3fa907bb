import itertools
from dataclasses import replace
from functools import partial
from math import comb, factorial

import numpy as np
import pytest

from distshap import (
    AccuracyUtility,
    BaselineFailureError,
    DensityUtility,
    EnumerationSizeError,
    InvalidParameterError,
    KernelSpec,
    RandomStream,
    RegressionUtility,
    SpdMatrix,
    UtilityEvaluationError,
    dshapley_mc_baseline,
    evaluate_utility,
    exact_data_shapley,
    kde_evaluate,
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
        utility = RegressionUtility(gate=4, constant=1.0, beta_true=np.zeros(2),
                                    sigma_x=SpdMatrix(np.eye(2)), sigma2=1.0)
        assert evaluate_utility((np.empty((0, 2)), np.empty(0)), utility) == 0.0

    def test_below_gate_zero(self):
        utility = RegressionUtility(gate=4, constant=1.0, beta_true=np.zeros(2),
                                    sigma_x=SpdMatrix(np.eye(2)), sigma2=1.0)
        x = np.random.default_rng(0).standard_normal((3, 2))
        assert evaluate_utility((x, np.zeros(3)), utility) == 0.0

    def test_perfect_fit_risk_is_noise_floor(self):
        beta = np.array([1.0, -1.0])
        utility = RegressionUtility(gate=3, constant=5.0, beta_true=beta,
                                    sigma_x=SpdMatrix(np.eye(2)), sigma2=0.7)
        x = np.random.default_rng(1).standard_normal((8, 2))
        u = evaluate_utility((x, x @ beta), utility)
        assert u == pytest.approx(5.0 - 0.7, rel=1e-12)

    def test_zero_ridge_gate_must_exceed_dimension(self):
        utility = RegressionUtility(gate=2, constant=0.0, beta_true=np.zeros(2),
                                    sigma_x=SpdMatrix(np.eye(2)), sigma2=1.0)
        x = np.random.default_rng(2).standard_normal((4, 2))
        with pytest.raises(InvalidParameterError):
            evaluate_utility((x, np.zeros(4)), utility)

    def test_accuracy_single_class_fails(self):
        gen = np.random.default_rng(3)
        utility = AccuracyUtility(gate=3, x_test=gen.standard_normal((20, 2)),
                                  y_test=(gen.uniform(size=20) < 0.5).astype(float))
        x = gen.standard_normal((6, 2))
        with pytest.raises(UtilityEvaluationError) as excinfo:
            evaluate_utility((x, np.ones(6)), utility)
        assert excinfo.value.subset_size == 6

    def test_density_empty_zero(self):
        utility = DensityUtility(kernel=KernelSpec("gaussian", 0.5),
                                 eval_points=np.zeros((10, 1)), constant=0.3)
        assert evaluate_utility(np.empty((0, 1)), utility) == 0.0

    @pytest.mark.parametrize("part", ["pool", "evaluation"])
    def test_density_nonfinite_rows_rejected(self, part):
        gen = np.random.default_rng(5)
        rows, evals = gen.standard_normal((8, 2)), gen.standard_normal((30, 2))
        (rows if part == "pool" else evals)[3, 1] = np.nan
        utility = DensityUtility(KernelSpec("gaussian", 0.5), evals)
        with pytest.raises(InvalidParameterError, match="must be finite"):
            evaluate_utility(rows, utility)

    @pytest.mark.parametrize("part", ["pool", "evaluation"])
    def test_density_zero_width_rows_rejected(self, part):
        rows, evals = np.zeros((8, 2)), np.zeros((30, 2))
        rows, evals = (rows[:, :0], evals) if part == "pool" else (rows, evals[:, :0])
        utility = DensityUtility(KernelSpec("gaussian", 0.5), evals)
        with pytest.raises(InvalidParameterError, match="dimension must be at least 1"):
            evaluate_utility(rows, utility)


TRUTH = dict(beta_true=np.zeros(2), sigma_x=SpdMatrix(np.eye(2)), sigma2=1.0)
HELDOUT = dict(x_test=np.zeros((5, 2)), y_test=np.zeros(5))


class TestUtilityFields:
    @pytest.mark.parametrize("fields", [{}, {**TRUTH, **HELDOUT}, {"x_test": np.zeros((5, 2))},
                                        {**TRUTH, "y_test": np.zeros(5)},
                                        {"beta_true": np.zeros(2), "sigma2": 1.0}],
                             ids=["neither", "both", "x_test-alone", "truth-and-y_test",
                                  "truth-without-sigma_x"])
    def test_regression_holds_exactly_one_data_set(self, fields):
        with pytest.raises(InvalidParameterError, match="either x_test and y_test or beta_true"):
            RegressionUtility(gate=3, **fields)

    @pytest.mark.parametrize("gate", (0, -2, np.nan))
    def test_gate_below_one_rejected(self, gate):
        # unchecked, a NaN gate would read every prefix as below it and every value as 0
        with pytest.raises(InvalidParameterError, match="gate must be at least 1"):
            RegressionUtility(gate=gate, **HELDOUT)
        with pytest.raises(InvalidParameterError, match="gate must be at least 1"):
            AccuracyUtility(gate, **HELDOUT)

    @pytest.mark.parametrize("labels", ([0.0, 1.0, -1.0, 1.0, 0.0], [0, 1, 2, 1, 0], [0.0, np.nan, 1.0, 1.0, 0.0]),
                             ids=["minus-one", "two", "nan"])
    def test_accuracy_labels_are_checked_once_built(self, labels):
        # held-out labels are checked when the utility is made, not on every stacked call
        with pytest.raises(InvalidParameterError, match="labels must be 0/1"):
            AccuracyUtility(3, np.zeros((5, 2)), np.array(labels))
        AccuracyUtility(3, np.zeros((5, 2)), np.array([0, 1, 1, 0, True]))

    def test_density_gate_is_one(self):
        utility = DensityUtility(KernelSpec("gaussian", 0.5), np.zeros((10, 1)))
        assert utility.gate == 1 and utility.constant == 0.0
        with pytest.raises(TypeError):
            DensityUtility(KernelSpec("gaussian", 0.5), np.zeros((10, 1)), gate=2)


def family_stack(family, b=4, s=14, p=3):
    """A utility and a stack of b row sets of s rows for one utility family."""
    gen = np.random.default_rng(11)
    x = gen.standard_normal((b, s, p))
    x_test = gen.standard_normal((40, p))
    beta = np.array([1.0, -0.5, 0.25])
    if family == "density":
        return DensityUtility(KernelSpec("gaussian", 0.6), x_test, constant=0.3), x
    if family == "accuracy":
        y = (x @ beta + gen.standard_normal((b, s)) > 0).astype(float)
        return AccuracyUtility(4, x_test, (x_test @ beta > 0).astype(float)), (x, y)
    y = x @ beta + gen.standard_normal((b, s))
    if family == "analytic":
        return RegressionUtility(5, 2.0, beta_true=beta, sigma_x=SpdMatrix(np.eye(p)),
                                 sigma2=1.0), (x, y)
    return RegressionUtility(5, 2.0, x_test=x_test,
                             y_test=x_test @ beta + gen.standard_normal(40)), (x, y)


def take(rows, idx):
    return tuple(part[idx] for part in rows) if isinstance(rows, tuple) else rows[idx]


def stacked(rows):
    """A (b, s) stack of row sets as ``prefix_utilities`` takes it: a pool of its b * s
    rows and the (b, s) table of each set's rows in that pool."""
    parts = rows if isinstance(rows, tuple) else (rows,)
    b, s = parts[0].shape[:2]
    pool = tuple(part.reshape((b * s,) + part.shape[2:]) for part in parts)
    return (pool if isinstance(rows, tuple) else pool[0]), np.arange(b * s).reshape(b, s)


FAMILIES = ("heldout", "analytic", "accuracy", "density")


class TestStackedUtilities:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_split_stack_is_bit_identical(self, family):
        utility, rows = family_stack(family)
        sizes = np.arange(1, 15)
        whole = prefix_utilities(*stacked(rows), sizes, utility)
        assert np.isfinite(whole[:, sizes >= max(utility.gate, 5)]).all()
        by_sets = np.vstack([prefix_utilities(*stacked(take(rows, slice(0, 1))), sizes, utility),
                             prefix_utilities(*stacked(take(rows, slice(1, None))), sizes, utility)])
        by_sizes = np.hstack([prefix_utilities(*stacked(rows), sizes[:6], utility),
                              prefix_utilities(*stacked(rows), sizes[6:], utility)])
        assert np.array_equal(whole, by_sets, equal_nan=True)
        assert np.array_equal(whole, by_sizes, equal_nan=True)
        # one prefix evaluated alone is the stack of one
        for i, k in ((0, 14), (2, 9), (3, 5)):
            alone = evaluate_utility(take(take(rows, i), slice(k)), utility)
            assert alone == whole[i, k - 1]
        assert np.all(whole[:, sizes < utility.gate] == 0.0)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_a_prefix_has_the_same_bits_at_any_padding(self, family):
        # each set's prefixes valued alone (cut to the prefix), padded into its 600-row
        # set, and in one table beside different block-mates, in either order; a gemv in
        # IRLS gives a 50- and a 599-row prefix of a 600-row set bits of their own
        utility, rows = family_stack(family, b=3, s=600)
        table = np.array([[50, 599], [600, 37], [301, 50]])
        alone = np.array([[prefix_utilities(*stacked(take(rows, (slice(i, i + 1), slice(k)))),
                                            [k], utility)[0, 0] for k in row]
                          for i, row in enumerate(table)])
        assert np.isfinite(alone).all()
        padded = np.vstack([prefix_utilities(*stacked(take(rows, slice(i, i + 1))), row, utility)
                            for i, row in enumerate(table)])
        together = prefix_utilities(*stacked(rows), table, utility)
        reversed_ = prefix_utilities(*stacked(take(rows, slice(None, None, -1))), table[::-1],
                                     utility)
        mixed = prefix_utilities(*stacked(take(rows, [0, 2, 0])),
                                 [[50, 599], [301, 600], [599, 50]], utility)
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
            # p = 30 at widths up to 1,300: one gemm over all rows splits them into blocks
            # whose bounds depend on the width, so the Gram is summed over fixed row blocks
            gen = np.random.default_rng(3)
            x = gen.standard_normal((1300, 30))
            y = (x @ gen.standard_normal(30) + 3.0 * gen.standard_normal(1300) > 0).astype(float)
            for k, width in ((409, 1300), (700, 1300), (1000, 1300), (256, 1300), (409, 700)):
                fit, _ = _irls_stack(x[None, :k], y[None, :k], np.ones((1, k)), 1e-8, 25)
                wide, _ = _irls_stack(x[None, :width], y[None, :width],
                                      (np.arange(width) < k)[None] * 1.0, 1e-8, 25)
                assert np.isfinite(fit.beta).all() and np.array_equal(fit.beta, wide.beta)

    @pytest.mark.parametrize("family", ("heldout", "analytic", "accuracy"))
    def test_unfittable_member_fails_alone(self, family):
        utility, rows = family_stack(family)
        x, y = (part.copy() for part in rows)
        x[1, :, 2] = x[1, :, 0]  # set 1 has a singular Gram at every size
        if family == "accuracy":
            y[2] = 1.0  # set 2 has one class
        sizes = np.arange(utility.gate, 15)
        broken = prefix_utilities(*stacked((x, y)), sizes, utility)
        clean = prefix_utilities(*stacked(rows), sizes, utility)
        failed = np.zeros(broken.shape, dtype=bool)
        failed[1] = True
        if family == "accuracy":
            failed[2] = True
            failed[:, sizes <= 3] = True  # at most p rows cannot identify a classifier
        assert np.array_equal(np.isnan(broken), failed)
        assert np.array_equal(broken[~failed], clean[~failed])
        with pytest.raises(UtilityEvaluationError) as excinfo:
            evaluate_utility((x[1], y[1]), utility)
        assert excinfo.value.subset_size == 14

    @pytest.mark.parametrize("family", FAMILIES)
    def test_size_outside_the_set_rejected(self, family):
        # each set has 14 rows; 0 and 14 are the ends of the valid range
        utility, rows = family_stack(family)
        assert prefix_utilities(*stacked(rows), [0, 14], utility).shape == (4, 2)
        for size in (15, 25, 40, -1, -3):
            with pytest.raises(InvalidParameterError, match="prefix sizes"):
                prefix_utilities(*stacked(rows), [5, size], utility)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("entry", (56, 57, 1000, -1, -56))
    def test_index_outside_the_pool_rejected(self, family, entry):
        # the pool has 4 * 14 = 56 rows; 0 and 55 are the ends of the valid range
        utility, rows = family_stack(family)
        pool, index = stacked(rows)
        index[2, 13] = 55
        assert prefix_utilities(pool, index, [14], utility).shape == (4, 1)
        index[2, 13] = entry  # past every prefix valued: still rejected, not read
        with pytest.raises(InvalidParameterError,
                           match=rf"index entries must lie in 0\.\.55, got {entry}"):
            prefix_utilities(pool, index, [5], utility)

    def test_density_sets_that_repeat_pool_rows(self):
        # baseline draws resample a pool: rows repeat within and across sets. By width the
        # sets fall into three pair groups ({2, 30, 31, 120}, {200}, {300}), and the
        # 300-row set's pairs take two blocks
        utility, _ = family_stack("density")
        gen = np.random.default_rng(12)
        pool = gen.standard_normal((40, 3))
        index = gen.integers(0, 40, size=(6, 300))
        table = np.array([[1, 2], [7, 30], [31, 30], [120, 119], [200, 5], [300, 299]])
        got = prefix_utilities(pool, index, table, utility)
        loop = [[evaluate_utility(pool[index[i, :k]], utility) for k in row]
                for i, row in enumerate(table)]
        assert np.array_equal(got, loop)
        # the defining sums, one prefix at a time and unblocked
        for (i, j), k in np.ndenumerate(table):
            rows = pool[index[i, :k]]
            conv = utility.kernel.self_convolution(rows[None] - rows[:, None])  # kc(x_r - x_a)
            cross = kde_evaluate(utility.eval_points, utility.kernel, rows)
            ise = np.cumsum(np.cumsum(conv, 0), 1)[-1, -1] / k ** 2 - 2.0 * np.cumsum(cross)[-1] / k
            assert got[i, j] == utility.constant - ise

    def test_empty_evaluation_rows_rejected(self):
        for family in ("heldout", "accuracy", "density"):
            utility, rows = family_stack(family)
            if family == "density":
                utility = replace(utility, eval_points=np.empty((0, 3)))
            else:
                utility = replace(utility, x_test=utility.x_test[:0], y_test=utility.y_test[:0])
            with pytest.raises(InvalidParameterError, match="empty"):
                prefix_utilities(*stacked(rows), [14], utility)


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
        utility = RegressionUtility(gate=4, constant=2.0, beta_true=beta,
                                    sigma_x=SpdMatrix(np.eye(2)), sigma2=0.01)
        res = exact_data_shapley((x, y), utility)
        full = evaluate_utility((x, y), utility)
        assert res.values.sum() == pytest.approx(full, abs=1e-10)
        assert res.subset_evaluations == 64

    @pytest.mark.parametrize("case", FAMILIES + ("callable-index", "callable-pairs"))
    def test_stacks_match_a_per_subset_loop(self, case):
        utility = None
        if case == "callable-index":
            data, util = np.arange(7), tabulated_utility(3)
        elif case == "callable-pairs":
            gen = np.random.default_rng(4)
            data = (gen.standard_normal((6, 2)), gen.standard_normal(6))
            util = lambda s: float(np.sum(s[0] @ [1.0, -2.0]) * np.sum(s[1] ** 3))  # noqa: E731
        else:
            utility, rows = family_stack(case, b=1, s=8)
            data = take(rows, 0)
            if case == "accuracy":  # 4 of each class: every set of 5 or more has both
                utility = replace(utility, gate=5)
                data = (data[0], np.tile([1.0, 0.0], 4))
            util = partial(evaluate_utility, utility=utility)
        res = exact_data_shapley(data, utility or util)
        values, total = per_subset_shapley(data, util)
        assert np.array_equal(res.values, values) and res.total == total

    def test_unfittable_subset_raises_first_in_mask_order(self):
        utility, rows = family_stack("accuracy", b=1, s=7)
        x = take(rows, 0)[0]
        y = np.array([1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0])  # five positives: one-class sets fail
        first = None
        for members in subsets_in_mask_order(7):
            try:
                evaluate_utility((x[members], y[members]), utility)
            except UtilityEvaluationError as exc:
                first = exc.subset_size
                break
        with pytest.raises(UtilityEvaluationError) as excinfo:
            exact_data_shapley((x, y), utility)
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


def replay_baseline(z_star, background, utility, *, m, draws):
    """The baseline's estimate, and its mean, standard error, failures and subset sizes
    formed by replaying its draws one set at a time: every size in one call, then every
    gated draw's rows in one background call, cut in draw order."""
    est = dshapley_mc_baseline(z_star, background, utility, m=m, max_draws=draws,
                               rng=RandomStream(5))
    gen, deltas, failed = RandomStream(5).generator, [], 0
    sizes = gen.integers(1, m + 1, size=draws).tolist()
    counts = [j - 1 if j >= utility.gate else 0 for j in sizes]
    rows, start = background(sum(counts), gen), 0
    for j, count in zip(sizes, counts):
        if j < utility.gate:
            deltas.append(0.0)
            continue
        subset = take(rows, slice(start, start + count))
        start += count
        with_z = (tuple(np.concatenate([part, [z]]) for part, z in zip(subset, z_star))
                  if isinstance(subset, tuple) else np.concatenate([subset, [z_star]]))
        try:
            deltas.append(evaluate_utility(with_z, utility) - evaluate_utility(subset, utility))
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
        utility = RegressionUtility(gate=3, constant=0.0, beta_true=np.zeros(2),
                                    sigma_x=SpdMatrix(np.eye(2)), sigma2=1.0)
        pool = (np.random.default_rng(0).standard_normal((20, 2)), np.zeros(20))
        est = dshapley_mc_baseline((np.zeros(2), 0.0), pool, utility, m=1, max_draws=100,
                                   rng=RandomStream(0))
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
        sizes = gen.integers(1, m + 1, size=draws)
        index = gen.integers(0, pool.size, size=int(np.sum(sizes - 1)),
                             dtype=np.min_scalar_type(pool.size))
        for j, start in zip(sizes, np.cumsum(sizes - 1) - (sizes - 1)):
            subset = pool[index[start:start + j - 1]]
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

        # the sizes are the first call; the indices drawn after them decide no failure
        attempts = failures = 0
        for j in RandomStream(3).generator.integers(1, 7, size=200):
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
        env = RegressionEnvironment(m=m, q=q, gamma=0.0, sigma2=1.0,
                                    beta_hat=beta, sigma_inv=SpdMatrix(np.eye(p)))
        utility = RegressionUtility(gate=q, constant=analytic_utility_constant(env),
                                    beta_true=beta, sigma_x=SpdMatrix(np.eye(p)), sigma2=1.0)

        def background(k, gen):
            x = gen.standard_normal((k, p))
            return (x, x @ beta + gen.standard_normal(k))

        x_star = np.array([1.2, 0.8])
        query = PointQuery(x_star=x_star, y_star=float(x_star @ beta) + 1.0,
                           e2=1.0, d=float(x_star @ x_star))
        exact = dshapley_regression_exact(query, env,
                                          MCControls(max_inner=10**5, rho1=1e-12),
                                          RandomStream(7))
        base = dshapley_mc_baseline((x_star, query.y_star), background, utility, m=m,
                                    max_draws=2 * 10**4, rng=RandomStream(3))
        assert abs(base.value - exact.value) < 3.0 * np.hypot(exact.std_error, base.std_error)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_callable_background_matches_a_one_set_replay(self, family):
        utility, rows = family_stack(family)
        beta = np.array([1.0, -0.5, 0.25])

        def background(k, gen):
            x = gen.standard_normal((k, 3))
            if family == "density":
                return x
            y = x @ beta + gen.standard_normal(k)
            return (x, (y > 0).astype(float)) if family == "accuracy" else (x, y)

        z_star = take(take(rows, 0), 0)
        est, (mean, std_error, failed, _) = replay_baseline(z_star, background, utility,
                                                            m=9, draws=300)
        assert est.failed_draws == failed and (failed > 0) == (family == "accuracy")
        assert est.value == mean and est.std_error == std_error
        # a wide horizon: the blocks of draws, taken by size, mix set widths up to 599 rows
        est, (mean, std_error, failed, sizes) = replay_baseline(z_star, background, utility,
                                                                m=600, draws=40)
        assert len(set(sizes)) > 8 and max(sizes) > 300
        assert est.failed_draws == failed
        assert est.value == mean and est.std_error == std_error

    def test_callable_background_called_once_with_every_row(self):
        # one call per estimate, for the rows of every draw at or above the gate
        utility, rows = family_stack("heldout")
        calls = []

        def background(k, gen):
            calls.append(k)
            x = gen.standard_normal((k, 3))
            return x, x @ np.array([1.0, -0.5, 0.25])

        dshapley_mc_baseline(take(take(rows, 0), 0), background, utility, m=12, max_draws=300,
                             rng=RandomStream(6))
        sizes = RandomStream(6).generator.integers(1, 13, size=300)
        assert calls == [int(np.sum(sizes[sizes >= utility.gate] - 1))]

    @pytest.mark.parametrize("extra", (1, -1))
    def test_callable_background_row_count_checked(self, extra):
        # one row too many would shift every later draw's subset; too few would run short
        utility, rows = family_stack("heldout")

        def background(k, gen):
            x = gen.standard_normal((k + extra, 3))
            return x, x[:, 0]

        sizes = RandomStream(6).generator.integers(1, 13, size=50)
        total = int(np.sum(sizes[sizes >= utility.gate] - 1))
        with pytest.raises(InvalidParameterError,
                           match=rf"background\({total}, rng\) returned \[{total + extra}\] rows"):
            dshapley_mc_baseline(take(take(rows, 0), 0), background, utility, m=12, max_draws=50,
                                 rng=RandomStream(6))

    def test_blocks_are_cut_by_padded_rows(self, monkeypatch):
        # the draws, sorted by size, share a stack while its draws times its widest set
        # stay within 8,192 rows: few calls for small sets, bounded stacks for wide ones
        utility, rows = family_stack("heldout")
        pool = take(rows, 0)
        stacks = []

        def spy(pool, index, *args):
            stacks.append(index.shape)  # (draws, padded width)
            return prefix_utilities(pool, index, *args)

        monkeypatch.setattr(baseline, "prefix_utilities", spy)
        dshapley_mc_baseline(take(pool, 0), pool, utility, m=12, max_draws=2000,
                             rng=RandomStream(4))
        assert 1 <= len(stacks) <= 4
        stacks.clear()
        dshapley_mc_baseline(take(pool, 0), pool, utility, m=1000, max_draws=200,
                             rng=RandomStream(4))
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
