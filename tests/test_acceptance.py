"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Criterion 2 is marked as a strict expected failure; see the README
notes on the two value normalizations of the closed-form route.
"""

import itertools
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from math import factorial
from pathlib import Path

import numpy as np
import pytest

import distshap as ds
from distshap.regression import analytic_utility_constant, normalization_shift

TIGHT = ds.MCControls(max_inner=10**5, rho1=1e-12)


def report(criterion: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def gaussian_truth_env(p=2, q=5, m=12, sigma2=1.0):
    beta = np.array([1.0, -0.5, 0.25])[:p]
    env = ds.RegressionEnvironment(m=m, q=q, gamma=0.0, sigma2=sigma2,
                                   beta_hat=beta, sigma_inv=ds.SpdMatrix(np.eye(p)))
    return env, beta


class TestCriterion1OracleEquivalenceRegression:
    def test_exact_route_matches_defining_expectation(self):
        start = time.time()
        p, q, m = 2, 5, 12
        env, beta = gaussian_truth_env(p=p, q=q, m=m)
        utility = ds.RegressionUtility(gate=q, constant=analytic_utility_constant(env),
                                       gamma=0.0, beta_true=beta,
                                       sigma_x=ds.SpdMatrix(np.eye(p)), sigma2=1.0)

        def background(k, gen):
            x = gen.standard_normal((k, p))
            return (x, x @ beta + gen.standard_normal(k))

        failures = []
        index = 0
        for d in np.linspace(0.0, 10.0, 4):
            for e2 in np.linspace(0.0, 8.0, 5):
                x = np.array([np.sqrt(d), 0.0])
                y = float(x @ beta) + np.sqrt(e2)
                query = ds.PointQuery(x_star=x, y_star=y, e2=e2, d=d)
                exact = ds.dshapley_regression_exact(query, env, TIGHT,
                                                     ds.RandomStream(100 + index))
                base = ds.dshapley_mc_baseline((x, y), background, utility, m=m,
                                               max_draws=10**5,
                                               rng=ds.RandomStream(200 + index))
                diff = abs(exact.value - base.value)
                limit = 3.0 * np.hypot(exact.std_error, base.std_error)
                if diff >= limit:
                    failures.append((d, e2, diff, limit))
                index += 1
        elapsed = time.time() - start
        ok = not failures and elapsed < 120.0
        assert report(1, ok, f"20 query points, 3-sigma agreement, {elapsed:.0f}s "
                             f"(failures: {failures})")


class TestCriterion2AnalyticSpotValue:
    @pytest.mark.xfail(strict=True, reason=(
        "the quoted constant -0.19679 sums the per-size terms over sizes q..m; "
        "the defining expectation admits sizes q-1..m-1, which criteria 1 and 4 "
        "pin, and under which the origin value is -0.33071 (see the README note "
        "and decisions ledger)"))
    def test_quoted_spot_value(self):
        quoted = -Fraction(1, 10) * sum(Fraction(j - 1, (j - 2) * (j - 3))
                                        for j in range(5, 11))
        assert float(quoted) == pytest.approx(-0.19679, abs=5e-6)
        env, _ = gaussian_truth_env(p=2, q=5, m=10)
        query = ds.PointQuery(x_star=np.zeros(2), y_star=0.0, e2=0.0, d=0.0)
        est = ds.dshapley_regression_exact(query, env, TIGHT, ds.RandomStream(0))
        rel = abs(est.value - float(quoted)) / abs(float(quoted))
        report(2, rel <= 0.01, f"estimator {est.value:.5f} vs quoted {float(quoted):.5f} "
                               f"(rel err {rel:.2%})")
        assert rel <= 0.01

    def test_consistent_spot_value_companion(self):
        # same identity oracle (E[1/chi2_k] = 1/(k-2)) applied over the sizes
        # the defining expectation admits; also pre-verified by an independent
        # million-draw chi-squared simulation during development
        expected = -Fraction(1, 10) * sum(Fraction(s - 1, (s - 2) * (s - 3))
                                          for s in range(4, 10))
        env, _ = gaussian_truth_env(p=2, q=5, m=10)
        query = ds.PointQuery(x_star=np.zeros(2), y_star=0.0, e2=0.0, d=0.0)
        est = ds.dshapley_regression_exact(query, env, TIGHT, ds.RandomStream(0))
        rel = abs(est.value - float(expected)) / abs(float(expected))
        assert report(2, rel <= 0.01,
                      f"(companion, size-consistent constant) estimator {est.value:.5f} "
                      f"vs {float(expected):.5f} (rel err {rel:.2%})")


def tabulated_utility(seed, sym_pair=None, null_index=None):
    table = {}

    def canonical(subset):
        key = []
        for i in np.ravel(subset):
            i = int(i)
            if null_index is not None and i == null_index:
                continue
            if sym_pair is not None and i == sym_pair[1]:
                i = sym_pair[0]
            key.append(i)
        return tuple(sorted(key))

    def util(subset):
        key = canonical(subset)
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


class TestCriterion3ExactShapleyAxioms:
    def test_axioms_on_fifty_instances(self):
        gen = np.random.default_rng(314)
        worst_eff = worst_perm = worst_sym = worst_null = worst_add = 0.0
        for instance in range(50):
            n = int(gen.integers(3, 7))
            data = np.arange(n)
            sym_pair = (0, 1)
            null_index = n - 1
            util = tabulated_utility(1000 + instance, sym_pair, null_index)
            res = ds.exact_data_shapley(data, util)

            worst_eff = max(worst_eff, abs(res.values.sum() - util(data)))
            worst_perm = max(worst_perm,
                             np.abs(res.values - permutation_shapley(n, util)).max())
            worst_sym = max(worst_sym, abs(res.values[0] - res.values[1]))
            worst_null = max(worst_null, abs(res.values[null_index]))

            u2 = tabulated_utility(5000 + instance)
            both = ds.exact_data_shapley(data, lambda s: util(s) + u2(s))
            res2 = ds.exact_data_shapley(data, u2)
            worst_add = max(worst_add,
                            np.abs(both.values - res.values - res2.values).max())
        ok = (worst_eff < 1e-8 and worst_sym < 1e-8 and worst_null < 1e-8
              and worst_add < 1e-8 and worst_perm < 1e-10)
        assert report(3, ok, f"50 instances: efficiency {worst_eff:.2e}, "
                             f"symmetry {worst_sym:.2e}, null {worst_null:.2e}, "
                             f"additivity {worst_add:.2e}, permutation {worst_perm:.2e}")


class TestCriterion4GeneralRouteEquivalence:
    @pytest.mark.parametrize("p,q,m,d,e2", [(2, 7, 20, 2.0, 1.0), (3, 8, 30, 3.0, 2.0)])
    def test_general_mc_matches_exact(self, p, q, m, d, e2):
        env, _ = gaussian_truth_env(p=p, q=q, m=m)
        x = np.full(p, np.sqrt(d / p))
        query = ds.PointQuery(x_star=x, y_star=0.0, e2=e2, d=d)
        exact = ds.dshapley_regression_exact(query, env,
                                             ds.MCControls(max_inner=4 * 10**5, rho1=1e-12),
                                             ds.RandomStream(987))
        sampler = ds.make_gaussian_sampler(ds.SpdMatrix(np.eye(p)))
        general = ds.dshapley_regression_general_mc(query, env, sampler, 10**4,
                                                    ds.RandomStream(11))
        diff = abs(general.value - normalization_shift(env) - exact.value)
        limit = 3.0 * np.hypot(exact.std_error, general.std_error)
        assert report(4, diff < limit,
                      f"p={p} m={m}: |general - exact| {diff:.5f} < 3se {limit:.5f}")


class TestCriterion5DensityClosedForm:
    def test_pair_difference_at_full_budget(self):
        h, m = 0.2, 100
        kernel = ds.KernelSpec("uniform", h)
        bg = ds.RandomStream(21).generator.uniform(size=20000)
        far = ds.dshapley_density(ds.DensityValueRequest(np.array([[0.3], [0.7]]), m=m), bg, kernel)
        near = ds.dshapley_density(ds.DensityValueRequest(np.array([[0.49], [0.51]]), m=m), bg, kernel)
        expected = ds.coeff_A(2, m) * (1.0 / (2 * h) - 0.02 / (2 * h * h))
        got = far.value - near.value
        limit = 3.0 * np.hypot(far.std_error, near.std_error)
        ok = abs(got - expected) < limit

        at = ds.uniform_closed_form([0.4, 0.4 + h], h, m, 0.2)
        below = ds.uniform_closed_form([0.4, 0.4 + h - 1e-15], h, m, 0.2)
        continuity = abs(at - below)
        ok = ok and continuity < 1e-12
        assert report(5, ok, f"difference {got:.5f} vs closed form {expected:.5f} "
                             f"(3se {limit:.5f}); branch continuity {continuity:.1e}")


class TestCriterion6SynergyScan:
    def test_monotone_threshold_and_probability(self):
        grid = [0.05, 0.10, 0.15, 0.20, 0.25, 0.30]
        result = ds.synergy_scan(grid, m=100, C_den=0.2, n_draws=5000,
                                 rng=ds.RandomStream(0))
        thresholds = [rec.threshold for rec in result.records]
        probs = [rec.probability for rec in result.records]
        assert all(t is not None for t in thresholds)
        thr_viol = sum(thresholds[i + 1] < thresholds[i] for i in range(len(grid) - 1))
        prob_viol = sum(probs[i + 1] > probs[i] for i in range(len(grid) - 1))
        ok = thr_viol <= 1 and prob_viol <= 1
        assert report(6, ok, f"thresholds {np.round(thresholds, 4).tolist()} "
                             f"({thr_viol} inversions), probabilities "
                             f"{np.round(probs, 3).tolist()} ({prob_viol} inversions)")


class TestCriterion7PointAddition:
    def fractions(self, result):
        curves = {c.ordering: c for c in result.curves}
        half = slice(1, 101)
        largest = curves["largest"].utilities[half]
        lowest = curves["lowest"].utilities[half]
        random = curves["random"].utilities[half]
        valid = ~(np.isnan(largest) | np.isnan(lowest) | np.isnan(random))
        above = float(np.mean(largest[valid] > random[valid]))
        below = float(np.mean(lowest[valid] < random[valid]))
        return above, below

    def test_gaussian_curves(self):
        start = time.time()
        reg_data = ds.gen_gaussian_r(4000, 10, ds.RandomStream(100))
        reg_cfg = ds.ExperimentConfig(task="regression", method="fast",
                                      n_value_points=200, m=1000,
                                      background_size=2000, heldout_size=1000,
                                      repetitions=50, seed=0)
        reg_above, reg_below = self.fractions(
            ds.run_point_addition(reg_cfg, reg_data, ds.RandomStream(1)))

        clf_data = ds.gen_gaussian_c(9000, ds.RandomStream(200))
        clf_cfg = ds.ExperimentConfig(task="classification", method="fast",
                                      n_value_points=200, m=1000,
                                      background_size=2000, heldout_size=5000,
                                      repetitions=50, seed=0)
        clf_above, clf_below = self.fractions(
            ds.run_point_addition(clf_cfg, clf_data, ds.RandomStream(3)))
        elapsed = time.time() - start
        ok = (reg_above >= 0.7 and reg_below >= 0.7
              and clf_above >= 0.7 and clf_below >= 0.7 and elapsed < 900.0)
        assert report(7, ok, f"largest>random: regression {reg_above:.0%}, "
                             f"classification {clf_above:.0%}; lowest<random: "
                             f"{reg_below:.0%} / {clf_below:.0%}; {elapsed:.0f}s")


CRITERION8_TIMING = """
import json
import distshap as ds
rows = ds.run_time_bench([(200, 10)], ["regression", "density"],
                         ds.RandomStream(0), repetitions=2, baseline_points=20)
rows += ds.run_time_bench([(1000, 30)], ["classification"],
                          ds.RandomStream(1), repetitions=2, baseline_points=20)
print(json.dumps(rows))
"""


class TestCriterion8Speedups:
    def test_ratio_floors(self):
        # Timed in a child interpreter whose BLAS libraries are told to use one thread before
        # numpy loads, so a ratio compares the estimators, not the host's BLAS threading.
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        paths = [str(Path(ds.__file__).parents[1]), env.get("PYTHONPATH", "")]
        env["PYTHONPATH"] = os.pathsep.join(path for path in paths if path)
        child = subprocess.run([sys.executable, "-c", CRITERION8_TIMING], env=env,
                               capture_output=True, text=True, timeout=900)
        assert child.returncode == 0, child.stderr
        rows = json.loads(child.stdout)
        by_task = {row["task"]: row for row in rows}
        floors = {"regression": 20.0, "classification": 100.0, "density": 20.0}
        ok = all(by_task[t]["speedup"] >= floors[t] for t in floors)
        detail = "; ".join(
            f"{t} {by_task[t]['speedup']:.0f}x (floor {floors[t]:.0f}, baseline "
            f"T={by_task[t]['baseline_draws']}, {by_task[t]['baseline_points_timed']} "
            f"points timed)" for t in floors)
        assert report(8, ok, detail)


class TestCriterion9GatesAndMonotonicity:
    def test_property_suite(self):
        env, _ = gaussian_truth_env(p=2, q=5, m=4)  # m < q
        query = ds.PointQuery(x_star=np.ones(2), y_star=0.0, e2=1.0, d=2.0)
        with pytest.warns(UserWarning):
            gate_exact = ds.dshapley_regression_exact(query, env, None, ds.RandomStream(0))
        sampler = ds.make_gaussian_sampler(ds.SpdMatrix(np.eye(2)))
        with pytest.warns(UserWarning):
            gate_general = ds.dshapley_regression_general_mc(query, env, sampler, 50,
                                                             ds.RandomStream(0))
        gates_zero = gate_exact.value == 0.0 and gate_general.value == 0.0

        env12, _ = gaussian_truth_env(p=2, q=5, m=12)
        x = np.array([1.0, 0.5])
        vals = [ds.dshapley_regression_exact(
                    ds.PointQuery(x_star=x, y_star=0.0, e2=e2, d=float(x @ x)),
                    env12, None, ds.RandomStream(4)).value
                for e2 in (0.0, 1.0, 4.0, 8.0)]
        monotone = all(a >= b for a, b in zip(vals, vals[1:]))

        reg_pairs_ok = True
        for d, e2 in [(0.5, 0.0), (2.0, 1.0), (8.0, 6.0)]:
            res = ds.dshapley_regression_bounds(
                ds.PointQuery(x_star=np.array([np.sqrt(d), 0.0]), y_star=0.0, e2=e2, d=d),
                ds.RegressionEnvironment(m=300, q=5, gamma=0.0, sigma2=1.0,
                                         beta_hat=np.zeros(2),
                                         sigma_inv=ds.SpdMatrix(np.eye(2))))
            reg_pairs_ok &= res.lower <= res.upper
        bin_pairs_ok = True
        for d_tilde, e2b in [(0.2, 0.1), (1.0, 1.0), (2.0, 4.0)]:
            q = ds.BinaryPointQuery(x_star=np.zeros(3), y_star=1, pi_star=0.5,
                                    w_star=0.25, z_star=2.0, e2_b=e2b, d_tilde=d_tilde)
            res = ds.dshapley_binary_bounds(q, m=500, q=6)
            bin_pairs_ok &= res.lower <= res.upper

        zero_reg = ds.dshapley_regression_bounds(
            ds.PointQuery(x_star=np.zeros(2), y_star=0.0, e2=0.0, d=0.0),
            ds.RegressionEnvironment(m=300, q=5, gamma=0.0, sigma2=1.0,
                                     beta_hat=np.zeros(2),
                                     sigma_inv=ds.SpdMatrix(np.eye(2))))
        zero_bin = ds.dshapley_binary_bounds(
            ds.BinaryPointQuery(x_star=np.zeros(3), y_star=1, pi_star=0.5, w_star=0.25,
                                z_star=2.0, e2_b=0.0, d_tilde=0.0), m=500, q=6)
        collapse = (zero_reg.lower == 0.0 == zero_reg.upper
                    and zero_bin.lower == 0.0 == zero_bin.upper)

        ok = gates_zero and monotone and reg_pairs_ok and bin_pairs_ok and collapse
        assert report(9, ok, f"gates zero {gates_zero}, error-monotone {monotone}, "
                             f"lower<=upper reg {reg_pairs_ok} / binary {bin_pairs_ok}, "
                             f"zero collapse {collapse}")


class TestCriterion10Determinism:
    def test_bit_identical_everywhere(self):
        env, _ = gaussian_truth_env(p=2, q=5, m=40)
        query = ds.PointQuery(x_star=np.array([0.7, -0.1]), y_star=0.0, e2=1.5, d=0.5)
        a = ds.dshapley_regression_exact(query, env, None, ds.RandomStream(6))
        b = ds.dshapley_regression_exact(query, env, None, ds.RandomStream(6))
        exact_same = (a.value, a.std_error, a.inner_iters_used) == \
                     (b.value, b.std_error, b.inner_iters_used)

        bg = ds.RandomStream(1).generator.uniform(size=3000)
        req = ds.DensityValueRequest(np.array([[0.4]]), m=50)
        kern = ds.KernelSpec("uniform", 0.2)
        d1 = ds.dshapley_density(req, bg, kern)
        d2 = ds.dshapley_density(req, bg, kern)
        density_same = (d1.value, d1.std_error) == (d2.value, d2.std_error)

        util_pool = np.arange(5).astype(float)
        util = tabulated_utility(77)
        m1 = ds.dshapley_mc_baseline(np.array([2.0]), util_pool, util, m=4,
                                     max_draws=200, rng=ds.RandomStream(10))
        m2 = ds.dshapley_mc_baseline(np.array([2.0]), util_pool, util, m=4,
                                     max_draws=200, rng=ds.RandomStream(10))
        baseline_same = (m1.value, m1.std_error) == (m2.value, m2.std_error)

        data = ds.gen_gaussian_r(900, 4, ds.RandomStream(3))
        cfg1 = ds.ExperimentConfig(task="regression", method="fast", n_value_points=30,
                                   m=100, background_size=500, heldout_size=200, threads=1)
        cfg4 = ds.ExperimentConfig(task="regression", method="fast", n_value_points=30,
                                   m=100, background_size=500, heldout_size=200, threads=4)
        _, v1, s1 = ds.value_points(data, cfg1, ds.RandomStream(5))
        _, v4, s4 = ds.value_points(data, cfg4, ds.RandomStream(5))
        threads_same = np.array_equal(v1, v4) and np.array_equal(s1, s4)

        ok = exact_same and density_same and baseline_same and threads_same
        assert report(10, ok, f"exact {exact_same}, density {density_same}, "
                              f"baseline {baseline_same}, threaded {threads_same}")
