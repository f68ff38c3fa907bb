"""Checks of the benchmark's own oracles and tracer (``pytest bench``)."""

import json
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import oracles
import tracing
import workloads


def _background(n=400, p=3, seed=0):
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((n, p))
    return x, x @ np.arange(1.0, p + 1.0) + gen.standard_normal(n)


@pytest.mark.parametrize("d, e2", [(0.05, 0.0), (1.3, 0.7), (9.0, 4.0)])
def test_regression_quadrature_matches_chi2_expect(d, e2):
    bx, by = _background()
    m = 40
    oracle = oracles.RegressionOracle(bx, by, m)
    p, s2 = oracle.p, oracle.s2
    direct = 0.0
    for j in range(oracle.q - 1, m):
        f = lambda t: (d * e2 + t * s2) / (d + t) ** 2  # noqa: E731
        direct += (j - 1.0) / (j - p) * stats.chi2.expect(f, args=(j - p + 1,))
    assert oracle.expectation_one(d, e2) == pytest.approx(-direct / m, rel=1e-6)


def test_regression_statistics_match_least_squares():
    bx, by = _background()
    oracle = oracles.RegressionOracle(bx, by, 40)
    beta = np.linalg.solve(bx.T @ bx, bx.T @ by)
    x, y = bx[:5], by[:5]
    d, e2 = oracle.statistics(x, y)
    assert np.allclose(e2, (y - x @ beta) ** 2)
    assert np.allclose(d, [xi @ np.linalg.solve(bx.T @ bx / len(bx), xi) for xi in x])


def test_density_expectation_matches_direct_monte_carlo():
    gen = np.random.default_rng(1)
    dim, h, m, draws = 2, 0.6, 50, 1_000_000
    background = gen.standard_normal((30, dim))
    s = np.array([[0.3, -0.2]])
    a_coef, b_coef = oracles.density_coefficients(m)

    def kernel(diff):
        return np.exp(-np.sum(diff ** 2, axis=1) / (2 * h * h)) / (2 * np.pi * h * h) ** (dim / 2)

    # the sampled estimator: a background draw, a draw from the KDE on {s}
    z_bg = background[gen.integers(0, len(background), size=draws)]
    z_set = s + h * gen.standard_normal((draws, dim))
    per_draw = (-a_coef * (kernel(z_set - s) - 2 * kernel(z_bg - s))
                + b_coef * (kernel(z_bg - s) - kernel(z_set - z_bg)))
    expected = oracles.density_expectation(s, background, h, m)[0]
    assert abs(per_draw.mean() - expected) < 4 * per_draw.std() / np.sqrt(draws)


def test_density_coefficients_are_the_sums():
    a_coef, b_coef = oracles.density_coefficients(3)
    assert a_coef == pytest.approx((1 + 1 / 4 + 1 / 9) / 3)
    assert b_coef == pytest.approx((2 * 1 / 4 + 2 * 2 / 9) / 3)


def test_lscv_matches_numerical_integration_in_one_dimension():
    gen = np.random.default_rng(2)
    samples = gen.standard_normal((40, 1))
    grid = (0.2, 0.5)
    u = np.linspace(-12.0, 12.0, 48001)
    for h, score in zip(grid, oracles.lscv_scores(samples, grid)):
        phi = lambda z: np.exp(-z ** 2 / (2 * h * h)) / np.sqrt(2 * np.pi * h * h)  # noqa: E731
        density = phi(u[:, None] - samples[:, 0][None, :]).mean(axis=1)
        square = np.trapezoid(density ** 2, u)
        loo = [np.mean(phi(samples[i, 0] - np.delete(samples[:, 0], i))) for i in range(40)]
        assert score == pytest.approx(square - 2 * np.mean(loo), rel=1e-6)


def test_tracer_self_time_and_counts():
    tracer = tracing.Tracer()
    leaf = tracer.wrap("leaf", lambda k: k, lambda r, a, kw: {"items": r})
    root = tracer.wrap("root", lambda: leaf(2) + leaf(3), None)
    assert root() == 5
    summary = tracer.summary()
    assert summary["leaf"]["calls"] == 2 and summary["leaf"]["items"] == 5
    assert summary["root"]["self_s"] == pytest.approx(summary["root"]["s"] - summary["leaf"]["s"])

    failing = tracer.wrap("fails", lambda: 1 / 0, None)
    with pytest.raises(ZeroDivisionError):
        failing()
    assert tracer.summary()["fails"]["failed"] == 1


def test_benchmark_json_lists_every_metric():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    layers = tracing.layer_metrics({}, {}, 1)
    listed = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert {name: (unit, better) for name, (_, unit, better) in layers.items()}.items() <= listed.items()
    assert set(listed) - set(layers) == {"trace.overhead_s", "trace.overhead_share"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "points_per_s", "peak_rss_mb"}
