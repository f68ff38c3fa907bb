"""A point's value does not depend on the batch it is valued in, nor on the BLAS threads.

Each per-point kernel is run on 200 points at p = 10 and horizon m = 1000:
on each point alone, in batches of 2, 3 and 7, and in the full batch. Every
statistic must be the same to the bit in all of them. The CLI's output files
must be the same bytes with one BLAS thread and with two.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from distshap import (
    Dataset,
    DensityValueRequest,
    ExperimentConfig,
    KernelSpec,
    PointQuery,
    RandomStream,
    dshapley_binary_bounds,
    dshapley_density,
    dshapley_regression_bounds,
    dshapley_regression_quadrature,
    estimate_weighted_second_moment,
    fit_background,
    gen_gaussian_r,
    gen_mixture_c,
    irls_fit,
    spd_inverse,
    transform_query,
    value_points,
)
from distshap import cli

N, P, M = 200, 10, 1000
BATCHES = (2, 3, 7)


def assert_batch_invariant(stats, *inputs):
    """``stats(*batch)`` maps a batch of the inputs' leading axis to named (n,) arrays,
    and one entry of each input to floats; all must agree bit for bit."""
    full = stats(*inputs)
    for size in BATCHES:
        parts = [stats(*(a[s:s + size] for a in inputs)) for s in range(0, N, size)]
        for name, values in full.items():
            joined = np.concatenate([part[name] for part in parts])
            assert joined.tobytes() == values.tobytes(), (name, size)
    alone = [stats(*(a[i] for a in inputs)) for i in range(N)]
    for name, values in full.items():
        assert all(isinstance(one[name], float) for one in alone), name
        assert np.array([one[name] for one in alone]).tobytes() == values.tobytes(), name


@pytest.fixture(scope="module")
def regression():
    data = gen_gaussian_r(N + 2000, P, RandomStream(1))
    env = fit_background(data.x[N:], data.y[N:], m=M, q=P + 3)
    return data.x[:N], data.y[:N], env


@pytest.fixture(scope="module")
def classification():
    data = gen_mixture_c(N + 2000, P, RandomStream(1))
    state = irls_fit(data.x[N:], data.y[N:])
    sti = spd_inverse(estimate_weighted_second_moment(data.x[N:], state.beta))
    return data.x[:N], data.y[:N], state, sti


def test_regression_statistics_and_values(regression):
    xs, ys, env = regression

    def stats(x, y):
        query = PointQuery.from_point(x, y, env)
        est = dshapley_regression_quadrature(query, env)
        bounds = dshapley_regression_bounds(query, env)
        return {"d": query.d, "e2": query.e2, "value": est.value, "std_error": est.std_error,
                "lower": bounds.lower, "upper": bounds.upper}

    assert_batch_invariant(stats, xs, ys)


def test_binary_statistics_and_bounds(classification):
    xs, ys, state, sti = classification

    def stats(x, y):
        query = transform_query(x, y, state, sti, clamp_weight=True)
        bounds = dshapley_binary_bounds(query, M, P + 3)
        return {"d_tilde": query.d_tilde, "e2_b": query.e2_b,
                "lower": bounds.lower, "upper": bounds.upper}

    assert_batch_invariant(stats, xs, ys)


@pytest.mark.parametrize("size", [1, 2, 9])
def test_density_set_values(size):
    points = gen_gaussian_r(N * size + 1000, P, RandomStream(1)).x
    sets, background = points[:N * size].reshape(N, size, P), points[N * size:]
    kernel = KernelSpec("gaussian", 1.0)

    def stats(s):
        est = dshapley_density(DensityValueRequest(s, m=M), background, kernel)
        return {"value": est.value, "std_error": est.std_error}

    assert_batch_invariant(stats, sets)


@pytest.mark.parametrize("task, method", [("regression", "fast"), ("regression", "bounds"),
                                          ("classification", "fast"),
                                          ("classification", "bounds"), ("density", "fast")])
def test_value_points_one_point_is_its_row(task, method):
    gen = gen_mixture_c if task == "classification" else gen_gaussian_r
    data = gen(N + 800, P, RandomStream(1))
    if task == "density":
        data = Dataset(x=data.x)
    config = ExperimentConfig(task=task, method=method, n_value_points=N, m=M,
                              background_size=600, heldout_size=200)
    held, bg = np.arange(N, N + 200), np.arange(N + 200, N + 800)
    _, values, errors = value_points(data, config, RandomStream(0), (np.arange(N), held, bg))
    for i in range(0, N, 23):
        _, one, one_error = value_points(data, config, RandomStream(0), (np.array([i]), held, bg))
        assert (one.tobytes(), one_error.tobytes()) == (values[i:i + 1].tobytes(),
                                                         errors[i:i + 1].tobytes()), i


# runs each argv list of ``sys.argv[1]`` through the CLI in one interpreter
CLI_CHILD = """
import json, sys
from distshap.cli import main
sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))
"""


def test_cli_output_bytes_do_not_depend_on_blas_threads(tmp_path):
    data = {kind: str(tmp_path / f"{kind}.csv") for kind in ("gaussian-r", "gaussian-c")}
    for kind, path in data.items():
        assert cli.main(["gen", "--kind", kind, "--n", "2300", "--p", str(P), "--seed", "1",
                         "--output", path]) == 0
    split = ["--m", str(M), "--n-value-points", "100", "--background-size", "2000",
             "--heldout-size", "200", "--seed", "3"]
    commands = {
        "value-regression": ["value", "--task", "regression", "--data", data["gaussian-r"]],
        "value-classification": ["value", "--task", "classification", "--data", data["gaussian-c"]],
        "value-density": ["value", "--task", "density", "--data", data["gaussian-r"]],
        "bounds-classification": ["bounds", "--task", "classification", "--data", data["gaussian-c"]],
    }
    src = str(Path(cli.__file__).parents[1])
    for threads in ("1", "2"):  # set before the child's numpy loads its BLAS
        argvs = [argv + split + (["--target-column", "y"] if "density" not in name else [])
                 + ["--output", str(tmp_path / f"{name}-{threads}.csv")]
                 for name, argv in commands.items()]
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        child = subprocess.run([sys.executable, "-c", CLI_CHILD, json.dumps(argvs)], env=env,
                               capture_output=True, text=True, timeout=300)
        assert child.returncode == 0, child.stderr
    for name in commands:
        one, two = ((tmp_path / f"{name}-{t}.csv").read_bytes() for t in ("1", "2"))
        assert one == two, name
