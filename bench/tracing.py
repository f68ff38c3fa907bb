"""Per-layer spans for the traced run, recorded from outside the package.

The tracer rebinds the names that distshap's modules import from each other
(``distshap.experiments.dshapley_regression_exact``,
``distshap.classification.mahalanobis_sq``, ...) to wrappers that record a
span: name, start, end and parent span, plus counts read from the returned
object or from the exception raised. Spans stay in memory until the run
ends. A span's self time is its duration minus its child spans' durations.
"""

from __future__ import annotations

import importlib
import os
from time import perf_counter

import numpy as np


def _exact_counts(result, args, kwargs):
    env = args[1]
    return {"terms": len(result.inner_iters_used), "draws": sum(result.inner_iters_used),
            "admitted": max(env.m - env.q + 1, 0)}


# (span name, module attributes bound to the traced function, counter)
TARGETS = (
    ("cli.main", ("cli.main",), None),
    ("datasets.gen", ("datasets.gen_gaussian_r", "datasets.gen_gaussian_c",
                      "datasets.gen_mixture_c"), None),
    ("datasets.load_csv", ("cli.load_csv",), lambda r, a, k: {"rows": r.n}),
    ("output.write_results", ("cli.write_results",),
     lambda r, a, k: {"bytes": os.path.getsize(a[1])}),
    ("experiments.value_points", ("cli.value_points", "experiments.value_points"), None),
    ("experiments.run_point_addition", ("cli.run_point_addition",), None),
    ("regression.exact", ("experiments.dshapley_regression_exact",), _exact_counts),
    ("regression.fit_background", ("experiments.fit_background",), None),
    ("regression.bounds", ("experiments.dshapley_regression_bounds",), None),
    ("density.select_bandwidth", ("experiments.select_bandwidth",), None),
    ("density.dshapley_density", ("experiments.dshapley_density",),
     lambda r, a, k: {"draws": sum(r.inner_iters_used)}),
    ("density.kde_evaluate", ("density.kde_evaluate", "experiments.kde_evaluate",
                              "baseline.kde_evaluate"), None),
    ("classification.transform_query", ("experiments.transform_query",), None),
    ("classification.binary_bounds", ("experiments.dshapley_binary_bounds",),
     lambda r, a, k: {"skipped": r.skipped_terms}),
    ("classification.irls_fit", ("experiments.irls_fit", "baseline.irls_fit"),
     lambda r, a, k: {"iterations": r.iterations}),
    ("numerics.mahalanobis_sq", ("regression.mahalanobis_sq",
                                 "classification.mahalanobis_sq"), None),
    ("numerics.spd_inverse", ("regression.spd_inverse", "experiments.spd_inverse"), None),
    ("baseline.mc_baseline", ("experiments.dshapley_mc_baseline",), None),
    ("baseline.utility", ("baseline.evaluate_utility",), None),
)


class Tracer:
    """Records spans around calls into distshap while its wrappers are installed."""

    def __init__(self):
        self.names = []      # span name per span
        self.bounds = []     # (start, end) per span
        self.parents = []    # parent span index, -1 at the top
        self.counts = {}     # span index -> counts read from the call
        self._stack = []
        self._saved = []

    def wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            sid = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.bounds.append(None)
            self._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[sid] = {"failed": 1}
                raise
            finally:
                self.bounds[sid] = (start, perf_counter())
                self._stack.pop()
            if counter is not None:
                self.counts[sid] = counter(result, args, kwargs)
            return result
        return traced

    def install(self) -> None:
        for name, attributes, counter in TARGETS:
            for attribute in attributes:
                module_name, attr = attribute.rsplit(".", 1)
                module = importlib.import_module("distshap." + module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, counter))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def summary(self, since: int = 0) -> dict:
        """Per span name: calls, busy seconds, self seconds and summed counts,
        over the spans recorded from index ``since`` on."""
        n = len(self.names)
        bounds = np.array(self.bounds, dtype=float).reshape(-1, 2)
        duration = bounds[:, 1] - bounds[:, 0]
        parents = np.array(self.parents, dtype=int)
        child = np.zeros(n)
        nested = parents >= 0
        np.add.at(child, parents[nested], duration[nested])
        out = {}
        for sid in range(since, n):
            entry = out.setdefault(self.names[sid], {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += duration[sid]
            entry["self_s"] += duration[sid] - child[sid]
            for key, value in self.counts.get(sid, {}).items():
                entry[key] = entry.get(key, 0) + value
        return out

    def write(self, path) -> None:
        """All spans as CSV: name, start, end, parent (seconds on the run's clock)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span,name,start,end,parent\n")
            for sid, (name, (start, end), parent) in enumerate(
                    zip(self.names, self.bounds, self.parents)):
                handle.write(f"{sid},{name},{start!r},{end!r},{parent}\n")


def layer_metrics(spans: dict, gen: dict, rounds: int) -> dict:
    """The per-layer metrics of one round (means over ``rounds`` traced rounds).

    ``spans`` summarises the traced rounds and ``gen`` the traced input
    generation. A metric of a layer that does not run in the workload reads 0.
    """
    def get(name, key="s"):
        return spans.get(name, {}).get(key, 0) / rounds

    exact_terms, admitted = get("regression.exact", "terms"), get("regression.exact", "admitted")
    evals, failed = get("baseline.utility", "calls"), get("baseline.utility", "failed")
    values = {
        "regression.exact_s": (get("regression.exact"), "s", "lower"),
        "regression.exact_calls": (get("regression.exact", "calls"), "count", "lower"),
        "regression.draws_used": (get("regression.exact", "draws"), "count", "lower"),
        "regression.terms_summed": (exact_terms, "count", "higher"),
        "regression.terms_share": (exact_terms / admitted if admitted else 0.0, "ratio", "higher"),
        "regression.fit_background_s": (get("regression.fit_background"), "s", "lower"),
        "regression.bounds_s": (get("regression.bounds"), "s", "lower"),
        "regression.bounds_calls": (get("regression.bounds", "calls"), "count", "lower"),
        "density.select_bandwidth_s": (get("density.select_bandwidth"), "s", "lower"),
        "density.dshapley_density_s": (get("density.dshapley_density"), "s", "lower"),
        "density.dshapley_density_calls": (get("density.dshapley_density", "calls"), "count", "lower"),
        "density.kde_evaluate_calls": (get("density.kde_evaluate", "calls"), "count", "lower"),
        "density.mc_draws": (get("density.dshapley_density", "draws"), "count", "lower"),
        "classification.transform_query_s": (get("classification.transform_query"), "s", "lower"),
        "classification.binary_bounds_s": (get("classification.binary_bounds"), "s", "lower"),
        "classification.binary_bounds_calls": (get("classification.binary_bounds", "calls"), "count", "lower"),
        "classification.skipped_terms": (get("classification.binary_bounds", "skipped"), "count", "lower"),
        "classification.irls_fit_s": (get("classification.irls_fit"), "s", "lower"),
        "classification.irls_fits": (get("classification.irls_fit", "calls"), "count", "lower"),
        "classification.irls_iterations": (get("classification.irls_fit", "iterations"), "count", "lower"),
        "numerics.mahalanobis_sq_calls": (get("numerics.mahalanobis_sq", "calls"), "count", "lower"),
        "numerics.spd_inverse_calls": (get("numerics.spd_inverse", "calls"), "count", "lower"),
        "experiments.value_points_s": (get("experiments.value_points"), "s", "lower"),
        "experiments.value_points_self_s": (get("experiments.value_points", "self_s"), "s", "lower"),
        "experiments.run_point_addition_s": (get("experiments.run_point_addition"), "s", "lower"),
        "experiments.run_point_addition_self_s": (get("experiments.run_point_addition", "self_s"), "s", "lower"),
        "baseline.mc_baseline_s": (get("baseline.mc_baseline"), "s", "lower"),
        "baseline.mc_baseline_calls": (get("baseline.mc_baseline", "calls"), "count", "lower"),
        "baseline.utility_evals": (evals, "count", "lower"),
        "baseline.utility_s": (get("baseline.utility"), "s", "lower"),
        "baseline.failed_utility_evals": (failed, "count", "lower"),
        "baseline.useful_eval_ratio": ((evals - failed) / evals if evals else 0.0, "ratio", "higher"),
        "datasets.gen_s": (gen.get("datasets.gen", {}).get("s", 0.0), "s", "lower"),
        "datasets.load_csv_s": (get("datasets.load_csv"), "s", "lower"),
        "datasets.load_csv_rows": (get("datasets.load_csv", "rows"), "count", "lower"),
        "output.write_results_s": (get("output.write_results"), "s", "lower"),
        "output.bytes_written": (get("output.write_results", "bytes"), "bytes", "lower"),
        "cli.main_s": (get("cli.main"), "s", "lower"),
        "cli.self_s": (get("cli.main", "self_s"), "s", "lower"),
    }
    return values
