"""Command-line interface.

Subcommands: ``gen``, ``value``, ``bounds``, ``baseline``, ``point-addition``,
``time-bench``, ``synergy-scan``. Flags override an optional JSON config file
and the resolved configuration is echoed into every output file's metadata,
so a fixed seed reproduces output files byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .datasets import gen_gaussian_c, gen_gaussian_r, load_csv
from .density import synergy_scan
from .errors import DistShapError, InvalidParameterError
from .experiments import (
    ExperimentConfig,
    run_point_addition,
    run_time_bench,
    value_points,
)
from .numerics import RandomStream
from .output import CURVE_COLUMNS, VALUES_COLUMNS, ResultTable, write_results

__all__ = ["main", "build_parser"]


def _add_common(parser):
    parser.add_argument("--config", help="JSON file of defaults; flags override it")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", required=True, help="output file path")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_valuation_args(parser):
    parser.add_argument("--data", required=True, help="input CSV")
    parser.add_argument("--target-column", default=None,
                        help="target column name or index; omit for density data")
    parser.add_argument("--no-header", action="store_true")
    parser.add_argument("--task", choices=("regression", "classification", "density"),
                        required=True)
    parser.add_argument("--m", type=int, default=1000)
    parser.add_argument("--q", type=int, default=None)
    parser.add_argument("--gamma", type=float, default=0.0)
    parser.add_argument("--n-value-points", type=int, default=200)
    parser.add_argument("--background-size", type=int, default=2000)
    parser.add_argument("--heldout-size", type=int, default=1000)
    parser.add_argument("--baseline-draws", type=int, default=500)
    parser.add_argument("--density-budget", type=int, default=2000,
                        help="accepted and ignored: density values draw nothing")
    parser.add_argument("--bandwidth-grid", default=None,
                        help="comma-separated bandwidths for density valuation")
    parser.add_argument("--bound-side", choices=("lower", "upper"), default="lower")
    parser.add_argument("--threads", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="distshap",
                                     description="Distributional Shapley data valuation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic dataset CSV")
    _add_common(p_gen)
    p_gen.add_argument("--kind", choices=("gaussian-r", "gaussian-c"), required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--p", type=int, default=10)

    for name, method in (("value", "fast"), ("bounds", "bounds"), ("baseline", "baseline")):
        p_cmd = sub.add_parser(name, help=f"per-point values via the {method} route")
        _add_common(p_cmd)
        _add_valuation_args(p_cmd)

    p_add = sub.add_parser("point-addition", help="point-addition curves")
    _add_common(p_add)
    _add_valuation_args(p_add)
    p_add.add_argument("--method", choices=("fast", "baseline", "bounds"), default="fast")
    p_add.add_argument("--repetitions", type=int, default=50)

    p_bench = sub.add_parser("time-bench", help="fast vs baseline timing grid")
    _add_common(p_bench)
    p_bench.add_argument("--cells", required=True,
                         help="semicolon-separated n,p cells, e.g. '200,10;1000,30'")
    p_bench.add_argument("--tasks", default="regression",
                         help="comma-separated tasks to benchmark")
    p_bench.add_argument("--repetitions", type=int, default=5)
    p_bench.add_argument("--baseline-points", type=int, default=20)
    p_bench.add_argument("--threads", type=int, default=1)

    p_syn = sub.add_parser("synergy-scan", help="pair-synergy scan over bandwidths")
    _add_common(p_syn)
    p_syn.add_argument("--grid", default="0.05,0.1,0.15,0.2,0.25,0.3",
                       help="comma-separated bandwidths")
    p_syn.add_argument("--m", type=int, default=100)
    p_syn.add_argument("--c-den", type=float, default=0.2)
    p_syn.add_argument("--draws", type=int, default=5000)

    return parser


def _apply_config_file(parser, args, argv):
    """Re-parse with the config file's values as the command's defaults, so flags win."""
    with open(args.config, encoding="utf-8") as handle:
        file_values = json.load(handle)
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    command = commands.choices[args.command]
    actions = {action.dest: action for action in command._actions}
    defaults = {}
    for key, value in file_values.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise InvalidParameterError(f"unknown config key {key!r}")
        # a string meets the flag's type as on the command line; null stays only for a None default
        defaults[action.dest] = (value if action.type is None or value is None is action.default
                                 else str(value))
    command.set_defaults(**defaults)
    return parser.parse_args(argv)


def _target_column(args):
    if args.target_column is None:
        return None
    try:
        return int(args.target_column)
    except ValueError:
        return args.target_column


def _experiment_config(args, method: str) -> ExperimentConfig:
    extra = {}
    if args.bandwidth_grid is not None:  # an empty grid goes on, for select_bandwidth to refuse
        grid = args.bandwidth_grid
        extra["bandwidth_grid"] = tuple(
            float(h) for h in (grid.split(",") if grid and isinstance(grid, str) else grid))
    return ExperimentConfig(
        task=args.task, method=method, n_value_points=args.n_value_points,
        m=args.m, q=args.q, gamma=args.gamma, seed=args.seed,
        background_size=args.background_size, heldout_size=args.heldout_size,
        repetitions=getattr(args, "repetitions", 1),
        baseline_draws=args.baseline_draws,
        bound_side=args.bound_side, threads=args.threads, **extra,
    )


def _cmd_gen(args) -> None:
    rng = RandomStream(args.seed)
    if args.kind == "gaussian-r":
        data = gen_gaussian_r(args.n, args.p, rng)
    else:
        data = gen_gaussian_c(args.n, rng)
    columns = [f"x{i}" for i in range(data.p)] + ["y"]
    rows = np.column_stack([data.x, data.y]).tolist()
    table = ResultTable(columns=columns, rows=rows,
                        metadata={"kind": args.kind, "n": args.n, "p": data.p,
                                  "seed": args.seed})
    write_results(table, args.output, args.format)


def _load(args):
    dataset = load_csv(args.data, target_column=_target_column(args),
                       has_header=not args.no_header)
    if args.task != "density" and dataset.y is None:
        raise InvalidParameterError(f"task {args.task} needs a target column")
    return dataset


def _cmd_value(args, method: str) -> None:
    dataset = _load(args)
    config = _experiment_config(args, method)
    rng = RandomStream(args.seed)
    indices, values, std_errors = value_points(dataset, config, rng)
    q = config.resolved_q(dataset.p)
    rows = [(int(i), float(v), float(se), method, config.m, q, args.seed)
            for i, v, se in zip(indices, values, std_errors)]
    table = ResultTable(columns=VALUES_COLUMNS, rows=rows, metadata=config.metadata())
    write_results(table, args.output, args.format)


def _cmd_point_addition(args) -> None:
    dataset = _load(args)
    config = _experiment_config(args, args.method)
    result = run_point_addition(config, dataset, RandomStream(args.seed))
    rows = []
    for curve in result.curves:
        for step in range(curve.utilities.size):
            rows.append((curve.ordering, step, float(curve.utilities[step]),
                         float(curve.std_errors[step]), curve.repetitions))
    table = ResultTable(columns=CURVE_COLUMNS, rows=rows, metadata=config.metadata())
    write_results(table, args.output, args.format)


def _cmd_time_bench(args) -> None:
    cells = []
    for chunk in args.cells.split(";"):
        try:
            n_str, p_str = chunk.split(",")
            cells.append((int(n_str), int(p_str)))
        except ValueError:
            raise InvalidParameterError(f"cell {chunk!r} is not two integers n,p") from None
    tasks = [t.strip() for t in args.tasks.split(",") if t.strip()]
    rows = run_time_bench(cells, tasks, RandomStream(args.seed),
                          repetitions=args.repetitions,
                          baseline_points=args.baseline_points, threads=args.threads)
    columns = list(rows[0].keys())
    table = ResultTable(columns=columns,
                        rows=[tuple(row[c] for c in columns) for row in rows],
                        metadata={"seed": args.seed, "cells": args.cells,
                                  "tasks": ",".join(tasks)})
    write_results(table, args.output, args.format)


def _cmd_synergy_scan(args) -> None:
    grid = [float(h) for h in args.grid.split(",") if h]
    result = synergy_scan(grid, m=args.m, C_den=args.c_den, n_draws=args.draws,
                          rng=RandomStream(args.seed))
    rows = [(rec.bandwidth,
             rec.threshold if rec.threshold is not None else "none",
             rec.probability)
            for rec in result.records]
    table = ResultTable(columns=["bandwidth", "synergy_threshold", "synergy_probability"],
                        rows=rows,
                        metadata={"m": args.m, "c_den": args.c_den,
                                  "draws": args.draws, "seed": args.seed})
    write_results(table, args.output, args.format)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            args = _apply_config_file(parser, args, argv)
        if args.command == "gen":
            _cmd_gen(args)
        elif args.command in ("value", "bounds", "baseline"):
            _cmd_value(args, {"value": "fast", "bounds": "bounds", "baseline": "baseline"}[args.command])
        elif args.command == "point-addition":
            _cmd_point_addition(args)
        elif args.command == "time-bench":
            _cmd_time_bench(args)
        elif args.command == "synergy-scan":
            _cmd_synergy_scan(args)
    except (DistShapError, OSError, ValueError) as exc:
        message = str(exc).replace("\n", " ")
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
