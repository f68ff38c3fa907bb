"""Command-line interface.

Subcommands: ``gen``, ``value``, ``bounds``, ``baseline``, ``point-addition``,
``time-bench``, ``synergy-scan``. Flags override an optional JSON config file
and the resolved configuration is echoed into every output file's metadata,
so a fixed seed reproduces output files byte for byte. Each command returns
the columns and metadata of its result table, and :func:`main` writes them.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

import numpy as np

from .datasets import gen_gaussian_c, gen_gaussian_r, load_csv
from .density import synergy_scan
from .errors import DistShapError, InvalidParameterError
from .experiments import (
    _METHODS,
    _TASKS,
    ExperimentConfig,
    run_point_addition,
    run_time_bench,
    value_points,
)
from .numerics import RandomStream
from .output import ResultTable, write_results

__all__ = ["main", "build_parser"]

# the valuation commands and the method each runs
_VALUE_METHODS = {"value": "fast", "bounds": "bounds", "baseline": "baseline"}
_CONFIG_FIELDS = {field.name for field in fields(ExperimentConfig)}


def _add_common(parser):
    parser.add_argument("--config", help="JSON file of defaults; flags override it")
    parser.add_argument("--seed", type=int, default=ExperimentConfig.seed)
    parser.add_argument("--output", required=True, help="output file path")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_valuation_args(parser):
    parser.add_argument("--data", required=True, help="input CSV")
    parser.add_argument("--target-column", default=None,
                        help="target column name or index; omit for density data")
    parser.add_argument("--no-header", action="store_true")
    parser.add_argument("--task", choices=_TASKS, required=True)
    for name, kind in (("m", int), ("q", int), ("gamma", float), ("n_value_points", int),
                       ("background_size", int), ("heldout_size", int), ("baseline_draws", int)):
        parser.add_argument("--" + name.replace("_", "-"), type=kind,
                            default=getattr(ExperimentConfig, name))
    parser.add_argument("--density-budget", type=int, default=2000,
                        help="accepted and ignored: density values draw nothing")
    parser.add_argument("--bandwidth-grid", default=None,
                        help="comma-separated bandwidths for density valuation")
    parser.add_argument("--bound-side", choices=("lower", "upper"),
                        default=ExperimentConfig.bound_side)
    parser.add_argument("--threads", type=int, default=ExperimentConfig.threads)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone, which parses that
    command's arguments alike and names every command in its usage line."""
    parser = argparse.ArgumentParser(prog="distshap",
                                     description="Distributional Shapley data valuation")
    sub = parser.add_subparsers(dest="command", required=True, metavar=(
        None if command is None else "{" + ",".join(_COMMANDS) + "}"))

    def add(name, help_text):  # the subparser of ``name``, or None when it is not built
        if command in (None, name):
            p_cmd = sub.add_parser(name, help=help_text)
            _add_common(p_cmd)
            return p_cmd

    if p_gen := add("gen", "generate a synthetic dataset CSV"):
        p_gen.add_argument("--kind", choices=("gaussian-r", "gaussian-c"), required=True)
        p_gen.add_argument("--n", type=int, required=True)
        p_gen.add_argument("--p", type=int, default=10)

    for name, method in _VALUE_METHODS.items():
        if p_cmd := add(name, f"per-point values via the {method} route"):
            _add_valuation_args(p_cmd)

    if p_add := add("point-addition", "point-addition curves"):
        _add_valuation_args(p_add)
        p_add.add_argument("--method", choices=_METHODS, default=ExperimentConfig.method)
        p_add.add_argument("--repetitions", type=int, default=ExperimentConfig.repetitions)

    if p_bench := add("time-bench", "fast vs baseline timing grid"):
        p_bench.add_argument("--cells", required=True,
                             help="semicolon-separated n,p cells, e.g. '200,10;1000,30'")
        p_bench.add_argument("--tasks", default="regression",
                             help="comma-separated tasks to benchmark")
        p_bench.add_argument("--repetitions", type=int, default=5)
        p_bench.add_argument("--baseline-points", type=int, default=20)
        p_bench.add_argument("--threads", type=int, default=ExperimentConfig.threads)

    if p_syn := add("synergy-scan", "pair-synergy scan over bandwidths"):
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
    """The config of the parsed flags named after its fields. ``method`` is the command's,
    a valuation command makes one repetition, and no grid is the default grid."""
    settings = {"repetitions": 1, **{key: value for key, value in vars(args).items()
                                     if key in _CONFIG_FIELDS}, "method": method}
    grid = settings["bandwidth_grid"]
    settings["bandwidth_grid"] = (  # an empty grid goes on, for the config to refuse
        ExperimentConfig.bandwidth_grid if grid is None else
        tuple(float(h) for h in (grid.split(",") if grid and isinstance(grid, str) else grid)))
    return ExperimentConfig(**settings)


def _cmd_gen(args):
    rng = RandomStream(args.seed)
    if args.kind == "gaussian-r":
        data = gen_gaussian_r(args.n, args.p, rng)
    else:
        data = gen_gaussian_c(args.n, rng)
    columns = {f"x{i}": data.x[:, i] for i in range(data.p)}
    columns["y"] = data.y
    return columns, {"kind": args.kind, "n": args.n, "p": data.p, "seed": args.seed}


def _load(args):
    dataset = load_csv(args.data, target_column=_target_column(args),
                       has_header=not args.no_header)
    if args.task != "density" and dataset.y is None:
        raise InvalidParameterError(f"task {args.task} needs a target column")
    return dataset


def _cmd_value(args):
    method = _VALUE_METHODS[args.command]
    dataset = _load(args)
    config = _experiment_config(args, method)
    indices, values, std_errors = value_points(dataset, config, RandomStream(args.seed))
    n = len(indices)
    columns = {"index": indices, "value": values, "std_error": std_errors,
               "method": [method] * n, "m": [config.m] * n,
               "q": [config.resolved_q(dataset.p)] * n, "seed": [args.seed] * n}
    return columns, config.metadata()


def _cmd_point_addition(args):
    dataset = _load(args)
    config = _experiment_config(args, args.method)
    curves = run_point_addition(config, dataset, RandomStream(args.seed)).curves
    steps = [curve.utilities.size for curve in curves]
    columns = {"ordering": np.repeat([curve.ordering for curve in curves], steps),
               "step": np.concatenate([np.arange(k) for k in steps]),
               "utility_mean": np.concatenate([curve.utilities for curve in curves]),
               "utility_stderr": np.concatenate([curve.std_errors for curve in curves]),
               "repetitions": [config.repetitions] * sum(steps)}
    return columns, config.metadata()


def _cmd_time_bench(args):
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
    columns = {key: [row[key] for row in rows] for key in rows[0]}
    return columns, {"seed": args.seed, "cells": args.cells, "tasks": ",".join(tasks)}


def _cmd_synergy_scan(args):
    grid = [float(h) for h in args.grid.split(",") if h]
    records = synergy_scan(grid, m=args.m, C_den=args.c_den, n_draws=args.draws,
                           rng=RandomStream(args.seed)).records
    columns = {"bandwidth": [rec.bandwidth for rec in records],
               "synergy_threshold": ["none" if rec.threshold is None else rec.threshold
                                     for rec in records],
               "synergy_probability": [rec.probability for rec in records]}
    return columns, {"m": args.m, "c_den": args.c_den, "draws": args.draws, "seed": args.seed}


_COMMANDS = {"gen": _cmd_gen, **dict.fromkeys(_VALUE_METHODS, _cmd_value),
             "point-addition": _cmd_point_addition, "time-bench": _cmd_time_bench,
             "synergy-scan": _cmd_synergy_scan}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # only the invoked command's parser; help, a missing or an unknown command need them all
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            args = _apply_config_file(parser, args, argv)
        columns, metadata = _COMMANDS[args.command](args)
        write_results(ResultTable(columns, metadata), args.output, args.format)
    except (DistShapError, OSError, ValueError) as exc:
        message = str(exc).replace("\n", " ")
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
