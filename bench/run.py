"""Run one distshap benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: ``src`` is put on the import path
here, nothing needs installing. Workloads are listed in ``workloads.py`` and
described in ``README.md``. With ``--trace 0`` the metrics are the end-to-end
ones (``setup_s``, ``points_per_s``, ``peak_rss_mb``); with ``--trace 1`` the
per-layer ones from a traced pass over the same rounds.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread; this must be set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import distshap, write the inputs and exit (one setup_s sample)")
    return parser.parse_args(argv)


def workload_dir(name: str) -> Path:
    path = OUT / name
    path.mkdir(parents=True, exist_ok=True)
    return path


def setup_only(args) -> int:
    sys.path.insert(0, str(SRC))
    import distshap.cli  # noqa: F401  (the import is part of what setup_s measures)
    from workloads import WORKLOADS

    WORKLOADS[args.workload].make_inputs(args.seed, workload_dir(args.workload))
    return 0


def time_setup(args) -> float:
    """Wall time of a fresh interpreter that imports distshap and writes the inputs."""
    argv = [sys.executable, str(BENCH / "run.py"), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed)]
    start = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, check=True, timeout=SETUP_TIMEOUT_S,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def run_round(cli, commands) -> tuple[float, list]:
    """Run every command once; returns the wall time and which commands succeeded."""
    for command in commands:
        command.output.unlink(missing_ok=True)
    ok = []
    start = time.perf_counter()
    for command in commands:
        try:
            ok.append(cli.main(command.argv) == 0)
        except Exception:  # a raising command fails its operations; the run goes on
            traceback.print_exc()
            ok.append(False)
    return time.perf_counter() - start, ok


def digest(commands) -> str:
    sha = hashlib.sha256()
    for command in commands:
        sha.update(command.output.read_bytes() if command.output.exists() else b"<missing>")
    return sha.hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "distshap" / "__init__.py").is_file():
        print(f"error: no distshap sources under {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        return setup_only(args)

    workload = WORKLOADS[args.workload]
    out = workload_dir(workload.name)
    if not args.trace:
        setup_times = [time_setup(args)]  # this child writes the inputs the rounds read

    sys.path.insert(0, str(SRC))
    import distshap.cli as cli

    commands = workload.commands(args.seed, out)
    rounds = workload.rounds(args.seconds)
    digests = []
    ok_all = [True] * len(commands)

    def timed_rounds(count):
        times = []
        for _ in range(count):
            elapsed, ok = run_round(cli, commands)
            times.append(elapsed)
            digests.append(digest(commands))
            ok_all[:] = [a and b for a, b in zip(ok_all, ok)]
        return times

    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        workload.make_inputs(args.seed, out)
        gen_spans = tracer.summary()
        tracer.uninstall()
        timed_rounds(1)  # the process's first round pays its one-off costs untraced
        first_span = len(tracer.names)
        tracer.install()
        times = timed_rounds(rounds)
        tracer.uninstall()
        reference = timed_rounds(1)[0]
    else:
        times = []
        for _ in range(rounds):
            times += timed_rounds(1)
            # later setup samples sit between rounds, so that their median sees
            # the machine under the same load as the rounds do
            if len(setup_times) < SETUP_SAMPLES:
                setup_times.append(time_setup(args))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while len(setup_times) < SETUP_SAMPLES:
            setup_times.append(time_setup(args))

    failed_per_round, problems = workload.check(args.seed, out, commands, ok_all)
    if len(set(digests)) != 1:
        problems.append("rounds with identical inputs and seeds wrote different outputs")
    print(f"{workload.name}: round seconds {[round(t, 4) for t in times]}", file=sys.stderr)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    if not args.trace:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "points_per_s": (sum(c.points for c in commands) * len(times) / sum(times),
                             "points/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        tracer.write(out / "trace.csv")
        layers = tracing.layer_metrics(tracer.summary(first_span), gen_spans, rounds)
        metrics = {name: (value, unit) for name, (value, unit, _) in layers.items()}
        overhead = statistics.mean(times) - reference
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.overhead_share"] = (overhead / reference, "ratio")

    result = {
        "correct": not problems,
        "attempted": sum(c.ops for c in commands) * len(digests),
        "failed": failed_per_round * len(digests),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
