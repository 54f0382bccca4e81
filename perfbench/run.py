"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload offline_solve --seed 1 --seconds 20 --trace 0

``--trace 0`` sets the workload up several times (``setup_s`` is the
median), runs the timed part once untraced, checks the outputs and prints
every end-to-end metric.  ``--trace 1`` runs the same work twice -- untraced,
then with every layer wrapped by the span recorder -- and prints every
per-layer metric, the tracing overhead (traced minus untraced time of the
timed part) and a self-time table; the spans go to
``perfbench/out/trace-<workload>-<seed>.json`` (Chrome trace-event format)
and the ledger to ``perfbench/out/ledger-<workload>-<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from bench_clock import NominalClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: A run sets its workload up at least this many times, and until the
#: set-ups took :data:`SETUP_MIN_S` in all (at most :data:`SETUP_MAX_REPEATS`
#: times); ``setup_s`` is the median.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.5
SETUP_MAX_REPEATS = 60

#: End-to-end metric units (the names ``BENCHMARK.json`` lists).
END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "latency_bound": "model-time",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--toy", action="store_true", help="tiny instances (for the self-tests)"
    )
    parser.add_argument("--out", type=Path, default=HERE / "out")
    return parser.parse_args(argv)


def fingerprint():
    """The machine and library versions a record was measured with."""
    import numpy
    import scipy

    from repro.kernels import active_kernel_backend_name

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": active_kernel_backend_name(),
    }


def timed_setup(workload, seed, clock):
    """Set the workload up repeatedly; return the last state, raw and nominal times."""
    raw, nominal, state = [], [], None
    while len(raw) < SETUP_MAX_REPEATS and (
        len(raw) < SETUP_REPEATS or sum(raw) < SETUP_MIN_S
    ):
        state = None  # release the previous inputs before building new ones
        gc.collect()
        state, raw_s, nominal_s = clock.time(workload.setup, seed)
        raw.append(raw_s)
        nominal.append(nominal_s)
    return state, raw, nominal


def run_untraced(workload, seed):
    clock = NominalClock()
    state, setup_raw, setup_nominal = timed_setup(workload, seed, clock)
    gc.collect()
    started = time.perf_counter()
    out = workload.measure(state, clock)
    timed_s = time.perf_counter() - started
    errors = workload.check(state, out)
    report = workload.report(state, out)
    report.errors = errors
    report.metrics["setup_s"] = statistics.median(setup_nominal)
    report.detail.update(
        op_failures=out["errors"],
        setup_raw_s=setup_raw,
        setup_nominal_s=setup_nominal,
        timed_s=timed_s,
        host_speed=clock.speed(),
    )
    return report


def run_traced(workload, seed, args):
    from bench_ledger import install, ledger
    from bench_trace import Tracer

    state = workload.setup(seed)
    started = time.perf_counter()
    workload.measure(state, NominalClock())
    untraced_s = time.perf_counter() - started
    state = None

    clock = NominalClock()
    tracer = install(Tracer())
    try:
        with tracer.span("bench.setup"):
            state = workload.setup(seed)
        started = time.perf_counter()
        with tracer.span("bench.timed"):
            out = workload.measure(state, clock)
        traced_s = time.perf_counter() - started
    finally:
        tracer.remove()
    errors = workload.check(state, out)
    report = workload.report(state, out)
    report.errors = errors
    report.detail["op_failures"] = out["errors"]
    report.metrics = ledger(tracer, overhead_s=traced_s - untraced_s)
    report.detail.update(
        untraced_s=untraced_s,
        traced_s=traced_s,
        layers=tracer.layer_table(),
    )
    stem = f"{workload.name}-{seed}"
    tracer.write_chrome_trace(args.out / f"trace-{stem}.json")
    return report


def print_layers(rows):
    print(f"{'span':34s} {'calls':>9s} {'busy s':>10s} {'self s':>10s}")
    for row in rows:
        print(
            f"{row['span']:34s} {row['calls']:9d} "
            f"{row['busy_s']:10.4f} {row['self_s']:10.4f}"
        )


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    from bench_ledger import PER_LAYER
    from bench_workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    # Seconds are split between the untraced and traced passes of a trace run.
    seconds = args.seconds / 2 if args.trace else args.seconds
    workload = WORKLOADS[args.workload](seconds, toy=args.toy)

    args.out.mkdir(parents=True, exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="repro-cache-", dir=args.out)
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    try:
        if args.trace:
            report = run_traced(workload, args.seed, args)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            report = run_untraced(workload, args.seed)
            units = END_TO_END_UNITS
        if os.listdir(cache_dir):
            report.errors.append("the result cache was written although it is off")
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    metrics = {}
    for name, unit in units.items():
        value = float(report.metrics[name])
        if not math.isfinite(value):
            report.errors.append(f"metric {name} is {value}")
            value = None
        metrics[name] = {"value": value, "unit": unit}
    result = {
        "correct": not report.errors,
        "attempted": int(report.attempted),
        "failed": int(report.failed),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": fingerprint(),
        "ops_attempted": report.attempted,
        "ops_failed": report.failed,
        "errors": report.errors,
        "detail": report.detail,
        "metrics": report.metrics,
    }
    stem = f"{'ledger' if args.trace else 'record'}-{args.workload}-{args.seed}"
    (args.out / f"{stem}.json").write_text(json.dumps(record, indent=2, default=float))

    if args.trace:
        print_layers(report.detail.pop("layers"))
    print("detail " + json.dumps(report.detail, default=float))
    print("machine " + json.dumps(record["machine"]))
    for error in report.errors:
        print(f"CHECK FAILED: {error}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
