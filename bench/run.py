#!/usr/bin/env python3
"""bondxva benchmark: one workload per process, untraced or traced.

    python3 bench/run.py --workload mc_recursive --seed 1 --seconds 20 --trace 0

Run it from the root of a bondxva checkout; it imports the package from
``src/`` there and from nowhere else. The workloads are ``mc_recursive``,
``mc_netting_book`` and ``pde_book`` (see ``bench/README.md``).

An untraced run (``--trace 0``) times the workload's set-up several times,
then repeats whole rounds of its valuations for ``--seconds``, checks every
output, and prints the end-to-end metrics. A traced run (``--trace 1``) does
the same with spans around each set-up call and valuation, then times each
layer on the workload's trades, prints the per-layer metrics and writes its
spans to ``.bench_out/trace-<workload>-seed<seed>.json``. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bondxva"
OUT_DIR = ROOT / ".bench_out"
# names and units of the metrics a run prints: end_to_end untraced, per_layer traced
SPEC = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ("mc_recursive", "mc_netting_book", "pde_book")
# set-up is repeated after each round for at least this long, so that its
# samples spread over the whole run like the valuations' do
SETUP_SECONDS_PER_ROUND = 0.1
# the standard error mc_time_to_1c_s extrapolates each MC valuation to
TARGET_SE = 0.01


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def timed_phase(ops, seconds, tracer, set_up_again):
    """Whole rounds of every operation until ``seconds`` have passed; returns
    the rounds and the seconds spent in them."""
    rounds, busy = [], 0.0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        round_start = time.perf_counter()
        results = {}
        for op in ops:
            with tracer.span(op.name, valuation=f"{len(rounds)}:{op.name}"):
                t0 = time.perf_counter()
                try:
                    out, error = op.run(), None
                except Exception as exc:  # a valuation that raises has failed
                    out, error = None, f"{type(exc).__name__}: {exc}"
                wall = time.perf_counter() - t0
            results[op.name] = (out, error, wall)
        rounds.append(results)
        busy += time.perf_counter() - round_start
        set_up_again()
    return rounds, busy


def check_rounds(ops, rounds):
    """Count failed valuations; keep the first reason each operation failed."""
    failed, reasons = 0, {}
    for results in rounds:
        outputs = {name: out for name, (out, error, _) in results.items() if error is None}
        for op in ops:
            out, error, _ = results[op.name]
            if error is None:
                try:
                    error = op.check(out, outputs)
                except Exception as exc:  # a malformed output fails its check
                    error = f"check raised {type(exc).__name__}: {exc}"
            if error:
                failed += 1
                reasons.setdefault(op.name, error)
    return failed, reasons


def time_to_accuracy(ops, rounds) -> float:
    """Median over the operations of each one's mean seconds to a standard
    error of TARGET_SE: MC wall x (se / TARGET_SE)^2, PDE wall as it is.

    A mean over rounds, not a median: the machine's speed flips between two
    levels for seconds at a time, and a median would jump between them."""
    per_op = []
    for op in ops:
        if not (op.se_weighted or op.grid_reference):
            continue
        values = []
        for results in rounds:
            out, error, wall = results[op.name]
            if error is None:
                scale = (out["se_fair_value"] / TARGET_SE) ** 2 if op.se_weighted else 1.0
                values.append(wall * scale)
        if values:
            per_op.append(statistics.fmean(values))
    return statistics.median(per_op)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no bondxva package at {PACKAGE}; run from a checkout", file=sys.stderr)
        return 2
    if not SPEC.is_file():
        print(f"error: no {SPEC.name} at {ROOT}", file=sys.stderr)
        return 2
    declared = json.loads(SPEC.read_text())
    # MC worker threads: one per CPU this process may run on
    workers = len(os.sched_getaffinity(0))
    # BLAS stays on one thread, so the MC pool is the only parallel load
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(PACKAGE.parent))
    # third-party imports happen here, before anything is timed
    import numpy  # noqa: F401
    import scipy.integrate  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.optimize  # noqa: F401
    import scipy.special  # noqa: F401

    import bondxva

    if Path(bondxva.__file__).resolve().parent != PACKAGE:
        print(f"error: imported bondxva from {bondxva.__file__}", file=sys.stderr)
        return 2
    import layers
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    written = []

    def write_config(name, config):
        path = OUT_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}-{name}.json"
        path.write_text(json.dumps(config))
        written.append(path)
        return str(path)

    try:
        return run(args, workers, declared, workloads, layers, write_config)
    finally:
        for path in written:
            path.unlink(missing_ok=True)


def run(args, workers, declared, workloads, layers, write_config) -> int:
    workload = workloads.WORKLOADS[args.workload]()
    tracer = layers.Tracer() if args.trace else layers.NullTracer()
    inputs = workload.draw(args.seed)
    setup_times = []

    def set_up():
        start = time.perf_counter()
        with tracer.span("setup", valuation=f"setup:{len(setup_times)}"):
            ctx = workload.setup(inputs, workers, tracer)
        setup_times.append(time.perf_counter() - start)
        return ctx

    def set_up_again():
        start = time.perf_counter()
        while time.perf_counter() - start < SETUP_SECONDS_PER_ROUND:
            set_up()

    ctx = set_up()
    problems = workloads.setup_problems(ctx)
    ops = workload.operations(ctx, write_config)
    gc.collect()

    rounds, wall = timed_phase(ops, args.seconds, tracer, set_up_again)
    completed = sum(error is None for results in rounds for _, error, _ in results.values())
    failed, reasons = check_rounds(ops, rounds)
    attempted = len(rounds) * len(ops)
    valuations_per_s = completed / wall

    for problem in problems:
        print(f"set-up check failed: {problem}", file=sys.stderr)
    for name, reason in reasons.items():
        print(f"{name} failed: {reason}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds of {len(ops)} "
          f"valuations in {wall:.3f} s, {attempted} attempted, {failed} failed")

    if args.trace:
        iterations = layers.layer_pass(workload.layer_cases(ctx), tracer, write_config)
        values = layers.per_layer_metrics(tracer, iterations)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "workers": workers,
            "traced_valuations_per_s": valuations_per_s, "spans": tracer.spans,
        }))
        print(f"traced timed phase: {valuations_per_s:.6g} valuations/s; "
              f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "valuations_per_s": valuations_per_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "mc_time_to_1c_s": time_to_accuracy(ops, rounds),
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared["per_layer" if args.trace else "end_to_end"]}
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
