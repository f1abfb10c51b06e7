#!/usr/bin/env python3
"""Benchmark of specmat's build -> closed form -> verify loop.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-large --seed 1 --seconds 25 --trace 0

One process runs one workload as a closed loop with a single caller and no
think time, BLAS pinned to one thread.  Each op is timed on its own and its
output is checked outside the timed span.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  ``--smoke`` runs the same code
at tiny sizes.  See README.md in this directory.
"""

import os
import sys
import time

_T0 = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads BLAS

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_ROOT = HERE / "out"
SETUP_STARTS = 7        # setup_s is the median over this many starts
MIN_OPS = 100           # so p90 has at least ten samples beyond it (one round with --smoke)
HARD_LIMIT_S = 120.0    # stop adding rounds after this, whatever --seconds says


def _parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one start (imports, inputs, warm-up) and print it")
    return parser.parse_args(argv)


def _execute(op, cli, mmio, tracer):
    """Run one op; return (seconds, exit code, stdout, stderr, arrays read back)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer:
            tracer.start_op()
        start = time.perf_counter()
        try:
            rc = cli.main(list(op.argv))
            arrays = [mmio.read_matrix_market(path) for path in op.reads]
        except Exception as exc:  # an escaped exception fails the op, not the run
            rc, arrays = f"{type(exc).__name__}: {exc}", []
        elapsed = time.perf_counter() - start
    return elapsed, rc, out.getvalue(), err.getvalue(), arrays


def _setup_start(args) -> float:
    """Setup time of a fresh process doing this run's set-up."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def _p90(values):
    """90th percentile by linear interpolation (numpy's default method)."""
    return statistics.quantiles(values, n=10, method="inclusive")[-1] if len(values) > 1 else values[0]


def main(argv=None) -> int:
    if not (SRC / "specmat" / "__init__.py").is_file():
        print(f"error: no specmat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = _parse_args(argv)
    import specmat.cli
    import specmat.mmio
    import workloads

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    out_dir = OUT_ROOT / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.build_round(args.workload, args.seed, out_dir, smoke=args.smoke)
        warmed = set()
        for op in ops:  # one op of every kind, so lazy set-up is done before timing
            if op.kind not in warmed:
                warmed.add(op.kind)
                _execute(op, specmat.cli, specmat.mmio, None)
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return _measure(args, ops, setup_s, tracer, specmat.cli, specmat.mmio)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def _measure(args, ops, setup_s, tracer, cli, mmio) -> int:
    """Run whole rounds, check every op, print the metrics; returns the exit code."""
    import checks

    checker = checks.Checker()
    latencies, by_kind, problems, round_s = [], {}, [], []
    failed, correct, rounds = 0, True, 0
    min_ops = 1 if args.smoke else MIN_OPS
    # the other set-up samples are fresh processes started between rounds,
    # spread over the run so they meet the host in different phases; their
    # time is not run time
    setup_samples = [setup_s]
    starts = 0 if tracer else (2 if args.smoke else SETUP_STARTS)
    paused = 0.0
    started = time.perf_counter()
    while True:
        for op in ops:
            elapsed, rc, out, err, arrays = _execute(op, cli, mmio, tracer)
            if tracer:
                tracer.finish_op(elapsed, op.kind, keep=rounds == 0)
            latencies.append(elapsed)
            by_kind.setdefault(op.kind, []).append(elapsed)
            try:
                checker.check(op, rc, out, err, arrays)
            except checks.KnownFault as exc:
                failed += 1
                if rounds == 0:
                    problems.append(f"known fault, {op.kind}: {exc}")
            except checks.CheckError as exc:
                failed += 1
                correct = False
                problems.append(f"FAILED {' '.join(op.argv)}: {exc}")
        rounds += 1
        round_s.append(sum(latencies[-len(ops):]))
        spent = time.perf_counter() - started - paused
        if len(setup_samples) < starts and spent >= (len(setup_samples) - 1) * args.seconds / (starts - 1):
            pause = time.perf_counter()
            setup_samples.append(_setup_start(args))
            paused += time.perf_counter() - pause
        if (spent >= args.seconds and len(latencies) >= min_ops) or spent >= HARD_LIMIT_S:
            break
    while len(setup_samples) < starts:
        setup_samples.append(_setup_start(args))

    attempted = len(latencies)
    print(f"workload {args.workload} seed {args.seed}: {rounds} rounds of {len(ops)} ops, "
          f"{attempted} attempted, {failed} failed, {spent:.1f} s")
    print("  op time per round: " + ", ".join(f"{s:.2f}" for s in round_s) + " s")
    for kind, values in sorted(by_kind.items()):
        print(f"  {kind:34s} n={len(values):4d} p50={1e3 * statistics.median(values):8.2f} ms "
              f"p90={1e3 * _p90(values):8.2f} ms")
    for line in problems[:20]:
        print(f"  {line}")

    if tracer:
        import tracing

        metrics = {name: {"value": value, "unit": tracing.LAYER_METRICS[name]}
                   for name, value in tracer.metrics(attempted).items()}
        trace_path = OUT_ROOT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        top = ", ".join(f"{name}={metrics[name]['value']:.2f}" for name in tracing.TOP_LEVEL)
        print(f"  traced op {metrics['trace.op_ms']['value']:.2f} ms = {top}; spans in {trace_path.name}")
    else:
        print("  setup starts: " + ", ".join(f"{s:.3f}" for s in setup_samples) + " s")
        metrics = {
            "ops_per_s": {"value": attempted / sum(latencies), "unit": "1/s"},
            "latency_p50_ms": {"value": 1e3 * statistics.median(latencies), "unit": "ms"},
            "latency_p90_ms": {"value": 1e3 * _p90(latencies), "unit": "ms"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
