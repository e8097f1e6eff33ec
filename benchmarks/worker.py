"""One workload in one process: set up, run whole passes, check, report.

Started by ``run.py`` with BLAS pinned to one thread and ``src`` on the
path; prints one JSON object as its last line of output.  Not meant to be
run by hand.
"""

import time

T_START = time.perf_counter()   # set-up time counts the imports below

import argparse
import json
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402


def _pass(ops, tracer=None):
    """Run every operation once; returns (wall, latencies, outputs, errors)."""
    outs, lats, errors = {}, [], {}
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(i)
        t0 = time.perf_counter()
        try:
            outs[op.name] = op.run(outs)
        except Exception:   # a failed operation is counted, the run goes on
            errors[op.name] = traceback.format_exc()
        lats.append(time.perf_counter() - t0)
    return time.perf_counter() - start, lats, outs, errors


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] \
        if len(values) > 1 else values[0]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args()

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_s = time.perf_counter() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return _measure(args, ops, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, ops, setup_s) -> int:
    # Whole passes only: another pass starts while the median pass still fits
    # in the run.  A traced run alternates untraced and traced passes, and the
    # difference of their medians is the tracing overhead.
    tracer = tracing.Tracer() if args.trace else None
    passes, traced = [], []
    start = time.perf_counter()
    while True:
        use_trace = tracer is not None and len(passes) % 2 == 1
        if use_trace:
            tracer.install()
            before = tracer.snapshot()
        wall, lats, outs, errors = _pass(ops, tracer if use_trace else None)
        if use_trace:
            tracer.uninstall()
            traced.append(tracer.layer_metrics(before, wall))
        passes.append((wall, lats, outs, errors, use_trace))
        elapsed = time.perf_counter() - start
        typical = statistics.median(p[0] for p in passes)
        if (tracer is None or traced) and elapsed + typical > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = failed = 0
    wrong = []
    for wall, lats, outs, errors, _ in passes:
        for op in ops:
            attempted += 1
            if op.name in errors:
                failed += 1
                continue
            try:
                message = op.check(outs[op.name], outs)
            except Exception as ex:   # a check that cannot run rejects
                message = f"check raised {ex!r}"
            if message is not None:
                failed += 1
                wrong.append(f"{op.name}: {message}")
    for name, tb in passes[0][3].items():
        print(f"operation {name} failed:\n{tb}", file=sys.stderr)
    for line in wrong:
        print(f"wrong output: {line}", file=sys.stderr)

    plain = [p for p in passes if not p[4]]
    per_op = [statistics.median(p[1][i] for p in plain)
              for i in range(len(ops))]
    if tracer is None:
        metrics = {
            "wall_s": statistics.median(p[0] for p in plain),
            "op_p50_s": statistics.median(per_op),
            "op_p90_s": _quantile(per_op, 90),
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        metrics = {key: statistics.median(t[key] for t in traced)
                   for key in traced[0]}
        metrics["trace.overhead_s"] = (
            statistics.median(p[0] for p in passes if p[4])
            - statistics.median(p[0] for p in plain))
        if args.trace_out:
            tracer.write(args.trace_out)
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": failed, "setup_s": setup_s,
                      "passes": len(passes), "ops_per_pass": len(ops),
                      "op_latency_s": dict(zip((op.name for op in ops), per_op)),
                      "metrics": metrics}))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
