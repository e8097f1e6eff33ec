"""Benchmark of the secrecy package: three seeded workloads, each in its own
process, timed end to end or (with ``--trace 1``) split by layer.

    python3 benchmarks/run.py --workload lemma-harness --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1

The run length defaults to ``run_seconds`` of BENCHMARK.json.

Run from the root of a source checkout; the package is imported from
``src``.  Every metric is printed by name with its unit, and the last line
of output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit status is 0 when every output passed
its check, 1 when one did not, and 2 when the benchmark could not run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: results and traces of each run
OUT = HERE / "out"
WORKLOADS = ("lemma-harness", "tensor-power", "wiretap-pipeline")
#: extra processes that only set up, so set-up time is a median of several
SETUP_PROBES = 4
#: limit on all the processes of one workload together: the measured passes
#: (a traced run may overrun by a pass of each kind) plus set-up and checks
TIMEOUT_FACTOR = 3
TIMEOUT_MARGIN_S = 60



def _env() -> dict:
    env = dict(os.environ)
    # one thread per workload process: the figures must not depend on how
    # many cores the BLAS library finds
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("SECRECY_BUDGET_DIM", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    return env


def _worker(args, workload: str, extra: list[str], deadline: float) -> dict:
    """Run worker.py until ``deadline`` (a time.monotonic value); its result."""
    workdir = HERE / ".work" / f"{workload}-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)] + extra
    proc = subprocess.Popen(cmd, env=_env(), stdout=subprocess.PIPE,
                            text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"{workload}: stopped after {_timeout(args):g} s")
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"{workload}: worker exited with status "
                         f"{proc.returncode} and no result") from None
    result["status"] = proc.returncode
    return result


def _timeout(args) -> float:
    return TIMEOUT_FACTOR * args.seconds + TIMEOUT_MARGIN_S


def run_workload(args, workload: str) -> dict:
    deadline = time.monotonic() + _timeout(args)
    if args.trace:
        setups = []
        extra = ["--trace-out",
                 str(OUT / f"trace-{workload}-seed{args.seed}.jsonl")]
    else:
        setups = [_worker(args, workload, ["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        extra = []
    result = _worker(args, workload, extra, deadline)
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups + [result["setup_s"]])
    # names and units come from BENCHMARK.json, in its order
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    report = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
              for m in listed}
    return {"correct": result["correct"] and result["status"] == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": report, "passes": result["passes"],
            "ops_per_pass": result["ops_per_pass"],
            "op_latency_s": result["op_latency_s"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "secrecy" / "__init__.py").is_file():
        print(f"benchmark: no package source at {ROOT / 'src' / 'secrecy'}; "
              f"run from a checkout of the repository", file=sys.stderr)
        return 2

    if args.seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        args.seconds = float(spec["run_seconds"])
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(args, name) for name in names}
    for name, res in results.items():
        print(f"{name}: {res['attempted']} operations in {res['passes']} "
              f"passes of {res['ops_per_pass']}, {res['failed']} failed, "
              f"outputs {'correct' if res['correct'] else 'WRONG'}")
        for key, m in res["metrics"].items():
            print(f"  {key:34s} {m['value']:14.6g} {m['unit']}")
    if len(results) == 1:
        res = results[names[0]]
        metrics = res["metrics"]
    else:
        metrics = {f"{name}.{key}": m for name, res in results.items()
                   for key, m in res["metrics"].items()}
    final = {"correct": all(r["correct"] for r in results.values()),
             "attempted": sum(r["attempted"] for r in results.values()),
             "failed": sum(r["failed"] for r in results.values()),
             "metrics": metrics}
    record = dict(final, workloads={
        name: {key: res[key] for key in ("passes", "ops_per_pass",
                                         "op_latency_s")}
        for name, res in results.items()})
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
