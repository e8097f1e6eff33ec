"""Steadiness of the benchmark: run a workload repeatedly, one seed per run,
and print each metric's median, quartiles and spread.

    python3 benchmarks/steady.py --workload tensor-power --runs 10 --first-seed 1

The spread is the distance between the first and third quartile as a share
of the median, as ``statistics.quantiles(values, n=4)`` gives them.  The
bounds in BENCHMARK.json were set from these figures: every spread but that
of ``setup_s`` should stay below a third of its metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        result["status"] = proc.returncode
        runs.append(result)
        print(f"seed {seed}: status {proc.returncode}, "
              f"{result['failed']}/{result['attempted']} failed, "
              + ", ".join(f"{k}={m['value']:.6g}"
                          for k, m in result["metrics"].items()), flush=True)

    print(f"\n{args.workload}: {len(runs)} runs of {seconds:g} s")
    print(f"{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for key in runs[0]["metrics"]:
        values = [r["metrics"][key]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(key)
        print(f"{key:34s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{bound if bound is not None else '':>6}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share: {sorted(shares)}; all correct: "
          f"{all(r['correct'] for r in runs)}")
    return 0 if all(r["status"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
