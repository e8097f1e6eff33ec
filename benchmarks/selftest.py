"""Self-test of the benchmark's output checks.

    python3 benchmarks/selftest.py [--workload NAME] [--seed N]

Runs one pass of each workload, requires every real output to pass its
checks, then feeds each check of an operation its own perturbed copy of the
output and requires that check to reject it.  Exits 0 when every check
behaves, 1 otherwise.
"""

import argparse
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
for _key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_key] = "1"
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def selftest(name: str, seed: int) -> list[str]:
    problems = []
    (HERE / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / ".work") as tmp:
        ops = workloads.WORKLOADS[name](seed, Path(tmp))
        outs = {}
        for op in ops:
            outs[op.name] = op.run(outs)
    checks = 0
    for op in ops:
        out = outs[op.name]
        if (message := op.check(out, outs)) is not None:
            problems.append(f"{name}/{op.name}: real output rejected: {message}")
        for k, (check, perturb) in enumerate(op.checks):
            checks += 1
            if check(perturb(out, outs), outs) is None:
                problems.append(f"{name}/{op.name}: check {k} accepted "
                                f"its perturbed output")
    print(f"{name}: {len(ops)} operations, {checks} checks, "
          f"{len(problems)} problems", flush=True)
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default=None, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    problems = [p for name in names for p in selftest(name, args.seed)]
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
