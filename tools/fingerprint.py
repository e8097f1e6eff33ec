"""Per-solve fingerprints of one benchmark pass, and the difference of two.

    python3 tools/fingerprint.py --workload tensor-power --seed 3 > after.jsonl
    python3 tools/fingerprint.py --diff before.jsonl after.jsonl

A run imports the package from ``src`` and the workloads from
``benchmarks`` of the current directory, so running this file from the
root of another checkout fingerprints that one.  It runs one pass of the
workload's operations with BLAS on one thread, and prints one JSON object
per SDP solve: the operation and the solve's index within it, m, the block
dims, a hash of the compiled (A, b, c), a hash of the interior-point result
(status, iterations, tau, kappa, y, X, S), the iteration count, the status,
whether the interior-point method ran in real arithmetic and on how many
rows, the layout its Schur matrix was factored in (``"dense"``, or the row
counts of the groups and the border of a block-arrow factorization), the
requested gap, the gap target the returned iterate met, whether
the solve was relaxed and the dual value.  A solve counts as relaxed when it
met a gap target larger than the one requested (a stalled run that returned
a fallback iterate).
``sdp.solve``, ``SdpProblem.compile`` and ``sdp._ipm`` are wrapped from
outside the package, the way ``benchmarks/tracing.py`` wraps its layers;
nothing in the package or the benchmark changes.

``--diff`` pairs the solves of two runs by operation and index, lists the
pairs whose hashes differ, and totals iterations, numerical failures,
relaxed solves, solves run in real arithmetic and solves factored by
blocks on both sides (records without the ``real`` or ``layout`` field,
from before those paths, count as complex and dense).
It names each pair whose relaxed flag flips, and prints the largest value
change over pairs converged at the requested gap on both sides apart from
the largest over pairs relaxed on either side: a kept fallback iterate can
move by far more than a converged one, and would hide it.
The index counts every solve of the operation, failed ones too, so a solve
that fails on one side pairs with its own program on the other.  Equal
hashes mean bit-identical programs and solver runs; the exit status is 0
then and 1 otherwise.
"""

import os
import sys

if os.environ.get("PYTHONHASHSEED") != "0":
    # one thread and a fixed hash seed, as the benchmark runs its workers;
    # both must be set before the interpreter and numpy start
    env = dict(os.environ, PYTHONHASHSEED="0")
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    os.execve(sys.executable, [sys.executable] + sys.argv, env)

import argparse
import hashlib
import importlib
import json
import tempfile
from pathlib import Path

import numpy as np


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(str((arr.dtype, arr.shape)).encode())
        h.update(arr.tobytes())
    return h.hexdigest()[:16]


class Recorder:
    """Wraps the solver entry points and keeps one record per solve."""

    def __init__(self, sdp):
        self.sdp = sdp
        self.records: list[dict] = []
        self.op = None
        self._index = 0
        self._current: dict | None = None
        self._patches: list[tuple[object, str, object]] = []

    def begin_op(self, name: str) -> None:
        self.op, self._index = name, 0

    def install(self, modules) -> None:
        sdp, solve, ipm = self.sdp, self.sdp.solve, self.sdp._ipm
        compile_ = sdp.SdpProblem.compile

        def wrapped_solve(problem, tolerances=None):
            gap = (tolerances or sdp.SdpTolerances()).gap
            rec = {"op": self.op, "index": self._index,
                   "m": problem.num_constraints,
                   "blocks": list(problem.block_dims), "gap": gap}
            self._index += 1
            self._current = rec
            try:
                sol = solve(problem, tolerances)
            finally:
                self._current = None
            met = getattr(sol, "gap_target", None)
            rec["gap_target"] = met
            rec["relaxed"] = met is not None and met > gap
            rec["value"] = sol.dual_value
            self.records.append(rec)
            return sol

        def wrapped_compile(problem):
            rc = compile_(problem)
            if self._current is not None:
                self._current["compile"] = _digest(
                    rc.A.indptr, rc.A.indices, rc.A.data, rc.b, rc.c_vec)
            return rc

        def wrapped_ipm(rc, tol, descale):
            raw = ipm(rc, tol, descale)
            # absent in checkouts from before the block-arrow path
            arrow = getattr(rc, "arrow", None)
            if self._current is not None:
                self._current.update(
                    ipm=_digest(np.array([raw.tau, raw.kappa]), raw.y,
                                *raw.x, *raw.s,
                                np.array([raw.iterations]),
                                np.frombuffer(raw.status.value.encode(),
                                              dtype=np.uint8)),
                    iterations=raw.iterations, status=raw.status.value,
                    real=not np.iscomplexobj(rc.A.data), rows=rc.m,
                    layout="dense" if arrow is None else {
                        "groups": [len(g) for g in arrow.groups],
                        "border": len(arrow.border)})
            return raw

        for mod in modules:
            if getattr(mod, "solve", None) is solve:
                self._patch(mod, "solve", wrapped_solve)
        self._patch(sdp, "_ipm", wrapped_ipm)
        self._patch(sdp.SdpProblem, "compile", wrapped_compile)

    def _patch(self, owner, name: str, new) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def uninstall(self) -> None:
        for owner, name, old in reversed(self._patches):
            setattr(owner, name, old)
        self._patches = []


def record(workload: str, seed: int) -> list[dict]:
    """One pass of the workload of the current checkout; its per-solve
    records."""
    sys.path[:0] = [str(Path("src").resolve()),
                    str(Path("benchmarks").resolve())]
    import workloads
    modules = [importlib.import_module(f"secrecy.{name}") for name in
               ("sdp", "entropy", "symmetry", "lemmas", "channels",
                "capacity", "codes", "converse", "io", "cli")]
    recorder = Recorder(modules[0])
    with tempfile.TemporaryDirectory() as workdir:
        ops = workloads.WORKLOADS[workload](seed, Path(workdir))
        recorder.install(modules)
        outs = {}
        try:
            for op in ops:
                recorder.begin_op(op.name)
                outs[op.name] = op.run(outs)
        finally:
            recorder.uninstall()
    return recorder.records


def _load(path: str) -> dict[tuple[str, int], dict]:
    with open(path, encoding="ascii") as fh:
        recs = [json.loads(line) for line in fh if line.strip()]
    return {(r["op"], r["index"]): r for r in recs}


def _totals(recs) -> tuple[int, int, int, int, int]:
    recs = list(recs)
    return (sum(r["iterations"] for r in recs),
            sum(r["status"] == "NumericalFailure" for r in recs),
            sum(r["relaxed"] for r in recs),
            sum(r.get("real", False) for r in recs),
            sum(r.get("layout", "dense") != "dense" for r in recs))


def diff(before_path: str, after_path: str) -> int:
    """Print how the solves of two runs differ; 0 if every hash is equal."""
    before, after = _load(before_path), _load(after_path)
    both = [k for k in before if k in after]
    print(f"solves: {len(before)} before, {len(after)} after, "
          f"{len(both)} paired")
    for key in [k for k in before if k not in after]:
        print(f"  only before: {key[0]} #{key[1]}")
    for key in [k for k in after if k not in before]:
        print(f"  only after:  {key[0]} #{key[1]}")
    same_compile = sum(before[k]["compile"] == after[k]["compile"]
                       for k in both)
    same_ipm = sum(before[k]["ipm"] == after[k]["ipm"] for k in both)
    print(f"compile hashes equal: {same_compile}/{len(both)}; "
          f"IPM hashes equal: {same_ipm}/{len(both)}")
    moved = {False: [], True: []}    # value changes, by relaxed on a side
    for key in both:
        b, a = before[key], after[key]
        if b["compile"] == a["compile"] and b["ipm"] == a["ipm"]:
            continue
        delta = abs(a["value"] - b["value"]) \
            if a["value"] is not None and b["value"] is not None else None
        if delta is not None:
            moved[b["relaxed"] or a["relaxed"]].append(delta)
        print(f"  {key[0]} #{key[1]}: m {b['m']} -> {a['m']}, "
              f"iterations {b['iterations']} -> {a['iterations']}, "
              f"{b['status']} -> {a['status']}"
              + ("" if b["compile"] != a["compile"] else ", same program")
              + ("" if delta is None else f", |dvalue| {delta:.2e}"))
    (ib, fb, rb, qb, kb), (ia, fa, ra, qa, ka) = _totals(before.values()), \
        _totals(after.values())
    print(f"iterations: {ib} -> {ia}; numerical failures: {fb} -> {fa}; "
          f"relaxed solves: {rb} -> {ra}")
    for key in both:
        if before[key]["relaxed"] != after[key]["relaxed"]:
            print(f"  relaxed {'gained' if after[key]['relaxed'] else 'lost'}"
                  f": {key[0]} #{key[1]}")
    print(f"real solves: {qb}/{len(before)} -> {qa}/{len(after)}")
    print(f"blocked solves: {kb}/{len(before)} -> {ka}/{len(after)}")
    for relaxed, over in ((False, "solves converged on both sides"),
                          (True, "relaxed solves")):
        if moved[relaxed]:
            print(f"largest value change over {over}: "
                  f"{max(moved[relaxed]):.2e}")
    identical = len(before) == len(after) == len(both) \
        and same_compile == same_ipm == len(both)
    return 0 if identical else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload",
                    choices=("lemma-harness", "tensor-power",
                             "wiretap-pipeline"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--diff", nargs=2, metavar=("BEFORE", "AFTER"),
                    help="compare two runs' outputs instead of running")
    args = ap.parse_args()
    if args.diff:
        return diff(*args.diff)
    if args.workload is None:
        ap.error("give --workload, or --diff BEFORE AFTER")
    if not Path("src/secrecy").is_dir():
        ap.error("run from the root of a checkout (no src/secrecy here)")
    for rec in record(args.workload, args.seed):
        print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
