"""``tools/fingerprint.py --diff`` on two small hand-written runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "fingerprint.py"


def _rec(index, ipm="i0", iterations=10, status="Optimal", relaxed=False,
         value=1.0, real=None, m=4, layout=None):
    rec = {"op": "op", "index": index, "m": m, "blocks": [2], "gap": 1e-8,
           "relaxed": relaxed, "compile": "c0", "ipm": ipm,
           "iterations": iterations, "status": status,
           "gap_target": 1e-7 if relaxed else 1e-8, "value": value}
    if real is not None:
        rec.update(real=real, rows=3 if real else 4)
    if layout is not None:
        rec.update(layout=layout)
    return rec


def _diff(tmp_path, before, after):
    paths = []
    for name, recs in (("before", before), ("after", after)):
        path = tmp_path / f"{name}.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in recs),
                        encoding="ascii")
        paths.append(str(path))
    proc = subprocess.run([sys.executable, str(TOOL), "--diff", *paths],
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout


def test_identical_runs_exit_zero(tmp_path):
    run = [_rec(0), _rec(1, ipm="i1", iterations=12, relaxed=True)]
    code, out = _diff(tmp_path, run, run)
    assert code == 0, out
    assert "compile hashes equal: 2/2; IPM hashes equal: 2/2" in out
    assert "iterations: 22 -> 22; numerical failures: 0 -> 0; " \
           "relaxed solves: 1 -> 1" in out
    assert "real solves: 0/2 -> 0/2" in out
    assert "blocked solves: 0/2 -> 0/2" in out
    assert "largest value change" not in out


def test_differing_runs_exit_one_with_totals(tmp_path):
    before = [_rec(0), _rec(1, ipm="i1", iterations=12),
              _rec(2, ipm="i2", iterations=9, m=6)]
    # the first solve returns a relaxed iterate with a moved value, the
    # second fails against its own program, and the third, on a program of
    # another size, still pairs with the third solve before
    after = [_rec(0, ipm="r", iterations=15, relaxed=True, value=1.0025),
             _rec(1, ipm="f", iterations=40, status="NumericalFailure",
                  value=None),
             _rec(2, ipm="i2", iterations=9, m=6)]
    code, out = _diff(tmp_path, before, after)
    assert code == 1, out
    assert "solves: 3 before, 3 after, 3 paired" in out
    assert "only " not in out
    assert "IPM hashes equal: 1/3" in out
    assert "  op #1: m 4 -> 4, iterations 12 -> 40, " \
           "Optimal -> NumericalFailure, same program\n" in out
    assert "op #2" not in out
    assert "iterations: 31 -> 64; numerical failures: 0 -> 1; " \
           "relaxed solves: 0 -> 1" in out
    assert "  relaxed gained: op #0\n" in out
    assert "largest value change over relaxed solves: 2.50e-03" in out
    assert "converged on both sides" not in out


def test_value_changes_of_converged_and_relaxed_solves_apart(tmp_path):
    """A relaxed pair's large move does not hide the largest move among
    pairs converged on both sides; each flip of the relaxed flag is named."""
    before = [_rec(0), _rec(1, relaxed=True), _rec(2), _rec(3)]
    after = [_rec(0, ipm="a", value=1.0 + 3e-9),
             _rec(1, ipm="b", value=1.0 - 4e-8),
             _rec(2, ipm="c", relaxed=True, value=1.0 + 2e-6),
             _rec(3, ipm="d", value=1.0 - 1e-10)]
    code, out = _diff(tmp_path, before, after)
    assert code == 1, out
    assert "relaxed solves: 1 -> 1" in out
    assert "  relaxed lost: op #1\n  relaxed gained: op #2\n" in out
    assert "largest value change over solves converged on both sides: " \
           "3.00e-09" in out
    assert "largest value change over relaxed solves: 2.00e-06" in out


def test_real_solves_counted_without_the_fields_before(tmp_path):
    # records from before the real path carry no "real" field
    before = [_rec(0), _rec(1)]
    after = [_rec(0, ipm="r", real=True), _rec(1, real=False)]
    code, out = _diff(tmp_path, before, after)
    assert code == 1, out
    assert "real solves: 0/2 -> 1/2" in out
    code, out = _diff(tmp_path, after, after)
    assert code == 0, out
    assert "real solves: 1/2 -> 1/2" in out


def test_blocked_solves_counted_without_the_field_before(tmp_path):
    # records from before the block-arrow path carry no "layout" field
    before = [_rec(0), _rec(1)]
    after = [_rec(0, layout="dense"),
             _rec(1, ipm="b", layout={"groups": [2, 2], "border": 1})]
    code, out = _diff(tmp_path, before, after)
    assert code == 1, out
    assert "blocked solves: 0/2 -> 1/2" in out
    code, out = _diff(tmp_path, after, after)
    assert code == 0, out
    assert "blocked solves: 1/2 -> 1/2" in out


def test_recorder_reads_real_arithmetic_and_rows():
    """The recorder notes whether the interior-point method ran real, on
    how many rows and in which Schur layout: a real program with one
    imaginary row runs on the other two, its complex twin on all three,
    both dense, and a program of two decoupled blocks factors by groups."""
    script = """
import json
import numpy as np
import fingerprint
from secrecy import sdp
rec = fingerprint.Recorder(sdp)
rec.install([sdp])
rec.begin_op("op")
for c in (np.diag([1.0, 2.0]), np.array([[1.0, 1j], [-1j, 2.0]])):
    prob = sdp.SdpProblem([2], [c])
    prob.add_constraint({0: np.eye(2)}, 1.0)
    prob.add_constraint({0: np.diag([1.0, 0.0])}, 0.25)
    prob.add_constraint({0: sdp.herm_basis(2)[3]}, 0.0)
    sdp.solve(prob)
# two blocks with two rows each, and a row on both and a 1x1 block: with
# no call cost the Schur matrix is factored as two groups and a border
sdp._ARROW_CALL = 0.0
prob = sdp.SdpProblem([2, 2, 1])
for j in (0, 1):
    prob.add_constraint({j: np.eye(2)}, 1.0)
    prob.add_constraint({j: np.diag([1.0, 0.0])}, 0.25)
prob.add_constraint({0: np.eye(2), 1: np.eye(2), 2: np.eye(1)}, 3.0)
sdp.solve(prob)
rec.uninstall()
print(json.dumps([(r["real"], r["rows"], r["m"], r["layout"])
                  for r in rec.records]))
"""
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                           str(ROOT / "tools")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        [True, 2, 3, "dense"], [False, 3, 3, "dense"],
        [True, 5, 5, {"groups": [2, 2], "border": 1}]]
