"""``tools/fingerprint.py --diff`` on two small hand-written runs."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "fingerprint.py"


def _rec(index, ipm="i0", iterations=10, status="Optimal", relaxed=False,
         value=1.0):
    return {"op": "op", "index": index, "m": 4, "blocks": [2], "gap": 1e-8,
            "relaxed": relaxed, "compile": "c0", "ipm": ipm,
            "iterations": iterations, "status": status,
            "gap_target": 1e-7 if relaxed else 1e-8, "value": value}


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
    assert "largest value change" not in out


def test_differing_runs_exit_one_with_totals(tmp_path):
    before = [_rec(0), _rec(1, ipm="i1", iterations=12)]
    # the first solve fails and is solved again at a relaxed gap with a
    # moved value; the second still pairs with the second solve before
    after = [_rec(0, ipm="f", iterations=40, status="NumericalFailure",
                  value=None),
             _rec(0, ipm="r", iterations=15, relaxed=True, value=1.0025),
             _rec(1, ipm="i1", iterations=12)]
    code, out = _diff(tmp_path, before, after)
    assert code == 1, out
    assert "solves: 2 before, 3 after, 2 paired" in out
    assert "only after:  op #0 failed" in out
    assert "IPM hashes equal: 1/2" in out
    assert "iterations: 22 -> 67; numerical failures: 0 -> 1; " \
           "relaxed solves: 0 -> 1" in out
    assert "largest value change over differing solves: 2.50e-03" in out
