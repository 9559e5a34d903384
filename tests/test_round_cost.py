"""`tools/round_cost.py`: a smoke run of one tree against itself, and its
exit code when the two sides' traces differ."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROUND_COST_PY = ROOT / "tools" / "round_cost.py"


def load_round_cost():
    spec = importlib.util.spec_from_file_location("round_cost", ROUND_COST_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_same_tree_on_both_sides():
    proc = subprocess.run(
        [sys.executable, str(ROUND_COST_PY), str(ROOT), str(ROOT), "--T", "20",
         "--runs", "2", "--shape", "2:1", "--shape", "3:2"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("DSM a_ogd_convex, beta = 2/3, T = 20, 2 runs")
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == ["2:1", "3:2"]
    assert all(row[-2:] == ["of", "2"] for row in rows)
    assert "differ" not in proc.stdout


def test_differing_trace_bytes_fail(monkeypatch, capsys):
    round_cost = load_round_cost()

    def fake_side(root, T, shapes):
        return [{"us_per_round": 20.0, "digest": f"{root}:{shape}"
                 if shape == "8:4" else "same"} for shape in shapes]

    monkeypatch.setattr(round_cost, "run_side", fake_side)
    assert round_cost.main(["a", "b", "--shape", "2:3", "--shape", "8:4",
                            "--runs", "1"]) == 1
    out = capsys.readouterr().out
    assert "trace bytes differ: run 1, shape 8:4" in out
    assert "shape 2:3" not in out
