"""`tools/round_cost.py`: a smoke run of one tree against itself, its
exit code when the two sides' traces differ, and the one dataset file
both sides of the elastic-net shape read."""

import argparse
import subprocess
import sys
from pathlib import Path

import pytest

import round_cost
from compare_outputs import write_dataset

ROOT = Path(__file__).resolve().parents[1]
ROUND_COST_PY = ROOT / "tools" / "round_cost.py"


def test_same_tree_on_both_sides():
    proc = subprocess.run(
        [sys.executable, str(ROUND_COST_PY), str(ROOT), str(ROOT), "--T", "20",
         "--runs", "2", "--shape", "2:1", "--shape", "3:2", "--shape", "en:2"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("DSM p:S and elastic net en:S, a_ogd_convex, "
                               "beta = 2/3, T = 20, 2 runs")
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == ["2:1", "3:2", "en:2"]
    assert all(row[-2:] == ["of", "2"] for row in rows)
    assert "differ" not in proc.stdout


def test_differing_trace_bytes_fail(monkeypatch, capsys):
    def fake_side(root, T, dataset, shapes):
        return [{"us_per_round": 20.0, "digest": f"{root}:{shape}"
                 if shape in ("8:4", "en:3") else "same"} for shape in shapes]

    monkeypatch.setattr(round_cost, "run_side", fake_side)
    assert round_cost.main(["a", "b", "--shape", "2:3", "--shape", "8:4",
                            "--shape", "en:3", "--runs", "1"]) == 1
    out = capsys.readouterr().out
    assert "trace bytes differ: run 1, shape 8:4" in out
    assert "trace bytes differ: run 1, shape en:3" in out
    assert "shape 2:3" not in out


def test_one_dataset_file_for_both_sides(monkeypatch, tmp_path):
    # criterion 9's file is written once per call; every run of either
    # side reads that same file, which is gone when the script returns
    want = tmp_path / "criterion9.libsvm"
    write_dataset(want)
    seen = []

    def fake_side(root, T, dataset, shapes):
        seen.append((root, dataset, Path(dataset).read_bytes()))
        return [{"us_per_round": 1.0, "digest": "same"} for _ in shapes]

    monkeypatch.setattr(round_cost, "run_side", fake_side)
    assert round_cost.main(["a", "b", "--runs", "3"]) == 0
    assert [root for root, _, _ in seen] == ["a", "b", "b", "a", "a", "b"]
    assert len({dataset for _, dataset, _ in seen}) == 1
    assert all(data == want.read_bytes() for _, _, data in seen)
    assert not Path(seen[0][1]).exists()
    assert "en:3" in round_cost.DEFAULT_SHAPES


@pytest.mark.parametrize("text,shape", [("8:4", "8:4"), ("08:1", "8:1"),
                                        ("en:3", "en:3"), ("en:01", "en:1")])
def test_shapes_parsed(text, shape):
    assert round_cost.parse_shape(text) == shape


@pytest.mark.parametrize("text", ["1:3", "8:0", "en:0", "en", "EN:2", "x:2",
                                  "8:"])
def test_bad_shapes_rejected(text):
    with pytest.raises(argparse.ArgumentTypeError):
        round_cost.parse_shape(text)
