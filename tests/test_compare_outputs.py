"""`tools/compare_outputs.py`: its comparison of two trees' outputs on
fixed small files, and the tree its children import."""

import json
import math
from pathlib import Path

import pytest

import compare_outputs
from tool_trees import SRC, TINY_DSM as DSM, decoy_cwd, named_tree


def test_run_cli_runs_the_named_tree_not_the_callers_aogd(tmp_path,
                                                         monkeypatch):
    tree = named_tree(tmp_path)
    monkeypatch.chdir(decoy_cwd(tmp_path))
    out = tmp_path / "run"
    printed = compare_outputs.run_cli(str(tree), "run", DSM, str(out))
    assert printed.strip() == str(out / "out" / "manifest.json")
    assert (tree / "aogd" / "ran").exists()
    manifest = json.loads((out / "out" / "manifest.json").read_text())
    assert manifest["status"] == "ok"


def test_run_cli_stops_on_an_unexpected_exit_code(tmp_path):
    with pytest.raises(SystemExit) as info:
        compare_outputs.run_cli(str(SRC), "run", dict(DSM, beta=7.0),
                                str(tmp_path / "run"))
    message = str(info.value.code)
    assert f"under {SRC} exited 1, not 0" in message
    assert "error: beta must lie in (0, 1)" in message


def write_csv(path: Path, rows: list[str]) -> str:
    path.write_text("t,a,b\n" + "".join(row + "\n" for row in rows))
    return str(path)


@pytest.mark.parametrize("parent,change,want", [
    pytest.param(["1,nan,2", "2,3,4"], ["1,nan,2.0", "2,3,4"],
                 " (same numbers)", id="nan_on_both_sides_matches"),
    pytest.param(["1,nan,2", "2,3,4"], ["1,5,2", "2,3,4"],
                 " (NaN in one tree only)", id="nan_on_one_side"),
    pytest.param(["1,2,3", "2,3,4"], ["1,2,3"],
                 " (shape (2, 3) -> (1, 3))", id="shape_change"),
    pytest.param(["1,0,2"], ["1,0.001,2"],
                 " (a max rel inf, max abs 1.00e-03)", id="zero_to_nonzero"),
    pytest.param(["1,2,4", "2,nan,8"], ["1,3,4", "2,nan,6"],
                 " (a max rel 5.00e-01, max abs 1.00e+00; "
                 "b max rel 2.50e-01, max abs 2.00e+00)",
                 id="moved_columns_named"),
])
def test_csv_difference(tmp_path, parent, change, want):
    assert compare_outputs.csv_difference(
        write_csv(tmp_path / "parent.csv", parent),
        write_csv(tmp_path / "change.csv", change)) == want


def test_compare_values():
    parent = {"a": 1, "b": {"c": 2.0, "d": math.nan}, "e": [1, 2]}
    change = {"a": 1, "b": {"d": math.nan}, "e": [1, 3], "f": "new"}
    assert compare_outputs.compare_values("m", parent, change) == [
        "m b.c: only in one tree",
        "m e.1: 2 -> 3 (rel 5.00e-01)",
        "m f: only in one tree"]
    assert compare_outputs.compare_values("m", {"x": math.nan},
                                          {"x": math.nan}) == []


@pytest.mark.parametrize("a,b,want", [
    (True, False, "True -> False"),
    (1, True, "1 -> True"),
    (False, 2.0, "False -> 2.0"),
    (2.0, 3.0, "2.0 -> 3.0 (rel 5.00e-01)"),
    (0, 1, "0 -> 1"),
    ("x", "y", "'x' -> 'y'"),
])
def test_describe(a, b, want):
    assert compare_outputs.describe(a, b) == want
