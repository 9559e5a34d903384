"""`tools/peak_memory.py`: a smoke run of a tiny DSM config, the tree its
children import, and its exit code when the run fails."""

import json
import subprocess
import sys

import pytest

from tool_trees import ROOT, SRC, TINY_DSM, decoy_cwd, named_tree

PEAK_MEMORY_PY = ROOT / "tools" / "peak_memory.py"
DSM = dict(TINY_DSM, output_dir="unused")


def peak_memory(cwd, *args, **overrides):
    """peak_memory.py run from cwd on DSM with overrides, written to
    cwd/config.json and named by its relative path."""
    (cwd / "config.json").write_text(json.dumps(dict(DSM, **overrides)))
    return subprocess.run(
        [sys.executable, str(PEAK_MEMORY_PY), "config.json", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("src", [ROOT, SRC], ids=["root", "src"])
def test_one_json_line(tmp_path, src):
    proc = peak_memory(tmp_path, "--T", "50", "--seeds", "0,1",
                       "--src", str(src))
    assert proc.returncode == 0, proc.stderr
    [line] = proc.stdout.splitlines()
    printed = json.loads(line)
    assert list(printed) == ["config", "T", "seeds", "wall_s", "import_s",
                             "peak_rss_mb"]
    assert printed["config"] == "config.json"
    assert (printed["T"], printed["seeds"]) == ("50", "0,1")
    assert min(printed["wall_s"], printed["import_s"],
               printed["peak_rss_mb"]) > 0
    assert not (tmp_path / "unused").exists()


def test_runs_the_named_tree_not_the_callers_aogd(tmp_path):
    tree = named_tree(tmp_path)
    proc = peak_memory(decoy_cwd(tmp_path), "--src", str(tree))
    assert proc.returncode == 0, proc.stderr
    assert (tree / "aogd" / "ran").exists()


@pytest.mark.parametrize("args,overrides,code,error", [
    pytest.param([], {"beta": 7.0}, 1, "error: beta must lie in (0, 1)",
                 id="config"),
    pytest.param(["--T", "fifty"], {}, 2, "invalid int value: 'fifty'",
                 id="argument"),
])
def test_failed_run_returns_the_childs_exit_code(tmp_path, args, overrides,
                                                 code, error):
    proc = peak_memory(tmp_path, *args, **overrides)
    assert proc.returncode == code
    assert proc.stdout == ""
    assert error in proc.stderr


def test_relative_dataset_is_read_from_the_callers_directory(tmp_path):
    (tmp_path / "data").mkdir()
    rows = [f"{'+1' if i % 3 else '-1'} 1:{i / 30:.4f} 2:{(i * 7) % 5 / 5:.4f}"
            for i in range(30)]
    (tmp_path / "data" / "x.libsvm").write_text("\n".join(rows) + "\n")
    proc = peak_memory(tmp_path, "--T", "20", problem={
        "kind": "elasticnet", "dataset": "data/x.libsvm", "rho": 1.0})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["peak_rss_mb"] > 0
