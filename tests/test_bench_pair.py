"""The paired benchmark summary of `tools/bench_pair.py` on fixed numbers."""

import argparse
import importlib.util
from pathlib import Path

import pytest

BENCH_PAIR_PY = Path(__file__).resolve().parents[1] / "tools" / "bench_pair.py"


def load_bench_pair():
    spec = importlib.util.spec_from_file_location("bench_pair", BENCH_PAIR_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(run_s, rss, attempted=10, failed=0, correct=True):
    """A result line of perfbench/run.py with the given metric values."""
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"run_s": {"value": run_s, "unit": "s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def test_summary_of_fixed_numbers():
    bench_pair = load_bench_pair()
    parent = [result(0.1 * k, 40.0) for k in range(1, 11)]
    change = [result(0.1 * k - 0.05, 40.0 + (k % 2)) for k in range(1, 11)]
    change[3] = result(0.35, 41.0, attempted=12, failed=1, correct=False)
    summary = bench_pair.summarize_workload(
        {"parent": parent, "change": change}, ["run_s", "peak_rss_mb"])

    want = [round(0.1 * k, 6) for k in range(1, 11)]
    # exclusive quartiles of 10 values sit at ranks 2.75 and 8.25
    assert summary["parent"] == {
        "attempted": 100, "failed": 0, "correct": True,
        "run_s": {"median": 0.55, "q1": 0.275, "q3": 0.825, "per_seed": want},
        "peak_rss_mb": {"median": 40.0, "q1": 40.0, "q3": 40.0,
                        "per_seed": [40.0] * 10}}
    assert (summary["change"]["attempted"], summary["change"]["failed"],
            summary["change"]["correct"]) == (102, 1, False)
    assert summary["change"]["run_s"]["per_seed"][3] == 0.35
    # seed 4 reads 0.35 against the parent's 0.4; every other seed 0.05
    # lower; the memory ties at even k, and is higher at odd k
    assert summary["run_s_change_lower_pairs"] == "10/10"
    assert summary["peak_rss_mb_change_lower_pairs"] == "0/10"


def test_traced_summary_and_run_order():
    bench_pair = load_bench_pair()
    runs = [{"correct": True, "metrics": {"learner.step.s": {"value": v}}}
            for v in (0.03, 0.01, 0.02)]
    assert bench_pair.summarize_traced(runs, ["learner.step.s"]) == {
        "correct": True,
        "learner.step.s": {"median": 0.02, "per_run": [0.03, 0.01, 0.02]}}
    assert bench_pair.sides_in_order(11) == ("parent", "change")
    assert bench_pair.sides_in_order(12) == ("change", "parent")


def test_traced_needs_workload_and_seed():
    bench_pair = load_bench_pair()
    assert bench_pair.parse_traced("dsm_p16_cold:11") == ("dsm_p16_cold", 11)
    with pytest.raises(argparse.ArgumentTypeError):
        bench_pair.parse_traced("dsm_p16_cold")
