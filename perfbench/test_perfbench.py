"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import record_reference  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

TINY = {
    "elasticnet_cold": dict(size=60, T=40, checkpoints=4),
    "dsm_p16_cold": dict(size=4, T=60, checkpoints=4),
    "dsm_p8_sweep_warm": dict(size=3, T=60, checkpoints=4, seeds=2),
}
SEED = 3


def tiny(name):
    return replace(wl.WORKLOADS[name], **TINY[name])


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def references(tmp_path_factory):
    """Reference outcomes for the input seeds a minimal run visits."""
    out = {}
    for name in TINY:
        out[name] = {}
        for seed in range(SEED, SEED + run.MIN_SAMPLES):
            workdir = str(tmp_path_factory.mktemp(name))
            out[name][str(seed)] = record_reference.record(wl, tiny(name), seed,
                                                           workdir)
    return out


def bench(name, reference, trace, capsys):
    rc = run.main(["--workload", name, "--seed", str(SEED),
                   "--seconds", "0.1", "--trace", str(trace)],
                  table={name: tiny(name)}, reference=reference)
    assert rc == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_prints_every_metric(name, references, spec, capsys):
    assert name in {w["name"] for w in spec["workloads"]}
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = bench(name, references[name], trace, capsys)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0
        assert result["attempted"] >= run.MIN_SAMPLES
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in spec[key]}
        assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_layer_list_matches_benchmark_json(spec):
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.LAYER_METRICS


def test_run_rejects_corrupted_reference(references, capsys):
    name = "dsm_p16_cold"
    corrupted = json.loads(json.dumps(references[name]))
    for per_variant in corrupted.values():
        for per_seed in per_variant.values():
            for entry in per_seed.values():
                entry["loss_regret"] *= 1.0 + 1e-4
    result = bench(name, corrupted, 0, capsys)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]


def test_gate():
    out = wl.Outcome("fixed_ogd", 5, True, 12.5, -0.25, None, None)
    ref = {"fixed_ogd": {"5": out.record()}}
    assert wl.gate(out, ref)
    assert wl.gate(replace(out, loss_regret=12.5 * (1 + 1e-9)), ref)
    assert not wl.gate(replace(out, loss_regret=12.5 * (1 + 1e-4)), ref)
    assert not wl.gate(replace(out, constraint_cum=-0.26), ref)
    assert not wl.gate(replace(out, loss_ok=True), ref)
    assert not wl.gate(replace(out, ok=False), ref)
    assert not wl.gate(replace(out, seed=6), ref)
    assert not wl.gate(out, None)


def test_cold_cache_on_warm_workload_is_rejected(references, tmp_path):
    w = tiny("dsm_p16_cold")
    configs = wl.prepare(w, SEED, str(tmp_path))
    b = run.Bench(wl, replace(w, warm=True), str(tmp_path), configs,
                  references["dsm_p16_cold"])
    b.counters.install()
    try:
        b.sample(SEED)
    finally:
        b.counters.uninstall()
    assert b.failed == b.attempted == 1
    assert any("cache hits" in e for e in b.errors)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dsm_p16_cold",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
