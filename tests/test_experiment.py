import csv
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from aogd.cli import main
from aogd import learner, offline
from aogd.experiment import (ExperimentConfig, build_problem, build_schedule,
                             compare_runs, run_experiment)
from aogd.metrics import fit_rate_exponent
from aogd.problems import DsmProblem
from aogd.schedules import c3_ok
from step_recorder import recorded_rounds


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "problem": {"kind": "dsm", "p": 2},
        "algorithm": "a_ogd_convex",
        "beta": 2.0 / 3.0,
        "T": 50,
        "seeds": [42],
        "output_dir": str(tmp_path / "out"),
        "checkpoints": 8,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path), cfg


def write_elasticnet_dataset(tmp_path, n=30, d=3, seed=0):
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(n):
        label = "+1" if rng.uniform() > 0.5 else "-1"
        feats = " ".join(f"{j + 1}:{rng.normal():.4f}" for j in range(d))
        lines.append(f"{label} {feats}")
    path = tmp_path / "data.libsvm"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def cache_file(out):
    """The offline cache file of the output directory out."""
    return out / "offline_cache" / "solutions.bin"


def cache_header(out):
    """The JSON list of entries of out's cache file, the line below its
    seal."""
    return json.loads(cache_file(out).read_bytes().split(b"\n", 2)[1])


def cache_body(entries, rows):
    """The bytes below a cache file's seal line: the JSON list of entries,
    then their x_star rows."""
    return json.dumps(entries).encode() + b"\n" + rows


def cached(out, problem):
    """out's cached comparators by (seed, t), as a run of `problem` reads
    them."""
    return offline.load_solutions(str(cache_file(out)),
                                  offline.cache_key(problem))


def drop_cached(out, problem, *keys):
    """Rewrite out's cache file, by the cache's own writer, without the
    entries of keys, each a (seed, t)."""
    kept = {k: sol for k, sol in cached(out, problem).items()
            if k not in keys}
    assert len(kept) == len(cached(out, problem)) - len(keys)
    offline.store_solutions(str(cache_file(out)),
                            offline.cache_key(problem), kept)


def solving_with(monkeypatch, **changes):
    """Patch offline.solve_offline so that every solve returns its solution
    with `changes` made, for the cache's own writer to store."""
    solve = offline.solve_offline
    monkeypatch.setattr(offline, "solve_offline", lambda *args, **kwargs: (
        dataclasses.replace(solve(*args, **kwargs), **changes)))


class TestRunExperiment:
    def test_outputs_exist(self, tmp_path):
        _, cfg = write_config(tmp_path, seeds=[1, 2])
        manifest_path = run_experiment(cfg)
        out = tmp_path / "out"
        assert (out / "seed_1.csv").exists()
        assert (out / "seed_2.csv").exists()
        assert (out / "aggregate.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest_path == str(out / "manifest.json")
        assert manifest["status"] == "ok"
        assert manifest["conditions"]["c1_ok"] and manifest["conditions"]["c2_ok"]
        conditions = manifest["conditions"]
        assert conditions["c3_ok"] is True
        assert c3_ok(conditions["c3_slack"], conditions["u_eta"])
        assert not manifest["loss_bound_conservative"]
        assert manifest["compliance"]["1"]["loss_ok"]
        assert manifest["config"]["problem"] == {"kind": "dsm", "p": 2}

    def test_row_count_matches_checkpoints(self, tmp_path):
        _, cfg = write_config(tmp_path)
        run_experiment(cfg)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        rows = read_csv(tmp_path / "out" / "seed_42.csv")
        assert rows[0] == ["t", "loss_regret", "constraint_cum", "loss_bound",
                           "constraint_bound", "lambda", "step_eta", "step_theta"]
        assert len(rows) - 1 == len(manifest["checkpoints"])
        agg = read_csv(tmp_path / "out" / "aggregate.csv")
        assert len(agg) == len(rows)

    def test_deterministic_rerun(self, tmp_path):
        _, cfg = write_config(tmp_path, output_dir=str(tmp_path / "a"))
        run_experiment(cfg)
        cfg2 = dict(cfg, output_dir=str(tmp_path / "b"))
        run_experiment(cfg2)
        assert ((tmp_path / "a" / "seed_42.csv").read_bytes()
                == (tmp_path / "b" / "seed_42.csv").read_bytes())
        assert ((tmp_path / "a" / "aggregate.csv").read_bytes()
                == (tmp_path / "b" / "aggregate.csv").read_bytes())

    def test_single_seed_aggregate_equals_seed(self, tmp_path):
        _, cfg = write_config(tmp_path)
        run_experiment(cfg)
        seed_rows = read_csv(tmp_path / "out" / "seed_42.csv")[1:]
        agg_rows = read_csv(tmp_path / "out" / "aggregate.csv")[1:]
        for s, a in zip(seed_rows, agg_rows):
            assert abs(float(s[1]) - float(a[1])) <= 1e-12  # loss mean
            assert float(a[2]) == 0.0  # std over one seed
            assert abs(float(s[2]) - float(a[3])) <= 1e-12  # constraint mean

    def test_strongly_convex_requires_sigma(self, tmp_path):
        data = write_elasticnet_dataset(tmp_path)
        _, cfg = write_config(
            tmp_path,
            problem={"kind": "elasticnet", "dataset": data, "rho": 1.0},
            algorithm="a_ogd_strongly_convex", T=20)
        with pytest.raises(ValueError, match="sigma"):
            run_experiment(cfg)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert "sigma" in manifest["error"]

    def test_strongly_convex_u_eta_is_zero(self, tmp_path):
        # a zero budget is written as 0.0, not as the null of fixed_ogd
        _, cfg = write_config(tmp_path, algorithm="a_ogd_strongly_convex")
        run_experiment(cfg)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["conditions"]["u_eta"] == 0.0
        assert manifest["conditions"]["c3_ok"] is True

    def test_elasticnet_run(self, tmp_path):
        data = write_elasticnet_dataset(tmp_path)
        _, cfg = write_config(
            tmp_path,
            problem={"kind": "elasticnet", "dataset": data, "rho": 1.0},
            T=30, checkpoints=6)
        run_experiment(cfg)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["status"] == "ok"

    def test_fixed_baseline_has_nan_bounds(self, tmp_path):
        _, cfg = write_config(
            tmp_path, algorithm={"kind": "fixed_ogd", "eta": 0.05,
                                 "theta": 2.0, "mu": 0.05})
        run_experiment(cfg)
        rows = read_csv(tmp_path / "out" / "seed_42.csv")[1:]
        assert all(r[3] == "nan" and r[4] == "nan" for r in rows)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["algorithm"] == "fixed_ogd"
        assert manifest["compliance"]["42"] is None
        assert manifest["conditions"]["u_eta"] is None
        assert manifest["conditions"]["c3_ok"] is None

    def test_gamma_shift_recorded(self, tmp_path):
        _, cfg = write_config(tmp_path, gamma_shift={"c1": 1.0}, T=64)
        run_experiment(cfg)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["gamma"] == pytest.approx(64 ** (-1.0 / 3.0))
        assert "first_nonpositive_violation_t" in manifest

    def test_offline_solves_recorded(self, tmp_path, monkeypatch):
        _, cfg = write_config(tmp_path, seeds=[1, 2])
        run_experiment(cfg)
        out = tmp_path / "out"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["offline_converged"] is True
        assert set(manifest["offline"]) == {"1", "2"}
        for solves in manifest["offline"].values():
            assert [s["t"] for s in solves] == manifest["checkpoints"]
            # DSM's comparator is its closed form, S / t, certified with
            # no iteration
            assert all(s["tolerance_met"] and s["iterations"] == 0
                       and s["mapping_norm"] < 1e-8 for s in solves)

        # a cached solve that missed its tolerance fails the next run, and
        # no regret is written against it. The miss is stored by the
        # cache's writer, in the one run that solves seed 2 at t again
        t = manifest["checkpoints"][-1]
        drop_cached(out, cfg["problem"], (2, t))
        with monkeypatch.context() as m:
            solving_with(m, mapping_norm=1e-6)
            with pytest.raises(RuntimeError, match=f"seed 2 at t={t} missed"):
                run_experiment(cfg)
        solutions = cached(out, cfg["problem"])
        assert solutions[2, t].mapping_norm == 1e-6
        assert len(solutions) == 2 * len(manifest["checkpoints"])
        for csv_path in out.glob("*.csv"):
            csv_path.unlink()
        with pytest.raises(RuntimeError, match=f"seed 2 at t={t} missed"):
            run_experiment(cfg)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert f"seed 2 at t={t}" in manifest["error"]
        # every comparator is gated before any output: not even seed 1's CSV
        assert not list(out.glob("*.csv"))

    def test_cache_file_is_read_once_and_written_once(self, tmp_path,
                                                      monkeypatch):
        # a cold run reads the file once and writes it once; a warm run
        # reads it once and writes nothing. A file of the per-(seed, t)
        # format before the one file is never read
        calls = []

        def counted(name):
            f = getattr(offline, name)
            return lambda *args: calls.append(name) or f(*args)

        for name in ("load_solutions", "store_solutions"):
            monkeypatch.setattr(offline, name, counted(name))
        _, cfg = write_config(tmp_path, seeds=[1, 2])
        out = tmp_path / "out"
        old = out / "offline_cache" / "seed1_t1.json"
        old.parent.mkdir(parents=True)
        old.write_bytes(b"not a comparator")
        run_experiment(cfg)
        assert calls == ["load_solutions", "store_solutions"]
        assert sorted(p.name for p in old.parent.iterdir()) == [
            "seed1_t1.json", "solutions.bin"]
        assert old.read_bytes() == b"not a comparator"
        path = cache_file(out)
        written = path.stat().st_ino, path.stat().st_mtime_ns, path.read_bytes()
        calls.clear()
        run_experiment(cfg)
        assert calls == ["load_solutions"]
        assert (path.stat().st_ino, path.stat().st_mtime_ns,
                path.read_bytes()) == written

    def test_other_seeds_are_kept_in_the_cache_file(self, tmp_path,
                                                    monkeypatch):
        # a run solves only the seeds the file lacks, and rewrites it with
        # the entries of every seed it held
        solved = []
        solve = offline.solve_offline
        monkeypatch.setattr(offline, "solve_offline", lambda problem, t, j=0: (
            solved.append((j, t)) or solve(problem, t, j)))
        _, cfg = write_config(tmp_path, seeds=[0, 1])
        run_experiment(cfg)
        out = tmp_path / "out"
        checkpoints = json.loads((out / "manifest.json").read_text())["checkpoints"]
        assert solved == [(j, t) for j in (0, 1) for t in checkpoints]
        first = cached(out, cfg["problem"])
        solved.clear()
        _, cfg = write_config(tmp_path, seeds=[1, 2])
        run_experiment(cfg)
        # row 1 of this run is seed 2
        assert solved == [(1, t) for t in checkpoints]
        solutions = cached(out, cfg["problem"])
        assert solutions.keys() == {(s, t) for s in (0, 1, 2)
                                    for t in checkpoints}
        for k, sol in first.items():
            assert solutions[k].x_star.tobytes() == sol.x_star.tobytes()
            assert solutions[k].loss_sum == sol.loss_sum

    def test_cached_verdict_is_derived_from_the_mapping_norm(self, tmp_path,
                                                             monkeypatch):
        # a cache file stores no tolerance verdict: the one a cached
        # mapping norm of 0.5 gives when read back fails the run
        _, cfg = write_config(tmp_path, problem={"kind": "dsm", "p": 3},
                              seeds=[1])
        run_experiment(cfg)
        out = tmp_path / "out"
        drop_cached(out, cfg["problem"], (1, 50))
        with monkeypatch.context() as m:
            solving_with(m, mapping_norm=0.5)
            with pytest.raises(RuntimeError, match="seed 1 at t=50 missed"):
                run_experiment(cfg)
        # x_star follows the header as raw bytes
        assert {key for entry in cache_header(out) for key in entry} == {
            "seed", "t", "loss_sum", "iterations", "mapping_norm"}
        with pytest.raises(RuntimeError, match="seed 1 at t=50 missed"):
            run_experiment(cfg)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"

    def test_wrong_closed_form_fails_the_gate(self, tmp_path, monkeypatch):
        # a DSM prefix whose closed form is a point of the polytope other
        # than S / t (here the uniform matrix) misses its tolerance, and the
        # run fails before any CSV is written
        prefix_loss = DsmProblem.prefix_loss

        def off_optimum_prefix_loss(self, t, j=0):
            loss = prefix_loss(self, t, j)
            loss.minimizer = lambda: np.full(self.dim, 1.0 / self.p)
            return loss

        monkeypatch.setattr(DsmProblem, "prefix_loss", off_optimum_prefix_loss)
        problem = DsmProblem(2).materialize(5, [42])
        sol = offline.solve_offline(problem, 5)
        assert not sol.tolerance_met and sol.iterations == 0
        assert sol.mapping_norm > 1e-8

        _, cfg = write_config(tmp_path, seeds=[1, 2])
        with pytest.raises(RuntimeError, match="seed 1 at t=1 missed"):
            run_experiment(cfg)
        out = tmp_path / "out"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert "seed 1 at t=1 missed" in manifest["error"]
        assert not list(out.glob("*.csv"))

    def test_edited_dataset_is_resolved(self, tmp_path, monkeypatch):
        data = write_elasticnet_dataset(tmp_path)
        _, cfg = write_config(
            tmp_path, seeds=[3], T=40,
            problem={"kind": "elasticnet", "dataset": data, "rho": 0.5})
        solved = []
        solve = offline.solve_offline
        monkeypatch.setattr(offline, "solve_offline", lambda *args, **kwargs: (
            solved.append(args[1]) or solve(*args, **kwargs)))
        out = tmp_path / "out"

        run_experiment(cfg)
        checkpoints = json.loads((out / "manifest.json").read_text())["checkpoints"]
        assert solved == checkpoints
        run_experiment(cfg)  # the same bytes: all cached
        assert solved == checkpoints

        # the same path and size, one label flipped
        with open(data) as fh:
            text = fh.read()
        with open(data, "w") as fh:
            fh.write(("-" if text[0] == "+" else "+") + text[1:])
        run_experiment(cfg)
        assert solved == 2 * checkpoints
        problem = build_problem(ExperimentConfig(**cfg)).materialize(40, [3])
        t = checkpoints[-1]
        solutions = cached(out, cfg["problem"])
        assert solutions.keys() == {(3, c) for c in checkpoints}
        assert (solutions[3, t].x_star.tobytes()
                == solve(problem, t).x_star.tobytes())

    def test_long_dataset_path_is_cached_by_its_bytes(self, tmp_path,
                                                      monkeypatch):
        # the cache file is named by nothing of the run, never by the
        # dataset's path: a path longer than a file name can be still runs,
        # and caches
        deep = tmp_path
        while len(str(deep)) < 260:
            deep = deep / ("d" * 60)
        deep.mkdir(parents=True)
        data = write_elasticnet_dataset(deep)
        assert len(data) >= 260
        _, cfg = write_config(
            tmp_path, seeds=[3, 4], T=40,
            problem={"kind": "elasticnet", "dataset": data, "rho": 0.5})
        solved = []
        solve = offline.solve_offline
        monkeypatch.setattr(offline, "solve_offline", lambda *args, **kwargs: (
            solved.append(args[1]) or solve(*args, **kwargs)))
        out = tmp_path / "out"

        run_experiment(cfg)
        checkpoints = json.loads((out / "manifest.json").read_text())["checkpoints"]
        assert solved == 2 * checkpoints
        assert [p.name for p in (out / "offline_cache").iterdir()] == [
            "solutions.bin"]
        assert cached(out, cfg["problem"]).keys() == {
            (s, t) for s in (3, 4) for t in checkpoints}
        run_experiment(cfg)
        assert solved == 2 * checkpoints

        # the same bytes under another path are the same comparator
        moved = Path(data).rename(tmp_path / "moved.libsvm")
        cfg["problem"] = dict(cfg["problem"], dataset=str(moved))
        run_experiment(cfg)
        assert solved == 2 * checkpoints
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "ok"

    @pytest.mark.parametrize("corrupt", [
        lambda entries, rows: cache_body(entries, rows)[:12],
        lambda entries, rows: cache_body(
            [list(entries[0].values()), *entries[1:]], rows),
        lambda entries, rows: cache_body(
            [{k: v for k, v in entries[0].items() if k != "loss_sum"},
             *entries[1:]], rows),
        lambda entries, rows: cache_body(entries, rows[:-8]),
        lambda entries, rows: cache_body(entries, json.dumps(
            [np.frombuffer(rows).reshape(len(entries), -1).tolist()]).encode()),
        lambda entries, rows: cache_body(entries, b"[null, null, null, null]"),
        lambda entries, rows: cache_body(entries, b'["a", "a", "a", "a"]'),
        lambda entries, rows: cache_body(
            [dict(entries[0], iterations="many"), *entries[1:]], rows),
        lambda entries, rows: cache_body(
            [dict(entries[0], mapping_norm=None), *entries[1:]], rows),
        lambda entries, rows: cache_body(
            [dict(entries[0], loss_sum=None), *entries[1:]], rows),
        lambda entries, rows: cache_body(
            [dict(entries[0], loss_sum="0.5"), *entries[1:]], rows),
    ], ids=["truncated", "array", "missing_field", "short_x_star",
            "nested_x_star", "null_x_star", "text_x_star",
            "text_iterations", "null_mapping_norm",
            "null_loss_sum", "text_loss_sum"])
    def test_unreadable_cache_file_is_resolved(self, tmp_path, corrupt):
        # a cache file whose body, below the seal line a good file holds,
        # is not a JSON list of entries over their x_star rows, or is one
        # with a malformed field or row, is re-solved and overwritten, as
        # another run's file is
        cfg_path, _ = write_config(tmp_path, seeds=[0, 1])
        cold = tmp_path / "cold"
        assert main(["run", cfg_path, "--output", str(cold)]) == 0
        out = tmp_path / "out"
        path = cache_file(out)
        path.parent.mkdir(parents=True)
        seal, header, rows = cache_file(cold).read_bytes().split(b"\n", 2)
        entries = json.loads(header)
        assert entries[0]["seed"] == 0 and entries[0]["t"] == 1
        path.write_bytes(seal + b"\n" + corrupt(entries, rows))
        assert main(["run", cfg_path]) == 0
        manifests = [json.loads((d / "manifest.json").read_text())
                     for d in (cold, out)]
        assert manifests[1]["status"] == "ok"
        assert manifests[1]["offline"] == manifests[0]["offline"]
        for name in ("seed_0.csv", "seed_1.csv", "aggregate.csv"):
            assert (out / name).read_bytes() == (cold / name).read_bytes()
        assert path.read_bytes() == cache_file(cold).read_bytes()

    @pytest.mark.parametrize("edit", [
        # every loss_sum less 10, in place, with every other byte kept
        lambda data: re.sub(rb'"loss_sum": ([^,}]+)', lambda m: (
            b'"loss_sum": ' + repr(float(m[1]) - 10.0).encode()), data),
        # the body without the seal line
        lambda data: data.partition(b"\n")[2],
    ], ids=["value_edited_under_its_seal", "unsealed"])
    def test_edited_cache_file_is_resolved(self, tmp_path, edit):
        # a cache file is served only as its writer wrote it: the run over
        # an edited one rewrites the cold run's outputs, byte for byte
        _, cfg = write_config(tmp_path, problem={"kind": "dsm", "p": 3},
                              seeds=[1])
        run_experiment(cfg)
        out = tmp_path / "out"
        names = ("seed_1.csv", "aggregate.csv", "manifest.json")
        cold = {name: (out / name).read_bytes() for name in names}
        path = cache_file(out)
        written = path.read_bytes()
        path.write_bytes(edit(written))
        assert path.read_bytes() != written
        run_experiment(cfg)
        assert {name: (out / name).read_bytes() for name in names} == cold
        assert path.read_bytes() == written

    def test_violation_and_max_lambda_recorded(self, tmp_path):
        # elastic net has slack rounds (g < 0) that the signed sum nets out
        data = write_elasticnet_dataset(tmp_path)
        _, cfg = write_config(
            tmp_path, seeds=[3, 4], T=80,
            problem={"kind": "elasticnet", "dataset": data, "rho": 0.05},
            algorithm={"kind": "fixed_ogd", "eta": 0.5, "theta": 2.0, "mu": 0.05})
        run_experiment(cfg)
        config = ExperimentConfig(**cfg)
        out = tmp_path / "out"
        manifest = json.loads((out / "manifest.json").read_text())
        problem = build_problem(config)
        schedule = build_schedule(config, problem.constants)
        with recorded_rounds(problem) as rounds:
            learner.run(problem, schedule, config.T, [3, 4], [config.T])
        for j, seed in enumerate((3, 4)):
            g, lam = rounds.g[:, j], rounds.lam[:, j]
            clipped = manifest["violation_clipped"][str(seed)]
            assert clipped == pytest.approx(np.maximum(g, 0.0).sum(), rel=1e-12)
            k = int(np.argmax(lam))
            assert manifest["max_lambda"][str(seed)] == {"value": lam[k], "t": k + 1}
            signed = float(read_csv(out / f"seed_{seed}.csv")[-1][2])
            assert clipped > signed and clipped > 0.0

    def test_max_lambda_tie_at_zero_is_round_one(self, tmp_path):
        # a loose budget leaves every round slack, so lambda stays 0 and all
        # T rounds tie for the maximum; the first of them is reported
        data = write_elasticnet_dataset(tmp_path)
        _, cfg = write_config(
            tmp_path, seeds=[3], T=80,
            problem={"kind": "elasticnet", "dataset": data, "rho": 50.0})
        config = ExperimentConfig(**cfg)
        problem = build_problem(config)
        schedule = build_schedule(config, problem.constants)
        trace = learner.run(problem, schedule, config.T, [3],
                            range(1, config.T + 1))
        assert not np.any(trace.lam)
        assert (trace.lam_max[0], trace.lam_max_t[0]) == (0.0, 1)
        # the manifest copies these two values. On the loose ball a one- or
        # two-example log-loss is nearly flat; its comparators are certified
        # all the same, at prefix sums no larger than those of the solver
        # before the spectral one, which stopped at 5000 iterations without
        # meeting the tolerance at t = 1 and t = 2
        run_experiment(cfg)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert manifest["max_lambda"] == {"3": {"value": 0.0, "t": 1}}
        assert all(entry["tolerance_met"]
                   for entry in manifest["offline"]["3"])
        before = {1: 3.992970023070083e-08, 2: 1.1474059319384702e-05}
        for t, loss_sum in before.items():
            assert offline.solve_offline(problem, t).loss_sum <= loss_sum

    def test_negative_gamma_shift_rejected(self, tmp_path):
        _, cfg = write_config(tmp_path, gamma_shift={"c1": -1.0})
        with pytest.raises(ValueError, match="c1"):
            run_experiment(cfg)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert "c1" in manifest["error"]
        assert not (tmp_path / "out" / "seed_42.csv").exists()

    def test_gamma_shift_unknown_key_rejected(self, tmp_path):
        # a misspelt c1 would otherwise run silently with the default c1 = 1
        _, cfg = write_config(tmp_path, gamma_shift={"C1": 5.0})
        with pytest.raises(ValueError, match="only c1"):
            run_experiment(cfg)
        assert not list((tmp_path / "out").glob("seed_*.csv"))

    def test_gamma_shift_without_c1_rejected(self, tmp_path):
        # an empty gamma_shift would otherwise run silently with c1 = 1
        _, cfg = write_config(tmp_path, gamma_shift={})
        with pytest.raises(ValueError, match="c1"):
            run_experiment(cfg)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert "c1" in manifest["error"]
        assert not list((tmp_path / "out").glob("*.csv"))

    @pytest.mark.parametrize("c1", [float("nan"), float("inf")])
    def test_non_finite_gamma_shift_rejected(self, tmp_path, c1):
        _, cfg = write_config(tmp_path, gamma_shift={"c1": c1})
        with pytest.raises(ValueError, match="finite"):
            run_experiment(cfg)
        assert not list((tmp_path / "out").glob("seed_*.csv"))

    @pytest.mark.parametrize("beta", [0.0, 1.0, 7.0])
    @pytest.mark.parametrize("algorithm", [
        "a_ogd_convex",
        {"kind": "fixed_ogd", "eta": 0.05, "theta": 2.0, "mu": 0.05}])
    def test_beta_outside_unit_interval_rejected(self, tmp_path, algorithm, beta):
        # fixed_ogd ignores beta in its steps, but beta sets gamma = c1 T^(-beta/2)
        _, cfg = write_config(tmp_path, algorithm=algorithm, beta=beta,
                              gamma_shift={"c1": 1.0})
        with pytest.raises(ValueError, match="beta"):
            run_experiment(cfg)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert "beta" in manifest["error"]
        assert not list((tmp_path / "out").glob("seed_*.csv"))

    @pytest.mark.parametrize("overrides,message", [
        # a float p ran silently as int(p); float T and checkpoints failed
        # with a message that named no field
        pytest.param({"problem": {"kind": "dsm", "p": 2.5}},
                     "problem.p must be an integer", id="float_p"),
        pytest.param({"T": 5e1}, "T must be an integer", id="float_T"),
        pytest.param({"T": True}, "T must be an integer", id="bool_T"),
        pytest.param({"checkpoints": 8.0}, "checkpoints must be an integer",
                     id="float_checkpoints"),
        pytest.param({"seeds": [1, 2.0]}, "seeds must be an integer",
                     id="float_seed"),
        # fixed_ogd takes kind, eta, theta and mu and only those
        pytest.param({"algorithm": {"kind": "fixed_ogd", "eta": 0.05,
                                    "mu": 0.05}},
                     "missing ['theta']", id="fixed_ogd_without_theta"),
        pytest.param({"algorithm": {"kind": "fixed_ogd", "eta": 0.05,
                                    "theta": 2.0, "mu": 0.05, "m": 1}},
                     "unknown ['m']", id="fixed_ogd_extra_key"),
        # a missing p failed with a bare KeyError; a stray key ran silently
        # and still entered the cache key
        pytest.param({"problem": {"kind": "dsm"}}, "missing ['p']",
                     id="dsm_without_p"),
        pytest.param({"problem": {"kind": "dsm", "p": 2, "rho": 3}},
                     "unknown ['rho']", id="dsm_extra_key"),
        # the elastic-net specs name a dataset that does not exist: the
        # config's check runs before build_problem reads it, so the field
        # is what fails
        pytest.param({"problem": {"kind": "elasticnet", "dataset": "none",
                                  "rho": 1.0, "p": 2}},
                     "unknown ['p']", id="elasticnet_extra_key"),
        pytest.param({"problem": {"kind": "elasticnet", "dataset": "none",
                                  "rho": "1.0"}},
                     "problem.rho must be a number", id="string_rho"),
        pytest.param({"problem": {"kind": "elasticnet", "dataset": "none",
                                  "rho": True}},
                     "problem.rho must be a number", id="bool_rho"),
        pytest.param({"problem": {"kind": "elasticnet", "dataset": "none",
                                  "rho": 1.0, "max_rows": 20.5}},
                     "problem.max_rows must be null or an integer",
                     id="float_max_rows"),
        pytest.param({"problem": "dsm"}, "problem must be an object",
                     id="string_problem"),
        # strings went through float() or failed with a TypeError that
        # named no field
        pytest.param({"beta": "0.5"}, "beta must be a number",
                     id="string_beta"),
        pytest.param({"algorithm": {"kind": "fixed_ogd", "eta": "0.05",
                                    "theta": 2.0, "mu": 0.05}},
                     "algorithm.eta must be a number", id="string_eta"),
        pytest.param({"gamma_shift": {"c1": "1.0"}},
                     "gamma_shift.c1 must be a number", id="string_c1"),
        pytest.param({"gamma_shift": {"c1": None}},
                     "gamma_shift.c1 must be a number", id="null_c1"),
        pytest.param({"seeds": 3}, "seeds must be a list", id="int_seeds"),
        # numpy rejected these deep inside the run, naming no field
        pytest.param({"seeds": [-1]}, "seeds must be one or more integers >= 0",
                     id="negative_seed"),
        pytest.param({"checkpoints": 0}, "checkpoints must be >= 1",
                     id="zero_checkpoints"),
    ])
    def test_malformed_field_rejected(self, tmp_path, overrides, message):
        _, cfg = write_config(tmp_path, **overrides)
        with pytest.raises(ValueError, match=re.escape(message)):
            run_experiment(cfg)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert message in manifest["error"]
        assert not list((tmp_path / "out").glob("*.csv"))

    def test_duplicate_seeds_rejected(self, tmp_path):
        # a repeated seed would count twice in aggregate.csv's means
        _, cfg = write_config(tmp_path, seeds=[1, 1, 2])
        with pytest.raises(ValueError, match="distinct"):
            run_experiment(cfg)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert "distinct" in manifest["error"]
        assert not list((tmp_path / "out").glob("seed_*.csv"))

    def test_rates_and_finals_read_aggregate_means(self, tmp_path):
        # with 9 seeds a different summation order would show in the last bits
        _, cfg = write_config(tmp_path, seeds=list(range(9)))
        run_experiment(cfg)
        out = tmp_path / "out"
        manifest = json.loads((out / "manifest.json").read_text())
        header, *rows = read_csv(out / "aggregate.csv")
        cols = {name: [float(r[i]) for r in rows] for i, name in enumerate(header)}
        rates = manifest["rate_exponents"]
        for name, column in (("loss_measured_pos", "loss_regret_mean"),
                             ("constraint_measured_pos", "constraint_cum_mean")):
            assert rates[name] == fit_rate_exponent(cols["t"], cols[column])
        assert manifest["final_loss_regret_mean"] == cols["loss_regret_mean"][-1]
        assert manifest["final_constraint_cum_mean"] == cols["constraint_cum_mean"][-1]


class TestBuildSchedule:
    @pytest.mark.parametrize("algorithm", [
        "a_ogd", "fixed_ogd", ["a_ogd_convex"], {"kind": "a_ogd_convex"},
        {"eta": 0.1}])
    def test_unknown_algorithm_rejected(self, tmp_path, algorithm):
        _, cfg = write_config(tmp_path, algorithm=algorithm)
        if not isinstance(algorithm, str):
            # a checked config holds a string or a fixed_ogd object
            with pytest.raises(ValueError, match="algorithm must be a string "
                               "or an object of kind fixed_ogd"):
                ExperimentConfig(**cfg)
            return
        config = ExperimentConfig(**cfg)
        with pytest.raises(ValueError, match="unknown algorithm"):
            build_schedule(config, build_problem(config).constants)


class TestCompareRuns:
    def test_table_and_files(self, tmp_path):
        _, cfg_a = write_config(tmp_path, output_dir=str(tmp_path / "a"))
        m_a = run_experiment(cfg_a)
        _, cfg_b = write_config(
            tmp_path, output_dir=str(tmp_path / "b"),
            algorithm={"kind": "fixed_ogd", "eta": 0.05, "theta": 2.0, "mu": 0.05})
        m_b = run_experiment(cfg_b)
        out = str(tmp_path / "table.csv")
        rows = compare_runs([m_a, m_b], output_path=out)
        assert [r["algorithm"] for r in rows] == ["a_ogd_convex", "fixed_ogd"]
        assert (tmp_path / "table.csv").exists()
        assert (tmp_path / "table.txt").exists()
        table = read_csv(out)
        assert table[0][0] == "algorithm" and len(table) == 3

    def test_rejects_mismatched_problems(self, tmp_path):
        _, cfg_a = write_config(tmp_path, output_dir=str(tmp_path / "a"))
        m_a = run_experiment(cfg_a)
        _, cfg_b = write_config(tmp_path, output_dir=str(tmp_path / "b"),
                                problem={"kind": "dsm", "p": 3})
        m_b = run_experiment(cfg_b)
        with pytest.raises(ValueError):
            compare_runs([m_a, m_b])

    def test_rejects_failed_run(self, tmp_path):
        _, cfg_a = write_config(tmp_path, output_dir=str(tmp_path / "a"))
        m_a = run_experiment(cfg_a)
        _, cfg_b = write_config(tmp_path, output_dir=str(tmp_path / "b"),
                                gamma_shift={"c1": -1.0})
        with pytest.raises(ValueError):
            run_experiment(cfg_b)
        m_b = str(tmp_path / "b" / "manifest.json")
        # a failed manifest has no algorithm or finals to tabulate
        with pytest.raises(ValueError, match="status 'failed'") as info:
            compare_runs([m_a, m_b])
        assert m_b in str(info.value)
        assert "gamma_shift.c1 must be finite and nonnegative" in str(info.value)


class TestCli:
    def test_run_verb(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path)
        assert main(["run", cfg_path]) == 0
        printed = capsys.readouterr().out.strip()
        assert printed.endswith("manifest.json")
        assert json.loads((tmp_path / "out" / "manifest.json").read_text())["status"] == "ok"

    def test_run_overrides(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        out = str(tmp_path / "other")
        assert main(["run", cfg_path, "--output", out, "--T", "20",
                     "--seeds", "5,6"]) == 0
        manifest = json.loads((tmp_path / "other" / "manifest.json").read_text())
        assert manifest["config"]["T"] == 20
        assert manifest["config"]["seeds"] == [5, 6]
        assert (tmp_path / "other" / "seed_5.csv").exists()
        assert (tmp_path / "other" / "seed_6.csv").exists()

    def test_check_schedule_verb(self, capsys):
        assert main(["check-schedule", "--beta", "0.6666666666666666",
                     "--R", "1", "--G", "1", "--D", "1", "--T", "1000"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["c1_ok"] and out["c2_ok"] and out["c3_ok"]
        assert out["loss_regret_bound"] == pytest.approx(
            1.25 * 1000 ** (2 / 3) + 6 * 1000 ** (1 / 3))

    def test_check_schedule_strongly_convex_needs_sigma(self, capsys):
        # the regime comes from --regime alone; sigma = 0 is an error, not a
        # silent fall back to the convex schedules
        assert main(["check-schedule", "--beta", "0.5", "--R", "1", "--G", "1",
                     "--D", "1", "--T", "100", "--regime", "strongly_convex",
                     "--sigma", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "sigma" in captured.err

    @pytest.mark.parametrize("name,value", [
        ("R", "inf"), ("G", "inf"), ("D", "inf"), ("F", "inf"),
        ("sigma", "inf"), ("sigma", "-inf")])
    def test_check_schedule_rejects_infinite_constant(self, capsys, name,
                                                      value):
        # an infinite constant would print a bound of Infinity, which is not
        # JSON, or a C3 verdict on a slack of -Infinity
        args = {"beta": "0.5", "R": "1", "G": "2", "D": "3", "T": "10",
                name: value}
        assert main(["check-schedule",
                     *(f"--{k}={v}" for k, v in args.items())]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.endswith(f" and finite, got {name}={value}\n")

    @pytest.mark.parametrize("args,message", [
        (["--R=1e300", "--G=1e300", "--D=1e300", "--F=1e300"],
         "sequence entries must be positive and finite, got theta_t=inf at "
         "round t=1"),
        (["--R=1", "--G=1", "--D=1e300"], "loss_regret_bound is not finite"),
        (["--R=1", "--G=1", "--D=1", "--F=1e308"],
         "constraint_regret_bound is not finite"),
    ], ids=["theta", "loss_bound", "constraint_bound"])
    def test_check_schedule_rejects_overflow(self, capsys, args, message):
        # finite constants whose schedule or bound overflows: no Infinity,
        # which is not JSON, and no unnamed OverflowError
        assert main(["check-schedule", "--beta=0.5", "--T=10", *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_compare_verb(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path)
        main(["run", cfg_path])
        capsys.readouterr()
        manifest = str(tmp_path / "out" / "manifest.json")
        assert main(["compare", manifest, manifest]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["algorithm"] == "a_ogd_convex"

    def test_compare_rejects_output_that_is_its_own_table(self, tmp_path,
                                                          capsys):
        # the text table goes to the output path with a .txt extension: a
        # .txt output would be overwritten by its own table
        cfg_path, _ = write_config(tmp_path)
        main(["run", cfg_path])
        capsys.readouterr()
        manifest = str(tmp_path / "out" / "manifest.json")
        table = tmp_path / "table.txt"
        assert main(["compare", manifest, manifest,
                     "--output", str(table)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and str(table) in captured.err
        assert not table.exists()

    def test_compare_rejects_manifest_that_is_not_an_object(self, tmp_path,
                                                            capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text("[1]")
        assert main(["compare", str(manifest)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: manifest {manifest} must hold a JSON "
                                f"object, not a list\n")

    @pytest.mark.parametrize("edit,key", [
        (lambda m: {"status": "ok"}, "config.problem"),
        (lambda m: dict(m, config={k: v for k, v in m["config"].items()
                                   if k != "beta"}), "config.beta"),
        (lambda m: {k: v for k, v in m.items() if k != "rate_exponents"},
         "rate_exponents"),
    ], ids=["only_status", "no_beta", "no_rate_exponents"])
    def test_compare_rejects_manifest_without_a_compared_key(
            self, tmp_path, capsys, edit, key):
        cfg_path, _ = write_config(tmp_path)
        main(["run", cfg_path])
        capsys.readouterr()
        good = tmp_path / "out" / "manifest.json"
        manifest = tmp_path / "edited.json"
        manifest.write_text(json.dumps(edit(json.loads(good.read_text()))))
        assert main(["compare", str(good), str(manifest)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: manifest {manifest} lacks the key "
                                f"{key}\n")

    @pytest.mark.parametrize("key,value,what", [
        ("config.problem", "dsm", "an object"),
        ("config.T", 50.0, "an integer"),
        ("config.beta", "0.5", "a number"),
        ("algorithm", 7, "a string"),
        ("final_loss_regret_mean", "abc", "a number"),
        ("final_constraint_cum_mean", float("nan"), "a finite number"),
        ("rate_exponents", [1], "an object"),
        ("rate_exponents.loss_bound", "abc", "a number"),
        ("rate_exponents.loss_bound", None, "a number"),
        ("rate_exponents.constraint_bound", float("inf"), "a finite number"),
    ])
    def test_compare_rejects_manifest_value_of_a_wrong_type(
            self, tmp_path, capsys, key, value, what):
        # a list of rate exponents failed with "'list' object has no
        # attribute 'get'", and a text final or exponent was printed in the
        # table
        cfg_path, _ = write_config(tmp_path)
        main(["run", cfg_path])
        capsys.readouterr()
        good = tmp_path / "out" / "manifest.json"
        edited = json.loads(good.read_text())
        section, _, name = key.rpartition(".")
        (edited[section] if section else edited)[name] = value
        manifest = tmp_path / "edited.json"
        manifest.write_text(json.dumps(edited))
        assert main(["compare", str(good), str(manifest)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {key} of manifest {manifest} must be "
                                f"{what}, got {value!r}\n")

    def test_solve_offline_verb(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path)
        assert main(["solve-offline", cfg_path, "--t", "10", "--seed", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["tolerance_met"]
        x = np.array(out["x_star"]).reshape(2, 2)
        np.testing.assert_allclose(x.sum(axis=0), [1, 1], atol=1e-6)
        np.testing.assert_allclose(x.sum(axis=1), [1, 1], atol=1e-6)

    def test_solve_offline_matches_run_cache(self, tmp_path, capsys):
        # both verbs build the problem without a seed and pass it to
        # materialize, `run` over T rounds and `solve-offline` over max(t, T)
        cfg_path, cfg = write_config(tmp_path, seeds=[3, 5])
        assert main(["run", cfg_path]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        checkpoints = json.loads((out / "manifest.json").read_text())["checkpoints"]
        solutions = cached(out, cfg["problem"])
        solved = {3: [], 5: []}
        for seed, x_stars in solved.items():
            for t in (checkpoints[1], checkpoints[-1]):
                assert main(["solve-offline", cfg_path, "--t", str(t),
                             "--seed", str(seed)]) == 0
                x_stars.append(json.loads(capsys.readouterr().out)["x_star"])
                assert x_stars[-1] == solutions[seed, t].x_star.tolist()
        assert solved[3] != solved[5]

    @pytest.mark.parametrize("spec,argv,field", [
        pytest.param({"kind": "dsm", "p": 2, "rho": 3.0}, [], "rho",
                     id="dsm_extra_key"),
        pytest.param({"kind": "elasticnet", "rho": 1.0, "max_rows": 20.5}, [],
                     "max_rows", id="float_max_rows"),
        pytest.param({"kind": "dsm", "p": 2}, ["--seed", "-1"], "seeds",
                     id="negative_seed"),
    ])
    def test_solve_offline_validates_config(self, tmp_path, capsys, spec,
                                            argv, field):
        if spec["kind"] == "elasticnet":
            spec["dataset"] = write_elasticnet_dataset(tmp_path)
        cfg_path, _ = write_config(tmp_path, problem=spec)
        assert main(["solve-offline", cfg_path, "--t", "10", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and field in captured.err

    @pytest.mark.parametrize("text,shown", [("NaN", "nan"), ("Infinity", "inf"),
                                            ("-Infinity", "-inf")])
    @pytest.mark.parametrize("field", ["eta", "theta", "mu", "rho"])
    def test_run_rejects_non_finite_number(self, tmp_path, capsys, field,
                                           text, shown):
        # json reads NaN and +-Infinity as floats: theta NaN ran to status
        # ok with lambda 0 in every round, and the others failed later
        # with messages that named no field
        algorithm = {"kind": "fixed_ogd", "eta": 0.05, "theta": 2.0, "mu": 0.05}
        problem = {"kind": "elasticnet", "rho": 1.0,
                   "dataset": write_elasticnet_dataset(tmp_path)}
        section, name = ((problem, "problem.") if field == "rho"
                         else (algorithm, "algorithm."))
        section[field] = float(text)
        cfg_path, _ = write_config(tmp_path, problem=problem,
                                   algorithm=algorithm)
        assert f": {text}" in Path(cfg_path).read_text()
        assert main(["run", cfg_path]) == 1
        message = f"{name}{field} must be a finite number, got {shown}"
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["status"] == "failed" and manifest["error"] == message
        assert not list((tmp_path / "out").glob("*.csv"))

    @pytest.mark.parametrize("field", ["beta", "problem.rho", "algorithm.eta",
                                       "algorithm.theta", "algorithm.mu",
                                       "gamma_shift.c1"])
    def test_run_rejects_integer_past_the_largest_float(self, tmp_path,
                                                         capsys, field):
        # such an integer failed with "int too large to convert to float",
        # which names no field
        huge = 10 ** 400
        cfg_path, cfg = write_config(
            tmp_path, gamma_shift={"c1": 1.0},
            problem={"kind": "elasticnet", "rho": 1.0,
                     "dataset": write_elasticnet_dataset(tmp_path)},
            algorithm={"kind": "fixed_ogd", "eta": 0.05, "theta": 2.0,
                       "mu": 0.05})
        section, _, name = field.rpartition(".")
        (cfg[section] if section else cfg)[name] = huge
        Path(cfg_path).write_text(json.dumps(cfg))
        assert main(["run", cfg_path]) == 1
        message = f"{field} must be a finite number, got {huge}"
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["status"] == "failed" and manifest["error"] == message

    @pytest.mark.parametrize("field", ["T", "checkpoints", "problem.p"])
    def test_run_rejects_integer_past_int64(self, tmp_path, capsys, field):
        # numpy failed on these deep inside the run, naming no field; only
        # values past int64 are tried, since one that fits would be allocated
        huge = 10 ** 30
        cfg_path, cfg = write_config(tmp_path)
        section, _, name = field.rpartition(".")
        (cfg[section] if section else cfg)[name] = huge
        Path(cfg_path).write_text(json.dumps(cfg))
        assert main(["run", cfg_path]) == 1
        message = f"{field} must be at most 2**63 - 1, got {huge}"
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["status"] == "failed" and manifest["error"] == message

    def test_run_takes_a_seed_past_int64(self, tmp_path):
        # a seed only seeds a generator, which takes an integer of any size
        cfg_path, _ = write_config(tmp_path, seeds=[10 ** 30])
        assert main(["run", cfg_path]) == 0
        assert (tmp_path / "out" / f"seed_{10 ** 30}.csv").exists()

    def test_run_rejects_beta_outside_unit_interval(self, tmp_path, capsys):
        cfg_path, _ = write_config(
            tmp_path, gamma_shift={"c1": 1.0},
            algorithm={"kind": "fixed_ogd", "eta": 0.05, "theta": 2.0, "mu": 0.05})
        assert main(["run", cfg_path, "--beta", "7.0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "beta" in captured.err
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["status"] == "failed"

    def test_run_rejects_config_that_is_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[]")
        assert main(["run", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: config {path} must hold a JSON object, not a list\n")

    def test_run_rejects_malformed_seeds(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path)
        assert main(["run", cfg_path, "--seeds", "1,,2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: --seeds must be comma-separated "
                                "integers, got '1,,2'\n")
        assert not (tmp_path / "out").exists()

    def test_run_rejects_repeated_seeds(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path)
        assert main(["run", cfg_path, "--seeds", "1,1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "distinct" in captured.err
        assert not (tmp_path / "out" / "seed_1.csv").exists()

    @pytest.mark.parametrize("edit,flag,words,out", [
        pytest.param(lambda cfg: cfg.update(chekpoints=cfg.pop("checkpoints")),
                     False, "missing [], unknown ['chekpoints']", "out",
                     id="misspelt_key"),
        pytest.param(lambda cfg: cfg.pop("beta"), False,
                     "missing ['beta'], unknown []", "out", id="missing_key"),
        pytest.param(lambda cfg: (cfg.pop("beta"), cfg.pop("output_dir")),
                     True, "missing ['beta'], unknown []", "flag_out",
                     id="output_flag"),
        pytest.param(lambda cfg: cfg.pop("output_dir"), False,
                     "missing ['output_dir'], unknown []", None,
                     id="no_output_dir"),
        pytest.param(lambda cfg: cfg.update(output_dir=7, chekpoints=3),
                     False, "missing [], unknown ['chekpoints']", None,
                     id="output_dir_not_a_string"),
    ])
    def test_run_rejects_config_keys(self, tmp_path, capsys, edit, flag,
                                     words, out):
        # checked against the key set before the config object is built; a
        # usable output directory, from the config or --output, gets a
        # failed manifest with the error and the config as read
        cfg_path, cfg = write_config(tmp_path)
        edit(cfg)
        Path(cfg_path).write_text(json.dumps(cfg))
        argv = ["--output", str(tmp_path / "flag_out")] if flag else []
        assert main(["run", cfg_path, *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: config takes only problem, ")
        assert words in captured.err
        if out is None:
            assert not list(tmp_path.rglob("manifest.json"))
            return
        manifest = json.loads((tmp_path / out / "manifest.json").read_text())
        assert manifest == {
            "status": "failed", "error": captured.err[len("error: "):-1],
            "config": dict(cfg, output_dir=str(tmp_path / out))}

    @pytest.mark.parametrize("overrides,echo", [
        pytest.param({"chekpoints": 8}, "read", id="key_set"),
        pytest.param({"beta": "0.5"}, "read", id="type"),
        pytest.param({"beta": 7.0}, "read", id="range"),
        pytest.param({"problem": {"kind": "elasticnet", "rho": 1.0,
                                  "dataset": "missing.libsvm"}},
                     "checked", id="later_failure"),
        pytest.param({"output_dir": ""}, None, id="unusable_output_dir"),
    ])
    def test_failed_manifest_echo(self, tmp_path, capsys, monkeypatch,
                                  overrides, echo):
        # one rule for every stage: a failed manifest echoes the config as
        # read until it passes its check, and the checked config, defaults
        # filled in, after; with no usable output_dir there is none
        monkeypatch.chdir(tmp_path)
        cfg_path, cfg = write_config(tmp_path)
        del cfg["checkpoints"]  # so that a checked echo differs from the read
        cfg.update(overrides)
        Path(cfg_path).write_text(json.dumps(cfg))
        assert main(["run", cfg_path]) == 1
        error = capsys.readouterr().err[len("error: "):-1]
        if echo is None:
            assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]
            return
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest == {"status": "failed", "error": error, "config": (
            cfg if echo == "read"
            else dict(cfg, checkpoints=20, gamma_shift=None))}

    @pytest.mark.parametrize("output_dir,error", [
        (5, "output_dir must be a string, got 5"),
        (None, "output_dir must be a string, got None"),
        (["a"], "output_dir must be a string, got ['a']"),
        ("", "output_dir must not be the empty string"),
    ], ids=["int", "null", "list", "empty"])
    def test_run_rejects_unusable_output_dir(self, tmp_path, capsys,
                                             output_dir, error):
        # with the key set right, the directory is checked before anything
        # is written: there is nowhere to put a failed manifest
        cfg_path, _ = write_config(tmp_path, output_dir=output_dir)
        assert main(["run", cfg_path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {error}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_error_exit_code(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "missing.json")]) == 1
        assert "error:" in capsys.readouterr().err
