"""Workload definitions, input generation, one timed `aogd run` call and the
correctness gate.

A workload is a list of `aogd run` calls (one per algorithm variant) over
inputs made from the workload seed. One operation is one (variant, problem
seed) pair: the unit the correctness gate accepts or rejects.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import time
from dataclasses import asdict, dataclass

import numpy as np

import aogd.cli
from aogd import offline

# reference.json holds the outcome of every operation for input seeds
# 0..REFERENCE_SEEDS-1; a --seed is reduced modulo this count.
REFERENCE_SEEDS = 32
BETA = 2.0 / 3.0
EN_FEATURES = 20
# The dataset of acceptance criterion 9; the input seed sets the stream.
EN_DATASET_SEED = 7
# Loose enough that reordered float sums still pass, tight enough that any
# change to the learner, the comparator or the accounting shows.
REL_TOL = 1e-6
ABS_TOL = 1e-9

VARIANTS = {
    "a_ogd_convex": {"algorithm": "a_ogd_convex"},
    "a_ogd_strongly_convex": {"algorithm": "a_ogd_strongly_convex"},
    # fixed-step baseline of Mahdavi, Jin & Yang (JMLR 2012)
    "fixed_ogd": {"algorithm": {"kind": "fixed_ogd", "eta": 0.05,
                                "theta": 2.0, "mu": 0.05}},
    "a_ogd_convex_gamma_shift": {"algorithm": "a_ogd_convex",
                                 "gamma_shift": {"c1": 1.0}},
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "elasticnet" or "dsm"
    size: int            # dataset rows (elasticnet) or matrix side p (dsm)
    T: int
    checkpoints: int
    seeds: int           # problem seeds per `aogd run` call
    variants: tuple[str, ...]
    warm: bool           # offline cache filled during set-up

    def problem_seeds(self, input_seed: int) -> list[int]:
        return [input_seed * self.seeds + i for i in range(self.seeds)]


WORKLOADS = {w.name: w for w in (
    Workload("elasticnet_cold", "elasticnet", 500, 200, 8, 1,
             ("a_ogd_convex",), False),
    Workload("dsm_p16_cold", "dsm", 16, 2000, 20, 1,
             ("a_ogd_convex",), False),
    Workload("dsm_p8_sweep_warm", "dsm", 8, 1000, 20, 4,
             tuple(VARIANTS), True),
)}


def write_synthetic_libsvm(path: str, seed: int, n: int, d: int = EN_FEATURES):
    """The synthetic generator of acceptance criterion 9: a sparse linear
    separator (6 of d weights nonzero) with label noise."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=d)
    w[6:] = 0.0
    U = rng.normal(size=(n, d)) * 0.3
    y = np.where(U @ w + 0.1 * rng.normal(size=n) > 0, 1, -1)
    with open(path, "w") as fh:
        for i, yi in enumerate(y):
            fh.write(("+1 " if yi > 0 else "-1 ")
                     + " ".join(f"{j + 1}:{U[i, j]:.6f}" for j in range(d))
                     + "\n")


def prepare(w: Workload, input_seed: int, workdir: str) -> list[tuple[str, str]]:
    """Write the dataset and one config per variant; for a warm workload
    also fill the offline cache by one `aogd run`. Returns (variant,
    config path) pairs. Every config writes to `<workdir>/out`."""
    os.makedirs(workdir, exist_ok=True)
    if w.kind == "elasticnet":
        dataset = os.path.join(workdir, "data.libsvm")
        write_synthetic_libsvm(dataset, EN_DATASET_SEED, w.size)
        problem = {"kind": "elasticnet", "dataset": dataset, "rho": 1.0}
    else:
        problem = {"kind": "dsm", "p": w.size}
    configs = []
    for variant in w.variants:
        cfg = {"problem": problem, "beta": BETA, "T": w.T,
               "seeds": w.problem_seeds(input_seed),
               "output_dir": os.path.join(workdir, "out"),
               "checkpoints": w.checkpoints, **VARIANTS[variant]}
        path = os.path.join(workdir, f"{variant}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        configs.append((variant, path))
    if w.warm:
        rc, _, err = call_aogd_run(configs[0][1])
        if rc != 0:
            raise RuntimeError(f"filling the offline cache failed: {err}")
    return configs


def call_aogd_run(config_path: str, wrap=None) -> tuple[int, float, str]:
    """One in-process `aogd run`; returns (exit code, wall seconds, stderr).

    `wrap`, if given, is called with the thunk and must call it once; the
    traced run passes the tracer's root span here.
    """
    out, err = io.StringIO(), io.StringIO()
    argv = ["run", config_path]
    thunk = (lambda: aogd.cli.main(argv))
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = wrap(thunk) if wrap else thunk()
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) and exc.code else 2
        seconds = time.perf_counter() - t0
    return rc, seconds, err.getvalue()


class SolveCounters:
    """Counts offline solves from outside, where `experiment` and
    `solve_offline_cached` look the functions up. Installed for the whole
    process, traced or not, so that both runs execute the same code."""

    def __init__(self):
        self.solutions = []   # every OfflineSolution returned to experiment
        self.solves = 0       # cache misses: calls into solve_offline
        self._orig = None

    def install(self):
        self._orig = (offline.solve_offline_cached, offline.solve_offline)
        cached, solve = self._orig

        def solve_offline_cached(*args, **kwargs):
            sol = cached(*args, **kwargs)
            self.solutions.append(sol)
            return sol

        def solve_offline(*args, **kwargs):
            self.solves += 1
            return solve(*args, **kwargs)

        offline.solve_offline_cached = solve_offline_cached
        offline.solve_offline = solve_offline

    def uninstall(self):
        offline.solve_offline_cached, offline.solve_offline = self._orig

    def reset(self):
        self.solutions, self.solves = [], 0


@dataclass
class Outcome:
    """What one operation produced, as read from the run's outputs."""

    variant: str
    seed: int
    ok: bool              # exit code 0, status ok, every solve converged
    loss_regret: float
    constraint_cum: float
    loss_ok: bool | None
    constraint_ok: bool | None

    def record(self) -> dict:
        return {k: v for k, v in asdict(self).items()
                if k not in ("variant", "seed", "ok")}


def read_outcomes(variant: str, seeds: list[int], out_dir: str, rc: int,
                  solutions) -> list[Outcome]:
    """One Outcome per seed, read from the run's manifest and seed CSVs. An
    output that is missing or unreadable fails the operation."""
    manifest, finals = {}, {}
    if rc == 0:
        try:
            with open(os.path.join(out_dir, "manifest.json")) as fh:
                manifest = json.load(fh)
            for seed in seeds:
                with open(os.path.join(out_dir, f"seed_{seed}.csv")) as fh:
                    last = list(csv.DictReader(fh))[-1]
                finals[seed] = (float(last["loss_regret"]),
                                float(last["constraint_cum"]))
        except (OSError, ValueError, KeyError, IndexError):
            pass  # what was not read counts as failed below
    call_ok = (rc == 0 and manifest.get("status") == "ok"
               and all(s.tolerance_met for s in solutions))
    outcomes = []
    for seed in seeds:
        loss_regret, constraint_cum = finals.get(seed, (math.nan, math.nan))
        flags = manifest.get("compliance", {}).get(str(seed)) or {}
        outcomes.append(Outcome(
            variant=variant, seed=seed,
            ok=call_ok and math.isfinite(loss_regret)
            and math.isfinite(constraint_cum),
            loss_regret=loss_regret, constraint_cum=constraint_cum,
            loss_ok=flags.get("loss_ok"),
            constraint_ok=flags.get("constraint_ok")))
    return outcomes


def gate(outcome: Outcome, reference: dict | None) -> bool:
    """True when the operation passes: it ran cleanly and its final regret,
    violation and compliance flags match the recorded reference."""
    if not outcome.ok or reference is None:
        return False
    ref = reference.get(outcome.variant, {}).get(str(outcome.seed))
    if ref is None:
        return False
    return (math.isclose(outcome.loss_regret, ref["loss_regret"],
                         rel_tol=REL_TOL, abs_tol=ABS_TOL)
            and math.isclose(outcome.constraint_cum, ref["constraint_cum"],
                             rel_tol=REL_TOL, abs_tol=ABS_TOL)
            and outcome.loss_ok == ref["loss_ok"]
            and outcome.constraint_ok == ref["constraint_ok"])


def digest_dir(path: str) -> str:
    """Hash of every file name and byte under `path`."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk(path):
        dirs.sort()
        for name in sorted(files):
            full = os.path.join(root, name)
            h.update(os.path.relpath(full, path).encode() + b"\0")
            with open(full, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def clear_outputs(workdir: str):
    shutil.rmtree(os.path.join(workdir, "out"), ignore_errors=True)
