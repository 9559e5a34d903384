"""Experiment harness: configure, run multi-seed experiments, emit results.

A run produces, under the configured output directory:
  - one CSV per seed (columns: t, loss_regret, constraint_cum, loss_bound,
    constraint_bound, lambda, step_eta, step_theta),
  - an aggregate CSV (mean and stddev across seeds per checkpoint),
  - a JSON manifest echoing the resolved config, derived constants,
    condition-check report, rate exponents, bound compliance and, per
    checkpoint, the offline solver's iterations and whether it met its
    tolerance; per seed also the clipped violation sum_t [g(x_t)]_+ and the
    largest dual iterate with its round.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import learner, metrics, offline
from .ingest import load_dataset
from .problems import DsmProblem, ElasticNetProblem
from .schedules import (FixedScheduleParams, ProblemConstants, Regime,
                        ScheduleParams, check_conditions, schedule_arrays,
                        schedule_sums)

ADAPTIVE_ALGORITHMS = ("a_ogd_convex", "a_ogd_strongly_convex")


@dataclass
class ExperimentConfig:
    problem: dict
    algorithm: str | dict
    beta: float
    T: int
    seeds: list[int]
    output_dir: str
    checkpoints: int = 20
    gamma_shift: dict | None = None  # {"c1": float}

    @classmethod
    def from_file(cls, path: str, **overrides) -> "ExperimentConfig":
        with open(path) as fh:
            raw = json.load(fh)
        raw.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**raw)

    def validate(self, constants: ProblemConstants):
        if self.T < 1:
            raise ValueError("T must be >= 1")
        if not self.seeds:
            raise ValueError("at least one seed required")
        if self.algorithm == "a_ogd_strongly_convex" and constants.sigma <= 0:
            raise ValueError(
                "a_ogd_strongly_convex requires a problem with sigma > 0")
        if self.gamma < 0:
            raise ValueError("gamma_shift.c1 must be nonnegative")

    @property
    def gamma(self) -> float:
        """Constraint shift gamma = c1 * T^(-beta/2); 0 without gamma_shift."""
        if self.gamma_shift is None:
            return 0.0
        c1 = float(self.gamma_shift.get("c1", 1.0))
        return c1 * float(self.T) ** (-self.beta / 2.0)


def build_problem(cfg: ExperimentConfig, seed: int):
    spec = cfg.problem
    kind = spec["kind"]
    if kind == "dsm":
        return DsmProblem(p=int(spec["p"]), seed=seed)
    if kind == "elasticnet":
        ds = load_dataset(spec["dataset"], max_rows=spec.get("max_rows"))
        labels, features = ds.dense()
        return ElasticNetProblem(labels, features, rho=float(spec["rho"]),
                                 seed=seed)
    raise ValueError(f"unknown problem kind {kind!r}")


def build_schedule(cfg: ExperimentConfig, constants: ProblemConstants):
    algo = cfg.algorithm
    if isinstance(algo, dict):
        if algo.get("kind") != "fixed_ogd":
            raise ValueError(f"unknown algorithm {algo!r}")
        return FixedScheduleParams(eta=float(algo["eta"]),
                                   theta=float(algo["theta"]),
                                   mu=float(algo["mu"]))
    if algo == "a_ogd_convex":
        return ScheduleParams(beta=cfg.beta, regime=Regime.CONVEX,
                              constants=constants)
    if algo == "a_ogd_strongly_convex":
        return ScheduleParams(beta=cfg.beta, regime=Regime.STRONGLY_CONVEX,
                              constants=constants)
    raise ValueError(f"unknown algorithm {algo!r}")


def _algorithm_label(cfg: ExperimentConfig) -> str:
    if isinstance(cfg.algorithm, dict):
        return "fixed_ogd"
    return cfg.algorithm


def _write_csv(path: str, header: list[str], rows: list[list]):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def run_experiment(cfg: ExperimentConfig) -> str:
    """Execute the configured experiment; returns the manifest path."""
    os.makedirs(cfg.output_dir, exist_ok=True)
    cache_dir = os.path.join(cfg.output_dir, "offline_cache")
    manifest_path = os.path.join(cfg.output_dir, "manifest.json")
    try:
        return _run_experiment(cfg, cache_dir, manifest_path)
    except Exception as exc:
        with open(manifest_path, "w") as fh:
            json.dump({"status": "failed", "error": str(exc),
                       "config": asdict(cfg)}, fh, indent=2)
        raise


def _run_experiment(cfg: ExperimentConfig, cache_dir: str,
                    manifest_path: str) -> str:
    # one problem for every seed: learner.run re-materializes its stream
    problem = build_problem(cfg, cfg.seeds[0])
    constants = problem.constants
    cfg.validate(constants)

    # the shifted constraint g + gamma is bounded by D + gamma
    gamma = cfg.gamma
    schedule = build_schedule(cfg, replace(constants, D=constants.D + gamma))
    checkpoints = metrics.checkpoint_grid(cfg.T, cfg.checkpoints)

    # schedule condition report over the full horizon
    theta, eta, mu = schedule_arrays(schedule, cfg.T, gamma)
    cond = check_conditions(theta, eta, mu, constants.sigma, constants.G,
                            cfg.T, gamma)
    params = schedule if isinstance(schedule, ScheduleParams) else None
    sums = schedule_sums(schedule, cfg.T) if params else None
    pid = "_".join(f"{k}-{v}" for k, v in sorted(cfg.problem.items())
                   if isinstance(v, (str, int, float)))

    per_seed = []
    first_nonpositive_t = None
    for seed in cfg.seeds:
        trace = learner.run(problem, schedule, cfg.T, seed, gamma)
        solutions = {
            t: offline.solve_offline_cached(
                problem, t, cache_dir,
                problem_id=f"{pid}_seed{seed}".replace(os.sep, "-"))
            for t in checkpoints
        }
        report = metrics.accumulate(trace, solutions, problem, params)

        rows = [[c.t, c.loss_regret, c.constraint_cum, c.loss_bound,
                 c.constraint_bound, c.lam, c.eta, c.theta]
                for c in report.checkpoints]
        _write_csv(os.path.join(cfg.output_dir, f"seed_{seed}.csv"),
                   ["t", "loss_regret", "constraint_cum", "loss_bound",
                    "constraint_bound", "lambda", "step_eta", "step_theta"],
                   rows)

        g_cum = np.cumsum(trace.g)
        nonpos = np.flatnonzero(g_cum <= 0.0)
        seed_first_t = int(nonpos[0]) + 1 if nonpos.size else None
        if gamma > 0.0 and seed_first_t is not None:
            if first_nonpositive_t is None or seed_first_t < first_nonpositive_t:
                first_nonpositive_t = seed_first_t

        compliance = metrics.bound_compliance(report, params) if params else None
        k = int(np.argmax(trace.lam))  # the first maximizer
        per_seed.append({
            "seed": seed,
            "report": report,
            "compliance": compliance,
            "offline": [{"t": t, "iterations": sol.iterations,
                         "tolerance_met": sol.tolerance_met}
                        for t, sol in solutions.items()],
            # signed sums can hide violated rounds behind slack ones
            "violation_clipped": float(np.sum(np.maximum(trace.g, 0.0))),
            "max_lambda": {"value": float(trace.lam[k]), "t": k + 1},
        })

    # aggregate across seeds
    loss_mat = np.array([[c.loss_regret for c in s["report"].checkpoints]
                         for s in per_seed])
    g_mat = np.array([[c.constraint_cum for c in s["report"].checkpoints]
                      for s in per_seed])
    bounds = per_seed[0]["report"].checkpoints
    agg_rows = [[c.t,
                 float(np.mean(loss_mat[:, i])), float(np.std(loss_mat[:, i])),
                 float(np.mean(g_mat[:, i])), float(np.std(g_mat[:, i])),
                 c.loss_bound, c.constraint_bound]
                for i, c in enumerate(bounds)]
    _write_csv(os.path.join(cfg.output_dir, "aggregate.csv"),
               ["t", "loss_regret_mean", "loss_regret_std",
                "constraint_cum_mean", "constraint_cum_std",
                "loss_bound", "constraint_bound"],
               agg_rows)

    rate_exponents = {}
    if params and len(checkpoints) >= 5:
        rate_exponents["loss_bound"] = metrics.fit_rate_exponent(
            [(c.t, c.loss_bound) for c in bounds])
        rate_exponents["constraint_bound"] = metrics.fit_rate_exponent(
            [(c.t, c.constraint_bound) for c in bounds])
    if len(checkpoints) >= 5:
        mean_g = np.mean(g_mat, axis=0)
        rate_exponents["constraint_measured_pos"] = metrics.fit_rate_exponent(
            [(c.t, mean_g[i]) for i, c in enumerate(bounds)])
        mean_loss = np.mean(loss_mat, axis=0)
        rate_exponents["loss_measured_pos"] = metrics.fit_rate_exponent(
            [(c.t, mean_loss[i]) for i, c in enumerate(bounds)])

    manifest = {
        "status": "ok",
        "config": asdict(cfg),
        "algorithm": _algorithm_label(cfg),
        "constants": asdict(constants),
        "gamma": gamma,
        "conditions": {"c1_ok": cond.c1_ok, "c2_ok": cond.c2_ok,
                       "c3_slack": cond.c3_slack,
                       "u_eta": sums.u_eta if sums else None},
        "loss_bound_conservative": (
            isinstance(schedule, ScheduleParams)
            and schedule.regime is Regime.STRONGLY_CONVEX),
        "rate_exponents": rate_exponents,
        "compliance": {
            str(s["seed"]): None if s["compliance"] is None else {
                "loss_ok": s["compliance"].loss_ok,
                "constraint_ok": s["compliance"].constraint_ok,
                "max_ratio": s["compliance"].max_ratio,
            } for s in per_seed
        },
        "offline": {str(s["seed"]): s["offline"] for s in per_seed},
        "violation_clipped": {str(s["seed"]): s["violation_clipped"]
                              for s in per_seed},
        "max_lambda": {str(s["seed"]): s["max_lambda"] for s in per_seed},
        "offline_converged": all(c["tolerance_met"] for s in per_seed
                                 for c in s["offline"]),
        "final_loss_regret_mean": float(np.mean(loss_mat[:, -1])),
        "final_constraint_cum_mean": float(np.mean(g_mat[:, -1])),
        "first_nonpositive_violation_t": first_nonpositive_t,
        "checkpoints": checkpoints,
    }
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2)
    return manifest_path


def compare_runs(manifest_paths: list[str], output_path: str | None = None):
    """Tabulate final regrets and rate exponents across run manifests.

    All manifests must share the problem spec and horizon T. Returns the
    table as a list of dict rows; optionally writes CSV plus a plain-text
    rendering next to it.
    """
    manifests = []
    for path in manifest_paths:
        with open(path) as fh:
            manifests.append(json.load(fh))
    ref = manifests[0]["config"]
    for m in manifests[1:]:
        if m["config"]["problem"] != ref["problem"] or m["config"]["T"] != ref["T"]:
            raise ValueError("manifests must share problem and T")

    rows = []
    for m in manifests:
        rows.append({
            "algorithm": m["algorithm"],
            "beta": m["config"]["beta"],
            "final_loss_regret": m["final_loss_regret_mean"],
            "final_constraint_cum": m["final_constraint_cum_mean"],
            "loss_bound_exponent": m["rate_exponents"].get("loss_bound"),
            "constraint_bound_exponent": m["rate_exponents"].get("constraint_bound"),
        })

    if output_path:
        header = list(rows[0].keys())
        _write_csv(output_path, header, [[r[k] for k in header] for r in rows])
        with open(os.path.splitext(output_path)[0] + ".txt", "w") as fh:
            widths = {k: max(len(k), *(len(f"{r[k]}") for r in rows)) for k in header}
            fh.write("  ".join(k.ljust(widths[k]) for k in header) + "\n")
            for r in rows:
                fh.write("  ".join(f"{r[k]}".ljust(widths[k]) for k in header) + "\n")
    return rows
