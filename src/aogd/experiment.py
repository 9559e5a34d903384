"""Experiment harness: configure, run multi-seed experiments, emit results.

A run produces, under the configured output directory:
  - one CSV per seed (columns: t, loss_regret, constraint_cum, loss_bound,
    constraint_bound, lambda, step_eta, step_theta),
  - an aggregate CSV (mean and stddev across seeds per checkpoint),
  - a JSON manifest echoing the resolved config, derived constants,
    condition-check report, rate exponents, bound compliance and, per
    checkpoint, the offline solver's iterations, whether it met its
    tolerance and its final gradient-mapping norm; per seed also the clipped
    violation sum_t [g(x_t)]_+ and the largest dual iterate with its round,
  - the offline comparator cache, offline_cache/solutions.bin (see
    `offline.load_solutions`): read once before the solves, and written
    once after them when any comparator was solved.

`run_experiment(raw)`, for a config as `read_config` returns it, is the
one way into a run. A failed run's manifest holds status "failed", the
error and the config: as read if it fails its check, checked (defaults
filled in) if the run fails later; an output_dir that is not a non-empty
string gets none. An offline solve that misses its tolerance at any
checkpoint fails the run, with an error naming the seed and t.
"""

from __future__ import annotations

import csv
import json
import os
import sys
from dataclasses import MISSING, asdict, astuple, dataclass, fields
from numbers import Integral, Real
from typing import Iterable, Sequence

import numpy as np

from . import learner, metrics, offline
from .ingest import load_dataset
from .problems import DsmProblem, ElasticNetProblem
from .schedules import (FixedScheduleParams, ProblemConstants, Regime,
                        ScheduleParams, c3_ok, check_conditions,
                        schedule_arrays, schedule_sums)

@dataclass(frozen=True)
class ExperimentConfig:
    """A run's JSON config; building one checks it, so every one is valid."""

    problem: dict
    algorithm: str | dict
    beta: float
    T: int
    seeds: list[int]
    output_dir: str
    checkpoints: int = 20
    gamma_shift: dict | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """The config of a dict as `read_config` returns it; a key left out
        or not known raises ValueError."""
        # with the defaults filled in, a key left out for its default is not missing
        raw = {f.name: f.default for f in fields(cls)
               if f.default is not MISSING} | raw
        _check_keys("config", raw)
        return cls(**raw)

    def __post_init__(self):
        # output_dir first: a failure after it is reported in a manifest there
        _check_value("output_dir", self.output_dir, str)
        if not self.output_dir:
            raise ValueError("output_dir must not be the empty string")
        _check_section("config", vars(self), "")
        # beta also sets gamma = c1 T^(-beta/2), so fixed_ogd needs it too
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if self.T < 1:
            raise ValueError("T must be >= 1")
        if self.checkpoints < 1:
            raise ValueError("checkpoints must be >= 1")
        # numpy holds these as int64; a seed only seeds a generator, of any size
        for field, value in (("T", self.T), ("checkpoints", self.checkpoints),
                             ("problem.p", self.problem.get("p", 0))):
            if value > 2**63 - 1:
                raise ValueError(f"{field} must be at most 2**63 - 1, "
                                 f"got {value}")
        if not self.seeds or min(self.seeds) < 0:
            raise ValueError("seeds must be one or more integers >= 0, "
                             f"got {self.seeds}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must be distinct, got {self.seeds}")
        if not 0.0 <= self.gamma < np.inf:
            raise ValueError("gamma_shift.c1 must be finite and nonnegative")

    @property
    def gamma(self) -> float:
        """Constraint shift gamma = c1 * T^(-beta/2); 0 without gamma_shift."""
        if self.gamma_shift is None:
            return 0.0
        return self.gamma_shift["c1"] * self.T ** (-self.beta / 2.0)


def _read_object(path: str, what: str) -> dict:
    """The JSON object in the file at path, which the error names as `what`."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"{what} {path} must hold a JSON object, "
                         f"not a {type(raw).__name__}")
    return raw


def read_config(path: str, **overrides) -> dict:
    """The JSON config at path with the overrides that are not None."""
    raw = _read_object(path, "config")
    raw.update({k: v for k, v in overrides.items() if v is not None})
    return raw


# Each config section's keys and value types. A type is Integral or Real
# (never a bool), str, None (null, or the key left out), [t] (a list of t), a
# section (an object of it, of its kind if it has one) or a tuple of these.
_FIELDS = {
    "config": {"problem": ("dsm", "elasticnet"),
               "algorithm": (str, "fixed_ogd"), "beta": Real, "T": Integral,
               "seeds": [Integral], "output_dir": str,
               "checkpoints": Integral, "gamma_shift": (None, "gamma_shift")},
    "dsm": {"kind": str, "p": Integral},
    "elasticnet": {"kind": str, "dataset": str, "rho": Real,
                   "max_rows": (None, Integral)},
    "fixed_ogd": {"kind": str, "eta": Real, "theta": Real, "mu": Real},
    "gamma_shift": {"c1": Real},
}
_WHAT = {Integral: "an integer", Real: "a number", str: "a string",
         None: "null", dict: "an object"}


def _check_section(section: str, obj: dict, path: str):
    _check_keys(section, obj)
    for key, value in obj.items():
        _check_value(path + key, value, _FIELDS[section][key])


def _check_keys(section: str, obj: dict):
    keys = _FIELDS[section]
    required = {k for k, t in keys.items()
                if not (isinstance(t, tuple) and None in t)}
    if not required <= obj.keys() <= keys.keys():
        raise ValueError(f"{section} takes only {', '.join(keys)}: "
                         f"missing {sorted(required - obj.keys())}, "
                         f"unknown {sorted(obj.keys() - keys.keys())}")


def _check_value(field: str, value, types):
    types = types if isinstance(types, tuple) else (types,)
    for t in types:
        if isinstance(t, list) and isinstance(value, list):
            for item in value:
                _check_value(field, item, t[0])
            return
        if isinstance(t, str) and isinstance(value, dict) and (
                "kind" not in _FIELDS[t] or value.get("kind") == t):
            return _check_section(t, value, field + ".")
        if (value is None if t is None else isinstance(t, type)
                and isinstance(value, t) and not isinstance(value, bool)):
            # json reads NaN and +-Infinity as floats; an int compares with
            # a float exactly, so an int past the largest float fails too
            if t is Real and not abs(value) <= sys.float_info.max:
                raise ValueError(f"{field} must be a finite number, "
                                 f"got {value!r}")
            return
    raise ValueError(f"{field} must be {' or '.join(map(_what, types))}, "
                     f"got {value!r}")


def _what(t) -> str:
    if isinstance(t, str):
        return f"an object of kind {t}" if "kind" in _FIELDS[t] else "an object"
    return "a list" if isinstance(t, list) else _WHAT[t]


def build_problem(cfg: ExperimentConfig):
    """The configured problem; its stream is drawn by `materialize(T, seed)`."""
    spec = cfg.problem
    if spec["kind"] == "dsm":
        return DsmProblem(p=spec["p"])
    ds = load_dataset(spec["dataset"], max_rows=spec.get("max_rows"))
    labels, features = ds.dense()
    return ElasticNetProblem(labels, features, rho=spec["rho"])


_ADAPTIVE = {"a_ogd_convex": Regime.CONVEX,
             "a_ogd_strongly_convex": Regime.STRONGLY_CONVEX}


def build_schedule(cfg: ExperimentConfig, constants: ProblemConstants):
    algo = cfg.algorithm
    if isinstance(algo, dict):  # of kind fixed_ogd in a checked config
        return FixedScheduleParams(eta=algo["eta"], theta=algo["theta"],
                                   mu=algo["mu"], gamma=cfg.gamma)
    if algo not in _ADAPTIVE:
        raise ValueError(f"unknown algorithm {algo!r}")
    return ScheduleParams(beta=cfg.beta, regime=_ADAPTIVE[algo],
                          constants=constants, gamma=cfg.gamma)


def _write_csv(path: str, header: list[str], rows: Iterable[Sequence]):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_failed_manifest(output_dir: str, exc: Exception, config: dict):
    os.makedirs(output_dir, exist_ok=True)
    with open(os.path.join(output_dir, "manifest.json"), "w") as fh:
        json.dump({"status": "failed", "error": str(exc), "config": config},
                  fh, indent=2)


def run_experiment(raw: dict) -> str:
    """Execute the experiment of a config as read; returns the manifest
    path. A failure's manifest echoes the config as read until it passes its
    check, and the checked config from then on."""
    config = raw
    try:
        cfg = ExperimentConfig.from_dict(raw)
        config = asdict(cfg)
        return _run_experiment(cfg)
    except Exception as exc:
        if isinstance(config.get("output_dir"), str) and config["output_dir"]:
            try:
                _write_failed_manifest(config["output_dir"], exc, config)
            except OSError as unwritten:
                # the run's own error is the one to report, not the manifest's
                raise exc from unwritten
        raise


def _run_experiment(cfg: ExperimentConfig) -> str:
    os.makedirs(cfg.output_dir, exist_ok=True)
    cache_path = os.path.join(cfg.output_dir, "offline_cache", "solutions.bin")
    # one problem for every seed: learner.run materializes all their streams
    # and plays them in lockstep; the offline solves read seed j's row
    problem = build_problem(cfg)
    constants = problem.constants

    schedule = build_schedule(cfg, constants)
    gamma = schedule.gamma
    checkpoints = metrics.checkpoint_grid(cfg.T, cfg.checkpoints)

    # schedule condition report over the full horizon; its (T,) arrays die
    # with this statement, before learner.run draws its own
    cond = check_conditions(*schedule_arrays(schedule, cfg.T),
                            constants.sigma, constants.G, gamma)
    params = schedule if isinstance(schedule, ScheduleParams) else None
    # None only without params: a strongly convex u_eta is 0.0
    u_eta = schedule_sums(params, cfg.T) if params is not None else None
    run_key = offline.cache_key(cfg.problem)

    trace = learner.run(problem, schedule, cfg.T, cfg.seeds, checkpoints)
    # every comparator is solved and gated before any output is written, so
    # that no regret is written against one that missed its tolerance
    cache = offline.load_solutions(cache_path, run_key)
    loaded = len(cache)
    solutions = [{t: offline.solve_offline_cached(problem, t, cache, seed, j)
                  for t in checkpoints}
                 for j, seed in enumerate(cfg.seeds)]
    # stored before the gate, so that a missed tolerance fails the next run
    # too; the entries of other seeds the file held are kept
    if len(cache) > loaded:
        offline.store_solutions(cache_path, run_key, cache)
    for seed, seed_solutions in zip(cfg.seeds, solutions):
        for t, sol in seed_solutions.items():
            if not sol.tolerance_met:
                raise RuntimeError(
                    f"offline solve of seed {seed} at t={t} missed its "
                    f"tolerance after {sol.iterations} iterations "
                    f"(gradient-mapping norm {sol.mapping_norm:.3g})")

    report = metrics.accumulate(trace, solutions, params)
    # the report's fields are the CSV's columns, in order; seed j's CSV
    # takes column j of each (K, S) field
    columns = astuple(report)
    for j, seed in enumerate(cfg.seeds):
        _write_csv(os.path.join(cfg.output_dir, f"seed_{seed}.csv"),
                   ["t", "loss_regret", "constraint_cum", "loss_bound",
                    "constraint_bound", "lambda", "step_eta", "step_theta"],
                   zip(*((col if col.ndim == 1 else col[:, j]).tolist()
                         for col in columns)))

    # seed statistics per checkpoint: the (K, S) columns reduced along the
    # seed axis; the bound columns are the same for every seed
    loss, g = report.loss_regret, report.constraint_cum
    loss_mean, g_mean = np.mean(loss, axis=1), np.mean(g, axis=1)
    _write_csv(os.path.join(cfg.output_dir, "aggregate.csv"),
               ["t", "loss_regret_mean", "loss_regret_std",
                "constraint_cum_mean", "constraint_cum_std",
                "loss_bound", "constraint_bound"],
               zip(report.t.tolist(), loss_mean.tolist(),
                   np.std(loss, axis=1).tolist(), g_mean.tolist(),
                   np.std(g, axis=1).tolist(), report.loss_bound.tolist(),
                   report.constraint_bound.tolist()))

    rate_exponents = {}
    if len(checkpoints) >= 5:
        curves = ({"loss_bound": report.loss_bound,
                   "constraint_bound": report.constraint_bound} if params else {})
        curves |= {"constraint_measured_pos": g_mean,
                   "loss_measured_pos": loss_mean}
        rate_exponents = {name: metrics.fit_rate_exponent(report.t, v)
                          for name, v in curves.items()}

    # the manifest's per-seed maps, each a list in seed order
    per_seed = {
        "compliance": (map(asdict, metrics.bound_compliance(report))
                       if params else [None] * len(cfg.seeds)),
        "offline": ([{"t": t, "iterations": sol.iterations,
                      "tolerance_met": sol.tolerance_met,
                      "mapping_norm": sol.mapping_norm}
                     for t, sol in seed_solutions.items()]
                    for seed_solutions in solutions),
        # signed sums can hide violated rounds behind slack ones
        "violation_clipped": trace.violation_clipped.tolist(),
        "max_lambda": ({"value": value, "t": t} for value, t in zip(
            trace.lam_max.tolist(), trace.lam_max_t.tolist())),
    }
    reached = trace.first_nonpositive_t[trace.first_nonpositive_t > 0]
    manifest = {
        "status": "ok",
        "config": asdict(cfg),
        "algorithm": "fixed_ogd" if isinstance(cfg.algorithm, dict) else cfg.algorithm,
        "constants": asdict(constants),
        "gamma": gamma,
        "conditions": {**asdict(cond), "u_eta": u_eta,
                       "c3_ok": (c3_ok(cond.c3_slack, u_eta)
                                 if params is not None else None)},
        "loss_bound_conservative": (
            params is not None and params.regime is Regime.STRONGLY_CONVEX),
        "rate_exponents": rate_exponents,
        **{name: dict(zip(map(str, cfg.seeds), values))
           for name, values in per_seed.items()},
        "offline_converged": True,  # a missed tolerance fails the run
        "final_loss_regret_mean": float(loss_mean[-1]),
        "final_constraint_cum_mean": float(g_mean[-1]),
        "first_nonpositive_violation_t": (
            int(reached.min()) if gamma > 0.0 and reached.size else None),
        "checkpoints": checkpoints,
    }
    manifest_path = os.path.join(cfg.output_dir, "manifest.json")
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2)
    return manifest_path


def compare_runs(manifest_paths: list[str], output_path: str | None = None):
    """Tabulate final regrets and rate exponents across run manifests.

    All manifests must record ok runs that share the problem spec and
    horizon T. Returns the table as a list of dict rows; optionally writes
    CSV plus a plain-text rendering next to it, at the path with a .txt
    extension in place of its own; a path that is its own text twin is
    rejected before anything is read or written.
    """
    if output_path:
        text_path = os.path.splitext(output_path)[0] + ".txt"
        if text_path == output_path:
            raise ValueError(f"output path {output_path} is also the path of "
                             f"its text table; give the CSV another extension")
    manifests = []
    for path in manifest_paths:
        manifest = _read_object(path, "manifest")
        if manifest.get("status") != "ok":
            raise ValueError(f"{path} is not an ok run: status "
                             f"{manifest.get('status')!r}, error "
                             f"{manifest.get('error')!r}")
        # the keys read below, a dot after a section's name, and their types
        for key, types in (("config.problem", dict), ("config.T", Integral),
                           ("config.beta", Real), ("algorithm", str),
                           ("final_loss_regret_mean", Real),
                           ("final_constraint_cum_mean", Real),
                           ("rate_exponents", dict)):
            value = manifest
            for name in key.split("."):
                if not (isinstance(value, dict) and name in value):
                    raise ValueError(f"manifest {path} lacks the key {key}")
                value = value[name]
            _check_value(f"{key} of manifest {path}", value, types)
        for name in ("loss_bound", "constraint_bound"):
            if name in manifest["rate_exponents"]:
                _check_value(f"rate_exponents.{name} of manifest {path}",
                             manifest["rate_exponents"][name], Real)
        manifests.append(manifest)
    ref = manifests[0]["config"]
    for m in manifests[1:]:
        if m["config"]["problem"] != ref["problem"] or m["config"]["T"] != ref["T"]:
            raise ValueError("manifests must share problem and T")

    rows = [{"algorithm": m["algorithm"], "beta": m["config"]["beta"],
             "final_loss_regret": m["final_loss_regret_mean"],
             "final_constraint_cum": m["final_constraint_cum_mean"],
             "loss_bound_exponent": m["rate_exponents"].get("loss_bound"),
             "constraint_bound_exponent": m["rate_exponents"].get("constraint_bound")}
            for m in manifests]

    if output_path:
        header = list(rows[0].keys())
        _write_csv(output_path, header, [[r[k] for k in header] for r in rows])
        with open(text_path, "w") as fh:
            widths = {k: max(len(k), *(len(f"{r[k]}") for r in rows)) for k in header}
            fh.write("  ".join(k.ljust(widths[k]) for k in header) + "\n")
            for r in rows:
                fh.write("  ".join(f"{r[k]}".ljust(widths[k]) for k in header) + "\n")
    return rows
