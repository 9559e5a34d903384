"""Command-line entry point.

Verbs:
  run            execute an experiment described by a JSON config file
  compare        tabulate final regrets across run manifests
  check-schedule print the condition report and bounds for given constants
  solve-offline  compute the offline optimum for a stream prefix
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace

import numpy as np

from . import offline
from .experiment import (ExperimentConfig, build_problem, compare_runs,
                         read_config, run_config)
from .schedules import (ProblemConstants, Regime, ScheduleParams,
                        c3_ok, check_conditions, constraint_regret_bound,
                        loss_regret_bound, schedule_arrays, schedule_sums)


def _cmd_run(args) -> int:
    overrides = {"T": args.T, "beta": args.beta, "output_dir": args.output}
    if args.seeds is not None:
        try:
            overrides["seeds"] = [int(s) for s in args.seeds.split(",")]
        except ValueError:
            raise ValueError(f"--seeds must be comma-separated integers, "
                             f"got {args.seeds!r}") from None
    print(run_config(read_config(args.config, **overrides)))
    return 0


def _cmd_compare(args) -> int:
    for row in compare_runs(args.manifests, output_path=args.output):
        print(json.dumps(row))
    return 0


def _cmd_check_schedule(args) -> int:
    # as numpy floats the constants overflow to inf, which the checks name,
    # where a Python float's power would raise an unnamed OverflowError
    constants = ProblemConstants(*map(np.float64, (args.R, args.G, args.D,
                                                   args.F, args.sigma)))
    params = ScheduleParams(beta=args.beta, regime=Regime(args.regime),
                            constants=constants)
    with np.errstate(over="ignore"):
        theta, eta, mu = schedule_arrays(params, args.T)
        cond = check_conditions(theta, eta, mu, constants.sigma, constants.G)
        u_eta = schedule_sums(params, args.T)
        report = {**asdict(cond), "u_eta": u_eta,
                  "c3_ok": c3_ok(cond.c3_slack, u_eta),
                  "loss_regret_bound": float(loss_regret_bound(params, args.T)),
                  "constraint_regret_bound": float(
                      constraint_regret_bound(params, args.T))}
    for name, value in report.items():
        if not np.isfinite(value):
            raise ValueError(f"{name} is not finite")
    print(json.dumps(report, indent=2))
    return 0


def _cmd_solve_offline(args) -> int:
    cfg = ExperimentConfig.from_dict(read_config(args.config))
    cfg.validate()
    replace(cfg, seeds=[args.seed]).validate()  # --seed obeys the seed rules
    problem = build_problem(cfg)
    problem.materialize(max(args.t, cfg.T), [args.seed])
    sol = offline.solve_offline(problem, args.t)
    print(json.dumps({
        "t": args.t,
        "objective": sol.loss_sum / args.t,
        "iterations": sol.iterations,
        "tolerance_met": sol.tolerance_met,
        "x_star": np.asarray(sol.x_star).tolist(),
    }))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aogd",
        description="Adaptive online gradient descent with long-term constraints")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("config")
    p_run.add_argument("--output", default=None, help="override output directory")
    p_run.add_argument("--T", type=int, default=None)
    p_run.add_argument("--beta", type=float, default=None)
    p_run.add_argument("--seeds", default=None, help="comma-separated seed list")
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="compare run manifests")
    p_cmp.add_argument("manifests", nargs="+")
    p_cmp.add_argument("--output", default=None, help="CSV output path")
    p_cmp.set_defaults(func=_cmd_compare)

    p_chk = sub.add_parser("check-schedule",
                           help="condition report and bounds for constants")
    p_chk.add_argument("--beta", type=float, required=True)
    p_chk.add_argument("--R", type=float, required=True)
    p_chk.add_argument("--G", type=float, required=True)
    p_chk.add_argument("--D", type=float, required=True)
    p_chk.add_argument("--F", type=float, default=1.0)
    p_chk.add_argument("--sigma", type=float, default=0.0)
    p_chk.add_argument("--T", type=int, required=True)
    p_chk.add_argument("--regime", choices=["convex", "strongly_convex"],
                       default="convex")
    p_chk.set_defaults(func=_cmd_check_schedule)

    p_off = sub.add_parser("solve-offline",
                           help="offline optimum of a stream prefix")
    p_off.add_argument("config")
    p_off.add_argument("--t", type=int, required=True)
    p_off.add_argument("--seed", type=int, default=0)
    p_off.set_defaults(func=_cmd_solve_offline)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # single diagnostic surface for all verbs
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
