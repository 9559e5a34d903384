"""Cumulative regret accounting and comparison against theoretical bounds.

Loss regret at a checkpoint t uses the offline optimum re-solved for that
prefix (which upper-bounds the fixed-comparator regret); the constraint
column is the signed running sum of g(x_s), negative when the learner
over-satisfies the constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .learner import Trace
from .offline import OfflineSolution
from .schedules import ScheduleParams, constraint_regret_bound, loss_regret_bound


@dataclass(frozen=True)
class Checkpoint:
    t: int
    loss_regret: float
    constraint_cum: float
    loss_bound: float
    constraint_bound: float
    lam: float
    eta: float
    theta: float


@dataclass(frozen=True)
class RegretReport:
    checkpoints: Sequence[Checkpoint]

    def __post_init__(self):
        ts = [c.t for c in self.checkpoints]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("checkpoints must be strictly increasing in t")


def checkpoint_grid(T: int, count: int = 20) -> list[int]:
    """Logarithmically spaced round indices in [1, T], deduplicated."""
    if T < 1 or count < 1:
        raise ValueError("T and count must be >= 1")
    grid = np.unique(np.round(np.logspace(0, np.log10(T), count)).astype(int))
    return [int(t) for t in grid if 1 <= t <= T]


def accumulate(trace: Trace,
               offline: Mapping[int, OfflineSolution],
               problem,
               params: ScheduleParams | None = None) -> RegretReport:
    """Build the per-checkpoint regret report for one run.

    `offline` maps each checkpoint t to the optimum of the first t rounds.
    Theoretical bound columns are filled when adaptive schedule params are
    given, otherwise NaN (fixed-schedule baselines carry no closed form).
    """
    if not offline:
        raise ValueError("offline map must cover at least one checkpoint")
    loss_cum = np.cumsum(trace.loss)
    g_cum = np.cumsum(trace.g)
    checkpoints = []
    for t in sorted(offline):
        if t < 1 or t > len(trace.loss):
            raise ValueError(f"checkpoint t={t} outside the recorded rounds")
        offline_cum = problem.loss_sum(t, offline[t].x_star)[0]
        checkpoints.append(Checkpoint(
            t=t,
            loss_regret=float(loss_cum[t - 1] - offline_cum),
            constraint_cum=float(g_cum[t - 1]),
            loss_bound=float(loss_regret_bound(params, t)) if params else float("nan"),
            constraint_bound=float(constraint_regret_bound(params, t)) if params else float("nan"),
            lam=float(trace.lam[t - 1]),
            eta=float(trace.eta[t - 1]),
            theta=float(trace.theta[t - 1]),
        ))
    return RegretReport(checkpoints=checkpoints)


def fit_rate_exponent(curve: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of log(value) vs log(t) on the last half.

    Values are clamped at 1e-12 so sign flips in nearly-zero curves do not
    blow up the fit.
    """
    if len(curve) < 5:
        raise ValueError("need at least 5 checkpoints")
    ts = np.array([c[0] for c in curve], dtype=float)
    vals = np.maximum(np.array([c[1] for c in curve], dtype=float), 1e-12)
    half = len(ts) // 2
    ts, vals = ts[half:], vals[half:]
    if np.all(ts == ts[0]):
        raise ValueError("degenerate curve: all checkpoints share the same t")
    slope, _ = np.polyfit(np.log(ts), np.log(vals), 1)
    return float(slope)


@dataclass(frozen=True)
class BoundCompliance:
    loss_ok: bool
    constraint_ok: bool
    max_ratio: float


def bound_compliance(report: RegretReport, params: ScheduleParams) -> BoundCompliance:
    """Check measured regrets against the closed-form bounds per checkpoint."""
    loss_ok, constraint_ok = True, True
    max_ratio = -np.inf
    for c in report.checkpoints:
        lb = float(loss_regret_bound(params, c.t))
        cb = float(constraint_regret_bound(params, c.t))
        loss_ok &= c.loss_regret <= lb
        constraint_ok &= c.constraint_cum <= cb
        max_ratio = max(max_ratio, c.loss_regret / lb, c.constraint_cum / cb)
    return BoundCompliance(loss_ok=bool(loss_ok), constraint_ok=bool(constraint_ok),
                           max_ratio=float(max_ratio))
