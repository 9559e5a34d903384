"""Cumulative regret accounting and comparison against theoretical bounds.

One `RegretReport` holds a run: its measured columns are (K, S), one per
seed of the lockstep trace. Loss regret at a checkpoint t uses the offline
optimum re-solved for that prefix (which upper-bounds the fixed-comparator
regret); the constraint column is the signed running sum of g(x_s),
negative when the learner over-satisfies the constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .learner import Trace
from .offline import OfflineSolution
from .schedules import ScheduleParams, constraint_regret_bound, loss_regret_bound


@dataclass(frozen=True)
class RegretReport:
    """Per-checkpoint columns of a run, in the seed CSV's column order:
    loss_regret, constraint_cum and lam are (K, S), column j for seed j,
    the others (K,); the bound columns are NaN without a closed form."""

    t: np.ndarray
    loss_regret: np.ndarray
    constraint_cum: np.ndarray
    loss_bound: np.ndarray
    constraint_bound: np.ndarray
    lam: np.ndarray
    eta: np.ndarray
    theta: np.ndarray


def checkpoint_grid(T: int, count: int = 20) -> list[int]:
    """Logarithmically spaced round indices in [1, T], deduplicated."""
    if T < 1 or count < 1:
        raise ValueError("T and count must be >= 1")
    grid = np.unique(np.round(np.logspace(0, np.log10(T), count)).astype(int))
    return [int(t) for t in grid if 1 <= t <= T]


def accumulate(trace: Trace, offline: Sequence[Mapping[int, OfflineSolution]],
               params: ScheduleParams | None = None) -> RegretReport:
    """Build the per-checkpoint regret report of every seed of the run.

    `offline[j]` maps each checkpoint t of the trace, and nothing else, to
    the optimum of the first t rounds of seed j's stream; the comparator's
    loss is that solution's `loss_sum`. Theoretical bound columns are
    filled when adaptive schedule params are given, otherwise NaN
    (fixed-schedule baselines carry no closed form).
    """
    t = trace.t
    if len(offline) != trace.lam.shape[1]:
        raise ValueError(f"{len(offline)} offline comparator maps for "
                         f"{trace.lam.shape[1]} seeds")
    for solutions in offline:
        if sorted(solutions) != t.tolist():
            raise ValueError(f"offline comparators at t={sorted(solutions)} "
                             f"are not the trace's checkpoints t={t.tolist()}")
    loss_bound, constraint_bound = (
        (loss_regret_bound(params, t), constraint_regret_bound(params, t))
        if params else np.full((2, len(t)), np.nan))
    comparators = [[sols[k].loss_sum for sols in offline] for k in t.tolist()]
    return RegretReport(
        t=t,
        loss_regret=trace.loss_cum - np.array(comparators),
        constraint_cum=trace.g_cum,
        loss_bound=loss_bound,
        constraint_bound=constraint_bound,
        lam=trace.lam,
        eta=trace.eta,
        theta=trace.theta,
    )


def fit_rate_exponent(t, values) -> float:
    """Least-squares slope of log(value) vs log(t) on the last half of the
    two equal-length columns.

    Values are clamped at 1e-12 so sign flips in nearly-zero curves do not
    blow up the fit.
    """
    ts = np.asarray(t, dtype=float)
    vals = np.maximum(np.asarray(values, dtype=float), 1e-12)
    if ts.shape != vals.shape:
        raise ValueError(f"t {ts.shape} and values {vals.shape} differ in shape")
    if len(ts) < 5:
        raise ValueError("need at least 5 checkpoints")
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


def bound_compliance(report: RegretReport) -> list[BoundCompliance]:
    """Each seed's measured columns against the report's bound columns."""
    lb, cb = report.loss_bound, report.constraint_bound
    return [BoundCompliance(
        loss_ok=bool(np.all(loss <= lb)), constraint_ok=bool(np.all(cons <= cb)),
        max_ratio=float(np.max(np.concatenate([loss / lb, cons / cb]))))
        for loss, cons in zip(report.loss_regret.T, report.constraint_cum.T)]
