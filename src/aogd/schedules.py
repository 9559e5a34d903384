"""Adaptive step-size schedules, sufficient conditions, and regret bounds.

The online learner alternates a projected primal-descent step with step size
eta_t and a projected dual-ascent step with step size mu_t, while theta_t
regularizes the dual variable. This module generates those three sequences,
numerically verifies the sufficient conditions (C1-C3) that make the regret
bounds valid, and evaluates the closed-form bounds themselves.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

# Absolute tolerance used when checking the C1/C2 inequalities; the adaptive
# schedules satisfy C2 with near-zero margin at small t.
CONDITION_TOL = 1e-12


class Regime(enum.Enum):
    CONVEX = "convex"
    STRONGLY_CONVEX = "strongly_convex"


def _check_positive(params, names: str):
    """Reject the first of the fields `names` (comma-separated) of params
    that is not a finite positive number: an infinite bound or step makes
    every schedule and bound built on it infinite or NaN."""
    for name in names.split(", "):
        value = getattr(params, name)
        # `not 0 < x < inf` rejects NaN too
        if not 0.0 < value < np.inf:
            raise ValueError(f"{names} must all be positive and finite, "
                             f"got {name}={value}")


@dataclass(frozen=True)
class ProblemConstants:
    """Bounds characterizing a problem instance over the enclosing ball.

    Attributes:
        R: radius of the Euclidean ball enclosing the feasible set.
        G: bound on the (sub-)gradient norms of losses and constraints.
        D: bound on the absolute constraint values over the ball.
        F: bound on the range of each loss over the ball.
        sigma: strong-convexity modulus of the losses (0 for merely convex).
    """

    R: float
    G: float
    D: float
    F: float
    sigma: float = 0.0

    def __post_init__(self):
        _check_positive(self, "R, G, D, F")
        # `not 0 <= x < inf` rejects NaN too
        if not 0.0 <= self.sigma < np.inf:
            raise ValueError(f"sigma must be nonnegative and finite, "
                             f"got sigma={self.sigma}")


@dataclass(frozen=True)
class ScheduleParams:
    """Adaptive schedule: trade-off exponent beta, regime and shift gamma."""

    beta: float
    regime: Regime
    constants: ProblemConstants
    gamma: float = 0.0

    def __post_init__(self):
        _shifted(self.gamma)
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if self.regime is Regime.STRONGLY_CONVEX and self.constants.sigma <= 0:
            raise ValueError("strongly convex regime requires sigma > 0")


@dataclass(frozen=True)
class FixedScheduleParams:
    """Constant-parameter baseline: fixed eta, theta, mu and shift gamma."""

    eta: float
    theta: float
    mu: float
    gamma: float = 0.0

    def __post_init__(self):
        _shifted(self.gamma)
        _check_positive(self, "eta, theta, mu")


def theta_at(params: ScheduleParams, t):
    """Dual regularizer at round t (t >= 1, scalar or array)."""
    t = np.asarray(t, dtype=float)
    c = params.constants
    if params.regime is Regime.CONVEX:
        return 6.0 * c.R * c.G / t**params.beta
    return 6.0 * c.G**2 / (c.sigma * t**params.beta)


def eta_at(params: ScheduleParams, t):
    """Primal step size at round t."""
    t = np.asarray(t, dtype=float)
    c = params.constants
    if params.regime is Regime.CONVEX:
        return c.R / (c.G * t**params.beta)
    return 1.0 / (c.sigma * t)


def mu_at(params: ScheduleParams, t):
    """Dual step size at round t: 1 / (theta_t * (t + 1)) in both regimes."""
    t = np.asarray(t, dtype=float)
    return 1.0 / (theta_at(params, t) * (t + 1.0))


def _shifted(gamma: float) -> bool:
    """Whether the learner runs against g + gamma; rejects gamma < 0, inf, NaN.

    The analysis of the shifted constraint takes the dual step mu_t * 2/3
    (schedule_arrays), strengthens C2 by the factor 3/2 (check_conditions)
    and bounds |g + gamma| by D + gamma (loss_regret_bound).
    """
    if not 0.0 <= gamma < np.inf:
        raise ValueError(f"gamma must be finite and nonnegative, got {gamma}")
    return gamma > 0.0


def schedule_arrays(schedule, T: int):
    """Materialize (theta, eta, mu) for rounds 1..T as float arrays.

    Accepts either adaptive ScheduleParams or a FixedScheduleParams baseline.
    With a constraint shift schedule.gamma > 0 the dual step is 2/3 mu.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    if isinstance(schedule, FixedScheduleParams):
        ones = np.ones(T)
        theta, eta, mu = (schedule.theta * ones, schedule.eta * ones,
                          schedule.mu * ones)
    else:
        t = np.arange(1, T + 1, dtype=float)
        theta, eta, mu = (theta_at(schedule, t), eta_at(schedule, t),
                          mu_at(schedule, t))
    if _shifted(schedule.gamma):
        mu = mu * (2.0 / 3.0)
    return theta, eta, mu


@dataclass(frozen=True)
class ConditionReport:
    c1_ok: bool
    c2_ok: bool
    c3_slack: float


def check_conditions(theta, eta, mu, sigma: float, G: float,
                     gamma: float = 0.0) -> ConditionReport:
    """Numerically verify the sufficient conditions over rounds 2..T, with T
    the common length of the three sequences.

    C1: 1/mu_t - 1/mu_{t-1} - theta_t <= 0.
    C2: eta_t G^2 + k * mu_t theta_t^2 - theta_t / 2 <= 0, with k = 1, or
    k = 3/2 for the constraint shifted upward by gamma > 0 (pass the mu
    that schedule_arrays returns for a schedule with this gamma).
    C3 slack: sum_{t=2}^T [1/eta_t - 1/eta_{t-1} - sigma] (`c3_ok` compares
    it with the budget u_eta).
    """
    k = 1.5 if _shifted(gamma) else 1.0
    th = np.asarray(theta, dtype=float)
    et = np.asarray(eta, dtype=float)
    m = np.asarray(mu, dtype=float)
    if not th.size == et.size == m.size:
        raise ValueError("sequences must have equal length")
    if np.any(th <= 0) or np.any(et <= 0) or np.any(m <= 0):
        raise ValueError("sequence entries must be positive")

    c1 = 1.0 / m[1:] - 1.0 / m[:-1] - th[1:]
    c2 = et[1:] * G**2 + k * m[1:] * th[1:] ** 2 - 0.5 * th[1:]
    c3_slack = float(np.sum(1.0 / et[1:] - 1.0 / et[:-1] - sigma))
    return ConditionReport(
        c1_ok=bool(np.all(c1 <= CONDITION_TOL)),
        c2_ok=bool(np.all(c2 <= CONDITION_TOL)),
        c3_slack=c3_slack,
    )


def loss_regret_bound(params: ScheduleParams, T) -> float:
    """Closed-form bound on the cumulative loss regret at horizon T.

    Returns [RG + D^2/(6 beta RG)] T^beta + (2RG/(1-beta)) T^(1-beta), with
    D + gamma in place of D for the shifted constraint g + gamma.
    Stated for the convex regime; for the strongly convex schedules the same
    expression is returned as a conservative bound (the strongly convex
    bounds are tighter but share the leading terms).
    """
    T = np.asarray(T, dtype=float)
    c, b = params.constants, params.beta
    rg, d = c.R * c.G, c.D + params.gamma
    return (rg + d**2 / (6.0 * b * rg)) * T**b + 2.0 * rg / (1.0 - b) * T ** (1.0 - b)


def constraint_regret_bound(params: ScheduleParams, T) -> float:
    """Closed-form bound on the cumulative constraint value at horizon T."""
    T = np.asarray(T, dtype=float)
    c, b = params.constants, params.beta
    inner = 24.0 * c.R * c.G / (1.0 - b)
    rf = loss_regret_bound(params, T)
    return np.sqrt(inner * (rf + c.F * T) * T ** (1.0 - b))


def schedule_sums(params: ScheduleParams, T: int) -> float:
    """The C3 budget u_eta at horizon T: G / R T^beta for the convex
    schedule, 0 for the strongly convex one."""
    if T < 1:
        raise ValueError("T must be >= 1")
    c = params.constants
    if params.regime is Regime.CONVEX:
        return float(c.G / c.R * float(T) ** params.beta)
    return 0.0


def c3_ok(c3_slack: float, u_eta: float) -> bool:
    """The C3 verdict: the slack of `check_conditions` within the budget
    u_eta of `schedule_sums`, up to an absolute 1e-9."""
    return c3_slack <= u_eta + 1e-9
