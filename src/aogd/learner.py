"""Primal-dual online learner with adaptive schedules.

Each round plays x_t, observes the loss gradient and the aggregated
constraint value/subgradient at x_t, then performs a projected primal
descent step on the saddle function f_t(x) + lambda * g(x) - theta_t/2 *
lambda^2 and a projected dual ascent step. Both updates use gradients
evaluated at the old (x_t, lambda_t): the updates are simultaneous, not
sequential.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .projections import g_max, project_ball, project_nonneg
from .schedules import schedule_arrays


@dataclass(frozen=True)
class LearnerState:
    """Primal iterate (inside the ball), dual scalar >= 0, round counter."""

    x: np.ndarray
    lam: float
    t: int

    @classmethod
    def initial(cls, dim: int) -> "LearnerState":
        return cls(x=np.zeros(dim), lam=0.0, t=1)


@dataclass(frozen=True)
class RoundRecord:
    """Snapshot taken at the start of round t, before the update."""

    t: int
    x: np.ndarray
    lam: float
    loss: float
    g_value: float  # unshifted constraint value, for violation accounting
    eta: float
    theta: float
    mu: float


def primal_gradient(f_grad: np.ndarray, lam: float, g_sub: np.ndarray) -> np.ndarray:
    """Gradient of the saddle function in x: f_grad + lambda * g_sub."""
    return f_grad + lam * g_sub


def dual_gradient(g_value: float, theta_t: float, lam: float) -> float:
    """Gradient of the saddle function in lambda: g(x) - theta_t * lambda."""
    return g_value - theta_t * lam


def step(state: LearnerState, f_grad: np.ndarray, g_value: float,
         g_sub: np.ndarray, eta_t: float, mu_t: float, theta_t: float,
         R: float) -> LearnerState:
    """One simultaneous primal-descent / dual-ascent update."""
    gx = primal_gradient(f_grad, state.lam, g_sub)
    if not (np.all(np.isfinite(gx)) and np.isfinite(g_value)):
        raise FloatingPointError(f"non-finite gradient at round t={state.t}")
    x_next = project_ball(state.x - eta_t * gx, R)
    lam_next = project_nonneg(state.lam + mu_t * dual_gradient(g_value, theta_t, state.lam))
    return LearnerState(x=x_next, lam=lam_next, t=state.t + 1)


def run(problem, schedule, T: int, seed: int | None = None,
        gamma: float = 0.0) -> list[RoundRecord]:
    """Execute T rounds and return the per-round records.

    Deterministic given (problem stream seed, schedule, gamma). With gamma > 0
    the learner plays against the shifted constraint g + gamma: its dual
    update sees g + gamma with the dual step scaled as schedule_arrays does
    for gamma, while the record stores the unshifted g for violation
    accounting. Raises ValueError for gamma < 0.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    theta, eta, mu = schedule_arrays(schedule, T, gamma)
    problem.materialize(T, seed)
    R = problem.constants.R
    cs = problem.constraints
    state = LearnerState.initial(problem.dim)
    records = []
    for t in range(1, T + 1):
        f_val, f_grad = problem.loss(t, state.x)
        g_val, idx = g_max(cs, state.x)
        g_sub = cs.subgradient(state.x, idx)
        g_shifted = g_val + gamma
        records.append(RoundRecord(
            t=t, x=state.x.copy(), lam=state.lam, loss=f_val,
            # (g + gamma) - gamma rather than g: the recorded value is
            # rounded as the shifted constraint's arithmetic rounds it
            g_value=g_shifted - gamma,
            eta=float(eta[t - 1]), theta=float(theta[t - 1]), mu=float(mu[t - 1]),
        ))
        state = step(state, np.asarray(f_grad, dtype=float), g_shifted, g_sub,
                     float(eta[t - 1]), float(mu[t - 1]), float(theta[t - 1]), R)
    return records
