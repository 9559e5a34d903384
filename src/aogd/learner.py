"""Primal-dual online learner with adaptive schedules.

Each round plays x_t, observes the loss gradient and the aggregated
constraint value/subgradient at x_t, then performs a projected primal
descent step on the saddle function f_t(x) + lambda * g(x) - theta_t/2 *
lambda^2 and a projected dual ascent step. Both updates use gradients
evaluated at the old (x_t, lambda_t): the updates are simultaneous, not
sequential. The learner's state is the pair (x, lambda); `run` returns the
whole run as one `Trace` of per-round columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .projections import g_max, project_ball, project_nonneg
from .schedules import schedule_arrays


@dataclass(frozen=True)
class Trace:
    """Per-round (T,) columns of one run, the ones its regret report reads;
    entry t-1 is taken at the start of round t, before the update.

    lam is the dual iterate, loss the loss at x_t and g the unshifted
    constraint value for violation accounting; eta and theta are the
    schedule. The iterates x_t are not kept: they cost O(T d) memory.
    """

    lam: np.ndarray
    loss: np.ndarray
    g: np.ndarray
    eta: np.ndarray
    theta: np.ndarray


def step(x: np.ndarray, lam: float, t: int, f_grad: np.ndarray,
         g_value: float, g_sub: np.ndarray, eta_t: float, mu_t: float,
         theta_t: float, R: float) -> tuple[np.ndarray, float]:
    """One simultaneous primal-descent / dual-ascent update of round t.

    The primal gradient of the saddle function is f_grad + lam * g_sub, the
    dual gradient g_value - theta_t * lam; returns the next (x, lam).
    """
    gx = f_grad + lam * g_sub
    if not (np.all(np.isfinite(gx)) and np.isfinite(g_value)):
        raise FloatingPointError(f"non-finite gradient at round t={t}")
    return (project_ball(x - eta_t * gx, R),
            project_nonneg(lam + mu_t * (g_value - theta_t * lam)))


def run(problem, schedule, T: int, seed: int, gamma: float = 0.0) -> Trace:
    """Execute T rounds of the problem's stream `seed` and return their trace.

    Deterministic given (problem, seed, schedule, gamma). With gamma > 0
    the learner plays against the shifted constraint g + gamma: its dual
    update sees g + gamma with the dual step scaled as schedule_arrays does
    for gamma, while the trace stores the unshifted g for violation
    accounting. Raises ValueError for T < 1 or gamma < 0.
    """
    theta, eta, mu = schedule_arrays(schedule, T, gamma)
    problem.materialize(T, seed)
    R = problem.constants.R
    cs = problem.constraints
    lams, losses, gs = np.empty(T), np.empty(T), np.empty(T)
    x, lam = np.zeros(problem.dim), 0.0
    # Python floats: the same arithmetic as numpy scalars, without their
    # per-operation overhead
    for t, (eta_t, mu_t, theta_t) in enumerate(
            zip(eta.tolist(), mu.tolist(), theta.tolist()), start=1):
        f_val, f_grad = problem.loss(t, x)
        g_val, idx = g_max(cs, x)
        g_shifted = g_val + gamma
        lams[t - 1], losses[t - 1] = lam, f_val
        # (g + gamma) - gamma rather than g: the recorded value is rounded
        # as the shifted constraint's arithmetic rounds it
        gs[t - 1] = g_shifted - gamma
        x, lam = step(x, lam, t, f_grad, g_shifted, cs.subgradient(x, idx),
                      eta_t, mu_t, theta_t, R)
    return Trace(lam=lams, loss=losses, g=gs, eta=eta, theta=theta)
