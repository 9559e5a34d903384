"""Primal-dual online learner with adaptive schedules.

Each round plays x_t, observes the loss gradient and the aggregated
constraint value/subgradient at x_t, then performs a projected primal
descent step on the saddle function f_t(x) + lambda * g(x) - theta_t/2 *
lambda^2 and a projected dual ascent step. Both updates use gradients
evaluated at the old (x_t, lambda_t): the updates are simultaneous, not
sequential. `run` plays the streams of S seeds in lockstep, so the state is
the pair (X, lambda) of shapes (S, d) and (S,), one row per seed; it returns
the whole run as one `Trace` of per-round columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .projections import g_max, project_ball, project_nonneg
from .schedules import schedule_arrays


@dataclass(frozen=True)
class Trace:
    """Per-round columns of one run, the ones its regret report reads;
    entry t-1 is taken at the start of round t, before the update.

    lam is the dual iterate, loss the loss at x_t and g the unshifted
    constraint value for violation accounting, each (T, S) with column j
    for the j-th seed; eta and theta are the (T,) schedule every seed
    shares. The iterates x_t are not kept: they cost O(T S d) memory.
    """

    lam: np.ndarray
    loss: np.ndarray
    g: np.ndarray
    eta: np.ndarray
    theta: np.ndarray


def step(X: np.ndarray, lam: np.ndarray, t: int, f_grad: np.ndarray,
         g_value: np.ndarray, g_sub: np.ndarray, eta_t: float, mu_t: float,
         theta_t: float, R: float) -> tuple[np.ndarray, np.ndarray]:
    """One simultaneous primal-descent / dual-ascent update of round t for
    each row: X, f_grad and g_sub are (S, d), lam and g_value (S,).

    The primal gradient of the saddle function is f_grad + lam * g_sub, the
    dual gradient g_value - theta_t * lam; returns the next (X, lam).
    """
    gx = f_grad + lam[:, None] * g_sub
    if not (np.isfinite(gx).all() and np.isfinite(g_value).all()):
        raise FloatingPointError(f"non-finite gradient at round t={t}")
    return (project_ball(X - eta_t * gx, R),
            project_nonneg(lam + mu_t * (g_value - theta_t * lam)))


def run(problem, schedule, T: int, seeds, gamma: float = 0.0) -> Trace:
    """Execute T rounds of the problem's stream of each of `seeds`, in
    lockstep, and return their trace.

    Seed j's column is the run of that seed alone, bit for bit, and is
    deterministic given (problem, seeds[j], schedule, gamma). With gamma > 0
    the learner plays against the shifted constraint g + gamma: its dual
    update sees g + gamma with the dual step scaled as schedule_arrays does
    for gamma, while the trace stores the unshifted g for violation
    accounting. Raises ValueError for T < 1 or gamma < 0.
    """
    theta, eta, mu = schedule_arrays(schedule, T, gamma)
    problem.materialize(T, seeds)
    R = problem.constants.R
    cs = problem.constraints
    S = len(seeds)
    lams, losses, gs = np.empty((T, S)), np.empty((T, S)), np.empty((T, S))
    X, lam = np.zeros((S, problem.dim)), np.zeros(S)
    for t, (eta_t, mu_t, theta_t) in enumerate(zip(eta, mu, theta), start=1):
        f_val, f_grad = problem.loss(t, X)
        g_val, idx = g_max(cs, X)
        lams[t - 1], losses[t - 1], gs[t - 1] = lam, f_val, g_val
        X, lam = step(X, lam, t, f_grad, g_val + gamma, cs.subgradient(X, idx),
                      eta_t, mu_t, theta_t, R)
    # (g + gamma) - gamma rather than g: the recorded value is rounded as
    # the shifted constraint's arithmetic rounds it (+0.0 for -0.0, too)
    gs += gamma
    gs -= gamma
    return Trace(lam=lams, loss=losses, g=gs, eta=eta, theta=theta)
