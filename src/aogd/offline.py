"""Offline optima and exact feasible-set projections for regret accounting.

The online learner never projects onto the feasible set; these projections
exist only to compute the comparator x* = argmin over the feasible set of
the average loss on a stream prefix, by projected gradient descent with
backtracking. Birkhoff-polytope projection uses Dykstra's alternating
projections (plain alternating projection would converge to a feasible
point, not the Euclidean projection); the elastic-net ball projection
has a closed form in the KKT multiplier once its support is known.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class OfflineSolution:
    x_star: np.ndarray
    objective: float
    iterations: int
    tolerance_met: bool


_BIRKHOFF_TOL = 1e-10
_BIRKHOFF_MAX_ITER = 10000
_SOLVE_MAX_ITER = 5000


def _project_doubly_stochastic_affine(X: np.ndarray) -> np.ndarray:
    """Closed-form projection onto {X : X @ 1 = 1, X.T @ 1 = 1}."""
    p = X.shape[0]
    r = X.sum(axis=1) - 1.0
    c = X.sum(axis=0) - 1.0
    s = X.sum() - p
    return X - (r[:, None] + c[None, :]) / p + s / p**2


def project_birkhoff(A: np.ndarray) -> np.ndarray:
    """Euclidean projection of A onto the doubly-stochastic matrices.

    Dykstra's algorithm alternating between the affine set {X1=1, X.T 1=1}
    (closed form) and the nonnegative orthant, with the correction term on
    the orthant half-step. Stops when successive full sweeps differ by less
    than _BIRKHOFF_TOL in Frobenius norm.
    """
    A = np.asarray(A, dtype=float)
    if not np.all(np.isfinite(A)):
        raise ValueError("input matrix must be finite")
    X = A.copy()
    q = np.zeros_like(A)  # correction for the orthant (the non-affine set)
    prev = X.copy()
    for _ in range(_BIRKHOFF_MAX_ITER):
        Y = _project_doubly_stochastic_affine(X)
        Z = np.maximum(Y + q, 0.0)
        q = Y + q - Z
        X = Z
        if np.linalg.norm(X - prev) < _BIRKHOFF_TOL:
            return X
        prev = X.copy()
    return X


def _soft_threshold(v: np.ndarray, nu: float) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - nu, 0.0)


def elasticnet_value(x: np.ndarray):
    """||x||_1 + 0.5 ||x||_2^2 of each row of x."""
    return np.abs(x).sum(axis=-1) + 0.5 * np.vecdot(x, x)


def project_elasticnet_ball(v: np.ndarray, rho: float) -> np.ndarray:
    """Euclidean projection onto {x : ||x||_1 + 0.5 ||x||_2^2 <= rho}.

    For infeasible v the projection is x(nu) = soft_threshold(v, nu)/(1+nu)
    with nu > 0 the multiplier at which the constraint is tight. With
    a = |v| sorted in descending order and the support {1..k}, tightness
    gives sum_{i<=k} (1 + a_i)^2 = (2 rho + k) (1 + nu)^2, so
    nu_k = sqrt(sum_{i<=k} (1 + a_i)^2 / (2 rho + k)) - 1; the support is
    the k with nu_k < a_k, and they form a prefix.
    """
    v = np.asarray(v, dtype=float)
    if rho <= 0:
        raise ValueError("rho must be positive")
    if not np.all(np.isfinite(v)):
        raise ValueError("input vector must be finite")
    if elasticnet_value(v) <= rho:
        return v.copy()
    a = np.sort(np.abs(v))[::-1]
    nus = np.sqrt(np.cumsum((1.0 + a) ** 2)
                  / (2.0 * rho + np.arange(1, a.size + 1))) - 1.0
    nu = max(float(nus[np.count_nonzero(nus < a) - 1]), 0.0)
    return _soft_threshold(v, nu) / (1.0 + nu)


def solve_offline(problem, t: int, tol: float = 1e-8,
                  j: int = 0) -> OfflineSolution:
    """Minimize the average loss of the first t rounds of seed j's stream
    over the feasible set.

    Projected gradient descent with backtracking line search on the step
    size; terminates when the gradient-mapping norm falls below tol, or
    reports tolerance_met=False after _SOLVE_MAX_ITER iterations. The
    problem must have its first t rounds materialized.
    """
    if t < 1:
        raise ValueError("t must be >= 1")

    def objective_grad(x):
        total, grad = problem.loss_sum(t, x, j)
        return total / t, grad / t

    x = problem.project_feasible(np.zeros(problem.dim))
    step = 1.0
    fx, gx = objective_grad(x)
    for it in range(1, _SOLVE_MAX_ITER + 1):
        # backtracking on the projected step
        while True:
            x_new = problem.project_feasible(x - step * gx)
            diff = x_new - x
            f_new, g_new = objective_grad(x_new)
            if f_new <= fx + gx @ diff + 0.5 / step * float(diff @ diff) + 1e-14:
                break
            step *= 0.5
            if step < 1e-14:
                break
        mapping_norm = float(np.linalg.norm(x_new - x)) / step
        x, fx, gx = x_new, f_new, g_new
        if mapping_norm < tol:
            return OfflineSolution(x_star=x, objective=fx, iterations=it,
                                   tolerance_met=True)
        step = min(step * 2.0, 1.0)
    return OfflineSolution(x_star=x, objective=fx, iterations=_SOLVE_MAX_ITER,
                           tolerance_met=False)


def solve_offline_cached(problem, t: int, cache_dir: str, problem_id: str,
                         j: int = 0) -> OfflineSolution:
    """Disk-cached solve_offline of seed j at its default tolerance; writes
    via atomic rename. `problem_id` names seed j's stream."""
    path = os.path.join(cache_dir, f"{problem_id}_t{t}.json")
    if os.path.exists(path):
        with open(path) as fh:
            data = json.load(fh)
        return OfflineSolution(
            x_star=np.asarray(data["x_star"]),
            objective=data["objective"],
            iterations=data["iterations"],
            tolerance_met=data["tolerance_met"],
        )
    sol = solve_offline(problem, t, j=j)
    os.makedirs(cache_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump({
                "x_star": sol.x_star.tolist(),
                "objective": sol.objective,
                "iterations": sol.iterations,
                "tolerance_met": sol.tolerance_met,
            }, fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return sol
