"""Euclidean projections and max-aggregation of constraint components.

During online rounds the iterate is only ever projected onto the enclosing
ball (never onto the feasible set itself); the dual variable is projected
onto the nonnegative reals. The m individual constraints are aggregated into
a single function g(x) = max_j g_j(x) whose subgradient is taken from an
active component.

A constraint set is any object with `values(x)` (the vector of all g_j(x))
and `subgradient(x, j)` (a subgradient of g_j at x). Two exist:
`LinearConstraints(A, b)` here, with g_j(x) = A[j] . x - b[j], and the
single elastic-net budget, `problems.ElasticNetBudget`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LinearConstraints:
    """Linear components g_j(x) = A[j] . x - b[j], one row of A each."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        # read-only views: rows of A are handed out as subgradients
        A = np.asarray(self.A, dtype=float).view()
        b = np.asarray(self.b, dtype=float).view()
        if A.ndim != 2 or b.shape != A.shape[:1]:
            raise ValueError(f"A must be (m, n) and b (m,); got "
                             f"{A.shape} and {b.shape}")
        if len(b) < 1:
            raise ValueError("constraint set needs at least one component")
        A.flags.writeable = b.flags.writeable = False
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    def __len__(self):
        return len(self.b)

    def values(self, x: np.ndarray) -> np.ndarray:
        # vecdot takes one BLAS dot per row, the kernel of a single
        # `A[j] @ x`; A @ x (gemv) sums in another order, and where rows are
        # tied mathematically (DSM row and column sums) the last bit then
        # moves the first maximizer that g_max returns
        return np.vecdot(self.A, x) - self.b

    def subgradient(self, x: np.ndarray, j: int) -> np.ndarray:
        return self.A[j]


def project_ball(x: np.ndarray, R: float) -> np.ndarray:
    """Project x onto the Euclidean ball of radius R."""
    if R <= 0:
        raise ValueError("R must be positive")
    norm = float(np.linalg.norm(x))
    if norm <= R:
        return x
    return x * (R / norm)


def project_nonneg(lam: float) -> float:
    """Project a scalar onto the nonnegative reals."""
    return max(0.0, lam)


def g_max(cs, x: np.ndarray):
    """Aggregate constraint value max_j g_j(x).

    Returns (value, active_index); ties break to the smallest index so runs
    replay deterministically. A subgradient of g at x is
    `cs.subgradient(x, active_index)`.
    """
    values = cs.values(x)
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise FloatingPointError(f"constraint component {bad} is non-finite at x")
    idx = int(np.argmax(values))  # argmax returns the first maximizer
    return float(values[idx]), idx
