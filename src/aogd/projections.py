"""Euclidean projections and max-aggregation of constraint components.

During online rounds the iterate is only ever projected onto the enclosing
ball (never onto the feasible set itself); the dual variable is projected
onto the nonnegative reals. The m individual constraints are aggregated into
a single function g(x) = max_j g_j(x) whose subgradient is taken from an
active component.

A constraint set is any object with `values(X)` (all g_j(x), one row per
row x of X, so (S, d) -> (S, m); a single x of shape (d,) gives (m,)) and
`subgradient(X, j)` (a subgradient of g_{j[s]} at each row X[s]). Two exist:
`LinearConstraints(A, b)` here, with g_j(x) = A[j] . x - b[j], and the
single elastic-net budget, `problems.ElasticNetBudget`. The learner plays
the S seeds of a run in lockstep, one row each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class LinearConstraints:
    """Linear components g_j(x) = A[j] . x - b[j], one row of A each."""

    A: np.ndarray
    b: np.ndarray
    # the leading rows -e_0, ..., -e_{k-1} with b = 0 (the DSM nonnegativity
    # block) are evaluated without dot products; the rest is (A, b)[k:]
    _nonneg: int = field(init=False, repr=False, compare=False)
    _rest: tuple = field(init=False, repr=False, compare=False)

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
        n = min(A.shape)
        lead = np.all(A[:n] == -np.eye(n, A.shape[1]), axis=1) & (b[:n] == 0.0)
        k = n if lead.all() else int(np.argmin(lead))
        object.__setattr__(self, "_nonneg", k)
        object.__setattr__(self, "_rest", (A[k:], b[k:]))

    def __len__(self):
        return len(self.b)

    def values(self, x: np.ndarray) -> np.ndarray:
        A, b = self._rest
        # vecdot takes one BLAS dot per row, the kernel of a single
        # `A[j] @ x`; A @ x (gemv) sums in another order, and where rows are
        # tied mathematically (DSM row and column sums) the last bit then
        # moves the first maximizer that g_max returns
        rest = np.vecdot(A, x[..., None, :]) - b
        # a row -e_i dots to exactly -x_i, and to +0.0 (never -0.0) where
        # x_i is a signed zero; 0.0 - x_i gives the same bits, -x_i would not
        return np.concatenate((0.0 - x[..., :self._nonneg], rest), axis=-1)

    def subgradient(self, x: np.ndarray, j) -> np.ndarray:
        return self.A[j]


def project_ball(x: np.ndarray, R: float) -> np.ndarray:
    """Project each row of x onto the Euclidean ball of radius R; x itself
    when no row lies outside."""
    if R <= 0:
        raise ValueError("R must be positive")
    squares = np.vecdot(x, x)
    # sqrt is monotone, so this is the largest row norm (NaN if any is)
    if math.sqrt(squares.max()) <= R:
        return x
    # R / max(norm, R) is exactly 1.0 for the rows inside the ball
    return x * (R / np.maximum(np.sqrt(squares), R))[..., None]


def project_nonneg(lam):
    """Project each dual iterate onto the nonnegative reals, as
    `max(0.0, lam)` does: NaN and -0.0 become +0.0."""
    return np.where(lam > 0.0, lam, 0.0)


def g_max(cs, X: np.ndarray):
    """Aggregate constraint value max_j g_j(x) of each row x of X (S, d).

    Returns (values, active_indices), both (S,); ties break to the smallest
    index so runs replay deterministically. A subgradient of g at each row
    is `cs.subgradient(X, active_indices)`.
    """
    values = cs.values(X)
    finite = np.isfinite(values)
    if not finite.all():
        row, bad = np.argwhere(~finite)[0]
        raise FloatingPointError(
            f"constraint component {bad} is non-finite at row {row} of x")
    idx = values.argmax(axis=1)  # argmax returns the first maximizer
    return values[np.arange(len(values)), idx], idx
