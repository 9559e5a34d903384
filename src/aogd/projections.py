"""Euclidean projections and max-aggregation of constraint components.

During online rounds the iterate is only ever projected onto the enclosing
ball (never onto the feasible set itself). The dual iterate's projection
onto the nonnegative reals is a scalar clamp per seed, made by
`learner.step` itself. The m individual constraints are aggregated into
a single function g(x) = max_j g_j(x) whose subgradient is taken from an
active component.

A constraint set is any object with `values(X)` (all g_j(x), one row per
row x of X, so (S, d) -> (S, m); a single x of shape (d,) gives (m,)) and
`subgradient(X, j)` (a subgradient of g_{j[s]} at each row X[s]). Each
problem owns its set: `problems.DsmConstraints`, the linear constraints of
the doubly-stochastic polytope, and `problems.ElasticNetBudget`, the single
elastic-net budget. The learner plays the S seeds of a run in lockstep, one
row each.

Non-finite input raises FloatingPointError rather than flowing on:
`project_ball` raises for any row whose squared norm is not finite (NaN or
infinite entries, or a finite row too large to square), and `g_max` for
any non-finite constraint component. `all_finite` is the array finiteness
test of `g_max` and of both offline projections.
"""

from __future__ import annotations

import math

import numpy as np


def all_finite(a):
    """Whether every entry of a is finite.

    A finite sum of squares has only finite terms, so one dot decides
    almost every call. Only a sum that is not finite (a NaN or infinite
    entry, or finite entries whose squares overflow, such as 1e200) falls
    back to the entrywise test, one ufunc reduce.
    """
    return (math.isfinite(np.vdot(a, a))
            or bool(np.logical_and.reduce(np.isfinite(a), axis=None)))


def project_ball(x: np.ndarray, R: float) -> np.ndarray:
    """Project each row of x onto the Euclidean ball of radius R; x itself
    when no row lies outside.

    Raises FloatingPointError when a row's squared norm is not finite: a
    NaN or infinite entry, or a finite row whose squared norm overflows
    float64 (a norm past about 1.3e154). Such a row has no projection that
    the row-norm formula can give: R / inf would zero it, R / NaN fill it
    with NaN.
    """
    if R <= 0:
        raise ValueError("R must be positive")
    squares = np.vecdot(x, x)
    # sqrt is monotone, so this is the largest row norm (NaN if any is)
    norm = math.sqrt(np.maximum.reduce(squares, axis=None))
    if norm <= R:
        return x
    if not math.isfinite(norm):
        raise FloatingPointError("a row of x has a non-finite squared norm")
    # R / max(norm, R) is exactly 1.0 for the rows inside the ball
    return x * (R / np.maximum(np.sqrt(squares), R))[..., None]


def g_max(cs, X: np.ndarray):
    """Aggregate constraint value max_j g_j(x) of each row x of X (S, d).

    Returns (values, active_indices), both (S,); ties break to the smallest
    index so runs replay deterministically. A subgradient of g at each row
    is `cs.subgradient(X, active_indices)`.
    """
    values = cs.values(X)
    if not all_finite(values):
        row, bad = np.argwhere(~np.isfinite(values))[0]
        raise FloatingPointError(
            f"constraint component {bad} is non-finite at row {row} of x")
    idx = values.argmax(axis=1)  # argmax returns the first maximizer
    return values[np.arange(len(values)), idx], idx
