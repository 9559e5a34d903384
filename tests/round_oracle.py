"""The online round as it was written before its per-round numpy calls were
cut: `step`, `g_max`, `project_ball` and `project_nonneg` verbatim, each
problem's `loss` as it read its stream, and `DsmConstraints.values` (one
concatenate) and `subgradient` (`A[j]`) verbatim, for a randomized check
that the lean round gives the same bits. `logloss_grad` is the elastic-net
round's formula as it stood, with its label check: the reference the loss
tests check by finite differences and tie `ElasticNetProblem.loss` to.

`reference_round(problem)` plays a `learner.run` with these in place of
`learner.step`, `learner.g_max`, `problem.loss` and, for a DSM problem,
its constraints' `values` and `subgradient`.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from types import MethodType

import numpy as np

from aogd import learner
from aogd.problems import DsmProblem


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


def dsm_loss(problem, t: int, X: np.ndarray):
    """DsmProblem.loss, reading round t through the public stream."""
    Y = problem._eye.take(problem.stream.swapaxes(0, 1)[t - 1], axis=0)
    grads = X - Y.reshape(X.shape)
    return 0.5 * (grads * grads).sum(axis=-1), grads


def dsm_values(self, x: np.ndarray) -> np.ndarray:
    """DsmConstraints.values as it stood; `reference_round` binds it to a
    DSM problem's constraints."""
    # vecdot takes one BLAS dot per row, the kernel of a single
    # `A[j] @ x`; A @ x (gemv) sums in another order, and where rows are
    # tied mathematically (row and column sums) the last bit then moves
    # the first maximizer that g_max returns
    A, b = self._sums
    sums = np.vecdot(A, x[..., None, :]) - b
    # a row -e_i dots to exactly -x_i, and to +0.0 (never -0.0) where
    # x_i is a signed zero; 0.0 - x_i gives the same bits, -x_i would not
    return np.concatenate((0.0 - x, sums), axis=-1)


def dsm_subgradient(self, x: np.ndarray, j) -> np.ndarray:
    """DsmConstraints.subgradient as it stood, bound like `dsm_values`."""
    return self.A[j]


def logloss_grad(y, u: np.ndarray, x: np.ndarray):
    """Logistic loss log(1 + exp(-y x.u)) and gradient, overflow-safe; one
    per row of labels y (S,), features u (S, d) and iterates x (S, d). The
    value log(1 + e^z) at z = -y x.u is np.logaddexp(0, z), and the slope
    exp(z - value)."""
    y = np.asarray(y, dtype=float)
    if (np.abs(y) != 1.0).any():
        raise ValueError("label must be -1 or +1")
    neg_y = -y
    z = neg_y * np.vecdot(x, u)
    value = np.logaddexp(0.0, z)
    slope = np.exp(z - value)
    return value, neg_y[..., None] * u * slope[..., None]


def elasticnet_loss(problem, t: int, X: np.ndarray):
    """ElasticNetProblem.loss, checking and negating the labels each round."""
    i = problem.stream.T[t - 1].astype(np.intp)
    return logloss_grad(problem.labels[i], problem.features[i], X)


@contextmanager
def reference_round(problem):
    """Run `problem` with the reference round until exit, which restores
    `learner.step`, `learner.g_max`, the problem's own `loss` and its
    constraints' own `values` and `subgradient`."""
    saved = learner.step, learner.g_max
    dsm = isinstance(problem, DsmProblem)
    loss = dsm_loss if dsm else elasticnet_loss
    learner.step, learner.g_max = step, g_max
    problem.loss = lambda t, X: loss(problem, t, X)
    cs = problem.constraints
    if dsm:
        cs.values = MethodType(dsm_values, cs)
        cs.subgradient = MethodType(dsm_subgradient, cs)
    try:
        yield
    finally:
        learner.step, learner.g_max = saved
        del problem.loss
        if dsm:
            del cs.values, cs.subgradient
