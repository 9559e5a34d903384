"""Primal-dual online learner with adaptive schedules.

Each round plays x_t, observes the loss gradient and the aggregated
constraint value/subgradient at x_t, then performs a projected primal
descent step on the saddle function f_t(x) + lambda * g(x) - theta_t/2 *
lambda^2 and a projected dual ascent step. Both updates use gradients
evaluated at the old (x_t, lambda_t): the updates are simultaneous, not
sequential. `run` plays the streams of S seeds in lockstep, so the state is
the pair (X, lambda): X is (S, d), one row per seed, and lambda a list of S
Python floats between rounds. Every per-seed scalar of the dual step (the
active g, its gamma shift, lambda and the step itself) is a Python float,
which costs less than ufuncs on an (S,) array at the few seeds a run
plays; only the primal step reads lambda as an array, the (S, 1) column
of the trace buffer row that holds it. It returns one `Trace` of the
run's values at the checkpoints, so that its memory does not grow with T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .projections import g_max, project_ball
from .schedules import schedule_arrays


# rounds per trace chunk: each round writes one row of (C, S) buffers, and
# every C rounds the chunk is folded into the checkpoint columns
_CHUNK_ROUNDS = 256


@dataclass(frozen=True)
class Trace:
    """What a run's outputs read, at K checkpoint rounds and per seed.

    t (K,) are the checkpoints. Row k of loss_cum and g_cum holds each
    seed's running sums f_1 + ... + f_t of the loss and g_1 + ... + g_t of
    the unshifted constraint value, and row k of lam its dual iterate
    lambda_t, for t = t[k]; each is (K, S) with column j for the j-th seed,
    and per-round values are taken at the start of the round, before the
    update. eta and theta (K,) are the schedule every seed shares.

    Per seed (S,), over all T rounds: violation_clipped is sum_t [g_t]_+,
    lam_max the largest lambda_t and lam_max_t the first t that reaches it,
    and first_nonpositive_t the first t with g_1 + ... + g_t <= 0 (0 if
    there is none). Every sum adds the rounds in order, so the sums are the
    bits of np.cumsum over the per-round column. Nothing of size T is kept.
    """

    t: np.ndarray
    loss_cum: np.ndarray
    g_cum: np.ndarray
    lam: np.ndarray
    eta: np.ndarray
    theta: np.ndarray
    violation_clipped: np.ndarray
    lam_max: np.ndarray
    lam_max_t: np.ndarray
    first_nonpositive_t: np.ndarray


class _Chunks:
    """The (C, S) per-round buffers of a run and the checkpoint columns and
    per-seed values they are folded into."""

    def __init__(self, checkpoints: np.ndarray, C: int, S: int):
        self.checkpoints = checkpoints
        K = len(checkpoints)
        self.loss_cum, self.g_cum, self.lam = (np.empty((K, S)) for _ in range(3))
        self.lams = np.empty((C, S))
        # row 0 carries the sums of the rounds before the chunk; rows 1..n
        # take each round's loss and g, and [g]_+ at the fold
        self.sums = np.empty((C + 1, 3, S))
        self.losses, self.gs = self.sums[1:, 0], self.sums[1:, 1]
        self.lam_max = np.full(S, -np.inf)
        self.lam_max_t = np.zeros(S, dtype=int)
        self.first_nonpositive_t = np.zeros(S, dtype=int)

    def fold(self, start: int, n: int):
        """Fold rounds start + 1 .. start + n, held in the buffers' first n
        rows."""
        block, lams = self.sums[:n + 1], self.lams[:n]
        np.maximum(block[1:, 1], 0.0, out=block[1:, 2])
        # the first chunk starts its sums at its first round, as np.cumsum
        # does; later ones continue from the carry
        sums = block if start else block[1:]
        np.cumsum(sums, axis=0, out=sums)

        lo, hi = np.searchsorted(self.checkpoints, [start + 1, start + n + 1])
        rows = self.checkpoints[lo:hi] - start
        self.loss_cum[lo:hi], self.g_cum[lo:hi] = block[rows, 0], block[rows, 1]
        self.lam[lo:hi] = lams[rows - 1]

        k = np.argmax(lams, axis=0)  # the first maximizer of each column
        top = lams[k, np.arange(lams.shape[1])]
        higher = top > self.lam_max
        self.lam_max[higher] = top[higher]
        self.lam_max_t[higher] = start + 1 + k[higher]
        nonpos = block[1:, 1] <= 0.0
        found = (self.first_nonpositive_t == 0) & nonpos.any(axis=0)
        self.first_nonpositive_t[found] = (
            start + 1 + np.argmax(nonpos[:, found], axis=0))
        block[0] = block[n]


def step(X: np.ndarray, lam: list[float], lam_col: np.ndarray, t: int,
         f_grad: np.ndarray, g_value: list[float], gamma: float,
         g_sub: np.ndarray, eta_t: float, mu_t: float, theta_t: float,
         R: float) -> tuple[np.ndarray, list[float]]:
    """One simultaneous primal-descent / dual-ascent update of round t for
    each row: X, f_grad and g_sub are (S, d); lam and g_value are S Python
    floats, lambda_t and the unshifted g_t, and lam_col is lam as an (S, 1)
    array, only read (`run` passes a view of its trace buffer row).

    The primal gradient of the saddle function is f_grad + lam * g_sub, the
    dual gradient g_value + gamma - theta_t * lam; returns the next X and
    the next lambda as a list of S Python floats, each seed's ascent step
    projected onto the nonnegative reals as `max(0.0, v)` does (NaN and
    -0.0 become +0.0). Raises FloatingPointError, naming t, for a shifted
    g_value that is not finite, or a primal gradient whose descent step
    leaves a row without a finite norm (the ball projection checks every
    row).
    """
    lam_next = []
    for lam_j, g_j in zip(lam, g_value):
        g_j += gamma
        if not math.isfinite(g_j):
            raise FloatingPointError(f"non-finite gradient at round t={t}")
        v = lam_j + mu_t * (g_j - theta_t * lam_j)
        lam_next.append(v if v > 0.0 else 0.0)
    try:
        X_next = project_ball(X - eta_t * (f_grad + lam_col * g_sub), R)
    except FloatingPointError as err:
        raise FloatingPointError(f"non-finite gradient at round t={t}") from err
    return X_next, lam_next


def _rounds(checkpoints, T: int) -> np.ndarray:
    """The checkpoints as an int array; ValueError unless they are strictly
    increasing integer rounds in [1, T]."""
    ts = np.asarray(checkpoints)
    # a list of ints holding a bool still converts to an int array
    if (ts.ndim == 1 and ts.size and ts.dtype.kind in "iu"
            and not any(isinstance(c, (bool, np.bool_)) for c in checkpoints)):
        ts = ts.astype(int)
        if ts[0] >= 1 and ts[-1] <= T and np.all(np.diff(ts) > 0):
            return ts
    raise ValueError(f"checkpoints must be strictly increasing rounds in [1, {T}]")


def run(problem, schedule, T: int, seeds, checkpoints) -> Trace:
    """Execute T rounds of the problem's stream of each of `seeds`, in
    lockstep, and return their trace at `checkpoints`, strictly increasing
    rounds in [1, T].

    Seed j's column is the run of that seed alone, bit for bit, and is
    deterministic given (problem, seeds[j], schedule). With schedule.gamma >
    0 the learner plays against the shifted constraint g + gamma: its dual
    update sees g + gamma with the dual step schedule_arrays gives, while
    the trace sums the unshifted g for violation accounting. Raises
    ValueError for T < 1 or bad checkpoints: a checkpoint must be an int or
    a numpy integer, not a bool.
    """
    theta, eta, mu = schedule_arrays(schedule, T)
    gamma = float(schedule.gamma)
    ts = _rounds(checkpoints, T)
    problem.materialize(T, seeds)
    R = problem.constants.R
    cs = problem.constraints
    S = len(seeds)
    C = min(T, _CHUNK_ROUNDS)
    chunks = _Chunks(ts, C, S)
    lams, losses, gs = chunks.lams, chunks.losses, chunks.gs
    lam_cols = lams[:, :, None]  # row i as the (S, 1) column of lambda_t
    X, lam = np.zeros((S, problem.dim)), [0.0] * S
    for start in range(0, T, C):
        stop = min(start + C, T)
        # the chunk's schedule as Python floats: the same IEEE values,
        # without a numpy scalar per round and operation
        for i, (eta_t, mu_t, theta_t) in enumerate(
                zip(eta[start:stop].tolist(), mu[start:stop].tolist(),
                    theta[start:stop].tolist())):
            t = start + i + 1
            f_val, f_grad = problem.loss(t, X)
            g_val, idx = g_max(cs, X)
            lams[i], losses[i], gs[i] = lam, f_val, g_val
            X, lam = step(X, lam, lam_cols[i], t, f_grad, g_val, gamma,
                          cs.subgradient(X, idx), eta_t, mu_t, theta_t, R)
        chunks.fold(start, stop - start)
    return Trace(t=ts, loss_cum=chunks.loss_cum, g_cum=chunks.g_cum,
                 lam=chunks.lam, eta=eta[ts - 1], theta=theta[ts - 1],
                 violation_clipped=chunks.sums[0, 2].copy(),
                 lam_max=chunks.lam_max,
                 lam_max_t=chunks.lam_max_t,
                 first_nonpositive_t=chunks.first_nonpositive_t)
