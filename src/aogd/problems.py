"""Benchmark problem families as online oracles.

Two problems: online estimation of doubly-stochastic matrices (quadratic
losses against random permutation matrices, linear constraints) and sparse
binary classification (log-loss with an elastic-net budget constraint).
Each problem derives its own bound constants (R, G, D, F, sigma) and owns
its constraint set.

A problem holds the streams of S seeds at once, seed-major, so that the
learner can play them in lockstep: `loss(t, X)` takes one iterate per seed
as the rows of X (S, d), and `prefix_loss(t, j)` counts seed j's first t
rounds once and returns x -> (value, gradient) of their sum, whose
`smoothness()` bounds the Lipschitz constant of the gradient of their
average and whose `minimizer()` is their minimizer over the feasible set
where a closed form gives it, else None.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import offline
from .schedules import ProblemConstants

# 0-d operands of the per-call arithmetic, as in projections.py
_ZERO, _HALF = np.array(0.0), np.array(0.5)


class DsmConstraints:
    """Linear constraints of the doubly-stochastic polytope, g_j(x) =
    A[j] . x - b[j], with the rows of A as subgradients.

    p^2 nonnegativity constraints -X_ij <= 0 (b = 0) followed by 4p
    inequalities (row sums <= 1, >= 1, column sums <= 1, >= 1; b = +-1) that
    model the 2p equality constraints. Matrices are flattened row-major to
    dimension p^2.
    """

    def __init__(self, p: int):
        if p < 2:
            raise ValueError("p must be >= 2")
        n = p * p
        # filled in place, so no second (n, n) array is ever alive
        A = np.zeros((n + 4 * p, n))
        np.fill_diagonal(A[:n], -1.0)
        sums = A[n:].reshape(4, p, p, p)  # family, constraint, row i, column j
        k = np.arange(p)
        sums[0, k, k, :] = 1.0  # row i sums to <= 1
        sums[1] = -sums[0]      # ... and >= 1
        sums[2, k, :, k] = 1.0  # column j sums to <= 1
        sums[3] = -sums[2]      # ... and >= 1
        b = np.repeat([1.0, -1.0, 1.0, -1.0], p)
        # read-only: rows of A are handed out as subgradients
        A.flags.writeable = b.flags.writeable = False
        self.A = A
        self._sums = (A[n:], b)  # the 4p sum rows and their b

    def values(self, x: np.ndarray) -> np.ndarray:
        # vecdot takes one BLAS dot per row, the kernel of a single
        # `A[j] @ x`; A @ x (gemv) sums in another order, and where rows are
        # tied mathematically (row and column sums) the last bit then moves
        # the first maximizer that g_max returns
        A, b = self._sums
        n = x.shape[-1]
        out = np.empty(x.shape[:-1] + (n + len(b),))
        # a row -e_i dots to exactly -x_i, and to +0.0 (never -0.0) where
        # x_i is a signed zero; 0.0 - x_i gives the same bits, -x_i would not
        np.subtract(_ZERO, x, out=out[..., :n])
        np.subtract(np.vecdot(A, x[..., None, :]), b, out=out[..., n:])
        return out

    def subgradient(self, x: np.ndarray, j) -> np.ndarray:
        rows = self.A.take(j, axis=0)
        rows.flags.writeable = False  # a copy, read-only as A's rows are
        return rows


def _round(rounds: np.ndarray, t: int) -> np.ndarray:
    """Round t (1-indexed) of a materialized stream held round-major."""
    if not 1 <= t <= len(rounds):
        raise ValueError(f"t={t} outside the {len(rounds)} materialized rounds")
    return rounds[t - 1]


def _prefix(stream: np.ndarray, t: int) -> np.ndarray:
    """The first t rounds of a materialized stream."""
    _round(stream, t)  # the range check
    return stream[:t]


_NOT_MATERIALIZED = "call materialize(T, seeds) before accessing the stream"


# rows per shuffled block of permutation_stream
_CHUNK_ROWS = 256
# rounds per np.bincount of DsmProblem.prefix_loss, which bounds its
# (rows, p) intp temporary
_COUNT_ROWS = 1 << 16


def permutation_stream(p: int, seeds, T: int) -> np.ndarray:
    """T uniformly random p x p permutation matrices per seed as column
    codes, (S, T, p) in the smallest unsigned type that holds p - 1: entry
    (j, t, i) is the column of the one in row i of seed j's Y_{t+1}. Row j
    is drawn from its own generator, deterministic in seeds[j]."""
    if p < 2:
        raise ValueError("p must be >= 2")
    k = np.arange(p, dtype=np.min_scalar_type(p - 1))
    out = np.empty((len(seeds), T, p), dtype=k.dtype)
    # shuffled in intp blocks: numpy's shuffle is fast only for intp-sized
    # items and draws the same swaps whatever the item type
    block = np.empty((min(T, _CHUNK_ROWS), p), dtype=np.intp)
    for cols, seed in zip(out, seeds):
        rng = np.random.default_rng(seed)
        for start in range(0, T, _CHUNK_ROWS):
            rows = block[:T - start]
            rows[:] = k
            # one shuffle per row, block after block, draws the same stream
            # as T calls to permutation(p)
            rng.permuted(rows, axis=1, out=rows)
            cols[start:start + len(rows)] = rows
    return out


class DsmProblem:
    """Online doubly-stochastic matrix estimation.

    Losses f_t(X) = 0.5 * ||Y_t - X||_F^2 with Y_t random permutation
    matrices; iterates are flattened p x p matrices. Derived constants:
    R = sqrt(p), G = 2R, sigma = 1; D = p + 1, since over the ball a row
    sum lies in [-p, p], so 1 - (row sum) reaches p + 1; F is the loss range
    bound 0.5 * (sqrt(p) + R)^2 over the enclosing ball.

    The stream is held only as permutation_stream's column codes, p bytes
    per round and seed: `loss` gathers round t's rows of the identity, and
    `prefix_loss` counts codes.
    """

    def __init__(self, p: int):
        if p < 2:
            raise ValueError("p must be >= 2")
        self.p = p
        self.dim = p * p
        R = float(np.sqrt(p))
        self.constants = ProblemConstants(
            R=R, G=2.0 * R, D=p + 1.0, F=0.5 * (np.sqrt(p) + R) ** 2,
            sigma=1.0
        )
        self.constraints = DsmConstraints(p)
        self._row_starts = np.arange(0, self.dim, p)
        self._eye = np.eye(p)  # row k is the one-hot row of column code k
        # the codes (S, T, p) and their round-major view (T, S, p)
        self._codes = self._rounds = None

    def materialize(self, T: int, seeds):
        """Draw the first T rounds of the stream of each of `seeds`."""
        self._codes = self._rounds = None  # never two streams alive at once
        self._codes = permutation_stream(self.p, seeds, T)
        self._rounds = self._codes.swapaxes(0, 1)
        return self

    @property
    def stream(self) -> np.ndarray:
        """The materialized streams as column codes, (S, T, p)."""
        if self._codes is None:
            raise RuntimeError(_NOT_MATERIALIZED)
        return self._codes

    def loss(self, t: int, X: np.ndarray):
        """Values (S,) and gradients (S, d) of each seed's f_t at its row of
        X (S, d), iterates flattened; t is 1-indexed."""
        if self._rounds is None:
            raise RuntimeError(_NOT_MATERIALIZED)
        # Y_t of each seed, (S, p, p); a t outside the stream raises
        Y = self._eye.take(_round(self._rounds, t), axis=0)
        grads = X - Y.reshape(X.shape)
        return _HALF * np.add.reduce(grads * grads, axis=-1), grads

    def prefix_loss(self, t: int, j: int = 0):
        """The function x -> (value, gradient) of f_1 + ... + f_t of seed j,
        x flattened.

        With S = sum of the Y_s and Q = sum of their squared norms, the sum
        is 0.5 t ||x||^2 - x.S + 0.5 Q and its gradient t x - S. S counts
        how often each row's one falls in each column, counted here once,
        and Q = t p: both are integers, so exact in float64 whatever the
        order of summation. Its `smoothness()` is 1.0, the Lipschitz
        constant of the gradient of the average sum / t, and its
        `minimizer()` over the Birkhoff polytope is the prefix mean S / t:
        the unconstrained minimizer, which is an average of permutation
        matrices and so lies in the polytope (Birkhoff-von Neumann).
        """
        codes = _prefix(self.stream[j], t)
        S = np.zeros(self.dim)
        for start in range(0, t, _COUNT_ROWS):
            # flat index i p + codes[s, i] of the one in row i of Y_s
            flat = codes[start:start + _COUNT_ROWS] + self._row_starts
            S += np.bincount(flat.ravel(), minlength=self.dim)
        half_q = 0.5 * float(t * self.p)

        def loss(x: np.ndarray):
            return 0.5 * t * float(x @ x) - float(x @ S) + half_q, t * x - S
        # the average 0.5 ||x||^2 - x.S / t + Q / (2t) has the identity as
        # its Hessian
        loss.smoothness = lambda: 1.0
        loss.minimizer = lambda: S / t
        return loss

    def project_feasible(self, x: np.ndarray) -> np.ndarray:
        return offline.project_birkhoff(x.reshape(self.p, self.p)).ravel()


def _logistic(z: np.ndarray):
    """log(1 + e^z) and its slope, the logistic sigmoid 1 / (1 + e^-z),
    taken as exp(z - log(1 + e^z)), which neither overflows nor warns for
    any finite z: the slope is exactly 1.0 above z ~ 33.3 and 0.0 below
    z ~ -745.1."""
    value = np.logaddexp(_ZERO, z)
    return value, np.exp(z - value)


def elasticnet_constants(rho: float, features: np.ndarray) -> ProblemConstants:
    """Derived constants for the elastic-net constrained logistic problem.

    R solves ||x||_2 + 0.5 ||x||_2^2 <= rho at the boundary; G covers both
    the constraint subgradients (sqrt(d) + R) and the feature norms; the
    loss range F is the maximum achievable log-loss over the ball.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    features = np.asarray(features, dtype=float)
    n, d = features.shape
    if n == 0:
        raise ValueError("dataset must be nonempty")
    if d == 0:
        raise ValueError(f"dataset has {n} rows and no feature")
    R = float(np.sqrt(1.0 + 2.0 * rho) - 1.0)
    max_u = float(np.max(np.linalg.norm(features, axis=1)))
    G = max(np.sqrt(d) + R, max_u)
    D = float(np.sqrt(d) * R + R**2 / 2.0)
    F = float(np.logaddexp(0.0, G * R))
    return ProblemConstants(R=R, G=G, D=D, F=F, sigma=0.0)


@dataclass(frozen=True)
class ElasticNetBudget:
    """The single constraint ||x||_1 + 0.5 ||x||_2^2 - rho <= 0.

    At l1 kinks the zero subgradient coordinate is chosen (minimal-norm
    element of the subdifferential), which np.sign provides.
    """

    rho: float

    def values(self, x: np.ndarray) -> np.ndarray:
        return (offline.elasticnet_value(x) - self.rho)[..., None]

    def subgradient(self, x: np.ndarray, j) -> np.ndarray:
        return np.sign(x) + x


class ElasticNetProblem:
    """Sparse online binary classification with an elastic-net budget.

    Rounds draw (label, feature) pairs at random with replacement from the
    dataset; the long-term constraint keeps iterates near the elastic-net
    ball of budget rho.

    `prefix_loss` counts draws: with c_i the number of rounds among the
    first t that drew example i, the prefix sum is sum_i c_i f(x; i) over
    the examples with c_i > 0. Past the one O(t) count, an evaluation costs
    O(min(t, n) d), and the rows it keeps stay within the dataset's n x d
    however long the stream grows.
    """

    def __init__(self, labels: np.ndarray, features: np.ndarray, rho: float):
        labels = np.asarray(labels, dtype=float)
        features = np.asarray(features, dtype=float)
        if labels.shape[0] != features.shape[0]:
            raise ValueError("labels and features must have equal length")
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ValueError("labels must be -1/+1")
        self.labels = labels
        self.features = features
        # the signed rows w_i = -y_i u_i, which each round and each prefix
        # read: negation is exact, so x.w_i and w_i s have the bits of
        # -y_i (x.u_i) and -y_i u_i s
        self._signed = -labels[:, None] * features
        self.rho = float(rho)
        self.dim = features.shape[1]
        self.constants = elasticnet_constants(rho, features)
        self.constraints = ElasticNetBudget(self.rho)
        self._order = self._rounds = None  # (S, T) and round-major (T, S)

    def materialize(self, T: int, seeds):
        """Draw the example order of the first T rounds of each of `seeds`'
        streams."""
        n = self.labels.shape[0]
        # drawn in int64 (a smaller dtype draws other numbers) and stored in
        # the smallest type that holds n - 1
        order = np.empty((len(seeds), T), dtype=np.min_scalar_type(n - 1))
        for row, seed in zip(order, seeds):
            row[:] = np.random.default_rng(seed).integers(0, n, size=T)
        self._order, self._rounds = order, order.T
        return self

    @property
    def stream(self) -> np.ndarray:
        """The materialized example indices, (S, T)."""
        if self._order is None:
            raise RuntimeError(_NOT_MATERIALIZED)
        return self._order

    def loss(self, t: int, X: np.ndarray):
        """Values (S,) and gradients (S, d) of each seed's f_t at its row of
        X (S, d), the logistic loss log(1 + exp(-y x.u)) of the example
        (y, u) the seed drew; t is 1-indexed."""
        if self._rounds is None:
            raise RuntimeError(_NOT_MATERIALIZED)
        # round t's signed rows, one gather by the stored index; a t past
        # the stream raises
        W = self._signed.take(_round(self._rounds, t), axis=0)
        value, slope = _logistic(np.vecdot(X, W))  # at x.w = -(y x.u)
        return value, W * slope[..., None]

    def prefix_loss(self, t: int, j: int = 0):
        """The function x -> (value, gradient) of f_1 + ... + f_t of seed j,
        as sum_i c_i f(x; i) with c_i the draws of example i in those
        rounds. The drawn signed rows W (w_i = -y_i u_i) and their counts c
        are gathered here once.

        Its `smoothness()` bounds the Lipschitz constant of the gradient of
        the average sum / t: the logistic sigma' is at most 1/4, so the
        Hessian is below sum_i c_i u_i u_i^T / (4t). The top eigenvalue of
        that Gram matrix V^T V, V = sqrt(c) U, is the one of V V^T too, and
        the smaller of the d x d and k x k forms is decomposed, k the
        number of drawn rows. Its `minimizer()` is None: no closed form
        gives the constrained logistic fit.
        """
        counts = np.bincount(_prefix(self.stream[j], t),
                             minlength=self.labels.shape[0])
        rows = np.flatnonzero(counts)
        W, c = self._signed[rows], counts[rows].astype(float)

        def loss(x: np.ndarray):
            value, slope = _logistic(W @ x)
            return float(c @ value), (c * slope) @ W

        def smoothness() -> float:
            # from the unsigned rows: the k x k Gram matrix of the signed
            # ones is D V V^T D, D = diag(-y), whose eigvalsh differs in
            # the last bits
            V = np.sqrt(c)[:, None] * self.features[rows]
            gram = V.T @ V if V.shape[1] <= V.shape[0] else V @ V.T
            return float(np.linalg.eigvalsh(gram)[-1]) / (4.0 * t)
        loss.smoothness = smoothness
        loss.minimizer = lambda: None
        return loss

    def project_feasible(self, x: np.ndarray) -> np.ndarray:
        return offline.project_elasticnet_ball(x, self.rho)
