"""Reference oracle for the DSM stream: the float matrices of its codes.

`DsmProblem` holds each round's permutation matrix Y_t only as the column
codes of `permutation_stream`, and `prefix_loss` counts codes where the
prefix sum used to add up the (t, p, p) float prefix. The tests read the
matrices through `stream_matrices` and compare what `prefix_loss` returns
with `loss_sum_float`, the float prefix sum, and what `loss` returns with
`loss_grad_float`, the loss of one float matrix, bit for bit.
"""

import numpy as np


def stream_matrices(codes: np.ndarray) -> np.ndarray:
    """The 0/1 float matrices (..., p, p) of column codes (..., p): row i
    of a matrix has its one in column codes[..., i]."""
    return np.eye(codes.shape[-1])[codes]


def loss_grad_float(Y: np.ndarray, X: np.ndarray):
    """Quadratic tracking loss 0.5 * ||Y - X||_F^2 and its gradient X - Y,
    over the last two axes: (..., p, p) matrices give (...) values."""
    diff = X - Y
    return 0.5 * (diff * diff).sum(axis=(-2, -1)), diff


def loss_sum_float(problem, t: int, x: np.ndarray, j: int = 0):
    """Value and gradient of f_1 + ... + f_t of seed j at x, from the float
    prefix Y_1..Y_t: 0.5 t ||x||^2 - x.S + 0.5 Q with S the sum of the Y_s
    and Q the sum of their squared norms, and gradient t x - S."""
    Ys = stream_matrices(problem.stream[j, :t]).reshape(t, problem.dim)
    S = Ys.sum(axis=0)
    Q = float(np.vdot(Ys, Ys))
    return 0.5 * t * float(x @ x) - float(x @ S) + 0.5 * Q, t * x - S
