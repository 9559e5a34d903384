"""Reference oracles for the elastic-net prefix sum.

`ElasticNetProblem.prefix_loss` counts how often each example is drawn in
the first t rounds and sums c_i f(x; i) over the drawn examples, where the
prefix sum used to gather the (t, d) prefix of features and sum over
rounds. The tests compare what it returns with `loss_sum_gathered`, that
gathered sum, to a tolerance.

`prefix_loss_unsigned` is the counted prefix as it was written before it
read the signed rows w_i = -y_i u_i: on the unsigned rows U with the
weights c_i (-y_i), for a check that the signed form gives the same bits.
"""

import numpy as np
from scipy.special import expit


def loss_sum_gathered(problem, t: int, x: np.ndarray, j: int = 0):
    """Value and gradient of f_1 + ... + f_t of seed j at x, from the
    features and labels of rounds 1..t gathered in round order."""
    idx = problem.stream[j, :t]
    U, y = problem.features[idx], problem.labels[idx]
    margin = y * (U @ x)
    return float(np.sum(np.logaddexp(0.0, -margin))), -(y * expit(-margin)) @ U


def prefix_loss_unsigned(problem, t: int, j: int = 0):
    """The function x -> (value, gradient) of f_1 + ... + f_t of seed j,
    with its `smoothness()`, from the unsigned rows U of the drawn
    examples, their counts c and negated labels."""
    counts = np.bincount(problem.stream[j, :t],
                         minlength=problem.labels.shape[0])
    rows = np.flatnonzero(counts)
    U, c = problem.features[rows], counts[rows].astype(float)
    neg_y = -problem.labels[rows]
    weights = c * neg_y

    def loss(x: np.ndarray):
        z = neg_y * (U @ x)
        value = np.logaddexp(0.0, z)
        return float(c @ value), (weights * np.exp(z - value)) @ U

    def smoothness() -> float:
        W = np.sqrt(c)[:, None] * U
        gram = W.T @ W if W.shape[1] <= W.shape[0] else W @ W.T
        return float(np.linalg.eigvalsh(gram)[-1]) / (4.0 * t)
    loss.smoothness = smoothness
    return loss
