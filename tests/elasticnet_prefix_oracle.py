"""Reference oracle for the elastic-net prefix sum: the gathered prefix.

`ElasticNetProblem.prefix_loss` counts how often each example is drawn in
the first t rounds and sums c_i f(x; i) over the drawn examples, where the
prefix sum used to gather the (t, d) prefix of features and sum over
rounds. The tests compare what it returns with `loss_sum_gathered`, that
gathered sum, to a tolerance.
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
