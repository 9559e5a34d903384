"""Read a run's per-round values through the hooks the benchmark also wraps.

`learner.run` keeps no per-round column; each round's iterates X_t and dual
iterates lambda_t, one row per seed, are arguments of that round's
`learner.step` call, its losses are what `problem.loss` returns, and its
unshifted constraint values what `learner.g_max` returns. Context managers
rather than pytest fixtures, so that `hypothesis` tests can use them too.
"""

from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np

from aogd import learner


@contextmanager
def recorded_iterates():
    """Collect a copy of the X (S, d) each `learner.step` call receives, in
    call order: after one `run`, entry t-1 is X_t, whose row j is x_t of
    the j-th seed. Restores `step` on exit."""
    xs = []
    original = learner.step

    def recording_step(x, *args, **kwargs):
        xs.append(x.copy())
        return original(x, *args, **kwargs)

    learner.step = recording_step
    try:
        yield xs
    finally:
        learner.step = original


@contextmanager
def recorded_rounds(problem):
    """Record one run of `problem` round by round. On exit the namespace
    holds the arrays x (T, S, d) and lam, loss and g (T, S): row t-1 has
    X_t, lambda_t, f_t(x_t) and the unshifted g_t. Restores `step`,
    `g_max` and `problem.loss`."""
    rounds = SimpleNamespace(x=[], lam=[], loss=[], g=[])
    step, g_max, loss = learner.step, learner.g_max, problem.loss

    def recording_step(x, lam, *args):
        rounds.x.append(x.copy())
        rounds.lam.append(lam.copy())
        return step(x, lam, *args)

    def recording_g_max(constraints, X):
        values, idx = g_max(constraints, X)
        rounds.g.append(values.copy())
        return values, idx

    def recording_loss(t, X):
        values, grads = loss(t, X)
        rounds.loss.append(values.copy())
        return values, grads

    learner.step, learner.g_max = recording_step, recording_g_max
    problem.loss = recording_loss
    try:
        yield rounds
    finally:
        learner.step, learner.g_max = step, g_max
        del problem.loss
        for name, column in vars(rounds).items():
            setattr(rounds, name, np.array(column))
