"""Read a run's primal iterates through the hook the benchmark also wraps.

`learner.run` keeps no iterate column; each round's iterates X_t, one row
per seed, are the first argument of that round's `learner.step` call. A context manager rather than a
pytest fixture, so that `hypothesis` tests can use it too.
"""

from contextlib import contextmanager

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
