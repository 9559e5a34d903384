"""Property tests: projection laws and the learner's iterate invariants.

Derandomized with small example counts, so every run draws the same cases
and the suite stays fast.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aogd.learner import run
from aogd.problems import DsmProblem
from aogd.projections import project_ball, project_nonneg
from aogd.schedules import FixedScheduleParams, Regime, ScheduleParams
from step_recorder import recorded_iterates

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)

radii = st.floats(1e-3, 1e3)
finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def vector_pairs(draw):
    dim = draw(st.integers(1, 8))
    return (draw(arrays(np.float64, dim, elements=finite)),
            draw(arrays(np.float64, dim, elements=finite)))


@SETTINGS
@given(pair=vector_pairs(), R=radii)
def test_project_ball_idempotent_and_nonexpansive(pair, R):
    x, y = pair
    px, py = project_ball(x, R), project_ball(y, R)
    assert np.linalg.norm(px) <= R * (1.0 + 1e-12)
    assert np.linalg.norm(project_ball(px, R) - px) <= 1e-12 * R
    dist = np.linalg.norm(x - y)
    assert np.linalg.norm(px - py) <= dist * (1.0 + 1e-12) + 1e-12 * R


@SETTINGS
@given(lam=st.floats(allow_nan=False))
def test_project_nonneg(lam):
    out = project_nonneg(lam)
    assert out >= 0.0
    assert out == max(lam, 0.0)


@st.composite
def dsm_runs(draw):
    """(p, schedule, gamma, T, seed) over the adaptive regimes, the
    fixed-step baseline and the gamma-shift."""
    p = draw(st.sampled_from([2, 3]))
    constants = DsmProblem(p).constants
    beta = draw(st.floats(0.1, 0.9))
    kind = draw(st.sampled_from(["convex", "strongly_convex", "fixed", "shift"]))
    gamma = 0.0
    if kind == "fixed":
        schedule = FixedScheduleParams(eta=draw(st.floats(1e-3, 2.0)),
                                       theta=draw(st.floats(0.1, 10.0)),
                                       mu=draw(st.floats(1e-3, 2.0)))
    elif kind == "strongly_convex":
        schedule = ScheduleParams(beta, Regime.STRONGLY_CONVEX, constants)
    else:
        if kind == "shift":
            gamma = draw(st.floats(0.01, 2.0))
            constants = replace(constants, D=constants.D + gamma)
        schedule = ScheduleParams(beta, Regime.CONVEX, constants)
    return p, schedule, gamma, draw(st.integers(1, 80)), draw(st.integers(0, 2**16))


@settings(SETTINGS, max_examples=25)
@given(case=dsm_runs())
def test_learner_iterates_stay_in_ball_with_nonneg_dual(case):
    p, schedule, gamma, T, seed = case
    prob = DsmProblem(p)
    R = prob.constants.R
    with recorded_iterates() as xs:
        trace = run(prob, schedule, T, seed=seed, gamma=gamma)
    assert np.all(np.linalg.norm(xs, axis=1) <= R + 1e-12)
    assert np.all(trace.lam >= 0.0)
