"""Property tests: projection laws, the learner's iterate invariants and
lockstep runs against single-seed runs.

Derandomized with small example counts, so every run draws the same cases
and the suite stays fast.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aogd.learner import run
from aogd.problems import DsmProblem, ElasticNetProblem
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


def schedules(draw, constants):
    """(schedule, gamma) over the adaptive regimes the constants allow (the
    strongly convex one needs sigma > 0), the fixed-step baseline and the
    gamma-shift."""
    beta = draw(st.floats(0.1, 0.9))
    kind = draw(st.sampled_from(
        [k for k in ("convex", "strongly_convex", "fixed", "shift")
         if k != "strongly_convex" or constants.sigma > 0]))
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
    return schedule, gamma


@st.composite
def dsm_runs(draw):
    """(p, schedule, gamma, T, seed) over the four schedule variants."""
    p = draw(st.sampled_from([2, 3]))
    schedule, gamma = schedules(draw, DsmProblem(p).constants)
    return p, schedule, gamma, draw(st.integers(1, 80)), draw(st.integers(0, 2**16))


_en_rng = np.random.default_rng(16)
EN_FEATURES = _en_rng.normal(size=(30, 5))
EN_LABELS = np.where(EN_FEATURES @ _en_rng.normal(size=5) > 0, 1.0, -1.0)


@st.composite
def lockstep_runs(draw):
    """(problem factory, schedule, gamma, T, seeds): DSM p in {2, 3} or a
    small elastic-net problem, each schedule variant it allows, and 1 to 5
    distinct seeds."""
    make = draw(st.sampled_from([
        lambda: DsmProblem(2), lambda: DsmProblem(3),
        lambda: ElasticNetProblem(EN_LABELS, EN_FEATURES, rho=0.3)]))
    schedule, gamma = schedules(draw, make().constants)
    seeds = draw(st.lists(st.integers(0, 2**16), min_size=1, max_size=5,
                          unique=True))
    return make, schedule, gamma, draw(st.integers(1, 60)), seeds


@settings(SETTINGS, max_examples=25)
@given(case=dsm_runs())
def test_learner_iterates_stay_in_ball_with_nonneg_dual(case):
    p, schedule, gamma, T, seed = case
    prob = DsmProblem(p)
    R = prob.constants.R
    with recorded_iterates() as xs:
        trace = run(prob, schedule, T, [seed], gamma=gamma)
    assert np.all(np.linalg.norm(xs, axis=-1) <= R + 1e-12)
    assert np.all(trace.lam >= 0.0)


def assert_same_bits(a, b):
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


@SETTINGS
@given(case=lockstep_runs())
def test_lockstep_columns_match_single_seed_runs(case):
    # seed j's column of a lockstep run, and row j of its iterates, are the
    # run of seed j alone, bit for bit and sign of zero included
    make, schedule, gamma, T, seeds = case
    with recorded_iterates() as xs:
        trace = run(make(), schedule, T, seeds, gamma=gamma)
    assert trace.lam.shape == trace.loss.shape == trace.g.shape == (T, len(seeds))
    for j, seed in enumerate(seeds):
        with recorded_iterates() as xs_alone:
            alone = run(make(), schedule, T, [seed], gamma=gamma)
        for column in ("lam", "loss", "g"):
            assert_same_bits(getattr(trace, column)[:, j],
                             getattr(alone, column)[:, 0])
        assert_same_bits(np.array(xs)[:, j], np.array(xs_alone)[:, 0])
    assert_same_bits(trace.eta, alone.eta)
    assert_same_bits(trace.theta, alone.theta)
