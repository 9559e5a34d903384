"""Property tests: projection laws, the finiteness test against the
entrywise one, the learner's dual rule against its array form, the ball
projection's and g_max's Python-float decisions against their reference
forms, the learner's iterate invariants,
lockstep runs against single-seed runs, a run's first rounds, trace and
comparators against a longer run's, the checkpoint trace and the
code-counting DSM prefix loss against their per-round float forms, the
count-weighted elastic-net prefix loss against the gathered prefix, the
elastic-net round and prefix on signed rows against their unsigned forms,
each prefix's smoothness bound against the Hessian and the descent
inequality, and the online round against its reference form.

Derandomized with small example counts, so every run draws the same cases
and the suite stays fast.
"""

import inspect
import math
import warnings
from contextlib import nullcontext
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import expit

from aogd.learner import _CHUNK_ROUNDS, Trace, run, step
from aogd.metrics import checkpoint_grid
from aogd.offline import project_elasticnet_ball, solve_offline
from aogd.problems import DsmConstraints, DsmProblem, ElasticNetProblem
from aogd.projections import all_finite, g_max, project_ball
from aogd.schedules import (FixedScheduleParams, Regime, ScheduleParams,
                            schedule_arrays)
from dsm_stream_oracle import loss_sum_float
from elasticnet_prefix_oracle import loss_sum_gathered, prefix_loss_unsigned
from round_oracle import elasticnet_loss
from round_oracle import g_max as oracle_g_max
from round_oracle import project_ball as oracle_ball
from round_oracle import project_nonneg, reference_round
from step_recorder import recorded_iterates, recorded_rounds

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


# dual iterates: zero, the smallest subnormal, one whose theta * lam
# overflows, beside any finite nonnegative value; constraint values up to
# the largest finite ones
dual_iterates = st.one_of(st.sampled_from([0.0, 5e-324, 1e300]),
                          st.floats(0.0, allow_infinity=False))
constraint_values = st.one_of(st.sampled_from([1e308, -1e308]),
                              st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def dual_steps(draw):
    S = draw(st.integers(1, 5))
    return (draw(arrays(np.float64, S, elements=dual_iterates)),
            draw(arrays(np.float64, S, elements=constraint_values)),
            draw(st.floats(0.0, 1e308, exclude_min=True)),
            draw(st.floats(0.0, 1e308)))


@SETTINGS
@given(case=dual_steps())
@example(case=(np.array([1e300, 0.0]), np.array([1e308, -1e308]), 1e308, 1e308))
@example(case=(np.array([1e300]), np.array([1e308]), 10.0, 0.0))
def test_step_dual_rule_matches_array_form(case):
    # step's per-seed loop in Python floats gives the bits, signed zeros
    # included, of the ascent step as (S,) array arithmetic clamped by the
    # reference projection; an overflow to +-inf passes without a warning
    lam, g, mu, theta = case
    S = len(lam)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = project_nonneg(lam + mu * (g - theta * lam))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, out = step(np.zeros((S, 1)), lam.tolist(), lam[:, None], 1,
                      np.zeros((S, 1)), g.tolist(), 0.0, np.zeros((S, 1)),
                      eta_t=1.0, mu_t=mu, theta_t=theta, R=1.0)
    assert all(type(v) is float for v in out)
    assert np.array(out).view(np.uint64).tolist() == \
        expected.view(np.uint64).tolist()


# entries of a batch: +-1e154 squares to 1e308, so two such rows are
# finite while their sum of squares is not, and two in one row overflow it;
# each special value is then put into every row in turn, since a NaN can
# hide from Python's max wherever it is not the first row
ball_entries = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1.0, -3.0,
                                          1e154, -1e154]),
                         st.floats(-1e3, 1e3))
SPECIALS = (np.nan, np.inf, -np.inf, 1e200)
# g_j(x) = x_j: in a row whose maximum is a tie of +0.0 and -0.0 the first
# maximizer's value can differ in sign from the row's np.max
COORDINATES = SimpleNamespace(values=np.copy)


@st.composite
def ball_cases(draw):
    """A DSM side p, a batch (S, p*p) with S in 1..40 or one vector
    (p*p,), the entry each special value replaces, and a radius: None for
    the largest row norm itself, so that a row lies on the sphere."""
    p = draw(st.integers(2, 4))
    shape = draw(st.sampled_from([(draw(st.integers(1, 40)), p * p), (p * p,)]))
    x = draw(arrays(np.float64, shape, elements=ball_entries))
    column = draw(st.integers(0, p * p - 1))
    return p, x, column, draw(st.one_of(st.none(), st.floats(1e-3, 1e4)))


def assert_ball_as_oracle(x, R):
    """project_ball(x, R) has the bits of `round_oracle.project_ball`, and is
    x itself where the oracle returns x; where a squared norm is not finite
    (which the oracle lets through as NaN or zeroed rows) it raises."""
    if R <= 0:
        with pytest.raises(ValueError) as want:
            oracle_ball(x, R)
        with pytest.raises(ValueError, match=f"^{want.value}$"):
            project_ball(x, R)
        return
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(np.vecdot(x, x)).all():
            with pytest.raises(FloatingPointError, match=(
                    "^a row of x has a non-finite squared norm$")):
                project_ball(x, R)
            return
        want, got = oracle_ball(x, R), project_ball(x, R)
    assert (got is x) == (want is x)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_g_max_as_oracle(cs, X):
    """g_max's values and active indices have the bits of
    `round_oracle.g_max`, the values as Python floats, or it raises the
    oracle's exception with the oracle's message."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            want = oracle_g_max(cs, X)
        except FloatingPointError as err:
            with pytest.raises(FloatingPointError) as got:
                g_max(cs, X)
            assert str(got.value) == str(err)
            return
        values, idx = g_max(cs, X)
    assert all(type(v) is float for v in values)
    assert np.array(values).tobytes() == want[0].tobytes()
    assert idx.tobytes() == want[1].tobytes()


@SETTINGS
@given(case=ball_cases())
@example(case=(2, np.array([[3.0, 4.0, 0.0, 0.0], [0.0, -0.0, -4.0, 3.0],
                            [0.6, 0.8, 0.0, -0.0]]), 1, 5.0))
@example(case=(3, np.zeros((40, 9)), 8, None))
@example(case=(2, np.array([[0.0, -0.0, -1.0, -3.0], [-1.0, 0.0, -0.0, -0.0]]),
               0, 1.0))
@example(case=(2, np.array([[1e154, 0.0, 0.0, 0.0], [0.0, 0.0, -1e154, 0.0]]),
               3, 1.0))
def test_python_float_decisions_match_the_oracle(case):
    # project_ball's "no row outside" test and g_max's active values are
    # read as Python floats; with a NaN, +-inf or a finite entry whose
    # square overflows in each row in turn, both still decide as the
    # reference round does, bit for bit and exception for exception
    p, x, column, R = case
    if R is None:
        with np.errstate(over="ignore"):
            R = math.sqrt(np.vecdot(x, x).max())
        if 0.0 < R < math.inf:
            assert project_ball(x, R) is x
    sets = (DsmConstraints(p), COORDINATES)
    assert_ball_as_oracle(x, R)
    if x.ndim == 2:
        for cs in sets:
            assert_g_max_as_oracle(cs, x)
    for value in SPECIALS:
        for row in range(len(x)):
            y = x.copy()
            if y.ndim == 2:
                y[row, column] = value
                for cs in sets:
                    assert_g_max_as_oracle(cs, y)
            else:
                y[row] = value
            assert_ball_as_oracle(y, R)


# signed zeros, the smallest subnormal, finite values whose squares
# overflow, and the non-finite ones, beside any float
finiteness_entries = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e200, -1e200,
                     np.nan, np.inf, -np.inf]),
    st.floats())


@st.composite
def finiteness_arrays(draw):
    """An array of shape (), (d,) or (S, d), or a strided slice of one."""
    d, S = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    shape = draw(st.sampled_from([(), (d,), (S, d), (2 * S, 3 * d)]))
    a = draw(arrays(np.float64, shape, elements=finiteness_entries))
    return a[::2, 1::3] if shape == (2 * S, 3 * d) else a


@SETTINGS
@given(a=finiteness_arrays())
def test_all_finite_is_the_entrywise_test(a):
    # its sum-of-squares test decides only a finite sum; any other sum
    # falls back to the entrywise test, so the verdict never differs
    assert all_finite(a) == bool(np.isfinite(a).all())


def schedules(draw, constants,
              kinds=("convex", "strongly_convex", "fixed", "shift")):
    """A schedule of one of `kinds`: the adaptive regimes the constants
    allow (the strongly convex one needs sigma > 0), the fixed-step baseline
    and the gamma-shift."""
    beta = draw(st.floats(0.1, 0.9))
    kind = draw(st.sampled_from(
        [k for k in kinds if k != "strongly_convex" or constants.sigma > 0]))
    if kind == "fixed":
        schedule = FixedScheduleParams(eta=draw(st.floats(1e-3, 2.0)),
                                       theta=draw(st.floats(0.1, 10.0)),
                                       mu=draw(st.floats(1e-3, 2.0)))
    elif kind == "strongly_convex":
        schedule = ScheduleParams(beta, Regime.STRONGLY_CONVEX, constants)
    else:
        gamma = draw(st.floats(0.01, 2.0)) if kind == "shift" else 0.0
        schedule = ScheduleParams(beta, Regime.CONVEX, constants, gamma)
    return schedule


@st.composite
def dsm_runs(draw):
    """(p, schedule, T, seed) over the four schedule variants."""
    p = draw(st.sampled_from([2, 3]))
    schedule = schedules(draw, DsmProblem(p).constants)
    return p, schedule, draw(st.integers(1, 80)), draw(st.integers(0, 2**16))


_en_rng = np.random.default_rng(16)
EN_FEATURES = _en_rng.normal(size=(30, 5))
EN_LABELS = np.where(EN_FEATURES @ _en_rng.normal(size=5) > 0, 1.0, -1.0)


@st.composite
def lockstep_runs(draw):
    """(problem factory, schedule, T, seeds): DSM p in {2, 3} or a
    small elastic-net problem, each schedule variant it allows, and 1 to 5
    distinct seeds."""
    make = draw(st.sampled_from([
        lambda: DsmProblem(2), lambda: DsmProblem(3),
        lambda: ElasticNetProblem(EN_LABELS, EN_FEATURES, rho=0.3)]))
    schedule = schedules(draw, make().constants)
    seeds = draw(st.lists(st.integers(0, 2**16), min_size=1, max_size=5,
                          unique=True))
    return make, schedule, draw(st.integers(1, 60)), seeds


@settings(SETTINGS, max_examples=25)
@given(case=dsm_runs())
def test_learner_iterates_stay_in_ball_with_nonneg_dual(case):
    p, schedule, T, seed = case
    prob = DsmProblem(p)
    R = prob.constants.R
    with recorded_iterates() as xs:
        trace = run(prob, schedule, T, [seed], range(1, T + 1))
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
    make, schedule, T, seeds = case
    with recorded_iterates() as xs:
        trace = run(make(), schedule, T, seeds, range(1, T + 1))
    assert trace.lam.shape == trace.loss_cum.shape == trace.g_cum.shape == (T, len(seeds))
    for j, seed in enumerate(seeds):
        with recorded_iterates() as xs_alone:
            alone = run(make(), schedule, T, [seed], range(1, T + 1))
        for column in ("lam", "loss_cum", "g_cum"):
            assert_same_bits(getattr(trace, column)[:, j],
                             getattr(alone, column)[:, 0])
        for value in ("violation_clipped", "lam_max", "lam_max_t",
                      "first_nonpositive_t"):
            assert_same_bits(getattr(trace, value)[j], getattr(alone, value)[0])
        assert_same_bits(np.array(xs)[:, j], np.array(xs_alone)[:, 0])
    assert_same_bits(trace.eta, alone.eta)
    assert_same_bits(trace.theta, alone.theta)


C = _CHUNK_ROUNDS


@st.composite
def checkpoint_runs(draw):
    """(problem factory, schedule, T, seeds, checkpoints): DSM p in
    {2, 3, 8}, or elastic net with a tight budget or one so loose that
    every round is slack (lambda stays 0 and sum g <= 0 from round 1, so
    the first maximizer and the first nonpositive round tie across
    chunks); each schedule variant, 1 to 3 seeds, T at and around the
    chunk boundaries, and every round or a random subset as checkpoints."""
    make = draw(st.sampled_from([
        lambda: DsmProblem(2), lambda: DsmProblem(3), lambda: DsmProblem(8),
        lambda: ElasticNetProblem(EN_LABELS, EN_FEATURES, rho=0.3),
        lambda: ElasticNetProblem(EN_LABELS, EN_FEATURES, rho=50.0)]))
    schedule = schedules(draw, make().constants)
    T = draw(st.sampled_from([1, C - 1, C, C + 1, 3 * C + 5]))
    seeds = draw(st.lists(st.integers(0, 2**16), min_size=1, max_size=3,
                          unique=True))
    checkpoints = draw(st.just(list(range(1, T + 1)))
                       | st.lists(st.integers(1, T), min_size=1,
                                  unique=True).map(sorted))
    return make, schedule, T, seeds, checkpoints


def trace_from_rounds(rounds, eta, theta, checkpoints) -> Trace:
    """The trace computed as the program computed it from whole (T, S)
    per-round columns, one seed column at a time; Sigma [g]_+ as np.cumsum
    adds it, in round order."""
    t = np.array(checkpoints)
    columns = {name: [] for name in ("loss_cum", "g_cum", "violation_clipped",
                                     "lam_max", "lam_max_t",
                                     "first_nonpositive_t")}
    for loss, g, lam in zip(rounds.loss.T, rounds.g.T, rounds.lam.T):
        g_cum = np.cumsum(g)
        columns["loss_cum"].append(np.cumsum(loss)[t - 1])
        columns["g_cum"].append(g_cum[t - 1])
        columns["violation_clipped"].append(np.cumsum(np.maximum(g, 0.0))[-1])
        k = int(np.argmax(lam))
        columns["lam_max"].append(lam[k])
        columns["lam_max_t"].append(k + 1)
        nonpos = np.flatnonzero(g_cum <= 0.0)
        columns["first_nonpositive_t"].append(nonpos[0] + 1 if nonpos.size else 0)
    columns["loss_cum"] = np.stack(columns["loss_cum"], axis=1)
    columns["g_cum"] = np.stack(columns["g_cum"], axis=1)
    return Trace(t=t, lam=rounds.lam[t - 1], eta=eta[t - 1], theta=theta[t - 1],
                 **{k: np.asarray(v) for k, v in columns.items()})


@settings(SETTINGS, max_examples=30)
@given(case=checkpoint_runs())
def test_checkpoint_trace_matches_per_round_columns(case):
    # the chunked fold of the round loop gives, bit for bit and sign of zero
    # included, what whole per-round columns give; and the DSM loss sum from
    # code counts is the float prefix sum
    make, schedule, T, seeds, checkpoints = case
    prob = make()
    with recorded_rounds(prob) as rounds:
        trace = run(prob, schedule, T, seeds, checkpoints)
    theta, eta, _ = schedule_arrays(schedule, T)
    expected = trace_from_rounds(rounds, eta, theta, checkpoints)
    for name, column in vars(expected).items():
        assert_same_bits(getattr(trace, name), column)
    # the pairwise np.sum that violation_clipped was before differs from the
    # in-order sum in the last bits at most
    np.testing.assert_allclose(
        trace.violation_clipped,
        [np.sum(np.maximum(g, 0.0)) for g in rounds.g.T], rtol=1e-12)

    if not isinstance(prob, DsmProblem):
        return
    x = rounds.x[-1, 0]
    for j in range(len(seeds)):
        for t in sorted({1, T // 2 + 1, T}):
            got = prob.prefix_loss(t, j)(x)
            want = loss_sum_float(prob, t, x, j)
            assert_same_bits(got[0], want[0])
            assert_same_bits(got[1], want[1])


@st.composite
def horizon_pairs(draw):
    """(problem factory, schedule, T1, T2, seeds): DSM p in {2, 3} or the
    small elastic-net problem, each schedule it allows but the gamma-shift,
    1 to 3 seeds and horizons T1 < T2, either side of a chunk boundary."""
    make = draw(st.sampled_from([
        lambda: DsmProblem(2), lambda: DsmProblem(3),
        lambda: ElasticNetProblem(EN_LABELS, EN_FEATURES, rho=0.3)]))
    schedule = schedules(draw, make().constants,
                         kinds=("convex", "strongly_convex", "fixed"))
    T1 = draw(st.integers(1, C + 10))
    T2 = draw(st.integers(T1 + 1, 2 * C + 20))
    seeds = draw(st.lists(st.integers(0, 2**16), min_size=1, max_size=3,
                          unique=True))
    return make, schedule, T1, T2, seeds


@settings(SETTINGS, max_examples=30)
@given(case=horizon_pairs())
def test_shorter_run_is_a_prefix_of_a_longer_run(case):
    # the offline cache key holds no T, so a comparator a run of T1 rounds
    # cached is served to a run of T2 > T1 rounds: the first T1 rounds of
    # the stream and the comparators at T1's checkpoints must not depend on
    # T, and neither does the trace there, so a shorter run's regret is a
    # longer run's. The gamma-shifted run is left out: its
    # gamma = c1 T^(-beta/2) does depend on T
    make, schedule, T1, T2, seeds = case
    short, long = make(), make()
    checkpoints = checkpoint_grid(T1, 6)
    short_trace = run(short, schedule, T1, seeds, checkpoints)
    long_trace = run(long, schedule, T2, seeds,
                     sorted(set(checkpoints) | set(checkpoint_grid(T2, 6))))
    # run drew each stream by materialize(T, seeds)
    assert short.stream.dtype == long.stream.dtype
    assert np.array_equal(short.stream, long.stream[:, :T1])
    rows = np.searchsorted(long_trace.t, checkpoints)
    for name in ("loss_cum", "g_cum", "lam", "eta", "theta"):
        assert_same_bits(getattr(short_trace, name),
                         getattr(long_trace, name)[rows])
    for j in range(len(seeds)):
        for t in checkpoints:
            a, b = solve_offline(short, t, j), solve_offline(long, t, j)
            assert a.x_star.tobytes() == b.x_star.tobytes()
            assert (a.loss_sum, a.iterations, a.mapping_norm) == (
                b.loss_sum, b.iterations, b.mapping_norm)


@st.composite
def prefix_calls(draw):
    """(problem, pairs, calls): a DSM problem with p in [2, 6] and T up to
    300, or an elastic-net problem of n examples whose streams run T < n
    or T >> n rounds, for 1 to 3 seeds; a few (j, t) pairs, and a sequence
    of calls (j, t, x) that interleaves them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    S = draw(st.integers(1, 3))
    seeds = draw(st.lists(st.integers(0, 2**16), min_size=S, max_size=S,
                          unique=True))
    if draw(st.booleans()):
        T = draw(st.integers(1, 300))
        prob = DsmProblem(draw(st.integers(2, 6))).materialize(T, seeds)
    else:
        n, d = draw(st.integers(1, 40)), draw(st.integers(1, 6))
        features = rng.normal(size=(n, d)) * rng.choice([0.1, 1.0, 5.0])
        labels = rng.choice([-1.0, 1.0], size=n)
        T = draw(st.one_of(st.integers(1, n), st.integers(20 * n, 50 * n)))
        prob = ElasticNetProblem(labels, features, rho=1.0).materialize(
            T, seeds)
    pairs = draw(st.lists(st.tuples(st.integers(0, S - 1), st.integers(1, T)),
                          min_size=1, max_size=3))
    keys = draw(st.lists(st.sampled_from(pairs), min_size=2, max_size=8))
    return prob, pairs, [
        (j, t, rng.normal(size=prob.dim) * rng.choice([0.1, 1.0, 3.0]))
        for j, t in keys]


@SETTINGS
@given(case=prefix_calls())
def test_interleaved_prefix_losses_match_oracles(case):
    # prefixes built for several (j, t) up front and called in any order:
    # DSM's code counts give the float prefix sum bit for bit; the elastic
    # net's sum_i c_i f(x; i) is the round-order sum up to rounding, and
    # the rows it keeps are the distinct examples drawn, never more than n
    prob, pairs, calls = case
    prefixes = {(j, t): prob.prefix_loss(t, j) for j, t in pairs}
    for j, t, x in calls:
        value, grad = prefixes[j, t](x)
        if isinstance(prob, DsmProblem):
            want_value, want_grad = loss_sum_float(prob, t, x, j)
            assert_same_bits(value, want_value)
            assert_same_bits(grad, want_grad)
            continue
        want_value, want_grad = loss_sum_gathered(prob, t, x, j)
        assert value == pytest.approx(want_value, rel=1e-12)
        assert (np.linalg.norm(grad - want_grad)
                <= 1e-12 * np.linalg.norm(want_grad))
        kept = inspect.getclosurevars(prefixes[j, t]).nonlocals["W"]
        assert (kept.shape[0] == np.unique(prob.stream[j, :t]).size
                <= prob.labels.shape[0])


@st.composite
def elasticnet_prefixes(draw):
    """(problem, t, wide, rng): an elastic-net problem of n examples with
    seed 0's first t rounds drawn, wide (d above n, so above the number k
    of distinct examples drawn) or tall (d below n, with t >= 20 n rounds
    drawing nearly all n examples, so k above d), and a generator for
    points."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    wide = draw(st.booleans())
    if wide:
        n = draw(st.integers(1, 8))
        d, t = draw(st.integers(n + 1, 16)), draw(st.integers(1, 3 * n))
    else:
        d = draw(st.integers(1, 5))
        n = draw(st.integers(d + 5, 40))
        t = draw(st.integers(20 * n, 30 * n))
    features = rng.normal(size=(n, d)) * rng.choice([0.1, 1.0, 5.0])
    labels = rng.choice([-1.0, 1.0], size=n)
    prob = ElasticNetProblem(labels, features, rho=1.0).materialize(
        t, [draw(st.integers(0, 2**16))])
    return prob, t, wide, rng


@settings(SETTINGS, max_examples=40)
@given(case=elasticnet_prefixes())
def test_elasticnet_smoothness_bounds_the_average_objective(case):
    # L from the prefix's counted rows bounds the top eigenvalue of the
    # exact Hessian (1/t) sum_s sigma'(m_s) u_s u_s^T of the rounds at
    # points of the ball, and the descent inequality holds between pairs
    prob, t, wide, rng = case
    prefix = prob.prefix_loss(t)
    L = prefix.smoothness()
    assert (prob.dim > np.unique(prob.stream[0, :t]).size) == wide
    idx = prob.stream[0, :t]
    U, y = prob.features[idx], prob.labels[idx]
    for _ in range(5):
        x = project_elasticnet_ball(rng.normal(size=prob.dim)
                                    * rng.choice([0.1, 1.0, 10.0]), prob.rho)
        margin = y * (U @ x)
        curvature = expit(margin) * expit(-margin)  # sigma'(margin)
        hessian = (U.T * curvature) @ U / t
        assert np.linalg.eigvalsh(hessian)[-1] <= L * (1.0 + 1e-12)

    def average(x):
        value, grad = prefix(x)
        return value / t, grad / t

    for _ in range(5):
        x, x_new = rng.normal(size=(2, prob.dim)) * rng.choice([0.1, 1.0, 3.0])
        (f, grad), (f_new, _) = average(x), average(x_new)
        diff = x_new - x
        bound = f + grad @ diff + 0.5 * L * (diff @ diff)
        assert f_new <= bound + 1e-12 * max(f, f_new)


def signed_zeros(rng, shape, frac: float):
    """A random mask that sets about `frac` of `shape`, and an array of
    that shape holding 0.0 or -0.0 at random."""
    zeros = np.where(rng.uniform(size=shape) < 0.5, 0.0, -0.0)
    return rng.uniform(size=shape) < frac, zeros


@st.composite
def signed_row_cases(draw):
    """(problem, t, X, rng): an elastic-net problem of n examples whose
    rows are dense or sparse, spell some zeros -0.0 and carry labels of
    both signs (n >= 2), with the first t rounds of 1 to 3 seeds drawn;
    iterates X (S, d), some entries and some whole rows signed zeros; and a
    generator for prefix points. Wide (d above n) or tall (t >= 20 n
    rounds, so prefixes near t draw k >= d distinct examples)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        n = draw(st.integers(1, 16))
        d, t = draw(st.integers(n + 1, 24)), draw(st.integers(1, 3 * n))
    else:
        d = draw(st.integers(1, 5))
        n = draw(st.integers(d + 5, 40))
        t = draw(st.integers(20 * n, 30 * n))
    features = rng.normal(size=(n, d)) * rng.choice([0.1, 1.0, 5.0])
    mask, zeros = signed_zeros(rng, features.shape,
                               draw(st.sampled_from([0.1, 0.7, 0.9])))
    features[mask] = zeros[mask]
    labels = rng.choice([-1.0, 1.0], size=n)
    labels[:2] = [1.0, -1.0][:n]
    seeds = draw(st.lists(st.integers(0, 2**16), min_size=1, max_size=3,
                          unique=True))
    prob = ElasticNetProblem(labels, features, rho=1.0).materialize(t, seeds)
    X = rng.normal(size=(len(seeds), d))
    mask, zeros = signed_zeros(rng, X.shape, 0.3)
    X[mask] = zeros[mask]
    whole = rng.uniform(size=len(seeds)) < 0.3  # rows of signed zeros
    X[whole] = zeros[whole]
    return prob, t, X, rng


@settings(SETTINGS, max_examples=40)
@given(case=signed_row_cases())
def test_signed_rows_match_the_unsigned_formulas(case):
    # multiplying by -y = +-1 is exact, so the round's loss and gradient,
    # the prefix's value and gradient and its smoothness bound keep every
    # bit of their forms on the unsigned rows, in both Gram forms: a wide
    # problem's prefixes and the first ones of a tall problem draw k < d
    # rows, a tall problem's longer ones k >= d. On sparse rows the k x k
    # Gram matrix of the signed rows moves eigvalsh's last bits in some
    # prefixes, so every prefix up to 24 rounds is checked
    prob, t, X, rng = case
    for s in sorted({1, t // 2 + 1, t}):
        value, grad = prob.loss(s, X)
        want_value, want_grad = elasticnet_loss(prob, s, X)
        assert_same_bits(value, want_value)
        assert_same_bits(grad, want_grad)
    for j in range(X.shape[0]):
        for s in sorted({*range(1, min(t, 24) + 1), t // 2 + 1, t}):
            prefix, want = prob.prefix_loss(s, j), prefix_loss_unsigned(
                prob, s, j)
            assert_same_bits(prefix.smoothness(), want.smoothness())
            for x in (X[j], rng.normal(size=prob.dim)):
                (value, grad), (want_value, want_grad) = prefix(x), want(x)
                assert_same_bits(value, want_value)
                assert_same_bits(grad, want_grad)


@SETTINGS
@given(p=st.integers(2, 8), T=st.integers(1, 300), seed=st.integers(0, 2**16),
       data=st.data())
def test_dsm_smoothness_is_one(p, T, seed, data):
    prob = DsmProblem(p).materialize(T, [seed])
    assert prob.prefix_loss(data.draw(st.integers(1, T))).smoothness() == 1.0


@st.composite
def round_runs(draw):
    """(problem factory, schedule, T, seeds): DSM with p in [2, 8], 1 to 5
    seeds and T up to 600 (so runs cross the 256-round chunks) under the
    convex, strongly convex or fixed-step schedule, each with gamma = 0 or
    gamma > 0, or under a fixed step of eta = 1.5 that puts most iterates
    outside the ball; or the small elastic-net problem with its schedules."""
    kind = draw(st.sampled_from(["dsm", "dsm_clipped", "elasticnet"]))
    if kind == "elasticnet":
        make = lambda: ElasticNetProblem(EN_LABELS, EN_FEATURES, rho=0.3)
        return (make, schedules(draw, make().constants),
                draw(st.integers(1, 300)),
                draw(st.lists(st.integers(0, 2**16), min_size=1, max_size=3,
                              unique=True)))
    p = draw(st.integers(2, 8))
    make = lambda: DsmProblem(p)
    constants = make().constants
    gamma = draw(st.sampled_from([0.0, 0.05, 0.7]))
    if kind == "dsm_clipped":
        schedule = FixedScheduleParams(eta=1.5, theta=2.0, mu=0.05,
                                       gamma=gamma)
    else:
        regime = draw(st.sampled_from(["convex", "strongly_convex", "fixed"]))
        schedule = (
            FixedScheduleParams(eta=draw(st.floats(1e-3, 0.5)),
                                theta=draw(st.floats(0.1, 10.0)),
                                mu=draw(st.floats(1e-3, 0.5)), gamma=gamma)
            if regime == "fixed" else
            ScheduleParams(draw(st.floats(0.1, 0.9)), Regime(regime),
                           constants, gamma))
    seeds = draw(st.lists(st.integers(0, 2**16), min_size=1, max_size=5,
                          unique=True))
    return make, schedule, draw(st.integers(1, 600)), seeds


def p8_case(schedule, n_seeds):
    """DSM p = 8 over 600 rounds, which random draws reach only rarely."""
    return lambda: DsmProblem(8), schedule, 600, list(range(n_seeds))


@settings(SETTINGS, max_examples=60)
@given(case=round_runs())
@example(case=p8_case(FixedScheduleParams(1.5, 2.0, 0.05, gamma=0.05), 5))
@example(case=p8_case(ScheduleParams(
    2.0 / 3.0, Regime.STRONGLY_CONVEX, DsmProblem(8).constants), 5))
@example(case=p8_case(ScheduleParams(
    0.5, Regime.CONVEX, DsmProblem(8).constants, gamma=0.7), 3))
def test_round_matches_reference_round(case):
    # the lean round (learner.step, g_max, the projections and each
    # problem's loss) gives the reference round's trace and iterates byte
    # for byte, clipped rows and signed zeros included
    make, schedule, T, seeds = case
    checkpoints = list(range(1, T + 1))
    runs = []
    for reference in (False, True):
        prob = make()
        with (reference_round(prob) if reference else nullcontext()), \
                recorded_iterates() as xs:
            trace = run(prob, schedule, T, seeds, checkpoints)
        runs.append((trace, np.array(xs)))
    (trace, xs), (want, want_xs) = runs
    for name, column in vars(want).items():
        got = getattr(trace, name)
        assert (got.dtype, got.shape) == (column.dtype, column.shape), name
        assert got.tobytes() == column.tobytes(), name
    assert xs.shape == want_xs.shape == (T, len(seeds), make().dim)
    assert xs.tobytes() == want_xs.tobytes()
