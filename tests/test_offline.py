import json
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from aogd import offline, problems
from aogd.experiment import ExperimentConfig, build_problem, run_experiment
from aogd.metrics import checkpoint_grid
from aogd.offline import (OfflineSolution, elasticnet_value, load_solutions,
                          project_birkhoff, project_elasticnet_ball,
                          solve_offline, solve_offline_cached,
                          store_solutions)
from aogd.problems import DsmProblem, ElasticNetProblem
from compare_outputs import criterion9_data, write_dataset
from dsm_stream_oracle import loss_sum_float, stream_matrices
from elasticnet_prefix_oracle import loss_sum_gathered
from pgd_oracle import solve_offline_pgd


def birkhoff_2x2_oracle(A):
    """Closed-form projection for p=2: the polytope is {aI + (1-a)P, a in [0,1]}."""
    a = np.clip((2.0 + A[0, 0] + A[1, 1] - A[0, 1] - A[1, 0]) / 4.0, 0.0, 1.0)
    return np.array([[a, 1 - a], [1 - a, a]])


def elasticnet_ball_bisection_oracle(v, rho):
    """Projection onto the elastic-net ball by bisection on the multiplier.

    x(nu) = soft_threshold(v, nu) / (1 + nu), and h(nu) = ||x(nu)||_1 +
    0.5 ||x(nu)||_2^2 - rho is strictly decreasing on [0, max |v|]; stops
    at |h| < 1e-12 or after 200 halvings.
    """
    if elasticnet_value(v) <= rho:
        return v.copy()

    def x_of(nu):
        return np.sign(v) * np.maximum(np.abs(v) - nu, 0.0) / (1.0 + nu)

    lo, hi = 0.0, float(np.max(np.abs(v)))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        hm = elasticnet_value(x_of(mid)) - rho
        if abs(hm) < 1e-12:
            return x_of(mid)
        if hm > 0:
            lo = mid
        else:
            hi = mid
    return x_of(0.5 * (lo + hi))


def project_elasticnet_ball_reference(v, rho):
    """project_elasticnet_ball as it was before it took |v| once: the leaner
    one must return the same bytes."""
    v = np.asarray(v, dtype=float)
    if rho <= 0:
        raise ValueError("rho must be positive")
    if not np.all(np.isfinite(v)):
        raise ValueError("input vector must be finite")
    if elasticnet_value(v) <= rho:
        return v.copy()
    a = np.sort(np.abs(v))[::-1]
    nus = np.sqrt(np.cumsum((1.0 + a) ** 2)
                  / (2.0 * rho + np.arange(1, a.size + 1))) - 1.0
    nu = max(float(nus[np.count_nonzero(nus < a) - 1]), 0.0)
    return np.sign(v) * np.maximum(np.abs(v) - nu, 0.0) / (1.0 + nu)


@st.composite
def elasticnet_ball_inputs(draw):
    """(v, rho): 1 to 12 entries whose magnitudes come from a pool of at
    most 3 (so they tie), zeros of either sign included, scaled by up to
    1e150, inside and outside the ball."""
    pool = draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 10.0),
                         min_size=1, max_size=3))
    d = draw(st.integers(1, 12))
    v = np.array([draw(st.sampled_from(pool)) for _ in range(d)])
    v *= np.array(draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=d,
                                max_size=d)))
    v *= draw(st.sampled_from([1e-3, 0.1, 1.0, 30.0, 1e150]))
    return v, draw(st.floats(1e-3, 1e3))


class TestProjectBirkhoff:
    def test_doubly_stochastic_fixed(self):
        X = np.eye(3)
        np.testing.assert_allclose(project_birkhoff(X), X, atol=1e-9)
        U = np.full((4, 4), 0.25)
        np.testing.assert_allclose(project_birkhoff(U), U, atol=1e-9)

    def test_zero_matrix(self):
        np.testing.assert_allclose(project_birkhoff(np.zeros((2, 2))),
                                   np.full((2, 2), 0.5), atol=1e-9)

    def test_matches_2x2_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            A = rng.normal(size=(2, 2)) * 2
            np.testing.assert_allclose(project_birkhoff(A),
                                       birkhoff_2x2_oracle(A), atol=1e-8)

    def test_output_feasible(self):
        rng = np.random.default_rng(1)
        for p in (3, 5, 8):
            A = rng.normal(size=(p, p)) * 3
            X = project_birkhoff(A)
            assert X.min() >= -1e-9
            np.testing.assert_allclose(X.sum(axis=0), np.ones(p), atol=1e-6)
            np.testing.assert_allclose(X.sum(axis=1), np.ones(p), atol=1e-6)

    def test_idempotent_and_nonexpansive(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            A, B = rng.normal(size=(2, 4, 4)) * 2
            PA, PB = project_birkhoff(A), project_birkhoff(B)
            np.testing.assert_allclose(project_birkhoff(PA), PA, atol=1e-8)
            assert np.linalg.norm(PA - PB) <= np.linalg.norm(A - B) + 1e-8

    def test_projection_optimality_sampled(self):
        # P(A) is at least as close to A as any random feasible point
        rng = np.random.default_rng(3)
        A = rng.normal(size=(3, 3)) * 2
        PA = project_birkhoff(A)
        d_star = np.linalg.norm(A - PA)
        perms = [np.eye(3)[rng.permutation(3)] for _ in range(3)]
        for _ in range(200):
            w = rng.dirichlet(np.ones(3))
            feasible = sum(wi * P for wi, P in zip(w, perms))
            assert np.linalg.norm(A - feasible) >= d_star - 1e-8

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            project_birkhoff(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("A", [np.eye(3), np.arange(9.0).reshape(3, 3)])
    def test_input_neither_written_nor_returned(self, A):
        # a feasible input, which the first sweep leaves as it is, and an
        # infeasible one: neither comes back as the input array or changed
        before = A.copy()
        X = project_birkhoff(A)
        assert not np.shares_memory(X, A)
        assert A.tobytes() == before.tobytes()


class TestProjectElasticnetBall:
    def test_interior_unchanged(self):
        v = np.array([0.1, -0.1])
        np.testing.assert_array_equal(project_elasticnet_ball(v, 1.0), v)

    def test_axis_point(self):
        # projection of (10, 0) onto the rho = 1.5 ball is (1, 0):
        # ||x||_1 + 0.5 ||x||_2^2 = 1.5 exactly at x = (1, 0)
        x = project_elasticnet_ball(np.array([10.0, 0.0]), 1.5)
        np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-9)

    def test_boundary_tight(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            v = rng.normal(size=5) * 4
            rho = rng.uniform(0.2, 3.0)
            if elasticnet_value(v) <= rho:
                continue
            x = project_elasticnet_ball(v, rho)
            assert elasticnet_value(x) == pytest.approx(rho, abs=1e-9)

    def test_matches_grid_search_1d(self):
        rho = 1.0
        for v0 in (3.0, -2.5, 0.7):
            x = project_elasticnet_ball(np.array([v0]), rho)
            grid = np.linspace(-3.5, 3.5, 200001)
            feas = grid[np.abs(grid) + 0.5 * grid**2 <= rho]
            best = feas[np.argmin((feas - v0) ** 2)]
            assert x[0] == pytest.approx(best, abs=1e-4)

    def test_matches_grid_search_2d(self):
        rho = 1.0
        rng = np.random.default_rng(5)
        g = np.linspace(-2.0, 2.0, 801)
        G1, G2 = np.meshgrid(g, g)
        mask = np.abs(G1) + np.abs(G2) + 0.5 * (G1**2 + G2**2) <= rho
        f1, f2 = G1[mask], G2[mask]
        for _ in range(10):
            v = rng.normal(size=2) * 2
            x = project_elasticnet_ball(v, rho)
            d2 = (f1 - v[0]) ** 2 + (f2 - v[1]) ** 2
            i = np.argmin(d2)
            assert np.linalg.norm(x - v) <= np.sqrt(d2[i]) + 1e-2
            np.testing.assert_allclose(x, [f1[i], f2[i]], atol=2e-2)

    def test_idempotent_and_nonexpansive(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            v, w = rng.normal(size=(2, 4)) * 3
            pv = project_elasticnet_ball(v, 1.2)
            pw = project_elasticnet_ball(w, 1.2)
            np.testing.assert_allclose(project_elasticnet_ball(pv, 1.2), pv,
                                       atol=1e-9)
            assert np.linalg.norm(pv - pw) <= np.linalg.norm(v - w) + 1e-9

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(9)
        for d in range(1, 41):
            for _ in range(10):
                v = rng.normal(size=d) * rng.choice([0.1, 1.0, 3.0, 30.0])
                v[rng.uniform(size=d) < 0.3] = 0.0
                rho = 10.0 ** rng.uniform(-3, 2)
                x = project_elasticnet_ball(v, rho)
                np.testing.assert_allclose(
                    x, elasticnet_ball_bisection_oracle(v, rho), atol=1e-10)
                if elasticnet_value(v) <= rho:
                    continue
                # on the boundary, up to rounding: P(x) = x
                np.testing.assert_allclose(project_elasticnet_ball(x, rho), x,
                                           atol=1e-12)
                # just outside the ball: P(w) stays within |w - x| of x
                w = x * (1.0 + 10.0 ** rng.uniform(-16, -6))
                pw = project_elasticnet_ball(w, rho)
                np.testing.assert_allclose(
                    pw, elasticnet_ball_bisection_oracle(w, rho), atol=1e-10)
                assert (np.linalg.norm(pw - x)
                        <= np.linalg.norm(w - x) + 1e-12)
                assert elasticnet_value(pw) <= rho * (1.0 + 1e-12)

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(case=elasticnet_ball_inputs())
    @example(case=(np.zeros(3), 1.0))  # feasible
    @example(case=(np.array([0.1, -0.0, -0.1]), 1.0))  # feasible, tied
    @example(case=(np.array([2.0, -2.0, 0.0, 2.0]), 0.5))  # tied, outside
    @example(case=(np.array([-1e150]), 3.0))
    def test_same_bytes_as_reference(self, case):
        v, rho = case
        got = project_elasticnet_ball(v, rho)
        want = project_elasticnet_ball_reference(v, rho)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("v,rho,message", [
        ([np.nan, 0.0], 1.0, "input vector must be finite"),
        ([1.0, np.inf], 1.0, "input vector must be finite"),
        ([-np.inf], 1.0, "input vector must be finite"),
        ([1.0, 2.0], 0.0, "rho must be positive"),
        ([np.nan], -1.0, "rho must be positive"),
    ])
    def test_errors_match_reference(self, v, rho, message):
        for project in (project_elasticnet_ball,
                        project_elasticnet_ball_reference):
            with pytest.raises(ValueError, match=f"^{message}$"):
                project(np.array(v), rho)

    def test_rejects_nonpositive_rho(self):
        with pytest.raises(ValueError):
            project_elasticnet_ball(np.ones(2), 0.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            project_elasticnet_ball(np.array([np.inf, 0.0]), 1.0)


def solve_recording(prob, t: int, j: int = 0):
    """solve_offline with a log, taken from outside the solver, of the
    outputs of its calls to `project_feasible` ("project", output) and of
    its calls to the prefix objective ("evaluate", point), in order."""
    events = []
    project, prefix_loss = prob.project_feasible, prob.prefix_loss

    def recording_project(v):
        out = project(v)
        events.append(("project", out.copy()))
        return out

    def recording_prefix_loss(t, j=0):
        loss = prefix_loss(t, j)

        def recording(x):
            events.append(("evaluate", x.copy()))
            return loss(x)
        recording.smoothness = loss.smoothness
        recording.minimizer = loss.minimizer
        return recording

    prob.project_feasible = recording_project
    prob.prefix_loss = recording_prefix_loss
    try:
        return solve_offline(prob, t, j=j), events
    finally:
        del prob.project_feasible, prob.prefix_loss


def evaluations(events) -> int:
    """How often the solve evaluated the prefix objective."""
    return sum(kind == "evaluate" for kind, _ in events)


def halvings(events) -> int:
    """How many of those evaluations were not at the output of the
    projection before them: the halved moves of the line search, since
    the start and every full move are projection outputs. A closed form
    evaluates the prefix before it projects, so it has none."""
    count, projected = 0, None
    for kind, x in events:
        if kind == "project":
            projected = x
        elif projected is not None and x.tobytes() != projected.tobytes():
            count += 1
    return count


def assert_evaluation_count(sol, events):
    """A converged iterative solve evaluates the prefix iterations +
    halvings times: once at the start and once at each point its searches
    try, and not in the iteration that stops it."""
    assert sol.tolerance_met
    assert evaluations(events) == sol.iterations + halvings(events)


def criterion9_problem(seeds) -> ElasticNetProblem:
    """Acceptance criterion 9's data, rounded as its libsvm file is, with
    200 rounds of each of `seeds` drawn."""
    y, u = criterion9_data()
    prob = ElasticNetProblem(y, np.round(u, 6), rho=1.0)
    return prob.materialize(200, seeds)


def scale_smoothness(monkeypatch, factor: float):
    """Every elastic-net prefix reports `factor` times its smoothness bound:
    below 1 the solver steps past 1/L."""
    prefix_loss = ElasticNetProblem.prefix_loss

    def scaled(self, t, j=0):
        loss = prefix_loss(self, t, j)
        smoothness = loss.smoothness
        loss.smoothness = lambda: factor * smoothness()
        return loss
    monkeypatch.setattr(ElasticNetProblem, "prefix_loss", scaled)


def assert_dsm_agrees(fast, ref):
    """A closed-form DSM solve against the plain-PGD oracle's."""
    assert fast.iterations == 0 and ref.iterations >= 1
    assert fast.tolerance_met and ref.tolerance_met
    assert fast.mapping_norm < 1e-8
    assert np.max(np.abs(fast.x_star - ref.x_star)) <= 1e-15
    assert fast.loss_sum <= ref.loss_sum + 1e-15 * abs(ref.loss_sum)


class TestSolveOffline:
    def test_dsm_single_round_recovers_target(self):
        prob = DsmProblem(3)
        prob.materialize(1, [0])
        sol = solve_offline(prob, 1)
        assert sol.tolerance_met
        np.testing.assert_allclose(sol.x_star, stream_matrices(prob.stream)[0, 0].ravel(),
                                   atol=1e-7)
        assert sol.loss_sum == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("t", [10, 100])
    def test_dsm_prefix_mean(self, t):
        # the mean of permutation matrices is doubly stochastic, so the
        # offline optimum of the quadratic objective is the running mean
        prob = DsmProblem(4)
        prob.materialize(t, [3, 1])
        sol = solve_offline(prob, t, j=1)
        mean = np.mean([Y.ravel() for Y in stream_matrices(prob.stream[1, :t])],
                       axis=0)
        assert sol.tolerance_met
        np.testing.assert_allclose(sol.x_star, mean, atol=1e-7)

    def test_elasticnet_loose_ball_matches_unconstrained(self):
        # with rho large the constraint is slack; compare against an
        # unconstrained logistic fit by plain gradient descent
        rng = np.random.default_rng(7)
        n, d = 80, 3
        u = rng.normal(size=(n, d))
        y = np.where(u @ np.array([1.0, -0.5, 0.2]) > 0, 1.0, -1.0)
        y[rng.uniform(size=n) < 0.2] *= -1.0  # keep the data non-separable
        prob = ElasticNetProblem(y, u, rho=200.0)
        prob.materialize(n, [2])
        sol = solve_offline(prob, n)

        U, Y = u[prob.stream[0]], y[prob.stream[0]]

        def grad(x):
            return -(Y * expit(-Y * (U @ x))) @ U / n

        x = np.zeros(d)
        for _ in range(20000):
            x -= 0.5 * grad(x)
        np.testing.assert_allclose(sol.x_star, x, atol=1e-4)

    def test_elasticnet_optimality_spot_check(self):
        rng = np.random.default_rng(8)
        n, d, rho = 60, 4, 0.5
        u = rng.normal(size=(n, d))
        y = np.where(rng.normal(size=n) > 0, 1.0, -1.0)
        prob = ElasticNetProblem(y, u, rho=rho)
        prob.materialize(n, [3])
        sol = solve_offline(prob, n)

        def avg_loss(x):
            return np.mean([prob.loss(t, x[None])[0][0] for t in range(1, n + 1)])

        assert sol.loss_sum / n == pytest.approx(avg_loss(sol.x_star), abs=1e-10)
        for _ in range(100):
            cand = project_elasticnet_ball(rng.normal(size=d), rho)
            assert avg_loss(cand) >= sol.loss_sum / n - 1e-7

    def test_rejects_bad_t(self):
        prob = DsmProblem(2)
        prob.materialize(1, [0])
        with pytest.raises(ValueError):
            solve_offline(prob, 0)

    def test_dsm_counts_the_prefix_once_per_solve(self, monkeypatch):
        # one prefix per solve, counted _COUNT_ROWS rounds per np.bincount
        # (two blocks of 10 for t = 20); the closed form S / t reads those
        # counts, and the solve evaluates the prefix once, at S / t
        prob = DsmProblem(4).materialize(20, [3, 1])
        monkeypatch.setattr(problems, "_COUNT_ROWS", 10)
        counts, prefixes, evaluations = [], [], []
        bincount, prefix_loss = np.bincount, prob.prefix_loss

        def counted_bincount(*args, **kwargs):
            counts.append(1)
            return bincount(*args, **kwargs)

        def counted_prefix_loss(t, j=0):
            prefixes.append((t, j))
            loss = prefix_loss(t, j)

            def counted(x):
                evaluations.append(1)
                return loss(x)
            counted.smoothness = loss.smoothness
            counted.minimizer = loss.minimizer
            return counted

        monkeypatch.setattr(np, "bincount", counted_bincount)
        monkeypatch.setattr(prob, "prefix_loss", counted_prefix_loss)
        sol = solve_offline(prob, 20, j=1)
        assert sol.tolerance_met
        assert prefixes == [(20, 1)] and len(counts) == 2
        assert len(evaluations) == 1 and sol.iterations == 0


class TestSolveOfflineAgainstOracle:
    """The spectral solver against plain projected gradient."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(rho=st.floats(0.05, 50.0), t=st.integers(1, 60),
           seed=st.integers(0, 2**32 - 1))
    @example(rho=50.0, t=5, seed=2)  # two searches halve
    def test_elasticnet_objective_no_worse(self, rho, t, seed):
        # the oracle steps at most 1 and can run out of iterations on a
        # loose ball, where the objective is flat; its point is feasible all
        # the same, so the solver's optimum is no worse wherever it stops,
        # and up to rho = 5 the oracle converges too
        rng = np.random.default_rng(seed)
        n, d = 40, 5
        u = rng.normal(size=(n, d))
        y = np.where(rng.uniform(size=n) > 0.5, 1.0, -1.0)
        prob = ElasticNetProblem(y, u, rho=rho)
        prob.materialize(t, [seed])
        fast, events = solve_recording(prob, t)
        ref = solve_offline_pgd(prob, t)
        assert_evaluation_count(fast, events)
        assert fast.mapping_norm < 1e-8
        if rho <= 5.0:
            assert ref.tolerance_met and ref.mapping_norm < 1e-8
        assert fast.loss_sum <= ref.loss_sum + 1e-12 * abs(ref.loss_sum)

    @pytest.mark.parametrize("p", [2, 3, 8])
    def test_dsm_identical(self, p):
        # the closed form S / t is the oracle's optimum up to the last bits:
        # equal per entry within 1e-15, a loss sum no worse within 1e-15
        # relative, certified by one projection without iterating
        prob = DsmProblem(p)
        prob.materialize(300, [0, 5])
        for j in (0, 1):
            for t in (1, 2, 17, 300):
                fast, events = solve_recording(prob, t, j=j)
                ref = solve_offline_pgd(prob, t, j=j)
                assert_dsm_agrees(fast, ref)
                assert evaluations(events) == fast.iterations + 1

    @pytest.mark.parametrize("p", [2, 3, 8, 16])
    def test_dsm_iterative_path_reaches_the_closed_form(self, monkeypatch, p):
        # without its closed form a DSM prefix is solved iteratively, on
        # Dykstra's inexact Birkhoff projection: it converges to S / t within
        # 1e-9 per entry, with a loss sum no worse than the closed form's
        prob = DsmProblem(p).materialize(300, [0, 5])
        closed = {(j, t): solve_offline(prob, t, j=j)
                  for j in (0, 1) for t in (1, 2, 17, 300)}
        prefix_loss = DsmProblem.prefix_loss

        def without_minimizer(self, t, j=0):
            loss = prefix_loss(self, t, j)
            loss.minimizer = lambda: None
            return loss
        monkeypatch.setattr(DsmProblem, "prefix_loss", without_minimizer)
        for (j, t), want in closed.items():
            sol, events = solve_recording(prob, t, j=j)
            assert_evaluation_count(sol, events)
            assert sol.iterations >= 1 and want.iterations == 0
            assert np.max(np.abs(sol.x_star - want.x_star)) <= 1e-9
            assert sol.loss_sum <= want.loss_sum + 1e-12 * abs(want.loss_sum)

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(p=st.integers(2, 16), t=st.integers(1, 3000),
           seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3),
           row=st.integers(0, 2))
    @example(p=16, t=3000, seeds=[11], row=0)
    @example(p=2, t=1, seeds=[0, 1, 2], row=2)
    def test_dsm_closed_form_against_oracle(self, p, t, seeds, row):
        # seed j's stream of a problem that holds several: the prefix mean
        # of that row, the oracle's optimum to the last bits
        prob = DsmProblem(p).materialize(t, seeds)
        j = row % len(seeds)
        fast, ref = solve_offline(prob, t, j=j), solve_offline_pgd(prob, t, j=j)
        assert_dsm_agrees(fast, ref)
        counts = stream_matrices(prob.stream[j]).sum(axis=0).ravel()
        assert np.array_equal(fast.x_star, counts / t)

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(p=st.integers(2, 16), t=st.integers(1, 3000),
           seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3),
           row=st.integers(0, 2))
    @example(p=16, t=3000, seeds=[11], row=0)
    @example(p=2, t=1, seeds=[0, 1, 2], row=2)
    def test_loss_sum_against_prefix_oracles(self, p, t, seeds, row):
        # the regret accounting subtracts loss_sum as the comparator's loss:
        # it is the prefix sum at x_star, bit for bit against the float
        # prefix of DSM, and within 1e-12 of the gathered elastic-net prefix
        # of 200 examples with p random features and labels, under a budget
        # that binds and one that is slack at most optima
        j = row % len(seeds)
        prob = DsmProblem(p).materialize(t, seeds)
        sol = solve_offline(prob, t, j=j)
        assert sol.loss_sum == loss_sum_float(prob, t, sol.x_star, j)[0]
        rng = np.random.default_rng(seeds)
        u = rng.normal(size=(200, p))
        y = np.where(rng.uniform(size=200) > 0.5, 1.0, -1.0)
        for rho in (0.05, 5.0):
            prob = ElasticNetProblem(y, u, rho=rho).materialize(t, seeds)
            sol = solve_offline(prob, t, j=j)
            assert sol.tolerance_met
            assert sol.loss_sum == pytest.approx(
                loss_sum_gathered(prob, t, sol.x_star, j)[0], rel=1e-12)

    def test_criterion9_iterations_halved(self):
        # 39 iterations against the oracle's 1280
        prob = criterion9_problem([0, 1])
        fast = ref = 0
        for j in (0, 1):
            for t in (25, 100, 200):
                (a, events), b = (solve_recording(prob, t, j=j),
                                  solve_offline_pgd(prob, t, j=j))
                assert_evaluation_count(a, events)
                assert a.tolerance_met and b.tolerance_met
                fast, ref = fast + a.iterations, ref + b.iterations
        assert 20 * fast <= ref


def loose_ball_problem() -> tuple[ElasticNetProblem, int]:
    """A problem whose solve halves its moves, and its t: 40 examples of 5
    features at scale 3 under the loose budget rho = 50, so that the
    logistic curvature varies along a step and a spectral step overshoots."""
    rng = np.random.default_rng(2)
    u = rng.normal(size=(40, 5)) * 3.0
    y = np.where(rng.uniform(size=40) > 0.5, 1.0, -1.0)
    return ElasticNetProblem(y, u, rho=50.0).materialize(5, [2]), 5


def assert_unit_step_mapping_bounded(scale: float):
    """A solve over 60 examples of 5 features at `scale` under rho = 1
    reports a mapping norm, taken at x_star, that bounds the unit-step
    mapping there, and ends on the boundary of the budget."""
    rng = np.random.default_rng(5)
    n, d, t = 60, 5, 60
    u = rng.normal(size=(n, d)) * scale
    y = np.where(u @ rng.normal(size=d) > 0, 1.0, -1.0)
    prob = ElasticNetProblem(y, u, rho=1.0).materialize(t, [4])
    assert 1.0 / prob.prefix_loss(t).smoothness() > 1000.0
    sol, events = solve_recording(prob, t)
    assert_evaluation_count(sol, events)
    last = max(i for i, (kind, _) in enumerate(events) if kind == "project")
    final_x = next(x for kind, x in reversed(events[:last])
                   if kind == "evaluate")
    assert final_x.tobytes() == sol.x_star.tobytes()
    grad = prob.prefix_loss(t)(sol.x_star)[1] / t
    unit_mapping = np.linalg.norm(
        sol.x_star - prob.project_feasible(sol.x_star - grad))
    assert unit_mapping <= sol.mapping_norm < 1e-8
    assert elasticnet_value(sol.x_star) == pytest.approx(1.0, rel=1e-12)


class TestSolveOfflineStep:
    """The first step 1/L from the prefix's bound, the line search, and the
    stopping rule at steps above 1."""

    def test_criterion9_checkpoints_evaluate_once_per_iteration(self):
        # criterion 9's checkpoints: no search halves, so each solve
        # evaluates the prefix once per iteration, and the eight solves of
        # a seed take at most 100 iterations together (58 to 67; 323 to 429
        # under the unit step cap)
        prob = criterion9_problem([0, 1, 2, 3])
        for j in range(4):
            iterations = 0
            for t in checkpoint_grid(200, 8):
                sol, events = solve_recording(prob, t, j=j)
                assert_evaluation_count(sol, events)
                assert halvings(events) == 0
                iterations += sol.iterations
            assert iterations <= 100

    @pytest.mark.parametrize("factor", [1.0, 1.0 / 4.0, 1.0 / 64.0])
    def test_underestimated_smoothness_cannot_pass_a_wrong_optimum(
            self, tmp_path, monkeypatch, factor):
        # a bound below the true L lengthens the first step past 1/L, and
        # the stopping rule certifies every point it accepts at any step:
        # every solve agrees with the oracle. A solve cut short misses its
        # tolerance, and a run fails at its first miss
        data = str(tmp_path / "criterion9.libsvm")
        write_dataset(data)
        cfg = ExperimentConfig(
            problem={"kind": "elasticnet", "dataset": data, "rho": 1.0},
            algorithm="a_ogd_convex", beta=2.0 / 3.0, T=200, seeds=[1],
            output_dir=str(tmp_path / "out"), checkpoints=8)
        prob = build_problem(cfg).materialize(cfg.T, cfg.seeds)
        scale_smoothness(monkeypatch, factor)
        grid = checkpoint_grid(cfg.T, cfg.checkpoints)
        for t in grid:
            sol, ref = solve_offline(prob, t), solve_offline_pgd(prob, t)
            assert sol.tolerance_met and ref.tolerance_met
            assert sol.loss_sum == pytest.approx(ref.loss_sum, rel=1e-12)
        monkeypatch.setattr(offline, "_SOLVE_MAX_ITER", 3)
        missed = [t for t in grid if not solve_offline(prob, t).tolerance_met]
        assert missed
        # a solve cut short returns the point its norm was taken at: it
        # evaluates nothing after its last projection
        sol, events = solve_recording(prob, missed[0])
        assert sol.iterations == 3 and events[-1][0] == "project"
        assert evaluations(events) == sol.iterations + halvings(events)
        with pytest.raises(RuntimeError) as info:
            run_experiment(asdict(cfg))
        assert str(info.value).startswith(
            f"offline solve of seed 1 at t={missed[0]} missed its tolerance "
            f"after 3 iterations")
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert not list((tmp_path / "out").glob("*.csv"))

    @pytest.mark.parametrize("factor", [1.0, 1.0 / 64.0])
    def test_halved_moves_converge_to_the_oracle(self, monkeypatch, factor):
        # steps that overshoot on a loose ball: the searches halve, and the
        # solve still converges to the oracle's optimum
        prob, t = loose_ball_problem()
        scale_smoothness(monkeypatch, factor)
        sol, events = solve_recording(prob, t)
        ref = solve_offline_pgd(prob, t)
        assert_evaluation_count(sol, events)
        assert halvings(events) > 0
        assert ref.tolerance_met
        assert sol.loss_sum == pytest.approx(ref.loss_sum, rel=1e-12)

    def test_search_without_decrease_ends_the_solve(self, monkeypatch):
        # with no halving allowed, the first search that needs one ends the
        # solve where it stands: unconverged, before the iteration cap, with
        # the norm and the prefix sum of the point it returns
        prob, t = loose_ball_problem()
        monkeypatch.setattr(offline, "_SPG_MIN_MOVE", 1.0)
        sol, events = solve_recording(prob, t)
        assert not sol.tolerance_met and sol.mapping_norm >= 1e-8
        assert 1 <= sol.iterations < offline._SOLVE_MAX_ITER
        # the last evaluation tried the rejected move; the one before it was
        # the point the solve returns, a projection output
        tried = [x for kind, x in events if kind == "evaluate"]
        assert len(tried) == sol.iterations + 1
        assert tried[-2].tobytes() == sol.x_star.tobytes()
        assert sol.loss_sum == prob.prefix_loss(t)(sol.x_star)[0]

    def test_stopping_rule_bounds_the_unit_step_mapping(self):
        # small features make 1/L large, and the optimum sits on the
        # boundary of the budget, where the step-s mapping norm at x falls
        # as s grows: the reported norm must bound the unit-step mapping at
        # x_star, the point it was taken at
        assert_unit_step_mapping_bounded(0.03)

    def test_stopping_rule_at_a_flatter_prefix(self):
        # a norm divided by the step itself (above 1000) would stop this
        # solve at its second iteration, where the unit-step mapping is
        # still 3.5e-7
        assert_unit_step_mapping_bounded(0.003)

    def test_constant_gradient_takes_the_unit_step(self):
        # all-zero feature rows, as label-only libsvm lines give: L = 0, the
        # objective is the constant log 2 and the solve stops at its first
        # iteration
        prob = ElasticNetProblem(np.array([1.0, -1.0]), np.zeros((2, 3)),
                                 rho=1.0).materialize(5, [0])
        assert prob.prefix_loss(5).smoothness() == 0.0
        sol = solve_offline(prob, 5)
        assert sol.tolerance_met and sol.iterations == 1
        assert sol.loss_sum / 5 == pytest.approx(np.log(2.0), rel=1e-15)


class TestSolveOfflineCached:
    def test_cache_round_trip(self, tmp_path):
        prob = DsmProblem(3)
        prob.materialize(10, [4])
        key = offline.cache_key({"kind": "dsm", "p": 3})
        path = tmp_path / "offline_cache" / "solutions.bin"
        cache = {}
        first = solve_offline_cached(prob, 10, cache, seed=4)
        assert cache == {(4, 10): first}
        store_solutions(str(path), key, cache)
        assert [p.name for p in path.parent.iterdir()] == ["solutions.bin"]

        class Boom:
            dim = 9

            def project_feasible(self, x):
                raise AssertionError("cache should have been hit")

        second = solve_offline_cached(Boom(), 10, load_solutions(str(path), key),
                                      seed=4)
        np.testing.assert_allclose(second.x_star, first.x_star)
        assert second.loss_sum == first.loss_sum
        assert second.mapping_norm == first.mapping_norm < 1e-8

    def test_file_that_cannot_be_read_fails(self, tmp_path, monkeypatch):
        # a missing file is a miss; a path that exists but cannot be read
        # fails the call and is not solved over
        key = offline.cache_key({"kind": "dsm", "p": 3})
        path = tmp_path / "solutions.bin"
        assert load_solutions(str(path), key) == {}
        path.mkdir()
        solves = []
        monkeypatch.setattr(offline, "solve_offline", lambda *args, **kwargs: (
            solves.append(args) or solve_offline(*args, **kwargs)))
        with pytest.raises(IsADirectoryError):
            load_solutions(str(path), key)
        assert not solves

    def test_key_covers_the_source_of_the_comparator(self, tmp_path,
                                                     monkeypatch):
        # an edit to any module, experiment.py's build_problem among them,
        # or a module added, changes the digest in the key
        source = Path(offline.__file__).parent
        names = sorted(p.name for p in source.glob("*.py"))
        assert {"experiment.py", "ingest.py", "offline.py",
                "problems.py"} <= set(names)
        package = tmp_path / "aogd"
        package.mkdir()
        for name in names:
            (package / name).write_bytes((source / name).read_bytes())
        monkeypatch.setattr(offline, "__file__", str(package / "offline.py"))
        digest = offline._source_digest.__wrapped__
        assert digest() == offline._source_digest()
        seen = {digest()}
        for name in names:
            with open(package / name, "ab") as fh:
                fh.write(b"\n")
            seen.add(digest())
        (package / "added.py").write_text("")
        seen.add(digest())
        assert len(seen) == len(names) + 2

    def test_other_source_is_resolved(self, tmp_path, monkeypatch):
        prob = DsmProblem(3)
        prob.materialize(10, [4])
        spec = {"kind": "dsm", "p": 3}
        path = str(tmp_path / "solutions.bin")
        with monkeypatch.context() as m:
            m.setattr(offline, "_source_digest", lambda: "other source")
            stale_key = offline.cache_key(spec)
            # mark the other code's file, so that returning it would show:
            # its writer stores a loss sum of -1
            m.setattr(offline, "solve_offline", lambda *args, **kwargs: (
                replace(solve_offline(*args, **kwargs), loss_sum=-1.0)))
            cache = {}
            solve_offline_cached(prob, 10, cache, seed=4)
            store_solutions(path, stale_key, cache)
        assert load_solutions(path, stale_key)[4, 10].loss_sum == -1.0
        key = offline.cache_key(spec)
        assert key != stale_key

        solves = []
        monkeypatch.setattr(offline, "solve_offline", lambda *args, **kwargs: (
            solves.append(args) or solve_offline(*args, **kwargs)))
        cache = load_solutions(path, key)
        assert cache == {}
        sol = solve_offline_cached(prob, 10, cache, seed=4)
        assert len(solves) == 1 and sol.loss_sum != -1.0
        store_solutions(path, key, cache)
        assert load_solutions(path, key)[4, 10].loss_sum == sol.loss_sum
        assert load_solutions(path, stale_key) == {}
        solve_offline_cached(prob, 10, load_solutions(path, key), seed=4)
        assert len(solves) == 1  # the overwritten file now hits

    def test_entries_keep_their_bits(self, tmp_path):
        # x_star goes through the file as raw little-endian float64 bytes,
        # a NaN's payload among them; the header fields go through JSON
        path = str(tmp_path / "solutions.bin")
        nan_payload = np.array([0x7FF8000000000001], np.uint64).view(float)
        x = np.array([-0.0, 5e-324, -5e-324, np.finfo(float).max, np.inf,
                      -np.inf, np.nan, nan_payload[0], 1.0 / 3.0])
        assert x[7].view(np.uint64) == 0x7FF8000000000001
        stored = {(7, 3): OfflineSolution(x_star=x, loss_sum=-0.0,
                                          iterations=0, mapping_norm=5e-324),
                  (2**70, 1): OfflineSolution(x_star=-x, loss_sum=5e-324,
                                              iterations=4999,
                                              mapping_norm=np.inf)}
        store_solutions(path, "key", stored)
        loaded = load_solutions(path, "key")
        assert loaded.keys() == stored.keys()
        for k, sol in stored.items():
            got = loaded[k]
            assert got.x_star.dtype == np.float64
            assert got.x_star.shape == sol.x_star.shape
            assert got.x_star.tobytes() == sol.x_star.tobytes()
            for name in ("loss_sum", "mapping_norm"):
                assert (np.float64(getattr(got, name)).tobytes()
                        == np.float64(getattr(sol, name)).tobytes()), name
            assert got.iterations == sol.iterations
            assert got.tolerance_met == sol.tolerance_met
