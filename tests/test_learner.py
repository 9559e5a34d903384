import csv
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest

from aogd import learner
from aogd.experiment import ExperimentConfig, run_experiment
from aogd.learner import run, step
from aogd.metrics import checkpoint_grid
from aogd.problems import DsmProblem, ElasticNetProblem
from aogd.projections import g_max, project_ball
from aogd.schedules import (FixedScheduleParams, ProblemConstants, Regime,
                            ScheduleParams, loss_regret_bound, mu_at,
                            schedule_arrays)
from dsm_stream_oracle import stream_matrices
from step_recorder import recorded_iterates, recorded_rounds


def assert_same_trace(a, b):
    for name, column in vars(a).items():
        assert np.array_equal(column, getattr(b, name)), name


def dsm_params(p, beta=2.0 / 3.0, regime=Regime.CONVEX):
    return ScheduleParams(beta=beta, regime=regime,
                          constants=DsmProblem(p).constants)


def step1(x, lam, t, f_grad, g_value, g_sub, *args, **kwargs):
    """`step` on the one-row batch of (x, lam); returns the row's (x, lam)."""
    (x,), (lam,) = step(np.array([x], dtype=float), np.array([lam], dtype=float),
                        t, np.array([f_grad], dtype=float),
                        np.array([g_value], dtype=float),
                        np.array([g_sub], dtype=float), *args, **kwargs)
    return x, lam


def primal_step(f_grad, lam, g_sub):
    """-(f_grad + lam * g_sub): one unit primal step from x = 0 inside a
    ball too large to clip."""
    x, _ = step1(np.zeros(len(f_grad)), lam, 1, f_grad, 0.0, g_sub,
                 eta_t=1.0, mu_t=0.1, theta_t=1.0, R=1e9)
    return x


class TestGradients:
    def test_primal_zero_lambda(self):
        np.testing.assert_allclose(
            -primal_step(np.array([1.0, 0.0]), 0.0, np.array([5.0, 5.0])),
            [1.0, 0.0])

    def test_primal_combination(self):
        np.testing.assert_allclose(
            -primal_step(np.array([1.0, 2.0]), 2.0, np.array([0.5, -1.0])),
            [2.0, 0.0])

    def test_primal_pure_constraint(self):
        np.testing.assert_allclose(
            -primal_step(np.zeros(2), 1.0, np.array([1.0, 1.0])), [1.0, 1.0])

    @pytest.mark.parametrize("g,theta,lam,expected",
                             [(1.0, 6.0, 0.0, 1.0),
                              (0.0, 2.0, 3.0, -6.0),
                              (1.5, 3.0, 0.5, 0.0)])
    def test_dual(self, g, theta, lam, expected):
        # a dual step small enough that the clamp at 0 stays inactive
        mu = 0.01
        _, lam_next = step1(np.zeros(1), lam, 1, np.zeros(1), g, np.zeros(1),
                            eta_t=0.1, mu_t=mu, theta_t=theta, R=1.0)
        assert (lam_next - lam) / mu == pytest.approx(expected)


class TestStep:
    def test_from_initial_state(self):
        g0 = np.array([0.3, -0.2])
        x, lam = step1(np.zeros(2), 0.0, 1, g0, 0.7, np.array([1.0, 1.0]),
                       eta_t=0.5, mu_t=0.1, theta_t=2.0, R=1.0)
        np.testing.assert_allclose(x, project_ball(-0.5 * g0, 1.0))
        assert lam == pytest.approx(0.07)

    def test_hand_evaluated_1d(self):
        x, lam = step1(np.zeros(1), 0.0, 1, np.array([1.0]), 1.0, np.array([0.0]),
                       eta_t=1.0, mu_t=1.0 / 12.0, theta_t=6.0, R=1.0)
        assert x[0] == pytest.approx(-1.0)
        assert lam == pytest.approx(1.0 / 12.0)

    def test_dual_clamped_at_zero(self):
        _, lam = step1(np.zeros(1), 0.0, 1, np.zeros(1), -0.5, np.zeros(1),
                       eta_t=0.1, mu_t=0.1, theta_t=1.0, R=1.0)
        assert lam == 0.0 and not np.signbit(lam)

    def test_nonfinite_gradient_reports_round(self):
        with pytest.raises(FloatingPointError, match="17"):
            step1(np.zeros(1), 0.0, 17, np.array([np.nan]), 0.0, np.zeros(1),
                  eta_t=0.1, mu_t=0.1, theta_t=1.0, R=1.0)
        with pytest.raises(FloatingPointError, match="17"):
            step(np.zeros((2, 1)), np.zeros(2), 17, np.zeros((2, 1)),
                 np.array([0.0, np.inf]), np.zeros((2, 1)),
                 eta_t=0.1, mu_t=0.1, theta_t=1.0, R=1.0)

    def test_huge_finite_g_value_passes(self):
        # 1e200 squares past float64, so all_finite takes its entrywise
        # fallback, which finds it finite; no warning escapes either
        _, lam = step1(np.zeros(1), 0.0, 3, np.zeros(1), 1e200, np.zeros(1),
                       eta_t=0.1, mu_t=0.5, theta_t=1.0, R=1.0)
        assert lam == 0.5 * 1e200

    def test_simultaneous_not_gauss_seidel(self):
        # the dual update must use g at the pre-update x; re-evaluating g at
        # the post-update x changes the dual iterate on a generic instance
        f_grad, g_sub = np.array([1.0]), np.array([1.0])
        g_at_x = 0.5 - 0.2  # g(x) = x - 0.2
        x, lam = step1(np.array([0.5]), 0.2, 1, f_grad, g_at_x, g_sub,
                       0.5, 0.1, 1.0, 1.0)
        x_post = float(x[0])
        g_at_x_post = x_post - 0.2
        lam_gs = max(0.0, 0.2 + 0.1 * (g_at_x_post - 1.0 * 0.2))
        assert lam != pytest.approx(lam_gs)
        assert lam == pytest.approx(0.2 + 0.1 * (g_at_x - 0.2))

    def test_rows_are_independent(self):
        # each row of a batch takes the step it would take alone, bit for
        # bit, whether or not other rows are clipped by the ball
        rng = np.random.default_rng(6)
        X, f_grad, g_sub = rng.normal(size=(3, 5, 4))
        X[1] *= 10.0
        lam, g = np.array([0.0, 0.3, 2.0, 0.1, 0.0]), rng.normal(size=5)
        args = (0.3, 0.2, 1.5, 2.0)
        X_next, lam_next = step(X, lam, 4, f_grad, g, g_sub, *args)
        for j in range(5):
            x, lam_j = step1(X[j], lam[j], 4, f_grad[j], g[j], g_sub[j], *args)
            assert np.array_equal(X_next[j], x) and lam_next[j] == lam_j

    def test_reads_read_only_rows(self):
        # `run` passes a row of its trace buffer as lam: step reads lam and
        # g_value and writes neither
        rng = np.random.default_rng(8)
        X, f_grad, g_sub = rng.normal(size=(3, 4, 2))
        lam, g = np.array([0.0, 0.3, 2.0, 0.1]), rng.normal(size=4)
        expected = step(X, lam.copy(), 5, f_grad, g.copy(), g_sub,
                        0.3, 0.2, 1.5, 2.0)
        saved = lam.copy(), g.copy()
        lam.flags.writeable = g.flags.writeable = False
        X_next, lam_next = step(X, lam, 5, f_grad, g, g_sub, 0.3, 0.2, 1.5, 2.0)
        assert np.array_equal(X_next, expected[0]) and lam_next == expected[1]
        assert np.array_equal(lam, saved[0]) and np.array_equal(g, saved[1])


class TestRun:
    def test_single_round(self):
        prob = DsmProblem(2)
        with recorded_iterates() as recorded:
            trace = run(prob, dsm_params(2), T=1, seeds=[0], checkpoints=[1])
        xs = np.array(recorded)
        assert xs.shape == (1, 1, 4)
        assert trace.lam.shape == trace.loss_cum.shape == trace.g_cum.shape == (1, 1)
        assert trace.t.tolist() == [1]
        assert trace.eta.shape == trace.theta.shape == (1,)
        assert trace.lam[0, 0] == 0.0
        np.testing.assert_array_equal(xs[0, 0], np.zeros(4))
        assert trace.loss_cum[0, 0] == pytest.approx(1.0)  # 0.5 * ||Y||_F^2 with Y a 2x2 permutation
        assert trace.g_cum[0, 0] == pytest.approx(1.0)  # row-sum deficit at X = 0
        assert trace.violation_clipped[0] == trace.g_cum[0, 0]
        assert (trace.lam_max[0], trace.lam_max_t[0]) == (0.0, 1)
        assert trace.first_nonpositive_t[0] == 0

    def test_three_rounds_match_hand_rolled(self):
        # independent replay of the update formulas for DSM p=2
        p = 2
        prob = DsmProblem(p)
        params = dsm_params(p)
        with recorded_rounds(prob) as recorded:
            trace = run(prob, params, T=3, seeds=[5], checkpoints=[1, 2, 3])
        xs = recorded.x[:, 0]
        ys = stream_matrices(prob.stream[0])
        c = prob.constants
        x = np.zeros(p * p)
        lam = 0.0
        for t in (1, 2, 3):
            theta = 6 * c.R * c.G / t ** params.beta
            eta = c.R / (c.G * t ** params.beta)
            mu = 1.0 / (theta * (t + 1))
            np.testing.assert_allclose(xs[t - 1], x, atol=1e-14)
            assert trace.lam[t - 1, 0] == pytest.approx(lam, abs=1e-14)
            # replay g = max over the 12 components, first maximizer
            X = x.reshape(p, p)
            vals = np.concatenate([
                -X.ravel(),
                X.sum(axis=1) - 1, 1 - X.sum(axis=1),
                X.sum(axis=0) - 1, 1 - X.sum(axis=0),
            ])
            g_val = float(vals.max())
            assert recorded.g[t - 1, 0] == pytest.approx(g_val, abs=1e-14)
            idx = int(np.argmax(vals))
            subs = np.zeros((12, 4))
            subs[:4] = -np.eye(4)
            subs[4, :2] = 1; subs[5, 2:] = 1
            subs[6, :2] = -1; subs[7, 2:] = -1
            subs[8, ::2] = 1; subs[9, 1::2] = 1
            subs[10, ::2] = -1; subs[11, 1::2] = -1
            g_sub = subs[idx]
            f_grad = x - ys[t - 1].ravel()
            x_next = x - eta * (f_grad + lam * g_sub)
            if np.linalg.norm(x_next) > c.R:
                x_next *= c.R / np.linalg.norm(x_next)
            lam = max(0.0, lam + mu * (g_val - theta * lam))
            x = x_next

    def test_deterministic_replay(self):
        prob1 = DsmProblem(3)
        prob2 = DsmProblem(3)
        with recorded_iterates() as x1:
            r1 = run(prob1, dsm_params(3), T=50, seeds=[9],
                     checkpoints=range(1, 51))
        with recorded_iterates() as x2:
            r2 = run(prob2, dsm_params(3), T=50, seeds=[9],
                     checkpoints=range(1, 51))
        assert np.array_equal(x1, x2)
        assert_same_trace(r1, r2)

    def test_iterate_invariants(self):
        prob = DsmProblem(4)
        with recorded_iterates() as xs:
            trace = run(prob, dsm_params(4), T=500, seeds=[2, 3],
                        checkpoints=range(1, 501))
        R = prob.constants.R
        assert np.all(np.linalg.norm(xs, axis=-1) <= R + 1e-9)
        assert np.all(trace.lam >= 0.0)

    def test_lambda_bounded_fixed_schedule(self):
        # with constant theta, ascent with -theta*lam pullback keeps lam below
        # max(lam1, D/theta) + mu*D for D bounding |g| along the run
        prob = DsmProblem(4)
        theta, mu = 2.0, 0.05
        with recorded_rounds(prob) as recorded:
            trace = run(prob, FixedScheduleParams(eta=0.05, theta=theta, mu=mu),
                        T=2000, seeds=[0], checkpoints=[2000])
        d_hat = np.max(np.abs(recorded.g))
        lam_max = trace.lam_max[0]
        assert lam_max == np.max(recorded.lam)
        assert np.isfinite(lam_max)
        assert lam_max <= max(0.0, d_hat / theta) + mu * d_hat + 1e-12

    def test_zero_horizon_rejected(self):
        with pytest.raises(ValueError, match="T must be >= 1"):
            run(DsmProblem(2), dsm_params(2), T=0, seeds=[0], checkpoints=[1])

    @staticmethod
    def assert_peak_holds_codes_and_schedule(S, T):
        # the run holds the S code streams (p bytes a round), the (T,)
        # float schedule (3 columns and 2 of slack for schedule_arrays'
        # temporaries) and O((C + K) S) trace buffers within 64 KiB: no
        # (T, S) trace column, float matrices of the stream, (T, d) iterate
        # column or per-round Python list
        prob = DsmProblem(8)
        tracemalloc.start()
        try:
            trace = run(prob, FixedScheduleParams(0.05, 2.0, 0.05), T,
                        list(range(S)), checkpoints=checkpoint_grid(T))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert prob.stream.nbytes == S * T * prob.p
        assert trace.loss_cum.shape == (len(checkpoint_grid(T)), S)
        assert peak < prob.stream.nbytes + 5 * T * 8 + 64 * 1024

    def test_memory_holds_no_iterate_column(self):
        self.assert_peak_holds_codes_and_schedule(S=1, T=20000)

    def test_memory_lockstep_holds_one_stream_per_seed(self):
        self.assert_peak_holds_codes_and_schedule(S=4, T=5000)

    @pytest.mark.parametrize("checkpoints", [[], [0], [3, 3], [2, 1], [6],
                                             [[1, 2]]])
    def test_bad_checkpoints_rejected(self, checkpoints):
        with pytest.raises(ValueError, match="checkpoints"):
            run(DsmProblem(2), dsm_params(2), T=5, seeds=[0],
                checkpoints=checkpoints)


class TestGammaShift:
    def test_zero_shift_is_identity(self, monkeypatch):
        # at gamma = 0 the dual step sees g itself with the schedule's own mu
        seen = []

        def spy(X, lam, t, f_grad, g_value, *args):
            seen.append(g_value.copy())
            return step(X, lam, t, f_grad, g_value, *args)

        monkeypatch.setattr(learner, "step", spy)
        prob = DsmProblem(2)
        with recorded_rounds(prob) as rounds:
            run(prob, dsm_params(2), T=30, seeds=[0], checkpoints=[30])
        assert np.array_equal(seen, rounds.g)
        assert np.array_equal(schedule_arrays(dsm_params(2), 30)[2],
                              mu_at(dsm_params(2), np.arange(1, 31)))

    def test_horizon_formula(self):
        cfg = ExperimentConfig(problem={"kind": "dsm", "p": 2},
                               algorithm="a_ogd_convex", beta=2.0 / 3.0,
                               T=1000, seeds=[0], output_dir="unused",
                               gamma_shift={"c1": 1.0})
        assert cfg.gamma == pytest.approx(0.1)

    def test_learner_sees_shifted_metrics_record_raw(self):
        rng = np.random.default_rng(4)
        y = np.where(rng.normal(size=40) > 0, 1.0, -1.0)
        u = rng.normal(size=(40, 3))
        prob = ElasticNetProblem(y, u, rho=0.2)
        # at x = 0 the raw constraint is -rho; the learner sees -rho + 0.5
        (raw,), _ = g_max(prob.constraints, np.zeros((1, 3)))
        assert raw == pytest.approx(-0.2)
        params = ScheduleParams(beta=0.5, regime=Regime.CONVEX,
                                constants=prob.constants, gamma=0.5)
        trace = run(prob, params, T=5, seeds=[1], checkpoints=[1, 2])
        assert trace.g_cum[0, 0] == pytest.approx(-0.2)
        # from lambda_1 = 0 the dual ascent moves by mu_1 * (g + gamma)
        _, _, mu = schedule_arrays(params, 5)
        assert trace.lam[1, 0] == pytest.approx(mu[0] * 0.3)

    def test_bound_constants_use_shifted_d(self, tmp_path):
        cfg = ExperimentConfig(problem={"kind": "dsm", "p": 2},
                               algorithm="a_ogd_convex", beta=2.0 / 3.0,
                               T=64, seeds=[0], output_dir=str(tmp_path),
                               checkpoints=4, gamma_shift={"c1": 1.0})
        run_experiment(asdict(cfg))
        params = ScheduleParams(beta=cfg.beta, regime=Regime.CONVEX,
                                constants=DsmProblem(2).constants,
                                gamma=cfg.gamma)
        with open(tmp_path / "seed_0.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            t = int(row["t"])
            assert float(row["loss_bound"]) == pytest.approx(
                float(loss_regret_bound(params, t)), rel=1e-12)
            # the bound is taken with D + gamma, above the unshifted one
            assert float(row["loss_bound"]) > loss_regret_bound(
                replace(params, gamma=0.0), t)

    def test_shift_reduces_cumulative_violation_elasticnet(self):
        rng = np.random.default_rng(7)
        n, d = 200, 8
        w = rng.normal(size=d)
        u = rng.normal(size=(n, d))
        y = np.where(u @ w > 0, 1.0, -1.0)
        T = 1500

        def cum_violation(gamma):
            prob = ElasticNetProblem(y, u, rho=1.0)
            params = ScheduleParams(beta=2.0 / 3.0, regime=Regime.CONVEX,
                                    constants=prob.constants, gamma=gamma)
            return float(run(prob, params, T, [3], [T]).g_cum[0, 0])

        assert cum_violation(0.3) < cum_violation(0.0)
