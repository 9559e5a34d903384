import numpy as np
import pytest

from aogd.learner import run
from aogd.metrics import (BoundCompliance, accumulate, bound_compliance,
                          checkpoint_grid, fit_rate_exponent)
from aogd.offline import solve_offline
from aogd.problems import DsmProblem
from aogd.schedules import Regime, ScheduleParams, schedule_arrays
from dsm_stream_oracle import stream_matrices
from step_recorder import recorded_rounds


def dsm_params(p, beta=2.0 / 3.0):
    return ScheduleParams(beta=beta, regime=Regime.CONVEX,
                          constants=DsmProblem(p).constants)


class TestCheckpointGrid:
    def test_small_horizon(self):
        assert checkpoint_grid(5, count=20) == [1, 2, 3, 4, 5]

    def test_endpoints_and_monotone(self):
        grid = checkpoint_grid(1000, count=20)
        assert grid[0] == 1 and grid[-1] == 1000
        assert all(b > a for a, b in zip(grid, grid[1:]))

    def test_single_round(self):
        assert checkpoint_grid(1) == [1]

    def test_invalid(self):
        with pytest.raises(ValueError):
            checkpoint_grid(0)


class TestAccumulate:
    def run_with_offline(self, p, T, checkpoints, seed=0):
        prob = DsmProblem(p)
        params = dsm_params(p)
        trace = run(prob, params, T, [seed], checkpoints)
        offline = {t: solve_offline(prob, t) for t in checkpoints}
        return prob, params, trace, offline

    def test_three_round_hand_check(self):
        prob, params = DsmProblem(2), dsm_params(2)
        with recorded_rounds(prob) as rounds:
            trace = run(prob, params, 3, [0], [1, 2, 3])
        offline = {t: solve_offline(prob, t) for t in (1, 2, 3)}
        loss_regret, _, _ = accumulate(trace, [offline], params)
        assert trace.t.tolist() == [1, 2, 3]
        ys = stream_matrices(prob.stream[0])
        _, eta, _ = schedule_arrays(params, 3)
        for i, t in enumerate(trace.t):
            learner_cum = sum(rounds.loss[:t, 0])
            mean = np.mean([Y.ravel() for Y in ys[:t]], axis=0)
            offline_cum = sum(0.5 * np.sum((mean - Y.ravel()) ** 2)
                              for Y in ys[:t])
            assert loss_regret[i, 0] == pytest.approx(
                learner_cum - offline_cum, abs=1e-7)
            assert trace.g_cum[i, 0] == pytest.approx(sum(rounds.g[:t, 0]))
            assert trace.lam[i, 0] == rounds.lam[t - 1, 0]
            assert trace.eta[i] == eta[t - 1]

    def test_bounds_nan_without_params(self):
        prob, _, trace, offline = self.run_with_offline(2, 3, [3])
        _, loss_bound, constraint_bound = accumulate(trace, [offline],
                                                     params=None)
        assert np.isnan(loss_bound[0])
        assert np.isnan(constraint_bound[0])

    def test_checkpoint_out_of_range(self):
        prob, params, trace, offline = self.run_with_offline(2, 3, [3])
        offline[10] = offline[3]
        with pytest.raises(ValueError) as info:
            accumulate(trace, [offline], params)
        assert str(info.value) == ("offline comparators at t=[3, 10] are not "
                                   "the trace's checkpoints t=[3]")

    def test_checkpoint_missing_from_trace(self):
        prob, params = DsmProblem(2), dsm_params(2)
        trace = run(prob, params, 5, [0], checkpoints=[2, 5])
        offline = {t: solve_offline(prob, t) for t in (2, 3, 5)}
        with pytest.raises(ValueError) as info:
            accumulate(trace, [offline], params)
        assert str(info.value) == ("offline comparators at t=[2, 3, 5] are "
                                   "not the trace's checkpoints t=[2, 5]")

    @pytest.mark.parametrize("keys", [[5], []], ids=["missing_t", "empty"])
    def test_offline_keys_must_be_the_trace_checkpoints(self, keys):
        prob, params, trace, _ = self.run_with_offline(2, 5, [2, 5])
        offline = {t: solve_offline(prob, t) for t in keys}
        with pytest.raises(ValueError) as info:
            accumulate(trace, [offline], params)
        assert str(info.value) == (f"offline comparators at t={keys} are not "
                                   f"the trace's checkpoints t=[2, 5]")

    def test_checkpoint_trace_matches_every_round_trace(self):
        # a trace kept at the checkpoints holds the rows of a trace kept at
        # every round, bit for bit
        prob, params = DsmProblem(3), dsm_params(3)
        every = run(prob, params, 600, [4], range(1, 601))
        for checkpoints in ([1, 7, 300, 600], [1, 2, 7, 299, 300, 600]):
            trace = run(prob, params, 600, [4], checkpoints=checkpoints)
            rows = np.asarray(checkpoints) - 1
            assert np.array_equal(trace.t, every.t[rows])
            for name in ("loss_cum", "g_cum", "lam", "eta", "theta"):
                assert np.array_equal(getattr(trace, name),
                                      getattr(every, name)[rows]), name
            for name in ("violation_clipped", "lam_max", "lam_max_t",
                         "first_nonpositive_t"):
                assert np.array_equal(getattr(trace, name),
                                      getattr(every, name)), name

    def test_one_offline_map_per_seed(self):
        # one map for two seeds would broadcast against both columns
        prob, params = DsmProblem(2), dsm_params(2)
        trace = run(prob, params, 5, [0, 1], checkpoints=[2, 5])
        offline = {t: solve_offline(prob, t) for t in (2, 5)}
        with pytest.raises(ValueError) as info:
            accumulate(trace, [offline], params)
        assert str(info.value) == "1 offline comparator maps for 2 seeds"

    def test_seed_column_matches_single_seed_run(self):
        # column j of a lockstep run's seed CSV columns, with seed j's own
        # offline optima, is that of the seed run alone, bit for bit; the
        # (K,) columns are every seed's
        prob, params, grid = DsmProblem(3), dsm_params(3), [1, 7, 40]
        seeds = [6, 2, 9]

        def csv_columns(trace, offline):
            return accumulate(trace, offline, params) + tuple(
                getattr(trace, name)
                for name in ("t", "g_cum", "lam", "eta", "theta"))

        columns = csv_columns(run(prob, params, 40, seeds, grid),
                              [{t: solve_offline(prob, t, j=j) for t in grid}
                               for j in range(len(seeds))])
        for j, seed in enumerate(seeds):
            single, _, alone, offline = self.run_with_offline(3, 40, grid, seed)
            expected = csv_columns(alone, [offline])
            for got, want in zip(columns, expected, strict=True):
                column = got if got.ndim == 1 else got[:, [j]]
                assert column.tobytes() == want.tobytes()
                assert column.shape == want.shape


class TestFitRateExponent:
    def test_quadratic(self):
        ts = checkpoint_grid(10**4)
        values = [float(t) ** 2 for t in ts]
        assert fit_rate_exponent(ts, values) == pytest.approx(2.0, abs=1e-9)

    def test_sqrt_with_scale(self):
        ts = checkpoint_grid(10**4)
        values = [7.0 * np.sqrt(t) for t in ts]
        assert fit_rate_exponent(ts, values) == pytest.approx(0.5, abs=1e-9)

    def test_noisy_two_thirds(self):
        rng = np.random.default_rng(0)
        ts = checkpoint_grid(10**6, count=30)
        values = [t ** (2.0 / 3.0) * np.exp(rng.normal(0, 0.02)) for t in ts]
        assert fit_rate_exponent(ts, values) == pytest.approx(2.0 / 3.0, abs=0.05)

    def test_nonpositive_values_clamped(self):
        ts = checkpoint_grid(100)
        assert fit_rate_exponent(ts, [-1.0] * len(ts)) == pytest.approx(0.0, abs=1e-9)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_rate_exponent([1, 2], [1.0, 2.0])

    def test_columns_must_match(self):
        ts = checkpoint_grid(10**4)
        with pytest.raises(ValueError, match="shape"):
            fit_rate_exponent(ts, [1.0] * (len(ts) - 1))

    def test_uses_tail_of_curve(self):
        # early transient must not pollute the fit
        ts = checkpoint_grid(10**4)
        values = [100.0 if t < 30 else float(t) for t in ts]
        assert fit_rate_exponent(ts, values) == pytest.approx(1.0, abs=1e-9)


class TestBoundCompliance:
    def make_columns(self, T=200, p=3, seed=1):
        """The loss regret, constraint and both bound columns of one run."""
        prob = DsmProblem(p)
        params = dsm_params(p)
        grid = checkpoint_grid(T, count=10)
        trace = run(prob, params, T, [seed], grid)
        offline = {t: solve_offline(prob, t) for t in grid}
        loss, loss_bound, constraint_bound = accumulate(trace, [offline], params)
        return loss, trace.g_cum, loss_bound, constraint_bound

    def test_adaptive_run_complies(self):
        (comp,) = bound_compliance(*self.make_columns())
        assert comp.loss_ok and comp.constraint_ok
        assert comp.max_ratio <= 1.0

    def test_strongly_convex_loss_bound_holds_across_seeds(self):
        # loss_regret_bound reuses the convex formula for the strongly
        # convex schedules; check it on DSM p=4 (sigma = 1) at every
        # checkpoint of 16 seeds
        prob, T, seeds = DsmProblem(4), 2000, list(range(16))
        params = ScheduleParams(beta=2.0 / 3.0, regime=Regime.STRONGLY_CONVEX,
                                constants=prob.constants)
        grid = checkpoint_grid(T)
        trace = run(prob, params, T, seeds, grid)
        loss, loss_bound, constraint_bound = accumulate(
            trace, [{t: solve_offline(prob, t, j=j) for t in grid}
                    for j in range(len(seeds))], params)
        assert loss.shape == (len(grid), len(seeds))
        comps = bound_compliance(loss, trace.g_cum, loss_bound,
                                 constraint_bound)
        assert [c.loss_ok for c in comps] == [True] * len(seeds)

    def test_negative_control_detects_violation(self):
        loss, cons, loss_bound, constraint_bound = self.make_columns()
        loss = loss.copy()
        loss[-1, 0] = 2 * loss_bound[-1]
        (comp,) = bound_compliance(loss, cons, loss_bound, constraint_bound)
        assert not comp.loss_ok
        assert comp.max_ratio > 1.0

    def test_one_verdict_per_seed_column(self):
        # a violation in seed 1's column fails seed 1's verdict alone
        prob, params, grid = DsmProblem(3), dsm_params(3), checkpoint_grid(200, 10)
        trace = run(prob, params, 200, [1, 2, 3], grid)
        loss, loss_bound, constraint_bound = accumulate(
            trace, [{t: solve_offline(prob, t, j=j) for t in grid}
                    for j in range(3)], params)
        constraint_cum = trace.g_cum.copy()
        constraint_cum[0, 1] = 3 * constraint_bound[0]
        comps = bound_compliance(loss, constraint_cum, loss_bound,
                                 constraint_bound)
        assert all(isinstance(c, BoundCompliance) for c in comps)
        assert [c.constraint_ok for c in comps] == [True, False, True]
        assert [c.loss_ok for c in comps] == [True] * 3
        assert comps[1].max_ratio == pytest.approx(3.0)
        assert max(comps[0].max_ratio, comps[2].max_ratio) <= 1.0

    def test_max_ratio_matches_columns(self):
        loss, cons, loss_bound, constraint_bound = self.make_columns()
        (comp,) = bound_compliance(loss, cons, loss_bound, constraint_bound)
        ratios = []
        for i in range(len(loss_bound)):
            ratios += [loss[i, 0] / loss_bound[i],
                       cons[i, 0] / constraint_bound[i]]
        assert comp.max_ratio == pytest.approx(max(ratios))
