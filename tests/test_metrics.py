from dataclasses import astuple, replace

import numpy as np
import pytest

from aogd.learner import run
from aogd.metrics import (BoundCompliance, accumulate, bound_compliance,
                          checkpoint_grid, fit_rate_exponent)
from aogd.offline import solve_offline
from aogd.problems import DsmProblem
from aogd.schedules import Regime, ScheduleParams
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
        report = accumulate(trace, offline, params)
        assert report.t.tolist() == [1, 2, 3]
        ys = stream_matrices(prob.stream[0])
        for i, t in enumerate(report.t):
            learner_cum = sum(rounds.loss[:t, 0])
            mean = np.mean([Y.ravel() for Y in ys[:t]], axis=0)
            offline_cum = sum(0.5 * np.sum((mean - Y.ravel()) ** 2)
                              for Y in ys[:t])
            assert report.loss_regret[i] == pytest.approx(
                learner_cum - offline_cum, abs=1e-7)
            assert report.constraint_cum[i] == pytest.approx(
                sum(rounds.g[:t, 0]))
            assert report.lam[i] == rounds.lam[t - 1, 0]
            assert report.eta[i] == trace.eta[t - 1]

    def test_bounds_nan_without_params(self):
        prob, _, trace, offline = self.run_with_offline(2, 3, [3])
        report = accumulate(trace, offline, params=None)
        assert np.isnan(report.loss_bound[0])
        assert np.isnan(report.constraint_bound[0])

    def test_checkpoint_out_of_range(self):
        prob, params, trace, offline = self.run_with_offline(2, 3, [3])
        offline[10] = offline[3]
        with pytest.raises(ValueError) as info:
            accumulate(trace, offline, params)
        assert str(info.value) == ("offline comparators at t=[3, 10] are not "
                                   "the trace's checkpoints t=[3]")

    def test_checkpoint_missing_from_trace(self):
        prob, params = DsmProblem(2), dsm_params(2)
        trace = run(prob, params, 5, [0], checkpoints=[2, 5])
        offline = {t: solve_offline(prob, t) for t in (2, 3, 5)}
        with pytest.raises(ValueError) as info:
            accumulate(trace, offline, params)
        assert str(info.value) == ("offline comparators at t=[2, 3, 5] are "
                                   "not the trace's checkpoints t=[2, 5]")

    @pytest.mark.parametrize("keys", [[5], []], ids=["missing_t", "empty"])
    def test_offline_keys_must_be_the_trace_checkpoints(self, keys):
        prob, params, trace, _ = self.run_with_offline(2, 5, [2, 5])
        offline = {t: solve_offline(prob, t) for t in keys}
        with pytest.raises(ValueError) as info:
            accumulate(trace, offline, params)
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

    def test_seed_column_matches_single_seed_run(self):
        # report j of a lockstep run, with seed j's own offline optima, is
        # the report of that seed run alone, bit for bit
        prob, params, grid = DsmProblem(3), dsm_params(3), [1, 7, 40]
        trace = run(prob, params, 40, [6, 2], grid)
        reports = [accumulate(trace, {t: solve_offline(prob, t, j=j)
                                      for t in grid}, params, j)
                   for j in range(2)]
        for seed, report in zip((6, 2), reports):
            single, _, alone, offline = self.run_with_offline(3, 40, grid, seed)
            expected = accumulate(alone, offline, params)
            for got, want in zip(astuple(report), astuple(expected)):
                assert np.array_equal(got, want)

    def test_report_requires_increasing_t(self):
        prob, params, trace, offline = self.run_with_offline(2, 3, [1, 2])
        report = accumulate(trace, offline, params)
        with pytest.raises(ValueError):
            replace(report, t=report.t[::-1])


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
    def make_report(self, T=200, p=3, seed=1):
        prob = DsmProblem(p)
        params = dsm_params(p)
        grid = checkpoint_grid(T, count=10)
        trace = run(prob, params, T, [seed], grid)
        offline = {t: solve_offline(prob, t) for t in grid}
        return accumulate(trace, offline, params), params

    def test_adaptive_run_complies(self):
        report, params = self.make_report()
        comp = bound_compliance(report)
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
        for j in range(len(seeds)):
            report = accumulate(trace, {t: solve_offline(prob, t, j=j)
                                        for t in grid}, params, j)
            assert np.all(report.loss_regret <= report.loss_bound), seeds[j]

    def test_negative_control_detects_violation(self):
        report, params = self.make_report()
        loss_regret = report.loss_regret.copy()
        loss_regret[-1] = 2 * report.loss_bound[-1]
        broken = replace(report, loss_regret=loss_regret)
        comp = bound_compliance(broken)
        assert not comp.loss_ok
        assert comp.max_ratio > 1.0

    def test_max_ratio_matches_columns(self):
        report, params = self.make_report()
        comp = bound_compliance(report)
        ratios = []
        for i in range(len(report.t)):
            ratios += [report.loss_regret[i] / report.loss_bound[i],
                       report.constraint_cum[i] / report.constraint_bound[i]]
        assert comp.max_ratio == pytest.approx(max(ratios))
