from dataclasses import replace

import numpy as np
import pytest

from aogd.schedules import (FixedScheduleParams, ProblemConstants, Regime,
                            ScheduleParams, check_conditions,
                            constraint_regret_bound, eta_at,
                            loss_regret_bound, mu_at, schedule_arrays,
                            schedule_sums, theta_at)

BETA_GRID = [0.1, 0.25, 0.5, 2.0 / 3.0, 0.75, 0.9]


def convex_params(R=1.0, G=1.0, D=1.0, F=1.0, beta=2.0 / 3.0):
    return ScheduleParams(beta=beta, regime=Regime.CONVEX,
                          constants=ProblemConstants(R=R, G=G, D=D, F=F))


def sc_params(G=1.0, sigma=1.0, beta=0.5, R=1.0, D=1.0, F=1.0):
    return ScheduleParams(beta=beta, regime=Regime.STRONGLY_CONVEX,
                          constants=ProblemConstants(R=R, G=G, D=D, F=F, sigma=sigma))


class TestSequences:
    def test_theta_values(self):
        p = convex_params()
        assert theta_at(p, 1) == pytest.approx(6.0)
        assert theta_at(p, 8) == pytest.approx(1.5)
        assert theta_at(sc_params(G=1.0, sigma=2.0, beta=0.5), 4) == pytest.approx(1.5)

    def test_eta_values(self):
        assert eta_at(convex_params(R=2, G=4, D=1, beta=0.5), 4) == pytest.approx(0.25)
        assert eta_at(sc_params(sigma=0.5), 10) == pytest.approx(0.2)
        assert eta_at(convex_params(), 1) == pytest.approx(1.0)

    def test_mu_values(self):
        p = convex_params()
        assert mu_at(p, 1) == pytest.approx(1.0 / 12.0)
        assert mu_at(p, 8) == pytest.approx(1.0 / 13.5)
        assert mu_at(sc_params(G=1.0, sigma=2.0, beta=0.5), 4) == pytest.approx(1.0 / 7.5)

    @pytest.mark.parametrize("beta", BETA_GRID)
    def test_positive_and_nonincreasing(self, beta):
        rng = np.random.default_rng(1)
        R, G, sigma = rng.uniform(0.1, 5.0, size=3)
        for params in (convex_params(R=R, G=G, beta=beta),
                       sc_params(G=G, sigma=sigma, beta=beta)):
            t = np.arange(1, 2001)
            for seq in (theta_at(params, t), eta_at(params, t)):
                assert np.all(seq > 0)
                assert np.all(np.diff(seq) <= 1e-15)
            # mu_t = t^beta / (c (t+1)) rises while t < beta/(1-beta),
            # then decreases; C1 bounds the early increments by theta_t
            mu = mu_at(params, t)
            assert np.all(mu > 0)
            crossover = int(np.ceil(beta / (1.0 - beta))) + 1
            assert np.all(np.diff(mu[crossover:]) <= 1e-15)

    def test_fixed_schedule_arrays_constant(self):
        theta, eta, mu = schedule_arrays(FixedScheduleParams(eta=0.1, theta=2.0, mu=0.3), 5)
        assert np.all(theta == 2.0) and np.all(eta == 0.1) and np.all(mu == 0.3)


class TestValidation:
    def test_beta_out_of_range(self):
        with pytest.raises(ValueError):
            convex_params(beta=1.0)

    def test_strongly_convex_needs_sigma(self):
        with pytest.raises(ValueError):
            ScheduleParams(beta=0.5, regime=Regime.STRONGLY_CONVEX,
                           constants=ProblemConstants(R=1, G=1, D=1, F=1, sigma=0.0))

    def test_constants_positive(self):
        # NaN passes a plain x <= 0 check, inf a plain x > 0 check
        for bad in ({"R": -1.0}, {"R": np.nan}, {"G": np.nan}, {"D": np.nan},
                    {"F": np.nan}, {"sigma": -1.0}, {"sigma": np.nan},
                    {"R": np.inf}, {"G": np.inf}, {"D": np.inf},
                    {"F": np.inf}, {"sigma": np.inf}):
            with pytest.raises(ValueError, match="positive|nonnegative"):
                ProblemConstants(**({"R": 1, "G": 1, "D": 1, "F": 1} | bad))

    def test_fixed_schedule_positive(self):
        for bad in ({"eta": 0.0}, {"eta": np.nan}, {"theta": np.nan},
                    {"mu": np.nan}, {"eta": np.inf}, {"theta": np.inf},
                    {"mu": np.inf}):
            with pytest.raises(ValueError, match="must all be positive"):
                FixedScheduleParams(**({"eta": 1.0, "theta": 1.0, "mu": 1.0}
                                       | bad))

    @pytest.mark.parametrize("gamma", [-0.1, -np.inf, np.nan, np.inf])
    @pytest.mark.parametrize("schedule", [
        convex_params(), sc_params(),
        FixedScheduleParams(eta=0.05, theta=2.0, mu=0.05)])
    def test_schedules_reject_bad_gamma(self, schedule, gamma):
        # a NaN or infinite shift would pass a plain gamma < 0 check
        with pytest.raises(ValueError, match="gamma must be finite"):
            replace(schedule, gamma=gamma)


class TestConditions:
    def test_table_schedules_convex(self):
        p = convex_params()
        theta, eta, mu = schedule_arrays(p, 1000)
        report = check_conditions(theta, eta, mu, 0.0, 1.0)
        assert report.c1_ok and report.c2_ok

    def test_constant_theta_increasing_mu_c1(self):
        T = 50
        mu = 0.1 + 0.01 * np.arange(T)
        report = check_conditions(np.ones(T), np.ones(T), mu, 0.0, 1.0)
        assert report.c1_ok

    def test_unit_sequences_fail_c2(self):
        T = 10
        report = check_conditions(np.ones(T), np.ones(T), np.ones(T), 0.0, 1.0)
        assert not report.c2_ok

    def test_length_mismatch(self):
        for short in range(3):
            seqs = [np.ones(5)] * 3
            seqs[short] = np.ones(3)
            with pytest.raises(ValueError, match="equal length"):
                check_conditions(*seqs, 0.0, 1.0)

    @pytest.mark.parametrize("value", [np.inf, np.nan, 0.0, -1.0])
    @pytest.mark.parametrize("index,name", [(0, "theta_t"), (1, "eta_t"),
                                            (2, "mu_t")])
    def test_entry_not_finite_and_positive_named(self, index, name, value):
        # the first bad sequence is named, with its first bad round; mu_t's
        # zero at round 5 comes after every other bad entry
        seqs = [np.ones(5) for _ in range(3)]
        seqs[index][3] = value
        seqs[2][4] = 0.0
        message = (f"sequence entries must be positive and finite, got "
                   f"{name}={value} at round t=4")
        with pytest.raises(ValueError) as info:
            check_conditions(*seqs, 0.0, 1.0)
        assert str(info.value) == message

    def test_shifted_dual_step_and_c2(self):
        # gamma > 0 scales mu by 2/3 and checks C2 with 3/2 mu theta^2
        p = convex_params()
        theta, eta, mu = schedule_arrays(p, 1000)
        _, _, mu_shifted = schedule_arrays(replace(p, gamma=0.1), 1000)
        np.testing.assert_allclose(mu_shifted, mu * 2.0 / 3.0, rtol=1e-15)
        assert check_conditions(theta, eta, mu_shifted, 0.0, 1.0,
                                gamma=0.1).c2_ok
        # hand case: eta G^2 + k mu theta^2 = 0.1 + 0.3 k against theta/2 = 0.5
        T = 10
        ones = np.ones(T)
        mu_c2 = np.full(T, 0.3)
        assert check_conditions(ones, 0.1 * ones, mu_c2, 0.0, 1.0).c2_ok
        assert not check_conditions(ones, 0.1 * ones, mu_c2, 0.0, 1.0,
                                    gamma=0.1).c2_ok

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            check_conditions(np.ones(3), np.ones(3), np.ones(3), 0.0, 1.0,
                             gamma=-0.1)

    @pytest.mark.parametrize("beta", BETA_GRID)
    def test_random_constants_pass_all_conditions(self, beta):
        # c1, c2 hold and c3 slack stays within the tabulated budget
        rng = np.random.default_rng(int(beta * 1000))
        T = 10**5
        for _ in range(5):
            R, G, sigma = rng.uniform(0.05, 10.0, size=3)
            for params in (convex_params(R=R, G=G, beta=beta),
                           sc_params(G=G, sigma=sigma, beta=beta, R=R)):
                theta, eta, mu = schedule_arrays(params, T)
                rep = check_conditions(theta, eta, mu, params.constants.sigma,
                                       G, u_eta=schedule_sums(params, T))
                assert rep.c1_ok and rep.c2_ok
                assert rep.c3_ok

    def test_c3_verdict_at_its_budget(self):
        # eta = (1, 1/2) with sigma = 0 gives the exact slack 1/0.5 - 1 = 1;
        # the verdict holds up to u_eta + 1e-9 and fails an ulp below it
        ones = np.ones(2)
        at = 1.0 - 1e-9
        below = float(np.nextafter(at, 0.0))
        assert at + 1e-9 == 1.0 and below + 1e-9 < 1.0
        reports = {u_eta: check_conditions(ones, np.array([1.0, 0.5]), ones,
                                           0.0, 1.0, u_eta=u_eta)
                   for u_eta in (None, at, below)}
        assert all(r.c3_slack == 1.0 for r in reports.values())
        assert (reports[at].u_eta, reports[at].c3_ok) == (at, True)
        assert (reports[below].u_eta, reports[below].c3_ok) == (below, False)
        # without a budget there is no verdict
        assert (reports[None].u_eta, reports[None].c3_ok) == (None, None)

    def test_stronger_c2_condition_convex(self):
        # eta_t <= theta_t / (6 G^2) at every t for the adaptive convex schedules
        p = convex_params(R=1.7, G=2.3)
        t = np.arange(1, 10001)
        assert np.all(eta_at(p, t) <= theta_at(p, t) / (6 * p.constants.G**2) + 1e-12)


class TestBounds:
    def test_loss_bound_values(self):
        p = convex_params()
        assert loss_regret_bound(p, 1000) == pytest.approx(
            (1 + 0.25) * 1000 ** (2 / 3) + 6 * 1000 ** (1 / 3))
        assert loss_regret_bound(p, 1) == pytest.approx(7.25)

    def test_shifted_loss_bound_values(self):
        # gamma = 1 doubles the bound on |g + gamma| to 2, so the D^2/(6
        # beta RG) term goes from 1/4 to 4/4
        p = replace(convex_params(), gamma=1.0)
        assert loss_regret_bound(p, 1000) == pytest.approx(
            (1 + 1.0) * 1000 ** (2 / 3) + 6 * 1000 ** (1 / 3))
        assert loss_regret_bound(p, 1) == pytest.approx(8.0)

    def test_constraint_bound_values(self):
        p = convex_params()
        rf = loss_regret_bound(p, 1000)
        assert constraint_regret_bound(p, 1000) == pytest.approx(
            np.sqrt(72.0 * (rf + 1000.0) * 1000 ** (1 / 3)))
        assert constraint_regret_bound(p, 1) == pytest.approx(np.sqrt(72 * 8.25))

    def test_monotone_in_horizon(self):
        p = convex_params()
        assert loss_regret_bound(p, 2000) > loss_regret_bound(p, 1000)
        assert constraint_regret_bound(p, 2000) > constraint_regret_bound(p, 1000)

    def test_monotone_in_constants(self):
        base = dict(R=1.0, G=1.0, D=1.0, F=1.0)
        for key in base:
            bumped = dict(base, **{key: 2.0})
            lo = convex_params(**base)
            hi = convex_params(**bumped)
            assert loss_regret_bound(hi, 500) >= loss_regret_bound(lo, 500)
            assert constraint_regret_bound(hi, 500) >= constraint_regret_bound(lo, 500)

    def test_constraint_bound_asymptotic_scaling(self):
        p = convex_params()
        T = 10**8
        ratio = constraint_regret_bound(p, 4 * T) / constraint_regret_bound(p, T)
        assert ratio == pytest.approx(4 ** (1 - p.beta / 2), rel=1e-3)


class TestScheduleSums:
    def test_single_round(self):
        theta, _, _ = schedule_arrays(convex_params(), 1)
        u_eta = schedule_sums(convex_params(), 1)
        assert theta.sum() == pytest.approx(6.0)
        assert u_eta == pytest.approx(1.0)  # G / R T^beta

    def test_fixed_schedule_has_no_budget(self):
        assert schedule_sums(FixedScheduleParams(0.1, 1.0, 0.1), 10) is None
        with pytest.raises(ValueError, match="T must be"):
            schedule_sums(FixedScheduleParams(0.1, 1.0, 0.1), 0)

    @pytest.mark.parametrize("beta", BETA_GRID)
    @pytest.mark.parametrize("T", [10, 1000, 100000])
    def test_power_sum_inequality(self, beta, T):
        # sum_{t<=T} t^-beta <= T^(1-beta) / (1-beta)
        s = np.sum(np.arange(1, T + 1, dtype=float) ** (-beta))
        assert s <= T ** (1 - beta) / (1 - beta) + 1e-9
