"""Acceptance gate: one test per criterion, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the summary lines for
passing criteria too. Criterion 5 is known-red: on the doubly-stochastic
benchmark the aggregate constraint encodes equality constraints as +/- pairs,
so g(x) >= 0 for every x and no gamma-shift can drive the cumulative
violation to zero; the criterion is implemented faithfully anyway, and the
same shift is shown to work on the elastic-net benchmark (test_learner).
"""

import json

import numpy as np
import pytest

from aogd.experiment import run_experiment
from aogd.learner import run
from aogd.metrics import accumulate, checkpoint_grid, fit_rate_exponent
from aogd.offline import project_birkhoff, project_elasticnet_ball, solve_offline
from aogd.problems import DsmProblem, ElasticNetProblem
from aogd.projections import g_max
from aogd.schedules import (ProblemConstants, Regime, ScheduleParams,
                            check_conditions, constraint_regret_bound,
                            loss_regret_bound, schedule_arrays, schedule_sums)
from compare_outputs import write_dataset
from dsm_stream_oracle import loss_grad_float, stream_matrices
from round_oracle import logloss_grad
from step_recorder import recorded_rounds

BETA = 2.0 / 3.0
SEEDS = list(range(10))


def report_line(num, label, ok):
    print(f"\n[acceptance] criterion {num} ({label}): {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def theorem1_runs():
    """DSM p=8, T=1000, beta=2/3, convex A-OGD, 10 seeds, with each run's
    trace and (K, 1) loss regret at the checkpoints and the (T,) dual and
    (T, d) primal iterates of every round. Shared by criteria 1, 3 and 8."""
    runs = []
    grid = checkpoint_grid(1000, count=20)
    for seed in SEEDS:
        prob = DsmProblem(8)
        params = ScheduleParams(beta=BETA, regime=Regime.CONVEX,
                                constants=prob.constants)
        with recorded_rounds(prob) as rounds:
            trace = run(prob, params, T=1000, seeds=[seed], checkpoints=grid)
        offline = {t: solve_offline(prob, t) for t in grid}
        loss_regret, _, _ = accumulate(trace, [offline], params)
        runs.append((prob, params, rounds.lam, trace, loss_regret, rounds.x))
    return runs


def test_criterion_1_theorem1_compliance(theorem1_runs):
    ok = True
    for _, params, _, trace, loss_regret, _ in theorem1_runs:
        for t, loss, cons in zip(trace.t, loss_regret[:, 0],
                                 trace.g_cum[:, 0]):
            ok &= loss <= loss_regret_bound(params, t)
            ok &= cons <= constraint_regret_bound(params, t)
    report_line(1, "theorem 1 compliance, dsm p=8 T=1000, 10 seeds", ok)
    assert ok


def test_criterion_2_condition_suite():
    rng = np.random.default_rng(20)
    T = 10**5
    ok = True
    for beta in (0.5, 2.0 / 3.0, 0.75):
        for _ in range(100):
            R, G, sigma = rng.uniform(0.05, 10.0, size=3)
            for regime in (Regime.CONVEX, Regime.STRONGLY_CONVEX):
                constants = ProblemConstants(R=R, G=G, D=1.0, F=1.0, sigma=sigma)
                params = ScheduleParams(beta=beta, regime=regime,
                                        constants=constants)
                theta, eta, mu = schedule_arrays(params, T)
                rep = check_conditions(theta, eta, mu, sigma, G,
                                       u_eta=schedule_sums(params, T))
                ok &= rep.c1_ok and rep.c2_ok and rep.c3_ok
    report_line(2, "C1/C2/C3 over 100 random draws x 3 betas", ok)
    assert ok


def test_criterion_3_rate_exponents(theorem1_runs):
    ok = True
    # theoretical bound curve, constants chosen so subdominant terms vanish
    constants = ProblemConstants(R=1.0, G=1.0, D=1.0, F=10.0)
    grid = checkpoint_grid(10**5, count=30)
    for beta in (0.5, 2.0 / 3.0, 0.75):
        params = ScheduleParams(beta=beta, regime=Regime.CONVEX,
                                constants=constants)
        values = [float(constraint_regret_bound(params, t)) for t in grid]
        ok &= abs(fit_rate_exponent(grid, values) - (1 - beta / 2)) <= 0.02
    # measured positive-part constraint curve on DSM (upper rate only)
    g_mean = np.mean([trace.g_cum[:, 0]
                      for _, _, _, trace, _, _ in theorem1_runs], axis=0)
    ts = theorem1_runs[0][3].t
    measured = fit_rate_exponent(ts, [max(g, 1e-12) for g in g_mean])
    ok &= measured <= 1 - BETA / 2 + 0.1
    report_line(3, "constraint-bound exponent 1-beta/2, measured upper rate", ok)
    assert ok


def test_criterion_4_beta_tradeoff():
    constants = DsmProblem(8).constants
    grid = np.logspace(7, 9, 30)
    expected = {0.5: (0.5, 0.75), 2.0 / 3.0: (2.0 / 3.0, 2.0 / 3.0),
                0.75: (0.75, 0.625)}
    ok = True
    for beta, (e_loss, e_constraint) in expected.items():
        params = ScheduleParams(beta=beta, regime=Regime.CONVEX,
                                constants=constants)
        loss_values = [float(loss_regret_bound(params, t)) for t in grid]
        cons_values = [float(constraint_regret_bound(params, t)) for t in grid]
        ok &= abs(fit_rate_exponent(grid, loss_values) - e_loss) <= 0.02
        ok &= abs(fit_rate_exponent(grid, cons_values) - e_constraint) <= 0.02
    report_line(4, "beta trade-off pairs (1/2,3/4) (2/3,2/3) (3/4,5/8)", ok)
    assert ok


def test_criterion_5_gamma_shift_dsm(tmp_path):
    # Known red: the DSM aggregate g is nonnegative everywhere (equality
    # constraints enter as +/- pairs), so no c1 can reach Sum g(x_t) <= 0.
    # Kept faithful to document the gap; the shift works on elastic net.
    finals = {}
    for c1 in (0.5, 1.0, 2.0):
        cfg = dict(
            problem={"kind": "dsm", "p": 8},
            algorithm="a_ogd_convex",
            beta=BETA, T=1000, seeds=[0],
            output_dir=str(tmp_path / f"c1_{c1}"),
            checkpoints=8,
            gamma_shift={"c1": c1})
        manifest_path = run_experiment(cfg)
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        assert "first_nonpositive_violation_t" in manifest
        finals[c1] = manifest["final_constraint_cum_mean"]
    ok = any(v <= 0.0 for v in finals.values())
    report_line(5, f"gamma-shift zero violation on dsm, finals={finals}", ok)
    assert ok


def _grid_project_1d(v, rho):
    """Independent 1-D oracle: nested grid search over the feasible interval."""
    R = float(np.sqrt(1 + 2 * rho) - 1)
    lo, hi = -R, R
    best = 0.0
    for _ in range(10):
        grid = np.linspace(lo, hi, 2001)
        best = float(grid[np.argmin(np.abs(grid - v[0]))])
        half = (hi - lo) / 200.0
        lo, hi = max(-R, best - half), min(R, best + half)
    return np.array([best])


def _grid_project_2d(v, rho):
    """Independent 2-D oracle: grid search over the boundary angle.

    For infeasible v the projection lies on {||x||_1 + 0.5||x||_2^2 = rho};
    along direction (cos a, sin a) the boundary radius solves the quadratic
    s r + r^2/2 = rho with s = |cos a| + |sin a|. Searching the angle keeps
    the oracle's error linear in the grid spacing (a 2-D region grid only
    converges as the square root of the spacing at a curved boundary).
    """
    if np.sum(np.abs(v)) + 0.5 * float(v @ v) <= rho:
        return v.copy()

    def boundary_point(a):
        d = np.stack([np.cos(a), np.sin(a)], axis=-1)
        s = np.sum(np.abs(d), axis=-1)
        r = -s + np.sqrt(s**2 + 2 * rho)
        return d * r[..., None]

    lo, hi = 0.0, 2 * np.pi
    best = 0.0
    for _ in range(10):
        angles = np.linspace(lo, hi, 2001)
        pts = boundary_point(angles)
        best = float(angles[np.argmin(np.sum((pts - v) ** 2, axis=1))])
        half = (hi - lo) / 200.0
        lo, hi = best - half, best + half
    return boundary_point(np.array([best]))[0]


def test_criterion_6_oracle_equivalence():
    rng = np.random.default_rng(6)
    ok = True
    # 2x2 Birkhoff: polytope is the segment {a I + (1-a) P}
    for _ in range(1000):
        A = rng.normal(size=(2, 2)) * 2
        a = np.clip((2.0 + A[0, 0] + A[1, 1] - A[0, 1] - A[1, 0]) / 4.0, 0.0, 1.0)
        oracle = np.array([[a, 1 - a], [1 - a, a]])
        ok &= float(np.abs(project_birkhoff(A) - oracle).max()) <= 1e-6
    # elastic-net ball vs nested grid search, 1-D and 2-D
    rho = 1.0
    for dims, oracle, n in ((1, _grid_project_1d, 20), (2, _grid_project_2d, 10)):
        for _ in range(n):
            v = rng.normal(size=dims) * 2
            x = project_elasticnet_ball(v, rho)
            ok &= float(np.abs(x - oracle(v, rho)).max()) <= 1e-6
    # DSM offline optimum equals the permutation running mean
    prob = DsmProblem(4)
    prob.materialize(100, [0])
    for t in (1, 10, 100):
        sol = solve_offline(prob, t)
        mean = np.mean([Y.ravel() for Y in stream_matrices(prob.stream[0, :t])],
                       axis=0)
        ok &= float(np.abs(sol.x_star - mean).max()) <= 1e-6
    report_line(6, "birkhoff 2x2, elastic-net grid search, dsm mean", ok)
    assert ok


def test_criterion_7_gradient_checks():
    rng = np.random.default_rng(7)
    eps = 1e-5
    ok = True
    for _ in range(100):
        Y = np.eye(3)[rng.permutation(3)].astype(float)
        X = rng.normal(size=(3, 3)) * 2
        _, grad = loss_grad_float(Y, X)
        fd = np.zeros_like(X)
        for i in range(3):
            for j in range(3):
                Xp, Xm = X.copy(), X.copy()
                Xp[i, j] += eps
                Xm[i, j] -= eps
                fd[i, j] = (loss_grad_float(Y, Xp)[0] - loss_grad_float(Y, Xm)[0]) / (2 * eps)
        ok &= np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-8) <= 1e-6
    for _ in range(100):
        y = float(rng.choice([-1.0, 1.0]))
        u = rng.normal(size=5)
        x = rng.normal(size=5)
        _, grad = logloss_grad(y, u, x)
        fd = np.zeros(5)
        for i in range(5):
            xp, xm = x.copy(), x.copy()
            xp[i] += eps
            xm[i] -= eps
            fd[i] = (logloss_grad(y, u, xp)[0] - logloss_grad(y, u, xm)[0]) / (2 * eps)
        ok &= np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-8) <= 1e-6
    report_line(7, "finite differences, 100 points per gradient", ok)
    assert ok


def test_criterion_8_invariant_suite(theorem1_runs):
    ok = True
    for prob, _, lams, _, _, xs in theorem1_runs:
        R = prob.constants.R
        ok &= bool(np.all(np.linalg.norm(xs, axis=-1) <= R + 1e-9))
        ok &= bool(np.all(lams >= 0.0))
    # subgradient inequality on 1e4 random pairs per benchmark
    rng = np.random.default_rng(8)
    dsm = DsmProblem(4)
    rng_u = np.random.default_rng(88)
    en = ElasticNetProblem(np.where(rng_u.normal(size=30) > 0, 1.0, -1.0),
                           rng_u.normal(size=(30, 6)), rho=1.0)
    for prob in (dsm, en):
        R = prob.constants.R
        xs = rng.normal(size=(10**4, prob.dim))
        ys = rng.normal(size=(10**4, prob.dim))
        xs *= (R * rng.uniform(size=(10**4, 1)) / np.linalg.norm(xs, axis=1, keepdims=True))
        ys *= (R * rng.uniform(size=(10**4, 1)) / np.linalg.norm(ys, axis=1, keepdims=True))
        gx, idx = g_max(prob.constraints, xs)
        gy, _ = g_max(prob.constraints, ys)
        s = prob.constraints.subgradient(xs, idx)
        ok &= bool(np.all(gy >= gx + np.vecdot(s, ys - xs) - 1e-10))
    report_line(8, "iterate invariants and subgradient inequality", ok)
    assert ok


def test_criterion_9_qualitative_reproduction(tmp_path):
    # soft criterion: reported, not asserted
    def dsm_final(algorithm):
        cfg = dict(
            problem={"kind": "dsm", "p": 8},
            algorithm=algorithm, beta=BETA, T=1000,
            seeds=SEEDS, output_dir=str(tmp_path / algorithm),
            checkpoints=8)
        with open(run_experiment(cfg)) as fh:
            return json.load(fh)["final_constraint_cum_mean"]

    sc_final = dsm_final("a_ogd_strongly_convex")
    cvx_final = dsm_final("a_ogd_convex")
    ordering_ok = sc_final < cvx_final

    # elastic net on a synthetic libsvm dataset: constraint not violated
    # on average (negative cumulative sums)
    data_path = tmp_path / "synthetic.libsvm"
    write_dataset(data_path)
    cfg = dict(
        problem={"kind": "elasticnet", "dataset": str(data_path), "rho": 1.0},
        algorithm="a_ogd_convex", beta=BETA, T=3000,
        seeds=[0, 1, 2], output_dir=str(tmp_path / "en"), checkpoints=8)
    with open(run_experiment(cfg)) as fh:
        en_final = json.load(fh)["final_constraint_cum_mean"]
    sign_ok = en_final <= 0.0

    print(f"\n[acceptance] criterion 9 (qualitative, reported not asserted): "
          f"sc<convex constraint ordering {'OK' if ordering_ok else 'NOT MET'} "
          f"({sc_final:.2f} vs {cvx_final:.2f}); elastic-net mean cumulative "
          f"constraint {'OK' if sign_ok else 'NOT MET'} ({en_final:.2f})")
