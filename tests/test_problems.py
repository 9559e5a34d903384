import json
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import expit

import aogd
from aogd import problems
from aogd.ingest import load_dataset
from aogd.learner import run
from aogd.offline import project_birkhoff, project_elasticnet_ball
from aogd.problems import (_CHUNK_ROWS, DsmConstraints, DsmProblem,
                           ElasticNetBudget, ElasticNetProblem,
                           elasticnet_constants, permutation_stream)
from aogd.projections import g_max
from aogd.schedules import FixedScheduleParams, Regime, ScheduleParams
from closure_constraints import Constraint, ConstraintSet, elasticnet_closure
from dsm_stream_oracle import loss_grad_float, loss_sum_float, stream_matrices
from round_oracle import logloss_grad
from step_recorder import recorded_rounds


def sample_in_ball(rng, dim, R, n):
    """Uniform samples in the Euclidean ball of radius R."""
    x = rng.normal(size=(n, dim))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    radii = R * rng.uniform(size=(n, 1)) ** (1.0 / dim)
    return x * radii


def dsm_constraint_closures(p):
    """Reference oracle: the DSM constraints as one closure per component.

    Same order as `DsmConstraints`: -X_ij <= 0 row-major, then row sums
    <= 1, >= 1, column sums <= 1, >= 1. Each value is one
    `float(row @ x) - b` with its own row: the per-row dot whose rounding
    the program must reproduce, signed zeros included (a dot of zeros is
    +0.0, so -X_ij <= 0 reads +0.0 at X_ij = 0.0, where -x would give -0.0).
    """
    components = []

    def linear(row, b):
        return Constraint(value=lambda x, r=row, b=b: float(r @ x) - b,
                          subgradient=lambda x, r=row: r)

    def nonneg(i, j):
        sub = np.zeros(p * p)
        sub[i * p + j] = -1.0
        return linear(sub, 0.0)

    def sum_constraint(mask, sign):
        # sign=+1: sum - 1 <= 0; sign=-1: 1 - sum <= 0
        return linear(sign * mask, sign * 1.0)

    for i in range(p):
        for j in range(p):
            components.append(nonneg(i, j))
    masks_rows = []
    masks_cols = []
    for i in range(p):
        m = np.zeros(p * p)
        m[i * p:(i + 1) * p] = 1.0
        masks_rows.append(m)
    for j in range(p):
        m = np.zeros(p * p)
        m[j::p] = 1.0
        masks_cols.append(m)
    for m in masks_rows:
        components.append(sum_constraint(m, +1.0))
    for m in masks_rows:
        components.append(sum_constraint(m, -1.0))
    for m in masks_cols:
        components.append(sum_constraint(m, +1.0))
    for m in masks_cols:
        components.append(sum_constraint(m, -1.0))
    return ConstraintSet(components=components)


def recorded_run(prob, schedule, T, seeds):
    """The trace of one run and its per-round values (`recorded_rounds`)."""
    with recorded_rounds(prob) as rounds:
        trace = run(prob, schedule, T, seeds, range(1, T + 1))
    return trace, rounds


def assert_same_bits(a, b, name=None):
    assert np.array_equal(a, b), name
    assert np.array_equal(np.signbit(a), np.signbit(b)), name


def assert_same_trace(a, b, name):
    for column, values in vars(a).items():
        assert_same_bits(values, getattr(b, column), (name, column))


def dsm_schedules(p, T):
    """The schedules of the four benchmark variants on DSM p."""
    c = DsmProblem(p).constants
    gamma = T ** (-1.0 / 3.0)  # c1 = 1, beta = 2/3
    return {
        "a_ogd_convex": ScheduleParams(2.0 / 3.0, Regime.CONVEX, c),
        "a_ogd_strongly_convex": ScheduleParams(2.0 / 3.0,
                                                Regime.STRONGLY_CONVEX, c),
        "fixed_ogd": FixedScheduleParams(eta=0.05, theta=2.0, mu=0.05),
        "a_ogd_convex_gamma_shift": ScheduleParams(
            2.0 / 3.0, Regime.CONVEX, c, gamma),
    }


class TestDsmConstraints:
    def test_component_count(self):
        assert DsmConstraints(2).A.shape == (12, 4)
        assert DsmConstraints(5).A.shape == (45, 25)

    def test_doubly_stochastic_feasible(self):
        cs = DsmConstraints(3)
        X = np.full((1, 9), 1.0 / 3.0)
        (value,), _ = g_max(cs, X)
        assert value <= 1e-12

    def test_zero_matrix_deficit(self):
        (value,), _ = g_max(DsmConstraints(2), np.zeros((1, 4)))
        assert value == pytest.approx(1.0)

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            DsmConstraints(1)

    def test_subgradient_rows_read_only(self):
        cs = DsmConstraints(2)
        with pytest.raises(ValueError):
            cs.subgradient(np.zeros(4), 0)[0] = 5.0
        # the rows handed out are those of A, whatever the iterate
        np.testing.assert_array_equal(cs.subgradient(np.ones((2, 4)), [4, 11]),
                                      cs.A[[4, 11]])

    def test_subgradient_of_index_array_is_read_only_rows_of_a(self):
        # one row per seed, as learner.run asks for them
        cs = DsmConstraints(3)
        rows = cs.subgradient(np.ones((2, 9)), np.array([4, 11]))
        assert rows.tobytes() == cs.A[[4, 11]].tobytes()
        assert rows.shape == (2, 9) and not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[1, 0] = 5.0

    def test_g_max_passes_a_finite_row_whose_squares_overflow(self):
        # the values' sum of squares overflows, so all_finite takes its
        # entrywise fallback; the row is finite and no warning escapes
        values, idx = g_max(DsmConstraints(2),
                            np.array([[1e200, 0.0, 0.0, 0.0]]))
        assert values == [1e200] and idx.tolist() == [4]

    def test_g_max_names_the_nonfinite_row(self):
        X = np.full((3, 4), 0.5)
        X[2, 1] = np.nan
        with pytest.raises(FloatingPointError, match="row 2 of x"):
            g_max(DsmConstraints(2), X)

    def test_subgradient_inequality_sampled(self):
        prob = DsmProblem(3)
        cs = prob.constraints
        rng = np.random.default_rng(3)
        xs = sample_in_ball(rng, 9, prob.constants.R, 400)
        ys = sample_in_ball(rng, 9, prob.constants.R, 400)
        gx, idx = g_max(cs, xs)
        gy, _ = g_max(cs, ys)
        s = cs.subgradient(xs, idx)
        assert np.all(gy >= gx + np.vecdot(s, ys - xs) - 1e-10)


class TestDsmLinearMatchesClosures:
    """`DsmConstraints` against the closure oracle, bit for bit.

    Row-sum and column-sum constraints are tied mathematically at many
    iterates, so the last bit of each sum picks g_max's active index. A dense
    `A @ x` (gemv) sums in another order than the closures' per-row dot: it
    fails this test, changing almost every value vector from p = 3 on and
    the active index at some replayed iterates for p = 8 and 16. `np.vecdot`
    keeps the per-row dot, so every value must come out identical. The
    nonnegativity rows are evaluated as 0.0 - x without a dot; at exact
    signed zeros that must still give the dot's +0.0, so signs are compared
    too.
    """

    T = 300

    @staticmethod
    def assert_identical(lin, ref, xs):
        """Values, g_max and active subgradient agree exactly, signed zeros
        included, on the batch xs (N, d), and on its rows one at a time;
        returns how many rows have a tied maximum."""
        values, expected = lin.values(xs), ref.values(xs)
        assert_same_bits(values, expected)
        for x, row in zip(xs, expected):
            assert_same_bits(lin.values(x), row)
        value, idx = g_max(lin, xs)
        ref_value, ref_idx = g_max(ref, xs)
        assert_same_bits(value, ref_value)
        assert np.array_equal(idx, ref_idx)
        assert np.array_equal(lin.subgradient(xs, idx), ref.subgradient(xs, idx))
        return np.count_nonzero(
            np.count_nonzero(expected == expected.max(axis=1, keepdims=True),
                             axis=1) > 1)

    @staticmethod
    def signed_zero_batches(rng, p):
        """(N, p^2) batches with exact +0.0 and -0.0 entries: all zeros of
        either sign, permutation matrices whose zeros are -0.0 (row and
        column sums exactly 1), and entries drawn from {+-0, +-1, 1/p}."""
        perms = stream_matrices(permutation_stream(p, [p + 1], 10))[0].reshape(10, -1)
        return np.concatenate([
            np.zeros((1, p * p)), np.full((1, p * p), -0.0),
            np.where(perms == 0.0, -0.0, perms),
            rng.choice([0.0, -0.0, 1.0, -1.0, 1.0 / p], size=(40, p * p)),
        ])

    @pytest.mark.parametrize("p", [2, 3, 8, 16])
    def test_static_points(self, p):
        lin, ref = DsmConstraints(p), dsm_constraint_closures(p)
        assert len(lin.A) == len(ref)
        rng = np.random.default_rng(p)
        R = np.sqrt(p)
        sphere = rng.normal(size=(50, p * p))
        sphere *= R / np.linalg.norm(sphere, axis=1, keepdims=True)
        xs = np.array([*sample_in_ball(rng, p * p, R, 200),
                       *sphere,
                       *stream_matrices(permutation_stream(p, [p], 20))[0].reshape(20, -1),
                       np.full(p * p, 1.0 / p),
                       *(project_birkhoff(rng.normal(size=(p, p))).ravel()
                         for _ in range(10)),
                       *self.signed_zero_batches(rng, p)])
        assert self.assert_identical(lin, ref, xs) > 0

    @pytest.mark.parametrize("p", [2, 3, 8, 16])
    def test_replayed_iterates(self, p):
        lin, ref = DsmConstraints(p), dsm_constraint_closures(p)
        for name, schedule in dsm_schedules(p, self.T).items():
            prob = DsmProblem(p)
            fast, fast_rounds = recorded_run(prob, schedule, self.T, [p])
            prob.constraints = ref
            slow, slow_rounds = recorded_run(prob, schedule, self.T, [p])
            assert_same_trace(fast, slow, name)
            assert_same_trace(fast_rounds, slow_rounds, name)
            self.assert_identical(lin, ref, fast_rounds.x.reshape(-1, p * p))


class TestElasticNetBudgetMatchesClosure:
    """`ElasticNetBudget` against the closure it replaced, bit for bit."""

    @staticmethod
    def points(rng, d, rho):
        scale = rng.choice([1e-8, 1e-3, 1.0, 1e3], size=(200, 1))
        xs = rng.normal(size=(200, d)) * scale
        kinks = xs[:50].copy()
        kinks[rng.uniform(size=kinks.shape) < 0.5] = 0.0  # l1 kinks
        outside = rng.normal(size=(50, d))
        outside *= 10.0 * (1.0 + rho) / np.abs(outside).sum(axis=1, keepdims=True)
        boundary = [project_elasticnet_ball(v, rho) for v in outside]
        return [*xs, *kinks, np.zeros(d), *boundary]

    @pytest.mark.parametrize("d", [1, 5, 60])
    @pytest.mark.parametrize("rho", [1e-3, 0.7, 40.0])
    def test_values_and_subgradient(self, d, rho):
        budget, ref = ElasticNetBudget(rho), elasticnet_closure(rho)
        xs = np.array(self.points(np.random.default_rng(d), d, rho))
        xs[:10] *= -1.0  # -0.0 at the kinks as well as +0.0
        for x in xs:
            assert_same_bits(budget.values(x), ref.values(x))
        expected = ref.values(xs)
        assert_same_bits(budget.values(xs), expected)
        value, idx = g_max(budget, xs)
        assert_same_bits(value, expected[:, 0])
        assert np.array_equal(idx, np.zeros(len(xs)))
        assert_same_bits(budget.subgradient(xs, idx), ref.subgradient(xs, idx))

    def test_boundary_points_are_tight(self):
        rng = np.random.default_rng(1)
        xs = self.points(rng, 6, 0.7)[-50:]
        assert all(abs(ElasticNetBudget(0.7).values(x)[0]) <= 1e-12 for x in xs)

    def test_replayed_run(self):
        rng = np.random.default_rng(15)
        u = rng.normal(size=(60, 8))
        y = np.where(u @ rng.normal(size=8) > 0, 1.0, -1.0)
        T = 400
        c = ElasticNetProblem(y, u, rho=0.3).constants
        gamma = T ** (-1.0 / 3.0)
        variants = {
            "a_ogd_convex": ScheduleParams(2.0 / 3.0, Regime.CONVEX, c),
            "fixed_ogd": FixedScheduleParams(eta=0.5, theta=2.0, mu=0.05),
            "a_ogd_convex_gamma_shift": ScheduleParams(
                2.0 / 3.0, Regime.CONVEX, c, gamma),
        }
        for name, schedule in variants.items():
            prob = ElasticNetProblem(y, u, rho=0.3)
            fast, fast_rounds = recorded_run(prob, schedule, T, [2, 3])
            prob.constraints = elasticnet_closure(0.3)
            slow, slow_rounds = recorded_run(prob, schedule, T, [2, 3])
            assert_same_trace(fast, slow, name)
            assert_same_trace(fast_rounds, slow_rounds, name)
            assert np.any(fast_rounds.g > 0) and np.any(fast_rounds.g < 0), name


def looped_permutation_stream(p, seed, T):
    """Reference oracle: one rng.permutation(p) per round."""
    rng = np.random.default_rng(seed)
    out = np.zeros((T, p, p))
    rows = np.arange(p)
    for t in range(T):
        out[t, rows, rng.permutation(p)] = 1.0
    return out


class TestPermutationStream:
    @pytest.mark.parametrize("p", [2, 3, 8, 16])
    @pytest.mark.parametrize(
        "T", [1, 7, 1000, 2 * _CHUNK_ROWS, 2 * _CHUNK_ROWS + 3])
    def test_matches_looped_draw(self, p, T):
        # the batched draw must reproduce the per-round stream of each seed
        # bit for bit, since recorded reference runs depend on it
        seeds = (0, 1, 21, 12345)
        codes = permutation_stream(p, seeds, T)
        assert codes.dtype == np.uint8 and codes.shape == (len(seeds), T, p)
        assert np.array_equal(
            stream_matrices(codes),
            [looped_permutation_stream(p, seed, T) for seed in seeds])

    def test_codes_take_the_smallest_unsigned_type(self):
        assert permutation_stream(256, [0], 2).dtype == np.uint8
        codes = permutation_stream(257, [0], 2)
        assert codes.dtype == np.uint16
        assert np.array_equal(np.sort(codes, axis=-1),
                              np.broadcast_to(np.arange(257), (1, 2, 257)))

    @pytest.mark.parametrize("p", [2, 3, 8])
    def test_loss_reads_the_matrices_at_any_round(self, p):
        # loss reads round t's codes, in any order of rounds, and gives the
        # bits of loss_grad_float on the float matrices, signed zeros of the
        # iterate included: criterion 7 checks that gradient by finite
        # differences
        T = 2 * _CHUNK_ROWS + 3
        prob = DsmProblem(p).materialize(T, [4, 9, 2])
        ys = stream_matrices(prob.stream)
        X = np.random.default_rng(p).normal(size=(3, prob.dim))
        X[1] = np.where(np.arange(prob.dim) % 2, -0.0, 0.0)
        X[2, ::3] = -0.0
        for t in (1, T, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2, T - 1, 1):
            values, grads = prob.loss(t, X)
            want_values, want_grads = loss_grad_float(
                ys[:, t - 1], X.reshape(-1, p, p))
            assert values.tobytes() == want_values.tobytes()
            assert grads.tobytes() == want_grads.reshape(X.shape).tobytes()

    def test_validity(self):
        ys = stream_matrices(permutation_stream(5, [1], 50))[0]
        for Y in ys:
            assert np.array_equal(np.sort(Y.argmax(axis=1)), np.arange(5))
            np.testing.assert_array_equal(Y.sum(axis=0), np.ones(5))
            np.testing.assert_array_equal(Y.sum(axis=1), np.ones(5))
            assert set(np.unique(Y)) <= {0.0, 1.0}

    def test_deterministic(self):
        np.testing.assert_array_equal(permutation_stream(4, [7], 20),
                                      permutation_stream(4, [7], 20))

    def test_uniform_frequency_p2(self):
        codes = permutation_stream(2, [11], 10**4)[0]
        frac_identity = np.mean(codes[:, 0] == 0)
        assert abs(frac_identity - 0.5) < 0.05


def one_example(y: float, u: np.ndarray) -> ElasticNetProblem:
    """A problem whose one example (y, u) every round draws."""
    return ElasticNetProblem([y], u[None], rho=1.0).materialize(1, [0])


class TestLogLoss:
    """`ElasticNetProblem.loss` against `round_oracle.logloss_grad`, the
    formula the finite differences check."""

    def test_at_origin(self):
        u = np.array([1.0, -2.0])
        value, grad = one_example(1.0, u).loss(1, np.zeros((1, 2)))
        assert value[0] == pytest.approx(np.log(2.0))
        np.testing.assert_allclose(grad[0], -u / 2.0)

    def test_large_margin_no_overflow(self):
        u, x = np.array([50.0]), np.ones((1, 1))
        value, grad = one_example(1.0, u).loss(1, x)
        assert 0.0 <= value[0] < 1e-20
        assert np.all(np.isfinite(grad))
        value_neg, _ = one_example(-1.0, u).loss(1, x)
        assert np.isfinite(value_neg).all()

    def test_invalid_label(self):
        with pytest.raises(ValueError, match=r"label must be -1 or \+1"):
            logloss_grad(2.0, np.ones(1), np.ones(1))
        with pytest.raises(ValueError, match=r"labels must be -1/\+1"):
            ElasticNetProblem([2.0], np.ones((1, 1)), rho=1.0)

    def test_loss_matches_oracle_formula(self):
        # every round of 4 seeds on 30 examples, at iterates whose entries
        # span 1e-3..1e3 in size, so the margins reach past +-745
        rng = np.random.default_rng(27)
        y = np.where(rng.normal(size=30) > 0, 1.0, -1.0)
        u = rng.normal(size=(30, 5))
        prob = ElasticNetProblem(y, u, rho=1.0).materialize(40, [0, 1, 2, 3])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for t in range(1, 41):
                scale = 10.0 ** rng.uniform(-3.0, 3.0, (4, 1))
                X = rng.normal(size=(4, 5)) * scale
                i = prob.stream[:, t - 1]
                value, grad = prob.loss(t, X)
                want_value, want_grad = logloss_grad(y[i], u[i], X)
                assert value.tobytes() == want_value.tobytes()
                assert grad.tobytes() == want_grad.tobytes()

    def test_gradient_finite_differences(self):
        rng = np.random.default_rng(5)
        eps = 1e-6
        for _ in range(20):
            y = rng.choice([-1.0, 1.0])
            u = rng.normal(size=4)
            x = rng.normal(size=4)
            _, grad = logloss_grad(y, u, x)
            fd = np.zeros(4)
            for i in range(4):
                xp, xm = x.copy(), x.copy()
                xp[i] += eps
                xm[i] -= eps
                fd[i] = (logloss_grad(y, u, xp)[0] - logloss_grad(y, u, xm)[0]) / (2 * eps)
            np.testing.assert_allclose(grad, fd, atol=1e-6)

    # 709.8 overflows exp(z), 745.2 flushes exp(-z) to zero, 1e300 is
    # near the top of the float range; each with both signs, and 0
    @pytest.mark.parametrize("z", [0.0] + [s * m for m in (
        709.8, 745.2, 800.0, 1e4, 1e300) for s in (1.0, -1.0)])
    def test_extreme_margins(self, z):
        # label -1 and feature 1 make z the logistic's argument: the value
        # is log(1 + e^z) and the gradient its slope, in the round and in a
        # one-example prefix alike
        x = np.array([z])
        one = one_example(-1.0, np.ones(1))
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            (value,), (grad,) = one.loss(1, x[None])
            prefix_value, prefix_grad = one.prefix_loss(1)(x)
        assert np.isfinite(value) and np.isfinite(grad).all()
        assert value.tobytes() == np.logaddexp(0.0, z).tobytes()
        assert np.float64(prefix_value).tobytes() == value.tobytes()
        assert prefix_grad.tobytes() == grad.tobytes()  # one formula
        if abs(z) > 745.0:
            assert grad[0] == (1.0 if z > 0 else 0.0)
        else:
            assert 0.0 < grad[0] <= 1.0

    def test_slope_within_64_ulps_of_scipy_expit(self):
        # scipy's expit as a reference: numpy's exp is not libm's, so last
        # bits differ. Below z ~ -708.4 scipy's expit is no normal float
        # (below -709.78 it flushes to 0.0); there the slope is e^z itself
        rng = np.random.default_rng(24)
        z = np.concatenate((rng.uniform(-745.0, 745.0, 10**5),
                            rng.uniform(-40.0, 40.0, 10**5)))
        _, grad = logloss_grad(-np.ones(len(z)), np.ones((len(z), 1)),
                               z[:, None])
        slope, want = grad[:, 0], expit(z)
        normal = want >= np.finfo(float).tiny
        ulps = np.abs(slope.view(np.int64) - want.view(np.int64))
        assert ulps[normal].max() <= 64
        assert slope[~normal].tobytes() == np.exp(z[~normal]).tobytes()


# Run in a fresh interpreter, since this test process has scipy loaded
# already (the oracles import it): neither a DSM nor an elastic-net
# `aogd run` may load any scipy module.
_NO_SCIPY = """
import json, sys
import aogd.cli

with open("data.libsvm", "w") as fh:
    for i in range(40):
        fh.write(f"{(-1) ** i:+d} 1:{i % 7 - 3} 2:{(i * i) % 5 - 2}\\n")
for problem in ({"kind": "dsm", "p": 3},
                {"kind": "elasticnet", "dataset": "data.libsvm", "rho": 1.0}):
    with open("config.json", "w") as fh:
        json.dump({"problem": problem, "algorithm": "a_ogd_convex",
                   "beta": 0.5, "T": 50, "seeds": [0],
                   "output_dir": problem["kind"]}, fh)
    assert aogd.cli.main(["run", "config.json"]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_runs_load_no_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(aogd.__file__)))
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _NO_SCIPY], env=env,
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []
    assert json.loads((tmp_path / "elasticnet" / "manifest.json")
                      .read_text())["status"] == "ok"


class TestElasticNetConstants:
    def test_radius(self):
        c = elasticnet_constants(4.0, np.ones((3, 4)))
        assert c.R == pytest.approx(2.0)

    def test_constraint_bound(self):
        c = elasticnet_constants(4.0, np.ones((3, 4)))
        assert c.D == pytest.approx(6.0)

    def test_gradient_bound_covers_features(self):
        rng = np.random.default_rng(8)
        u = rng.normal(size=(50, 6)) * 3
        c = elasticnet_constants(1.0, u)
        assert all(np.linalg.norm(row) <= c.G + 1e-12 for row in u)

    def test_radius_encloses_feasible_set(self):
        # every x with ||x||_1 + 0.5 ||x||_2^2 <= rho has ||x||_2 <= R
        rng = np.random.default_rng(9)
        rho = 1.5
        R = float(np.sqrt(1 + 2 * rho) - 1)
        best = 0.0
        for _ in range(5000):
            x = rng.normal(size=4) * rng.uniform(0, 1.2)
            if np.sum(np.abs(x)) + 0.5 * x @ x <= rho:
                best = max(best, float(np.linalg.norm(x)))
        assert best <= R + 1e-12
        # the bound is tight along a single axis
        x_axis = np.array([R, 0.0, 0.0, 0.0])
        assert np.sum(np.abs(x_axis)) + 0.5 * x_axis @ x_axis == pytest.approx(rho)

    def test_label_only_rows_have_no_feature(self, tmp_path):
        # a file of label-only rows parses to 3 rows of 0 features, which
        # is not an empty dataset
        path = tmp_path / "labels.libsvm"
        path.write_text("+1\n-1\n+1\n")
        labels, features = load_dataset(str(path)).dense()
        assert features.shape == (3, 0)
        with pytest.raises(ValueError) as info:
            ElasticNetProblem(labels, features, rho=1.0)
        assert str(info.value) == "dataset has 3 rows and no feature"

    def test_no_rows_is_empty(self):
        with pytest.raises(ValueError) as info:
            elasticnet_constants(1.0, np.zeros((0, 3)))
        assert str(info.value) == "dataset must be nonempty"


class TestSampledProblemInvariants:
    N = 10**4

    def test_dsm_gradient_bounds(self):
        prob = DsmProblem(4)
        prob.materialize(1, [0])
        c = prob.constants
        rng = np.random.default_rng(10)
        xs = sample_in_ball(rng, prob.dim, c.R, self.N)
        Y = stream_matrices(prob.stream)[0, 0].ravel()
        # loss gradient x - Y, vectorized over samples
        norms = np.linalg.norm(xs - Y, axis=1)
        assert norms.max() <= c.G + 1e-9
        cs = prob.constraints
        subs = cs.subgradient(xs[:2000], g_max(cs, xs[:2000])[1])
        assert np.linalg.norm(subs, axis=1).max() <= c.G + 1e-9

    def test_dsm_loss_range_below_F(self):
        prob = DsmProblem(4)
        prob.materialize(1, [0])
        c = prob.constants
        rng = np.random.default_rng(11)
        xs = sample_in_ball(rng, prob.dim, c.R, self.N)
        values = 0.5 * np.sum((xs - stream_matrices(prob.stream)[0, 0].ravel()) ** 2,
                              axis=1)
        assert values.max() - values.min() <= c.F + 1e-9

    def test_dsm_constraint_value_bound(self):
        prob = DsmProblem(8)
        c = prob.constants
        rng = np.random.default_rng(12)
        xs = sample_in_ball(rng, prob.dim, c.R, self.N)
        values, _ = g_max(prob.constraints, xs)
        assert np.abs(values).max() <= c.D + 1e-9
        # and D is reached: a row of -1s has norm sqrt(p) = R, and its
        # 1 - (row sum) is p + 1
        x = np.zeros((1, prob.dim))
        x[0, :prob.p] = -1.0
        assert np.linalg.norm(x) == pytest.approx(c.R)
        assert g_max(prob.constraints, x)[0][0] == c.D

    def test_elasticnet_bounds(self):
        rng = np.random.default_rng(13)
        u = rng.normal(size=(100, 5))
        y = np.where(rng.normal(size=100) > 0, 1.0, -1.0)
        prob = ElasticNetProblem(y, u, rho=1.0)
        prob.materialize(self.N, [0])
        c = prob.constants
        xs = sample_in_ball(rng, prob.dim, c.R, self.N)
        g_vals = np.sum(np.abs(xs), axis=1) + 0.5 * np.sum(xs**2, axis=1) - prob.rho
        assert np.abs(g_vals).max() <= c.D + 1e-9
        subs = np.sign(xs) + xs
        assert np.linalg.norm(subs, axis=1).max() <= c.G + 1e-9
        for i in range(500):
            _, grad = prob.loss(i + 1, xs[i:i + 1])
            assert np.linalg.norm(grad) <= c.G + 1e-9


def _make_problem(kind, T, seeds=(5,)):
    if kind == "dsm":
        return DsmProblem(4).materialize(T, seeds)
    rng = np.random.default_rng(14)
    u = rng.normal(size=(40, 6))
    y = np.where(rng.normal(size=40) > 0, 1.0, -1.0)
    return ElasticNetProblem(y, u, rho=1.0).materialize(T, seeds)


class TestLossSum:
    T = 60

    @pytest.mark.parametrize("kind", ["dsm", "elasticnet"])
    @pytest.mark.parametrize("t", [1, 23, T])
    def test_matches_per_round_loop(self, kind, t):
        prob = _make_problem(kind, self.T)
        rng = np.random.default_rng(t)
        prefix = prob.prefix_loss(t)
        for _ in range(5):
            x = rng.normal(size=prob.dim) * rng.choice([0.1, 1.0, 3.0])
            value, grad = 0.0, np.zeros(prob.dim)
            for s in range(1, t + 1):
                (v,), (g,) = prob.loss(s, x[None])
                value += v
                grad += g
            got_value, got_grad = prefix(x)
            assert got_value == pytest.approx(value, rel=1e-12)
            assert got_grad.shape == (prob.dim,)
            assert (np.linalg.norm(got_grad - grad)
                    <= 1e-12 * np.linalg.norm(grad))

    @pytest.mark.parametrize("kind", ["dsm", "elasticnet"])
    def test_seed_rows_match_single_seed_problems(self, kind):
        # row j of a problem materialized for several seeds is the problem
        # of seeds[j] alone: its stream, its loss at row j of X and its
        # prefix sums, bit for bit
        seeds = (5, 9, 2)
        prob = _make_problem(kind, self.T, seeds)
        assert prob.stream.shape[:2] == (3, self.T)
        X = np.random.default_rng(3).normal(size=(3, prob.dim))
        for j, seed in enumerate(seeds):
            alone = _make_problem(kind, self.T, [seed])
            assert np.array_equal(prob.stream[j], alone.stream[0])
            for t in (1, 23, self.T):
                values, grads = prob.loss(t, X)
                (value,), (grad,) = alone.loss(t, X[j:j + 1])
                assert values[j] == value and np.array_equal(grads[j], grad)
                got = prob.prefix_loss(t, j)(X[j])
                want = alone.prefix_loss(t)(X[j])
                assert got[0] == want[0] and np.array_equal(got[1], want[1])

    def test_elasticnet_order_is_the_int64_draw_in_a_small_type(self):
        # drawn as int64 (a smaller dtype would draw other numbers), stored
        # in the smallest type that holds the last row index, 39
        seeds = (5, 9)
        prob = _make_problem("elasticnet", self.T, seeds)
        assert prob.stream.dtype == np.uint8
        for row, seed in zip(prob.stream, seeds):
            assert np.array_equal(
                row, np.random.default_rng(seed).integers(0, 40, size=self.T))

    def test_dsm_counts_in_blocks_match_the_float_sum(self, monkeypatch):
        # prefix_loss counts codes _COUNT_ROWS rounds at a time; blocks of 7
        # rounds, one of them short, count what one block counts
        prob = DsmProblem(3).materialize(self.T, [5, 9])
        x = np.random.default_rng(1).normal(size=prob.dim)
        monkeypatch.setattr(problems, "_COUNT_ROWS", 7)
        for j, t in ((0, 1), (0, 7), (1, 8), (1, self.T)):
            got = prob.prefix_loss(t, j)(x)
            want = loss_sum_float(prob, t, x, j)
            assert got[0] == want[0] and np.array_equal(got[1], want[1])

    def test_elasticnet_prefix_follows_seed_t_and_stream(self):
        # each prefix holds the (j, t) and the stream it was built from:
        # calls interleaved across prefixes, or made after the problem
        # draws another stream, read what a fresh single-seed prefix reads
        prob = _make_problem("elasticnet", self.T, (5, 9))
        x = np.random.default_rng(2).normal(size=prob.dim)
        alone = {seed: _make_problem("elasticnet", self.T, [seed])
                 for seed in (5, 9, 4)}
        keys = ((0, 5), (1, 5), (0, 7))
        prefixes = {key: prob.prefix_loss(key[1], key[0]) for key in keys}
        prob.materialize(self.T, [4])
        for j, t in keys + keys[::-1]:
            got = prefixes[j, t](x)
            want = alone[(5, 9)[j]].prefix_loss(t)(x)
            assert got[0] == want[0] and np.array_equal(got[1], want[1])
        got, want = prob.prefix_loss(5)(x), alone[4].prefix_loss(5)(x)
        assert got[0] == want[0] and np.array_equal(got[1], want[1])

    def test_dsm_loss_rejects_rounds_outside_the_stream(self):
        prob = _make_problem("dsm", self.T)
        X = np.zeros((1, prob.dim))
        prob.loss(self.T, X)  # the last round is in the stream
        for t in (0, self.T + 1):
            with pytest.raises(ValueError, match="materialized"):
                prob.loss(t, X)

    def test_elasticnet_loss_rejects_rounds_outside_the_stream(self):
        # t = 0 would otherwise index the order at -1 and read round T
        prob = _make_problem("elasticnet", self.T, (5, 9))
        X = np.zeros((2, prob.dim))
        values, _ = prob.loss(self.T, X)
        assert values.shape == (2,)
        for t in (0, self.T + 1):
            with pytest.raises(ValueError, match="materialized"):
                prob.loss(t, X)

    @pytest.mark.parametrize("kind", ["dsm", "elasticnet"])
    def test_rejects_prefix_past_the_stream(self, kind):
        prob = _make_problem(kind, self.T)
        for t in (0, self.T + 1):
            with pytest.raises(ValueError, match="materialized"):
                prob.prefix_loss(t)


class TestProblemConstruction:
    def test_dsm_constants(self):
        prob = DsmProblem(8)
        c = prob.constants
        assert c.R == pytest.approx(np.sqrt(8))
        assert c.G == pytest.approx(2 * np.sqrt(8))
        assert c.D == 9.0
        assert c.sigma == 1.0

    def test_stream_requires_materialize(self):
        with pytest.raises(RuntimeError):
            DsmProblem(2).stream

    def test_elasticnet_label_validation(self):
        with pytest.raises(ValueError):
            ElasticNetProblem(np.array([0.0, 1.0]), np.ones((2, 2)), rho=1.0)
