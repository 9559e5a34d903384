import numpy as np
import pytest

from aogd.learner import step
from aogd.projections import g_max, project_ball
from closure_constraints import Constraint, ConstraintSet, elasticnet_closure


def g_max_at(cs, x):
    """g_max of the one-row batch [x]: (value, active index)."""
    (value,), (idx,) = g_max(cs, x[None])
    return value, idx


def scalar_components():
    # g_0(x) = x - 1, g_1(x) = -x on 1-D inputs
    return ConstraintSet(components=[
        Constraint(value=lambda x: float(x[0]) - 1.0,
                   subgradient=lambda x: np.array([1.0])),
        Constraint(value=lambda x: -float(x[0]),
                   subgradient=lambda x: np.array([-1.0])),
    ])


class TestProjectBall:
    def test_radial_scaling(self):
        np.testing.assert_allclose(project_ball(np.array([3.0, 4.0]), 1.0),
                                   [0.6, 0.8])

    def test_interior_unchanged(self):
        x = np.array([0.1, 0.2])
        assert project_ball(x, 1.0) is x

    def test_zero_vector(self):
        np.testing.assert_array_equal(project_ball(np.zeros(3), 0.5), np.zeros(3))

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            project_ball(np.ones(2), 0.0)

    def test_rows_projected_independently(self):
        X = np.array([[3.0, 4.0], [0.1, -0.2], [-0.0, 0.0], [0.0, -5.0]])
        P = project_ball(X, 1.0)
        for x, px in zip(X, P):
            np.testing.assert_allclose(px, project_ball(x, 1.0), rtol=1e-15)
        # rows inside the ball keep their bits, signed zeros included
        assert np.array_equal(P[1:3], X[1:3])
        assert np.array_equal(np.signbit(P[1:3]), np.signbit(X[1:3]))
        interior = X[1:3].copy()
        assert project_ball(interior, 1.0) is interior

    @pytest.mark.parametrize("row", [[1e200, 0.0], [np.nan, 0.0],
                                     [np.inf, 0.0], [-np.inf, 1.0]],
                             ids=["huge_finite", "nan", "inf", "minus_inf"])
    def test_nonfinite_squared_norm_raises(self, row):
        # R / inf would zero a huge finite row ([[1e200, 0]] has the
        # projection [[1, 0]]) and NaN or inf rows would come back as NaN;
        # each raises instead, also beside a row inside the ball, and for a
        # single vector
        with np.errstate(over="ignore"):
            with pytest.raises(FloatingPointError):
                project_ball(np.array([[0.1, 0.2], row]), 1.0)
            with pytest.raises(FloatingPointError):
                project_ball(np.array(row), 1.0)

    def test_largest_squarable_row_is_projected(self):
        # 1e150^2 = 1e300 is finite, so the row is clipped, not rejected
        np.testing.assert_allclose(project_ball(np.array([[1e150, 0.0]]), 1.0),
                                   [[1.0, 0.0]])

    def test_idempotent_and_nonexpansive(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x, y = rng.normal(size=(2, 5)) * 3
            px, py = project_ball(x, 1.0), project_ball(y, 1.0)
            assert np.linalg.norm(project_ball(px, 1.0) - px) <= 1e-15
            assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12
            assert np.linalg.norm(px) <= 1.0 + 1e-12


def dual_step(lam, g, mu_t, theta_t):
    """The next dual iterates `learner.step` gives from lam and g, with a
    zero primal step."""
    S = len(lam)
    _, lam_next = step(np.zeros((S, 1)), np.array(lam), 1, np.zeros((S, 1)),
                       np.array(g), np.zeros((S, 1)), eta_t=1.0, mu_t=mu_t,
                       theta_t=theta_t, R=1.0)
    return lam_next


class TestProjectNonneg:
    """The projection onto the nonnegative reals that `learner.step` makes
    of each seed's dual ascent step."""

    @pytest.mark.parametrize("v,expected", [(-0.5, 0.0), (0.7, 0.7), (0.0, 0.0)])
    def test_values(self, v, expected):
        # from lambda = 0 with theta = 0 and a unit dual step the ascent
        # step is the constraint value v itself
        assert dual_step([0.0], [v], mu_t=1.0, theta_t=0.0) == [expected]

    def test_batch_keeps_max_sign_of_zero(self):
        # max(0.0, v) maps -0.0 and NaN to +0.0; np.maximum would not. At
        # mu = 0 the ascent step lam + 0 * (g - theta * lam) is -0.0 for
        # lam = -0.0 and g < 0, and NaN where theta * lam overflows
        lam = [-0.0, 0.0, -2.0, 0.5, 1e308]
        with np.errstate(over="ignore", invalid="ignore"):
            raw = np.array(lam) + 0.0 * (-1.0 - 10.0 * np.array(lam))
        assert np.signbit(raw[0]) and np.isnan(raw[4])
        out = dual_step(lam, [-1.0] * 5, mu_t=0.0, theta_t=10.0)
        assert out == [max(0.0, v) for v in raw.tolist()]
        assert not np.any(np.signbit(out))


class TestGMax:
    def test_basic(self):
        value, idx = g_max_at(scalar_components(), np.array([3.0]))
        assert value == pytest.approx(2.0) and idx == 0

    def test_tie_smallest_index(self):
        value, idx = g_max_at(scalar_components(), np.array([0.5]))
        assert value == pytest.approx(-0.5) and idx == 0

    def test_single_component(self):
        value, idx = g_max_at(elasticnet_closure(2.0), np.zeros(3))
        assert value == pytest.approx(-2.0) and idx == 0

    def test_batch_is_rowwise(self):
        # one value and first maximizer per row; rows 1 and 3 are ties
        cs = scalar_components()
        X = np.array([[3.0], [0.5], [-2.0], [0.5]])
        values, idx = g_max(cs, X)
        assert values.shape == idx.shape == (4,)
        assert [g_max_at(cs, x) for x in X] == list(zip(values, idx))
        assert idx.tolist() == [0, 0, 1, 0]

    def test_dominates_each_component(self):
        cs = scalar_components()
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.normal(size=1) * 4
            value, idx = g_max_at(cs, x)
            values = [c.value(x) for c in cs.components]
            assert all(value >= v - 1e-15 for v in values)
            assert value == pytest.approx(values[idx])

    def test_nonfinite_value_raises(self):
        cs = ConstraintSet(components=[
            Constraint(value=lambda x: float("nan"), subgradient=lambda x: x)])
        with pytest.raises(FloatingPointError):
            g_max(cs, np.zeros((1, 1)))

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            ConstraintSet(components=[])


class TestGSubgradient:
    # a subgradient of g = max_j g_j is the active component's
    def test_active_component(self):
        cs, x = scalar_components(), np.array([3.0])
        np.testing.assert_allclose(cs.subgradient(x, g_max_at(cs, x)[1]), [1.0])

    def test_elasticnet_smooth_point(self):
        cs, x = elasticnet_closure(1.0), np.array([1.0, -2.0])
        np.testing.assert_allclose(cs.subgradient(x, g_max_at(cs, x)[1]),
                                   [2.0, -3.0])

    def test_elasticnet_kink_zero_choice(self):
        cs, x = elasticnet_closure(1.0), np.array([0.0, 1.0])
        np.testing.assert_allclose(cs.subgradient(x, g_max_at(cs, x)[1]),
                                   [0.0, 2.0])

    def test_subgradient_inequality(self):
        # g(y) >= g(x) + s.(y - x) for the max aggregate
        rng = np.random.default_rng(2)
        for cs, dim in ((scalar_components(), 1), (elasticnet_closure(1.5), 4)):
            for _ in range(300):
                x = rng.normal(size=dim)
                y = rng.normal(size=dim)
                gx, idx = g_max_at(cs, x)
                gy, _ = g_max_at(cs, y)
                s = cs.subgradient(x, idx)
                assert gy >= gx + s @ (y - x) - 1e-10
