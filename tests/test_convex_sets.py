import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import LinearConstraint, minimize

import hintcvx as hx
from hintcvx.convex_sets import _pool_adjacent_violators, isotonic_fit
from hintcvx.grid import weighted_inner

from conftest import random_dirichlet


@pytest.fixture
def ball(op1d):
    return hx.H2Ball(1.0, hx.H2Geometry(op1d))


@pytest.fixture
def cone():
    grid = hx.RadialGrid(n=4, dim=1)
    return hx.MonotoneCone(grid, np.ones(4))


def cone_of(grid):
    return hx.MonotoneCone(grid, hx.quadrature_weights(grid))


def neumann(grid, vals):
    return hx.GridFunction(grid, vals, hx.NEUMANN_ZERO)


@st.composite
def isotonic_inputs(draw):
    """(y, w) on both sides of isotonic_fit's fast path: nondecreasing with
    ties (signed zeros among them), strictly increasing, one adjacent
    violation, size 0 or 1; weights may be zero."""
    kind = draw(st.sampled_from(["ties", "strict", "one-violation", "tiny"]))
    if kind == "tiny":
        y = draw(hnp.arrays(float, st.integers(0, 1), elements=st.floats(-100, 100)))
    elif kind == "ties":
        y = np.sort(draw(hnp.arrays(float, st.integers(2, 30), elements=st.sampled_from([-1.5, -0.0, 0.0, 0.25, 2.0]))))
    else:
        y = np.unique(draw(hnp.arrays(float, st.integers(2, 30), elements=st.floats(-100, 100))))
        if kind == "one-violation" and y.size >= 2:
            i = draw(st.integers(1, y.size - 1))
            y[i - 1], y[i] = y[i], y[i - 1]
    w = draw(hnp.arrays(float, y.size, elements=st.one_of(st.just(0.0), st.floats(0.0, 10.0))))
    return y, w


class TestConstruction:
    @pytest.mark.parametrize("r", [0.0, -1.0, float("nan")])
    def test_ball_rejects_non_positive_radius(self, op1d, r):
        with pytest.raises(ValueError, match="radius"):
            hx.H2Ball(r, hx.H2Geometry(op1d))

    @pytest.mark.parametrize("bad", [-1.0, float("nan")])
    def test_cone_rejects_bad_weights(self, bad):
        grid = hx.RadialGrid(n=4, dim=1)
        with pytest.raises(ValueError, match="nonnegative"):
            hx.MonotoneCone(grid, np.array([1.0, bad, 1.0, 1.0]))


class TestMembership:
    def test_origin_in_every_ball(self, ball, grid1d):
        assert hx.contains(ball, hx.GridFunction(grid1d, np.zeros(grid1d.size)))

    def test_monotone_examples(self, cone):
        assert hx.contains(cone, neumann(cone.grid, [0.0, 1.0, 2.0, 3.0]))
        assert not hx.contains(cone, neumann(cone.grid, [0.0, 2.0, 1.0, 3.0]))

    def test_negative_values_excluded(self, cone):
        assert not hx.contains(cone, neumann(cone.grid, [-1.0, 0.0, 1.0, 2.0]))

    def test_ball_boundary_slack(self, ball, grid1d):
        tol = 1e-9
        u = random_dirichlet(grid1d, 0)
        nrm = ball.geometry.h2_norm(u.values)
        just_out = u.with_values(u.values * ((1.0 + 10 * tol) / nrm))
        assert not hx.contains(ball, just_out, tol)
        just_in = u.with_values(u.values * (1.0 / nrm))
        assert hx.contains(ball, just_in, tol)

    def test_large_ball_slack_is_relative(self, ball, grid1d):
        # at r = 1e6 an absolute slack of 1e-9 is a few ulps of r; the ball
        # admits norms up to r (1 + tol) and no further
        tol = 1e-9
        big = hx.H2Ball(1e6, ball.geometry)
        u = random_dirichlet(grid1d, 0)
        nrm = ball.geometry.h2_norm(u.values)
        assert hx.contains(big, u.with_values(u.values * ((1e6 + 1e-3) * (1.0 - 1e-12) / nrm)), tol)
        assert not hx.contains(big, u.with_values(u.values * ((1e6 + 1e-3) * (1.0 + 1e-12) / nrm)), tol)

    def test_accumulated_drift_detected(self, cone):
        # consecutive steps within tol but a large total decrease
        tol = 1e-3
        vals = np.array([1.0, 1.0 - 0.9 * tol, 1.0 - 1.8 * tol, 1.0 - 2.7 * tol])
        assert not hx.contains(cone, neumann(cone.grid, vals), tol)

    def test_grid_mismatch_rejected(self, ball):
        other = hx.RadialGrid(n=7, dim=1)
        with pytest.raises(ValueError):
            hx.contains(ball, hx.GridFunction(other, np.zeros(7)))

    def test_sets_are_convex(self, ball, grid1d, cone):
        rng = np.random.default_rng(17)
        for _ in range(20):
            lam = rng.uniform()
            u = random_dirichlet(grid1d, rng.integers(1 << 30))
            v = random_dirichlet(grid1d, rng.integers(1 << 30))
            pu, pv = hx.project_ball(ball, u), hx.project_ball(ball, v)
            mix = pu.with_values(lam * pu.values + (1 - lam) * pv.values)
            assert hx.contains(ball, mix, 1e-9)
            cu = np.sort(np.abs(rng.standard_normal(4)))
            cv = np.sort(np.abs(rng.standard_normal(4)))
            cmix = neumann(cone.grid, lam * cu + (1 - lam) * cv)
            assert hx.contains(cone, cmix, 1e-12)


class TestBallProjection:
    def test_inside_unchanged_bitwise(self, ball, grid1d):
        u = random_dirichlet(grid1d, 3, scale=1e-6)
        assert ball.geometry.h2_norm(u.values) < ball.r
        assert hx.project_ball(ball, u) is u

    def test_radial_scaling(self, ball, grid1d):
        u = random_dirichlet(grid1d, 4)
        nrm = ball.geometry.h2_norm(u.values)
        double = u.with_values(u.values * (2.0 / nrm))
        proj = hx.project_ball(ball, double)
        np.testing.assert_allclose(proj.values, double.values / 2.0, rtol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_idempotent(self, ball, grid1d, seed):
        u = random_dirichlet(grid1d, seed, scale=10.0)
        once = hx.project_ball(ball, u)
        twice = hx.project_ball(ball, once)
        assert np.max(np.abs(twice.values - once.values)) <= 1e-12


class TestConeProjection:
    def test_member_unchanged(self, cone):
        u = neumann(cone.grid, [0.0, 0.5, 0.5, 2.0])
        proj = hx.project_cone(cone, u)
        assert np.max(np.abs(proj.values - u.values)) <= 1e-14

    def test_unit_weight_pool(self, cone):
        grid = hx.RadialGrid(n=3, dim=1)
        K = hx.MonotoneCone(grid, np.ones(3))
        proj = hx.project_cone(K, neumann(grid, [3.0, 1.0, 2.0]))
        np.testing.assert_allclose(proj.values, [2.0, 2.0, 2.0])

    def test_all_negative_clamps_to_zero(self, cone):
        grid = hx.RadialGrid(n=3, dim=1)
        K = hx.MonotoneCone(grid, np.ones(3))
        proj = hx.project_cone(K, neumann(grid, [-1.0, -2.0, -3.0]))
        np.testing.assert_allclose(proj.values, [0.0, 0.0, 0.0])

    def test_output_exactly_in_cone(self):
        grid = hx.RadialGrid(n=50, dim=3)
        K = cone_of(grid)
        rng = np.random.default_rng(23)
        for _ in range(20):
            u = neumann(grid, rng.standard_normal(grid.size))
            proj = hx.project_cone(K, u)
            assert np.min(proj.values) >= 0.0
            assert np.min(np.diff(proj.values)) >= 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_constrained_qp_oracle(self, seed):
        # brute-force oracle: weighted least squares over the order simplex,
        # solved by an independent SLSQP path
        grid = hx.RadialGrid(n=3, dim=1)
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.2, 2.0, 3)
        K = hx.MonotoneCone(grid, w)
        y = rng.uniform(-2.0, 2.0, 3)
        proj = hx.project_cone(K, neumann(grid, y))

        cons = LinearConstraint(np.array([[1, 0, 0], [-1, 1, 0], [0, -1, 1]]), 0.0, np.inf)
        res = minimize(
            lambda x: np.dot(w, (x - y) ** 2),
            np.maximum(np.sort(y), 0.0),
            method="SLSQP",
            constraints=cons,
            options={"ftol": 1e-14, "maxiter": 400},
        )
        assert res.success
        np.testing.assert_allclose(proj.values, res.x, atol=5e-6)

    @given(
        y=hnp.arrays(
            float,
            st.integers(min_value=1, max_value=30),
            elements=st.floats(min_value=-100, max_value=100),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_isotonic_fit_is_monotone_projection(self, y):
        w = np.ones(len(y))
        fit = isotonic_fit(y, w)
        assert np.min(np.diff(fit), initial=0.0) >= 0.0
        # idempotence: fitting a monotone vector returns it unchanged
        np.testing.assert_array_equal(isotonic_fit(fit, w), fit)

    @given(yw=isotonic_inputs())
    @settings(max_examples=200, deadline=None)
    def test_isotonic_fit_bitwise_equals_the_loop(self, yw):
        # the fast path for nondecreasing inputs returns what the
        # pool-adjacent-violators loop returns, bit for bit
        y, w = yw
        fit = isotonic_fit(y, w)
        ref = _pool_adjacent_violators(y, w)
        assert fit.dtype == ref.dtype and fit.shape == ref.shape
        np.testing.assert_array_equal(np.frombuffer(fit.tobytes(), np.uint8), np.frombuffer(ref.tobytes(), np.uint8))
        assert not np.shares_memory(fit, y)


class TestProjectionGeometry:
    def test_characterization_ball(self, ball, grid1d):
        # <u - P(u), w - P(u)>_h2 <= tol for members w
        rng = np.random.default_rng(31)
        u = random_dirichlet(grid1d, 100, scale=5.0)
        pu = hx.project_ball(ball, u)
        geom = ball.geometry
        gram = lambda a, b: weighted_inner(  # noqa: E731
            geom.op.weights, a, b
        ) + float(a @ (geom.op.stiffness @ b)) + weighted_inner(
            geom.op.weights, geom.op.apply(a), geom.op.apply(b)
        )
        for _ in range(100):
            w = random_dirichlet(grid1d, rng.integers(1 << 30))
            w = hx.project_ball(ball, w)
            assert gram(u.values - pu.values, w.values - pu.values) <= 1e-9

    def test_characterization_cone(self):
        grid = hx.RadialGrid(n=25, dim=1)
        K = cone_of(grid)
        rng = np.random.default_rng(37)
        u = neumann(grid, rng.standard_normal(grid.size))
        pu = hx.project_cone(K, u)
        for _ in range(100):
            member = np.maximum(np.maximum.accumulate(rng.standard_normal(grid.size)), 0.0)
            gap = weighted_inner(K.weights, u.values - pu.values, member - pu.values)
            assert gap <= 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_nonexpansive(self, ball, grid1d, seed):
        u = random_dirichlet(grid1d, seed, scale=4.0)
        v = random_dirichlet(grid1d, seed + 50, scale=4.0)
        pu, pv = hx.project_ball(ball, u), hx.project_ball(ball, v)
        geom = ball.geometry
        d_proj = np.sqrt(geom.h2_norm_sq(pu.values - pv.values))
        d_orig = np.sqrt(geom.h2_norm_sq(u.values - v.values))
        assert d_proj <= d_orig + 1e-10

        grid = hx.RadialGrid(n=30, dim=1)
        K = cone_of(grid)
        rng = np.random.default_rng(seed)
        a = neumann(grid, rng.standard_normal(grid.size))
        b = neumann(grid, rng.standard_normal(grid.size))
        pa, pb = hx.project_cone(K, a), hx.project_cone(K, b)
        dp = weighted_inner(K.weights, pa.values - pb.values, pa.values - pb.values)
        do = weighted_inner(K.weights, a.values - b.values, a.values - b.values)
        assert np.sqrt(dp) <= np.sqrt(do) + 1e-10
