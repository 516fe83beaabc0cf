import numpy as np
import pytest

import hintcvx as hx
from hintcvx.convex_analysis import cone_box_bound
from hintcvx.grid import weighted_inner

from conftest import random_dirichlet


@pytest.fixture
def ball(op1d):
    return hx.H2Ball(1.0, hx.H2Geometry(op1d))


def dual(op, u):
    return hx.GridFunction(op.grid, op.apply(u.values), u.bc)


class TestFenchelConjugate:
    def test_zero_dual(self, op1d, grid1d):
        z = hx.GridFunction(grid1d, np.zeros(grid1d.size))
        assert hx.fenchel_conjugate_quadratic(op1d, z) == 0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_value_at_gradient_image(self, op1d, grid1d, seed):
        # Psi*(A u) = Psi(u); also dominates the sup over a sample cloud
        u = random_dirichlet(grid1d, seed)
        ustar = dual(op1d, u)
        val = hx.fenchel_conjugate_quadratic(op1d, ustar)
        psi_u = 0.5 * weighted_inner(op1d.weights, op1d.apply(u.values), u.values)
        assert abs(val - psi_u) <= 1e-9 * max(1.0, abs(psi_u))
        rng = np.random.default_rng(seed)
        for _ in range(50):
            v = random_dirichlet(grid1d, rng.integers(1 << 30), scale=2.0)
            psi_v = 0.5 * weighted_inner(op1d.weights, op1d.apply(v.values), v.values)
            cloud = weighted_inner(op1d.weights, ustar.values, v.values) - psi_v
            assert cloud <= val + 1e-9

    def test_two_homogeneity(self, op1d, grid1d):
        u = random_dirichlet(grid1d, 5)
        ustar = dual(op1d, u)
        one = hx.fenchel_conjugate_quadratic(op1d, ustar)
        four = hx.fenchel_conjugate_quadratic(op1d, ustar.with_values(2.0 * ustar.values))
        assert abs(four - 4.0 * one) <= 1e-9 * max(1.0, abs(one))


class TestDualityGap:
    def test_exact_zero_at_origin(self, op1d, grid1d):
        z = hx.GridFunction(grid1d, np.zeros(grid1d.size))
        assert hx.duality_gap(op1d, z, z) == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_equality_branch(self, op1d, grid1d, seed):
        u = random_dirichlet(grid1d, seed)
        assert abs(hx.duality_gap(op1d, u, dual(op1d, u))) <= 1e-8

    def test_fenchel_young_inequality(self, op1d, grid1d):
        rng = np.random.default_rng(2)
        for _ in range(100):
            u = random_dirichlet(grid1d, rng.integers(1 << 30))
            ustar = random_dirichlet(grid1d, rng.integers(1 << 30))
            assert hx.duality_gap(op1d, u, ustar) >= -1e-9

    def test_gap_decays_quadratically_in_perturbation(self, op1d, grid1d):
        # gap(u, Au + delta) = 1/2 <A^-1 delta, delta>: scaling delta by 1/2
        # divides the gap by 4
        u = random_dirichlet(grid1d, 8)
        delta = random_dirichlet(grid1d, 9)
        nd = np.sqrt(weighted_inner(op1d.weights, delta.values, delta.values))
        delta = delta.with_values(delta.values / nd)
        au = op1d.apply(u.values)
        gaps = []
        for scale in (1.0, 0.5, 0.25):
            ustar = u.with_values(au + scale * delta.values)
            gaps.append(hx.duality_gap(op1d, u, ustar))
        assert gaps[0] > 0.0
        assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=1e-6)
        assert gaps[1] / gaps[2] == pytest.approx(4.0, rel=1e-6)

    def test_known_solution_replaces_the_solve(self, op1d, grid1d, monkeypatch):
        # with x = A^-1 u* given, Psi*(u*) = <x, u*>_w - Psi(x) and no solve runs
        rng = np.random.default_rng(3)
        for _ in range(20):
            u = random_dirichlet(grid1d, rng.integers(1 << 30))
            ustar = random_dirichlet(grid1d, rng.integers(1 << 30))
            x = ustar.with_values(op1d.solve_form(ustar.values))
            solved = hx.duality_gap(op1d, u, ustar)
            with monkeypatch.context() as m:
                m.setattr(hx.EllipticOperator, "solve_form", None)
                given = hx.duality_gap(op1d, u, ustar, solution=x)
            assert given == pytest.approx(solved, rel=1e-12, abs=1e-12)

    def test_rejects_grid_mismatch_and_non_finite_pairing(self, op1d, grid1d):
        u = random_dirichlet(grid1d, 0)
        other = hx.RadialGrid(n=9, dim=1)
        with pytest.raises(ValueError, match="share one grid"):
            hx.duality_gap(op1d, u, hx.GridFunction(other, np.zeros(9)))
        # finite values whose weighted pairing overflows
        huge = u.with_values(1e200 * u.values)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="not finite"):
            hx.duality_gap(op1d, huge, huge)


class TestBiconjugate:
    @pytest.mark.parametrize("seed", range(5))
    def test_biconjugacy_probe(self, op1d, grid1d, seed):
        u = random_dirichlet(grid1d, seed)
        psi_u = 0.5 * weighted_inner(op1d.weights, op1d.apply(u.values), u.values)
        assert abs(hx.biconjugate_value(op1d, u) - psi_u) <= 1e-8 * max(1.0, psi_u)


class TestViResidual:
    def test_zero_at_trivial_critical_point(self, grid1d, op1d):
        spec = hx.ProblemSpec(family="concave-convex", grid=grid1d, p=4.0, q=1.5, mu=0.0)
        K = hx.H2Ball(1.0, spec.geometry)
        rho = hx.vi_residual(spec, K, spec.function(np.zeros(spec.grid.size)))
        assert abs(rho) <= 1e-15

    def test_membership_precondition(self, grid1d):
        spec = hx.ProblemSpec(family="concave-convex", grid=grid1d, p=4.0, q=1.5, mu=0.1)
        K = hx.H2Ball(1e-6, spec.geometry)
        outside = random_dirichlet(grid1d, 1)
        with pytest.raises(hx.MembershipError):
            hx.vi_residual(spec, K, outside)

    def test_boundary_outward_gradient_gives_zero(self, grid1d):
        # construct g whose h2-Riesz representative is -c u at ||u|| = r:
        # the infimum balances <g, u> exactly and rho = 0
        spec = hx.ProblemSpec(family="concave-convex", grid=grid1d, p=4.0, q=1.5, mu=0.1)
        K = hx.H2Ball(0.5, spec.geometry)
        u = random_dirichlet(grid1d, 6)
        u = u.with_values(u.values * (K.r / K.geometry.h2_norm(u.values)))

        geom = K.geometry
        c = 0.7
        # g = -c * W^-1 H u so that riesz(g) = -c u
        op = spec.operator
        idx = np.flatnonzero(op.active)
        Hu = np.zeros(grid1d.size)
        hvals = (
            op.weights * u.values
            + op.stiffness @ u.values
            + op.form.T @ (np.where(op.active, op.apply(u.values), 0.0))
        )
        Hu[idx] = hvals[idx]
        g_vals = np.zeros(grid1d.size)
        g_vals[idx] = -c * Hu[idx] / op.weights[idx]

        G, G_norm = geom.riesz_norm(g_vals)
        np.testing.assert_allclose(G, -c * u.values, atol=1e-10)
        g_dot_u = weighted_inner(op.weights, g_vals, u.values)
        rho = g_dot_u + K.r * G_norm
        assert abs(rho) <= 1e-10

    def test_cone_residual_zero_for_critical_constant(self, nr_spec):
        # with a = 1 the constant 1 solves the strong equation, so rho = 0
        grid = nr_spec.grid
        a1 = hx.GridFunction(grid, np.ones(grid.size), hx.NEUMANN_ZERO)
        spec = hx.ProblemSpec(family="neumann-radial", grid=grid, p=4.0, a=a1)
        K = hx.MonotoneCone(grid, spec.weights)
        u = spec.function(np.ones(grid.size))
        assert hx.vi_residual(spec, K, u) <= 1e-12

    def test_cone_residual_positive_off_critical(self, nr_spec):
        K = hx.MonotoneCone(nr_spec.grid, nr_spec.weights)
        u = nr_spec.function(np.full(nr_spec.grid.size, 0.2))
        assert hx.vi_residual(nr_spec, K, u) > 1e-3

    def test_box_bound_floor(self, nr_spec):
        assert cone_box_bound(nr_spec.function(np.zeros(nr_spec.grid.size))) == 1.0
        u = nr_spec.function(np.full(nr_spec.grid.size, 0.3))
        assert cone_box_bound(u) == pytest.approx(3.0)


class TestEquality10:
    def test_zero_at_equal_points(self, op1d, grid1d):
        u = random_dirichlet(grid1d, 2)
        assert hx.equality10_defect(op1d, u, u) == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_half_a_seminorm(self, op1d, grid1d, seed):
        u0 = random_dirichlet(grid1d, seed)
        v0 = random_dirichlet(grid1d, seed + 100)
        d = v0.values - u0.values
        direct = 0.5 * float(d @ (op1d.form @ d))
        assert abs(hx.equality10_defect(op1d, u0, v0) - direct) <= 1e-10 * max(1.0, direct)
