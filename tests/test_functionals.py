import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hintcvx as hx
from hintcvx.functionals import DegenerateInputError, FieldError, energy_grad, phi_hess
from hintcvx.grid import weighted_inner
from hintcvx.principle import mu_star, run_problem

from conftest import random_dirichlet, random_neumann


def bounded_dirichlet(grid, seed):
    """Seeded function with |u| >= 0.1 at interior nodes, zero boundary."""
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.1, 1.1, grid.size) * rng.choice([-1.0, 1.0], grid.size)
    vals[grid.boundary_indices(hx.DIRICHLET_ZERO)] = 0.0
    return hx.GridFunction(grid, vals, hx.DIRICHLET_ZERO)


# each family's own terms of Phi, on a radial grid
FAMILY_TERMS = {
    "concave-convex": lambda g: {"q": 1.5, "mu": 0.1},
    "nonhomogeneous": lambda g: {"f": hx.GridFunction(g, np.cos(np.pi * g.nodes), hx.NEUMANN_ZERO)},
    "neumann-radial": lambda g: {"a": hx.GridFunction(g, 1.0 + g.nodes, hx.NEUMANN_ZERO)},
}


class TestProblemSpecValidation:
    def test_unknown_family(self, grid1d):
        with pytest.raises(ValueError):
            hx.ProblemSpec(family="biharmonic", grid=grid1d, p=3.0)

    def test_q_out_of_range(self, grid1d):
        with pytest.raises(ValueError):
            hx.ProblemSpec(family="concave-convex", grid=grid1d, p=3.0, q=2.5)

    def test_p_must_exceed_two(self, grid1d):
        with pytest.raises(ValueError):
            hx.ProblemSpec(family="concave-convex", grid=grid1d, p=2.0, q=1.5)

    def test_negative_mu_rejected(self, grid1d):
        with pytest.raises(ValueError):
            hx.ProblemSpec(family="concave-convex", grid=grid1d, p=3.0, q=1.5, mu=-0.1)

    def test_nonhomogeneous_needs_forcing(self, grid1d):
        with pytest.raises(ValueError):
            hx.ProblemSpec(family="nonhomogeneous", grid=grid1d, p=3.0)

    def test_decreasing_weight_rejected(self, grid3d):
        a = hx.GridFunction(grid3d, 2.0 - grid3d.nodes, hx.NEUMANN_ZERO)
        with pytest.raises(ValueError):
            hx.ProblemSpec(family="neumann-radial", grid=grid3d, p=4.0, a=a)

    def test_negative_weight_rejected(self, grid3d):
        a = hx.GridFunction(grid3d, grid3d.nodes - 0.5, hx.NEUMANN_ZERO)
        with pytest.raises(ValueError):
            hx.ProblemSpec(family="neumann-radial", grid=grid3d, p=4.0, a=a)

    def test_neumann_radial_needs_radial_grid(self, grid2d):
        with pytest.raises(ValueError):
            hx.ProblemSpec(family="neumann-radial", grid=grid2d, p=3.0)

    def test_embedding_bound_enforced_above_dim_four(self):
        g = hx.RadialGrid(n=11, dim=6)
        # p* = (2*6-4)/(6-4) = 4
        hx.ProblemSpec(family="concave-convex", grid=g, p=3.5, q=1.5)
        with pytest.raises(ValueError):
            hx.ProblemSpec(family="concave-convex", grid=g, p=4.5, q=1.5)

    @pytest.mark.parametrize("name", ["p", "q", "mu", "C1", "r"])
    def test_nan_rejected_with_field(self, grid1d, name):
        params = {"p": 4.0, "q": 1.5, "mu": 0.1, "C1": 1.0, "r": 0.5, name: float("nan")}
        with pytest.raises(FieldError) as err:
            hx.ProblemSpec(family="concave-convex", grid=grid1d, **params)
        assert err.value.field == name

    @pytest.mark.parametrize("name", ["p", "mu", "C1", "r"])
    @pytest.mark.parametrize("family", ["concave-convex", "nonhomogeneous", "neumann-radial"])
    def test_infinity_rejected_with_field(self, grid1d, family, name):
        # p = inf once passed as supercritical on the cone and failed the
        # ball's embedding bound at dim 1, which has none
        params = {"p": 4.0, "C1": 1.0, "r": 0.5, **FAMILY_TERMS[family](grid1d), name: float("inf")}
        with pytest.raises(FieldError) as err:
            hx.ProblemSpec(family=family, grid=grid1d, **params)
        assert err.value.field == name


class TestPsi:
    def test_zero_function(self, cc_spec):
        assert hx.psi_value(cc_spec, cc_spec.function(np.zeros(cc_spec.grid.size))) == 0.0

    def test_constant_one_neumann_radial(self, nr_spec):
        # gradient term vanishes: Psi(1) = 1/2 * |B_1| = 2 pi / 3
        u = nr_spec.function(np.ones(nr_spec.grid.size))
        assert abs(hx.psi_value(nr_spec, u) - 2 * np.pi / 3) <= 1e-10

    def test_sine_dirichlet(self):
        g = hx.RadialGrid(n=201, dim=1)
        spec = hx.ProblemSpec(family="concave-convex", grid=g, p=4.0, q=1.5, mu=0.1)
        vals = np.sin(np.pi * g.nodes)
        vals[0] = vals[-1] = 0.0
        val = hx.psi_value(spec, spec.function(vals))
        assert abs(val - np.pi**2 / 4) <= 10 * g.h**2

    def test_bc_mismatch_rejected(self, cc_spec):
        u = random_neumann(cc_spec.grid, 0)
        with pytest.raises(ValueError):
            hx.psi_value(cc_spec, u)

    def test_grid_mismatch_rejected(self, cc_spec):
        other = hx.RadialGrid(n=9, dim=1)
        stranger = hx.GridFunction(other, np.zeros(9))
        with pytest.raises(ValueError):
            hx.psi_value(cc_spec, stranger)
        with pytest.raises(ValueError):
            hx.phi_value(cc_spec, stranger)

    def test_grad_zero(self, cc_spec):
        zero = cc_spec.function(np.zeros(cc_spec.grid.size))
        assert np.all(hx.psi_grad(cc_spec, zero).values == 0.0)

    def test_grad_additive(self, cc_spec):
        u = random_dirichlet(cc_spec.grid, 1)
        v = random_dirichlet(cc_spec.grid, 2)
        both = hx.psi_grad(cc_spec, cc_spec.function(u.values + v.values)).values
        split = hx.psi_grad(cc_spec, u).values + hx.psi_grad(cc_spec, v).values
        assert np.max(np.abs(both - split)) <= 1e-10 * np.max(np.abs(split))

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_euler_identity(self, cc_spec, seed):
        # <Psi'(u), u>_w = 2 Psi(u) for the quadratic form
        u = random_dirichlet(cc_spec.grid, seed)
        lhs = weighted_inner(cc_spec.weights, hx.psi_grad(cc_spec, u).values, u.values)
        rhs = 2.0 * hx.psi_value(cc_spec, u)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    @given(lam=st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=25, deadline=None)
    def test_convexity_along_segments(self, lam):
        g = hx.RadialGrid(n=21, dim=1)
        spec = hx.ProblemSpec(family="concave-convex", grid=g, p=3.0, q=1.5, mu=0.2)
        u = random_dirichlet(g, 10)
        v = random_dirichlet(g, 11)
        mix = spec.function(lam * u.values + (1 - lam) * v.values)
        bound = lam * hx.psi_value(spec, u) + (1 - lam) * hx.psi_value(spec, v)
        assert hx.psi_value(spec, mix) <= bound + 1e-12


class TestPhi:
    def test_zero_function_all_families(self, cc_spec, nr_spec, grid1d):
        f = hx.GridFunction(grid1d, np.sin(np.pi * grid1d.nodes), hx.NEUMANN_ZERO)
        nh = hx.ProblemSpec(family="nonhomogeneous", grid=grid1d, p=3.0, f=f)
        assert hx.phi_value(cc_spec, cc_spec.function(np.zeros(cc_spec.grid.size))) == 0.0
        assert hx.phi_value(nr_spec, nr_spec.function(np.zeros(nr_spec.grid.size))) == 0.0
        # the forcing term int f u vanishes at u = 0 regardless of f
        assert hx.phi_value(nh, nh.function(np.zeros(nh.grid.size))) == 0.0

    def test_constant_one_concave_convex(self, grid1d):
        # closed form: 1/p + mu/q on the unit interval
        spec = hx.ProblemSpec(family="concave-convex", grid=grid1d, p=4.0, q=1.5, mu=0.1)
        u = hx.GridFunction(grid1d, np.ones(grid1d.size), hx.NEUMANN_ZERO)
        assert abs(hx.phi_value(spec, u) - (0.25 + 0.1 / 1.5)) <= 1e-10

    def test_grad_constant_one_p3(self, grid3d):
        # |1|^(p-2) * 1 = 1 at every node (weight a = 1)
        a = hx.GridFunction(grid3d, np.ones(grid3d.size), hx.NEUMANN_ZERO)
        spec = hx.ProblemSpec(family="neumann-radial", grid=grid3d, p=3.0, a=a)
        out = hx.phi_grad(spec, spec.function(np.ones(grid3d.size)))
        assert np.max(np.abs(out.values - 1.0)) == 0.0

    def test_grad_zero_convention_sublinear(self, cc_spec):
        # |u|^(q-2) u extends continuously by 0 at u = 0
        out = hx.phi_grad(cc_spec, cc_spec.function(np.zeros(cc_spec.grid.size)))
        assert np.all(out.values == 0.0)
        assert np.all(np.isfinite(out.values))

    def test_grad_dirichlet_projection(self, grid1d):
        spec = hx.ProblemSpec(family="concave-convex", grid=grid1d, p=3.0, q=1.5, mu=0.0)
        vals = np.ones(grid1d.size)
        vals[0] = vals[-1] = 0.0
        out = hx.phi_grad(spec, spec.function(vals))
        assert out.values[0] == 0.0 and out.values[-1] == 0.0
        assert np.all(out.values[1:-1] == 1.0)

    def test_degenerate_input_error(self, cc_spec):
        vals = np.full(cc_spec.grid.size, 1e200)
        vals[cc_spec.grid.boundary_indices(hx.DIRICHLET_ZERO)] = 0.0
        with pytest.raises(DegenerateInputError):
            hx.phi_grad(cc_spec, cc_spec.function(vals))

    @pytest.mark.parametrize("seed", range(4))
    def test_gradient_matches_finite_differences(self, seed, grid1d, grid3d):
        eps = 1e-5
        specs = [
            hx.ProblemSpec(family="concave-convex", grid=grid1d, p=4.0, q=1.5, mu=0.1),
            hx.ProblemSpec(
                family="nonhomogeneous",
                grid=grid1d,
                p=3.0,
                f=hx.GridFunction(grid1d, np.cos(np.pi * grid1d.nodes), hx.NEUMANN_ZERO),
            ),
            hx.ProblemSpec(
                family="neumann-radial",
                grid=grid3d,
                p=4.0,
                a=hx.GridFunction(grid3d, 1.0 + grid3d.nodes, hx.NEUMANN_ZERO),
            ),
        ]
        for spec in specs:
            grid = spec.grid
            u = bounded_dirichlet(grid, 100 + seed)
            h = bounded_dirichlet(grid, 200 + seed)
            if spec.bc == hx.NEUMANN_ZERO:
                u = hx.GridFunction(grid, u.values, hx.NEUMANN_ZERO)
                h = hx.GridFunction(grid, h.values, hx.NEUMANN_ZERO)
            up = spec.function(u.values + eps * h.values)
            dn = spec.function(u.values - eps * h.values)
            fd = (hx.phi_value(spec, up) - hx.phi_value(spec, dn)) / (2 * eps)
            inner = weighted_inner(spec.weights, hx.phi_grad(spec, u).values, h.values)
            assert abs(fd - inner) <= 1e-6 * max(1.0, abs(inner))
            fd_psi = (hx.psi_value(spec, up) - hx.psi_value(spec, dn)) / (2 * eps)
            inner_psi = weighted_inner(spec.weights, hx.psi_grad(spec, u).values, h.values)
            assert abs(fd_psi - inner_psi) <= 1e-6 * max(1.0, abs(inner_psi))


    @pytest.mark.parametrize("seed", range(4))
    def test_hessian_matches_finite_differences(self, seed, grid1d, grid3d):
        # Phi's Hessian is diagonal: along h, phi_grad moves by phi_hess * h
        eps = 1e-6
        specs = [
            hx.ProblemSpec(family="concave-convex", grid=grid1d, p=4.0, q=1.5, mu=0.1),
            hx.ProblemSpec(
                family="nonhomogeneous",
                grid=grid1d,
                p=3.0,
                f=hx.GridFunction(grid1d, np.cos(np.pi * grid1d.nodes), hx.NEUMANN_ZERO),
            ),
            hx.ProblemSpec(
                family="neumann-radial",
                grid=grid3d,
                p=4.0,
                a=hx.GridFunction(grid3d, 1.0 + grid3d.nodes, hx.NEUMANN_ZERO),
            ),
        ]
        for spec in specs:
            u = spec.function(bounded_dirichlet(spec.grid, 100 + seed).values)
            h = bounded_dirichlet(spec.grid, 200 + seed).values
            up = hx.phi_grad(spec, u.with_values(u.values + eps * h)).values
            dn = hx.phi_grad(spec, u.with_values(u.values - eps * h)).values
            fd = (up - dn) / (2 * eps)
            np.testing.assert_allclose(phi_hess(spec, u) * h, fd, rtol=1e-5, atol=1e-8)

    def test_hessian_zero_at_zero_and_boundary_nodes(self, cc_spec):
        # |u|^(q-2) is infinite where u vanishes, so those nodes carry zero
        vals = np.linspace(0.0, 1.0, cc_spec.grid.size) ** 2
        vals[cc_spec.grid.boundary_indices(hx.DIRICHLET_ZERO)] = 0.0
        vals[5] = 0.0
        hess = phi_hess(cc_spec, cc_spec.function(vals))
        assert np.isfinite(hess).all()
        assert hess[0] == hess[5] == hess[-1] == 0.0
        assert (hess[vals != 0.0] > 0.0).all()

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("family", list(FAMILY_TERMS))
    def test_matches_family_expression_bitwise(self, family, seed):
        # Phi, Phi', Phi'' and I' read the spec's terms, never the family;
        # each must equal its family's own formula, rounding included
        g = hx.RadialGrid(n=41, dim=3)
        spec = hx.ProblemSpec(family=family, grid=g, p=4.5, **FAMILY_TERMS[family](g))
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(g.size)
        v[rng.random(g.size) < 0.2] = 0.0
        v[~spec.operator.active] = 0.0
        u = spec.function(v)
        w, p, av, nz = spec.weights, spec.p, np.abs(v), v != 0.0
        with np.errstate(divide="ignore"):
            if family == "concave-convex":
                mu, q = spec.mu, spec.q
                phi = float(np.dot(w, av**p) / p + mu * np.dot(w, av**q) / q)
                sub = np.zeros_like(v)
                sub[nz] = av[nz] ** (q - 2.0) * v[nz]
                grad = av ** (p - 2.0) * v + mu * sub
                hess = np.where(nz, (p - 1.0) * av ** (p - 2.0) + mu * (q - 1.0) * av ** (q - 2.0), 0.0)
            elif family == "nonhomogeneous":
                f = spec.f.values
                phi = float(np.dot(w, av**p) / p + np.dot(w * f, v))
                grad = av ** (p - 2.0) * v + f
                hess = np.where(nz, (p - 1.0) * av ** (p - 2.0), 0.0)
            else:
                a = spec.a.values
                phi = float(np.dot(w, a * av**p) / p)
                grad = a * (av ** (p - 2.0) * v)
                hess = a * np.where(nz, (p - 1.0) * av ** (p - 2.0), 0.0)
        grad = np.where(spec.operator.active, grad, 0.0)
        hess = np.where(spec.operator.active, hess, 0.0)
        assert hx.phi_value(spec, u) == phi
        assert np.array_equal(hx.phi_grad(spec, u).values, grad)
        assert np.array_equal(phi_hess(spec, u), hess)
        assert np.array_equal(energy_grad(spec, u), spec.operator.apply(v) - grad)


class TestNormsAndEnergy:
    def test_zero_function_norms(self, cc_spec):
        assert cc_spec.geometry.h2_norm(np.zeros(cc_spec.grid.size)) == 0.0

    @given(c=st.floats(min_value=-8.0, max_value=8.0).filter(lambda x: abs(x) > 1e-3))
    @settings(max_examples=20, deadline=None)
    def test_norm_homogeneity(self, c):
        g = hx.RadialGrid(n=21, dim=1)
        geo = hx.H2Geometry(hx.build_radial_laplacian(g, hx.DIRICHLET_ZERO))
        u = random_dirichlet(g, 42)
        assert np.isclose(geo.h2_norm(c * u.values), abs(c) * geo.h2_norm(u.values), rtol=1e-10)

    def test_sine_profile_norms(self):
        g = hx.RadialGrid(n=201, dim=1)
        op = hx.build_radial_laplacian(g, hx.DIRICHLET_ZERO)
        vals = np.sin(np.pi * g.nodes)
        vals[0] = vals[-1] = 0.0
        h1_semi_sq = float(vals @ (op.stiffness @ vals))
        assert abs(h1_semi_sq - np.pi**2 / 2) <= 20 * g.h**2
        # second-order term dominates: ||A u|| ~ pi^2 ||u||_l2
        av = op.apply(vals)
        op_term = np.sqrt(weighted_inner(op.weights, av, av))
        l2 = np.sqrt(weighted_inner(op.weights, vals, vals))
        assert abs(op_term - np.pi**2 * l2) <= 0.01 * np.pi**2 * l2
        # the h2 norm is the sum of the three terms
        h2 = hx.H2Geometry(op).h2_norm(vals)
        assert h2**2 == pytest.approx(l2**2 + h1_semi_sq + op_term**2, rel=1e-12)

    def test_h2_zero_iff_zero(self, op1d, grid1d):
        geo = hx.H2Geometry(op1d)
        assert geo.h2_norm(random_dirichlet(grid1d, 9).values) > 1e-12
        assert geo.h2_norm(np.zeros(grid1d.size)) <= 1e-12

    def test_energy_identity_bitwise(self, cc_spec):
        u = random_dirichlet(cc_spec.grid, 13, scale=0.3)
        assert hx.energy(cc_spec, u) == hx.psi_value(cc_spec, u) - hx.phi_value(cc_spec, u)

    def test_energy_overflow_is_non_finite_without_warning(self, nr_spec):
        u = nr_spec.function(np.full(nr_spec.grid.size, 1e200))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = hx.energy(nr_spec, u)
        assert not np.isfinite(value)


class TestOperatorSharing:
    """ProblemSpec.operator builds one operator per (grid, bc) and
    shares it, factors included, while its grid lives."""

    @pytest.mark.parametrize(
        "make_grid", [lambda: hx.RadialGrid(n=57, dim=3), lambda: hx.Square2DGrid(m=9)], ids=["radial", "square"]
    )
    def test_equal_grids_share_one_operator(self, make_grid):
        g1, g2 = make_grid(), make_grid()
        assert g1 == g2 and g1 is not g2
        s1 = hx.ProblemSpec(family="concave-convex", grid=g1, p=3.0, q=1.5, mu=0.1)
        s2 = hx.ProblemSpec(family="concave-convex", grid=g2, p=4.0, q=1.2, mu=0.3)
        assert s1.operator is s2.operator
        assert s1.operator.form_solver is s2.operator.form_solver
        assert s1.operator.gram_solver is s2.operator.gram_solver

    def test_bc_and_kind_keep_operators_apart(self, grid3d):
        ball = hx.ProblemSpec(family="concave-convex", grid=grid3d, p=3.0, q=1.5, mu=0.1)
        a = hx.GridFunction(grid3d, 1.0 + grid3d.nodes, hx.NEUMANN_ZERO)
        cone = hx.ProblemSpec(family="neumann-radial", grid=grid3d, p=3.0, a=a)
        assert ball.operator is not cone.operator
        assert (ball.operator.bc, cone.operator.bc) == (hx.DIRICHLET_ZERO, hx.NEUMANN_ZERO)
        # the bc fixes the kind: -Lap on the ball, -Lap + I on the cone
        ones = np.ones(grid3d.size)
        assert not ball.operator.apply(ones)[:-2].any()
        assert np.array_equal(cone.operator.apply(ones), ones)

    def test_operator_lives_while_its_grid_lives(self, operator_counts):
        g = hx.RadialGrid(n=63, dim=1)
        spec = hx.ProblemSpec(family="concave-convex", grid=g, p=3.0, q=1.5, mu=0.5 * mu_star(1.0, 3.0, 1.5))
        cert, report = run_problem(spec)
        assert cert.verdict == "certified"
        op = weakref.ref(spec.operator)
        # the operator holds an equal copy of its grid, so no cache entry
        # keeps its own key alive
        assert op().grid == g and op().grid is not g
        del spec, cert, report
        # the next spec on the held grid finds the operator and both factors
        assert {"form_solver", "gram_solver"} <= vars(op()).keys()
        again = hx.ProblemSpec(family="concave-convex", grid=g, p=4.0, q=1.5, mu=0.1)
        assert again.operator is op()
        # no gc.collect(): a run leaves no reference cycle, so refcounting
        # frees the operator with the last of its grid and specs
        del again
        assert op() is not None
        del g
        assert op() is None
        builds, factors = operator_counts
        assert len(builds) == 1 and sorted(factors) == [False, True]
