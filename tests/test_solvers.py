import warnings

import numpy as np
import pytest
from scipy.optimize import NonlinearConstraint, minimize

import hintcvx as hx
from hintcvx import solvers
from hintcvx.principle import ball_start, certified_at_amplitude, mu_star, strong_residual
from hintcvx.convex_sets import DEFAULT_MEMBERSHIP_TOL
from hintcvx.solvers import LINEAR_SOLVE_RTOL
from hintcvx.grid import weighted_inner

from conftest import random_dirichlet


def tiny_cc_spec(mu=0.05, p=4.0, q=1.5):
    grid = hx.RadialGrid(n=5, dim=1)
    return hx.ProblemSpec(family="concave-convex", grid=grid, p=p, q=q, mu=mu)


def oracle_energy_tiny(interior, p, q, mu):
    """Hand-assembled energy on the n=5 interval grid, independent of the
    library's assembly: trapezoid weights, unit edge conductances / h."""
    interior = np.atleast_2d(interior)
    h = 0.25
    full = np.zeros((interior.shape[0], 5))
    full[:, 1:4] = interior
    psi = 0.5 * np.sum(np.diff(full, axis=1) ** 2, axis=1) / h
    w = np.array([h / 2, h, h, h, h / 2])
    phi = np.abs(full) ** p @ w / p + mu * (np.abs(full) ** q @ w) / q
    return psi - phi


def oracle_h2_gram_tiny():
    """Dense 3x3 Gram matrix of the h2 inner product on interior nodes."""
    h = 0.25
    S = (np.diag([2.0, 2.0, 2.0]) - np.diag([1.0, 1.0], 1) - np.diag([1.0, 1.0], -1)) / h
    W = np.diag([h, h, h])
    return W + S + S @ np.linalg.inv(W) @ S


class TestLinearSolve:
    def test_zero_rhs(self, op1d, grid1d):
        rhs = hx.GridFunction(grid1d, np.zeros(grid1d.size))
        v = hx.linear_solve(op1d, rhs)
        assert np.all(v.values == 0.0)

    def test_sine_eigenproblem(self):
        g = hx.RadialGrid(n=129, dim=1)
        op = hx.build_radial_laplacian(g, hx.DIRICHLET_ZERO)
        x = g.nodes
        rhs_vals = np.pi**2 * np.sin(np.pi * x)
        v = hx.linear_solve(op, hx.GridFunction(g, rhs_vals, hx.NEUMANN_ZERO))
        exact = np.sin(np.pi * x)
        exact[0] = exact[-1] = 0.0
        assert np.max(np.abs(v.values - exact)) <= 2.0 * g.h**2

    @pytest.mark.parametrize("seed", range(3))
    def test_residual_contract(self, op1d, grid1d, seed):
        rhs = random_dirichlet(grid1d, seed)
        v = hx.linear_solve(op1d, rhs)
        err = op1d.apply(v.values) - rhs.values
        res = np.sqrt(weighted_inner(op1d.weights, err, err))
        nrhs = np.sqrt(weighted_inner(op1d.weights, rhs.values, rhs.values))
        assert res <= LINEAR_SOLVE_RTOL * nrhs

    def test_iteration_limit_error(self, op1d, grid1d):
        # an inexact factor that even one refinement step cannot rescue:
        # the contract is checked against apply(), so the miss must surface
        exact = op1d.form_solver
        vars(op1d)["form_solver"] = lambda b: 0.5 * exact(b)
        rhs = random_dirichlet(grid1d, 7)
        with pytest.raises(hx.IterationLimitError) as err:
            hx.linear_solve(op1d, rhs)
        assert err.value.residual > 0.0

    def test_constant_offset_rejected_on_fine_radial_grid(self):
        # a factor off by a fixed c with ||A c||_w = 1e-7 ||b||_w: refinement
        # keeps the offset, and the rounding floor of the check (about
        # 2e-8 ||b||_w on this grid) must not let it through
        g = hx.RadialGrid(n=3201, dim=3)
        op = hx.build_radial_laplacian(g, hx.NEUMANN_ZERO)
        b = np.cos(0.5 * np.pi * g.nodes)
        c = np.cos(np.pi * g.nodes)
        scale = 1e-7 * np.sqrt(weighted_inner(op.weights, b, b))
        c *= scale / np.sqrt(weighted_inner(op.weights, op.apply(c), op.apply(c)))
        exact = op.form_solver
        vars(op)["form_solver"] = lambda rhs: exact(rhs) + c
        with pytest.raises(hx.IterationLimitError):
            hx.linear_solve(op, hx.GridFunction(g, b, hx.NEUMANN_ZERO))
        vars(op)["form_solver"] = exact
        hx.linear_solve(op, hx.GridFunction(g, b, hx.NEUMANN_ZERO))


class TestSolverConfig:
    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            hx.SolverConfig(max_iters=0)

    def test_tol_residual_is_a_constant(self):
        assert hx.SolverConfig().tol_residual == hx.SolverConfig.tol_residual == 1e-10
        with pytest.raises(TypeError):
            hx.SolverConfig(tol_residual=1e-6)


class TestProjectedGradient:
    def test_stationary_start_returns_immediately(self, grid1d):
        spec = hx.ProblemSpec(family="concave-convex", grid=grid1d, p=4.0, q=1.5, mu=0.0)
        K = hx.H2Ball(0.5, spec.geometry)
        zero = spec.function(np.zeros(spec.grid.size))
        u0, trace = hx.projected_gradient_minimize(spec, K, zero, hx.SolverConfig())
        assert np.all(u0.values == 0.0)
        assert len(trace) == 1 and trace.rows[0][2] == 0.0
        assert trace.reason == "vi_residual"

    def test_membership_precondition(self, grid1d):
        spec = hx.ProblemSpec(family="concave-convex", grid=grid1d, p=4.0, q=1.5, mu=0.1)
        K = hx.H2Ball(1e-8, spec.geometry)
        with pytest.raises(hx.MembershipError):
            hx.projected_gradient_minimize(spec, K, random_dirichlet(grid1d, 1), hx.SolverConfig())

    def test_negative_energy_nontrivial_minimizer(self):
        # small mu pulls the constrained minimum below zero at a nonzero point
        g = hx.RadialGrid(n=81, dim=1)
        spec = hx.ProblemSpec(family="concave-convex", grid=g, p=4.0, q=1.5, mu=0.2)
        K = hx.H2Ball(0.3, spec.geometry)
        u0, trace = hx.projected_gradient_minimize(spec, K, ball_start(spec, K.r), hx.SolverConfig())
        assert hx.energy(spec, u0) < 0.0
        l2 = np.sqrt(weighted_inner(spec.weights, u0.values, u0.values))
        assert l2 > 1e-5

    def test_trace_monotone_and_feasible(self):
        g = hx.RadialGrid(n=61, dim=1)
        spec = hx.ProblemSpec(family="concave-convex", grid=g, p=4.0, q=1.5, mu=0.15)
        K = hx.H2Ball(0.25, spec.geometry)
        u0, trace = hx.projected_gradient_minimize(spec, K, ball_start(spec, K.r), hx.SolverConfig())
        energies = np.array([row[1] for row in trace.rows])
        assert np.all(np.diff(energies) <= 1e-12)
        # the h2_norm column certifies feasibility of every reported iterate
        for row in trace.rows:
            assert row[4] <= K.r + 1e-9
        assert hx.contains(K, u0, 1e-9)

    def test_matches_bruteforce_oracle_tiny_grid(self):
        spec = tiny_cc_spec(mu=0.05)
        H = oracle_h2_gram_tiny()
        r = 0.3
        K = hx.H2Ball(r, spec.geometry)
        u0, _ = hx.projected_gradient_minimize(spec, K, ball_start(spec, r), hx.SolverConfig())
        e_pgd = hx.energy(spec, u0)

        rng = np.random.default_rng(99)
        z = rng.standard_normal((200_000, 3))
        z /= np.sqrt(np.einsum("ij,jk,ik->i", z, H, z))[:, None]
        radii = r * rng.uniform(0, 1, 200_000) ** (1 / 3)
        samples = z * radii[:, None]
        vals = oracle_energy_tiny(samples, spec.p, spec.q, spec.mu)
        best = samples[np.argmin(vals)]

        cons = NonlinearConstraint(lambda x: x @ H @ x, -np.inf, r**2)
        res = minimize(
            lambda x: oracle_energy_tiny(x, spec.p, spec.q, spec.mu)[0],
            best,
            method="SLSQP",
            constraints=cons,
            options={"ftol": 1e-14, "maxiter": 500},
        )
        assert res.success
        assert abs(e_pgd - res.fun) <= 1e-4

    def test_divergence_error_on_huge_start(self, cc_spec):
        # |u|^4 overflows while the H^2 norm, about 4e103, does not
        huge = random_dirichlet(cc_spec.grid, 2, scale=1e100)
        K = hx.H2Ball(1e120, cc_spec.geometry)
        assert hx.contains(K, huge)
        with pytest.raises(hx.DivergenceError):
            hx.projected_gradient_minimize(cc_spec, K, huge, hx.SolverConfig())

    def test_cone_rejected(self, nr_spec):
        # projected gradient drives the ball families; the cone is the
        # mountain pass's
        K = hx.MonotoneCone(nr_spec.grid, nr_spec.weights)
        ones = nr_spec.function(np.ones(nr_spec.grid.size))
        with pytest.raises(ValueError, match="H\\^2 ball"):
            hx.projected_gradient_minimize(nr_spec, K, ones, hx.SolverConfig())

    def test_h2_fallback_direction_accepted(self, monkeypatch):
        # on this binding ball the Psi-form direction fails its line search
        # at some iterates, and the H^2 Riesz direction takes the step
        accepted = []
        backtrack = solvers._backtrack

        def recorded(spec, K, u, directions, *rescale):
            pulled = []

            def numbered():
                for i, d in enumerate(directions):
                    pulled.append(i)
                    yield d

            try:
                yield from backtrack(spec, K, u, numbered(), *rescale)
            except GeneratorExit:  # the step rule took the last trial
                accepted.append(pulled[-1])
                raise

        monkeypatch.setattr(solvers, "_backtrack", recorded)
        g = hx.RadialGrid(n=201, dim=1)
        f = hx.GridFunction(g, 5.0 * np.sin(np.pi * g.nodes), hx.NEUMANN_ZERO)
        spec = hx.ProblemSpec(family="nonhomogeneous", grid=g, p=4.0, f=f, r=3.0)
        hx.run_problem(spec)
        assert 1 in accepted


class TestMountainPass:
    def test_constant_is_stationary_for_flat_weight(self, grid3d):
        # validates the stationarity test used by the driver
        a1 = hx.GridFunction(grid3d, np.ones(grid3d.size), hx.NEUMANN_ZERO)
        spec = hx.ProblemSpec(family="neumann-radial", grid=grid3d, p=4.0, a=a1)
        res = strong_residual(spec, spec.function(np.ones(grid3d.size)))
        assert res <= 1e-10

    def test_mpg_small_sphere_positive_energy(self, nr_spec):
        # mountain geometry: I > 0 on a small sphere inside the cone
        rng = np.random.default_rng(0)
        for _ in range(100):
            raw = np.maximum(np.maximum.accumulate(rng.standard_normal(nr_spec.grid.size)), 0.0)
            if raw.max() == 0.0:
                continue
            nrm = nr_spec.geometry.h2_norm(raw)
            u = nr_spec.function(raw * (1e-2 / nrm))
            assert hx.energy(nr_spec, u) > 0.0

    def test_mpg_violation_rejected(self, grid3d):
        # a = 0: I(t u) = t^2 Psi(u) grows along every ray, so there is no
        # ray maximum to start from
        a0 = hx.GridFunction(grid3d, np.zeros(grid3d.size), hx.NEUMANN_ZERO)
        spec = hx.ProblemSpec(family="neumann-radial", grid=grid3d, p=4.0, a=a0)
        K = hx.MonotoneCone(grid3d, spec.weights)
        with pytest.raises(hx.MPGError):
            hx.mountain_pass(spec, K, hx.SolverConfig())
        cert, report = hx.run_problem(spec)
        assert cert.error.startswith("solve: mountain-pass geometry")
        assert cert.verdict == "not-critical" and cert.u0 is None
        assert report.reason == "error" and report.iterations == 0

    def test_start_beyond_float_range_is_divergence(self, grid3d):
        # t* = (2 Psi(1) / (p Phi(1)))^(1/(p-2)) = 1e6^100 overflows
        a = hx.GridFunction(grid3d, np.full(grid3d.size, 1e-6), hx.NEUMANN_ZERO)
        spec = hx.ProblemSpec(family="neumann-radial", grid=grid3d, p=2.01, a=a)
        K = hx.MonotoneCone(grid3d, spec.weights)
        with pytest.raises(hx.DivergenceError, match="float range"):
            hx.mountain_pass(spec, K, hx.SolverConfig())
        cert, report = hx.run_problem(spec)
        assert cert.error.startswith("solve: ") and "float range" in cert.error
        assert cert.verdict == "not-critical" and cert.u0 is None
        assert report.reason == "error" and report.iterations == 0

    def test_wrong_family_rejected(self, grid1d):
        spec = hx.ProblemSpec(family="concave-convex", grid=grid1d, p=4.0, q=1.5, mu=0.1)
        K = hx.MonotoneCone(grid1d, spec.weights)
        with pytest.raises(ValueError):
            hx.mountain_pass(spec, K, hx.SolverConfig())

    @pytest.mark.parametrize("dim, p", [(1, 5000.0), (3, 15000.0)])
    def test_large_p_certifies_a_positive_profile(self, dim, p):
        # some ridge trials' Phi overflows here; rescaled by t* = 0 they
        # once made the zero profile a certified critical point
        g = hx.RadialGrid(n=41, dim=dim)
        a = hx.GridFunction(g, 1.0 + g.nodes, hx.NEUMANN_ZERO)
        spec = hx.ProblemSpec(family="neumann-radial", grid=g, p=p, a=a)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert, _ = hx.run_problem(spec)
        assert cert.verdict == "certified"
        assert cert.u0.values.min() > 0.0 and cert.mountain_pass_value > 0.0

    def test_converges_with_positive_path_value(self, nr_spec):
        K = hx.MonotoneCone(nr_spec.grid, nr_spec.weights)
        u0, trace, c = hx.mountain_pass(nr_spec, K, hx.SolverConfig(max_iters=400))
        assert trace.reason == "vi_residual"
        assert c > 0.0
        assert hx.vi_residual(nr_spec, K, u0) <= 1e-10
        assert strong_residual(nr_spec, u0) <= 1e-8
        assert hx.contains(K, u0, 1e-12)

    @staticmethod
    def _counted_run(monkeypatch):
        calls = []
        original = solvers.vi_residual
        monkeypatch.setattr(solvers, "vi_residual", lambda *args: calls.append(1) or original(*args))
        g = hx.RadialGrid(n=801, dim=3)
        a = hx.GridFunction(g, 1.0 + 3.0 * g.nodes, hx.NEUMANN_ZERO)
        spec = hx.ProblemSpec(family="neumann-radial", grid=g, p=3.0, a=a)
        _, trace, _ = hx.mountain_pass(spec, hx.MonotoneCone(g, spec.weights), hx.SolverConfig())
        return trace, calls

    def test_halving_test_residual_not_recomputed(self, monkeypatch):
        # three steps here are accepted by the halved VI residual; the loop
        # reuses that residual for the next row, so each row costs one call
        # (first-order steps only: no Newton hand-over)
        monkeypatch.setattr(solvers, "NEWTON_HANDOVER", 0.0)
        trace, calls = self._counted_run(monkeypatch)
        assert trace.reason == "vi_residual"
        assert len(trace) == 10
        assert len(calls) == 10

    def test_newton_residual_not_recomputed(self, monkeypatch):
        # the same run hands over to Newton steps; the loop accepts each on
        # the trial's VI residual and reuses it for the next row.  The run
        # ends on the first trial that does not halve the residual (here at
        # the cone's rounding floor, 1.3e-12), whose residual is one call more
        accepted = []
        newton = solvers._newton_step
        monkeypatch.setattr(solvers, "_newton_step", lambda *args: accepted.append(newton(*args)) or accepted[-1])
        trace, calls = self._counted_run(monkeypatch)
        assert trace.reason == "vi_residual"
        assert len(accepted) == 3 and accepted[-1] is None and None not in accepted[:-1]
        assert len(trace) == 5
        assert len(calls) == len(trace) + 1


def _pg_run(cfg):
    g = hx.RadialGrid(n=61, dim=1)
    spec = hx.ProblemSpec(family="concave-convex", grid=g, p=4.0, q=1.5, mu=0.15)
    K = hx.H2Ball(0.25, spec.geometry)
    u, trace = hx.projected_gradient_minimize(spec, K, ball_start(spec, K.r), cfg)
    return spec, u, trace


def _mp_run(cfg):
    g = hx.RadialGrid(n=81, dim=3)
    a = hx.GridFunction(g, 1.0 + g.nodes, hx.NEUMANN_ZERO)
    spec = hx.ProblemSpec(family="neumann-radial", grid=g, p=4.0, a=a)
    K = hx.MonotoneCone(g, spec.weights)
    u, trace, _ = hx.mountain_pass(spec, K, cfg)
    return spec, u, trace


@pytest.mark.parametrize("run", [_pg_run, _mp_run], ids=["projected-gradient", "mountain-pass"])
class TestTermination:
    def test_max_iters_records_last_point(self, run):
        spec, u, trace = run(hx.SolverConfig(max_iters=1))
        assert trace.reason == "max_iters"
        assert len(trace) == 2
        assert trace.rows[-1][0] == 1
        assert trace.rows[-1][1] == hx.energy(spec, u)

    def test_no_acceptable_trial_stalls_the_line_search(self, run, monkeypatch):
        monkeypatch.setattr(solvers, "MAX_BACKTRACKS", 0)
        monkeypatch.setattr(solvers, "NEWTON_HANDOVER", 0.0)
        _, _, trace = run(hx.SolverConfig())
        assert trace.reason == "line-search-stalled"
        assert len(trace) == 1


def _nonhomogeneous(dim, amp, r):
    g = hx.RadialGrid(n=201, dim=dim)
    f = hx.GridFunction(g, amp * np.sin(np.pi * g.nodes), hx.NEUMANN_ZERO)
    return hx.ProblemSpec(family="nonhomogeneous", grid=g, p=3.0, f=f, r=r)


class TestStepStop:
    """Stage i stops ``step`` only on a null step, one whose accepted trial
    equals the iterate; short steps that still move go on to the VI test."""

    def test_null_step_stops_on_step(self):
        # projected gradient on a binding ball reaches a fixed point of its
        # step rule: Armijo admits the unchanged point, whose predicted
        # decrease is zero
        _, report = hx.run_problem(_nonhomogeneous(1, 5.0, 3.0))
        rows = report.trace.rows
        assert report.reason == "step"
        assert len(rows) == 9
        assert rows[-1][1] == rows[-2][1]
        assert rows[-1][4] == rows[-2][4]

    @pytest.mark.parametrize("dim", [2, 3])
    def test_short_ball_steps_reach_the_vi_tolerance(self, dim):
        _, report = hx.run_problem(_nonhomogeneous(dim, 0.5, 0.01))
        assert report.reason == "vi_residual"
        assert report.trace.rows[-1][2] <= 1e-10

    def test_short_ridge_steps_reach_the_vi_tolerance(self):
        g = hx.RadialGrid(n=801, dim=3)
        a = hx.GridFunction(g, 1.0 + 0.75 * g.nodes, hx.NEUMANN_ZERO)
        cert, report = hx.run_problem(hx.ProblemSpec(family="neumann-radial", grid=g, p=4.0, a=a))
        assert report.reason == "vi_residual"
        assert report.trace.rows[-1][2] <= 1e-10
        assert cert.mountain_pass_value == pytest.approx(0.6696071385975798, rel=1e-10)


def _neumann(n, dim, p, slope):
    g = hx.RadialGrid(n=n, dim=dim)
    a = hx.GridFunction(g, 1.0 + slope * g.nodes, hx.NEUMANN_ZERO)
    return hx.ProblemSpec(family="neumann-radial", grid=g, p=p, a=a)


def _singular_solve(op, shift, rhs):
    raise np.linalg.LinAlgError("singular matrix")


class TestNewtonFinish:
    """Stage i on radial grids hands over to guarded Newton steps once the
    VI residual is at or below NEWTON_HANDOVER.  First-order descent alone
    stalls on the runs below, or reaches the tolerance only slowly."""

    @pytest.mark.parametrize("p", [3.0, 4.0])
    @pytest.mark.parametrize("slope", [0.5, 3.0])
    def test_fine_interval_certifies(self, p, slope):
        # first-order descent stopped line-search-stalled at VI 1.3e-9-6.8e-9
        cert, report = hx.run_problem(_neumann(3201, 1, p, slope))
        assert cert.verdict == "certified"
        assert report.reason == "vi_residual"

    @pytest.mark.parametrize("p", [8.0, 12.0])
    def test_large_p_certifies(self, p):
        # first-order descent stopped at VI 1.5e-5 (p=8) and 7.5e-6 (p=12)
        cert, report = hx.run_problem(_neumann(401, 1, p, 1.0))
        assert cert.verdict == "certified"
        assert report.reason == "vi_residual"

    @pytest.mark.parametrize(
        "slope, c_first_order",
        [
            (0.3370234683976415, 0.8356702959060466),
            (1.772529699413309, 0.44856061925049884),
            (0.6286961477084734, 0.7111371087077523),
            (0.46973854950012267, 0.7740155676764535),
        ],
    )
    def test_stalled_dim3_runs_certify_at_the_same_level(self, slope, c_first_order):
        # dim 3, n=3201: first-order descent stopped line-search-stalled at
        # VI 1.1e-9-2.8e-9, at the ray maximum c_first_order
        cert, report = hx.run_problem(_neumann(3201, 3, 4.0, slope))
        assert cert.verdict == "certified"
        assert report.reason == "vi_residual"
        assert cert.mountain_pass_value == pytest.approx(c_first_order, rel=1e-9)

    def test_fine_dim3_run_takes_few_rows(self):
        # first-order descent took 135 rows here, most accepted on a halved
        # VI residual.  The run still ends line-search-stalled: the cone's VI
        # residual has a rounding floor of 1.37e-10 at this size, above
        # tol_residual
        cert, report = hx.run_problem(_neumann(12801, 3, 4.0, 0.5))
        assert cert.verdict == "certified"
        assert report.iterations <= 20

    def test_fine_concave_convex_certifies(self):
        # first-order descent reached VI 7e-11 with a strong residual of
        # 1.36e-6, and the run was not-critical
        g = hx.RadialGrid(n=51201, dim=1)
        spec = hx.ProblemSpec(family="concave-convex", grid=g, p=3.0, q=1.5, mu=0.2 * mu_star(1.0, 3.0, 1.5))
        cert, _ = hx.run_problem(spec)
        assert cert.verdict == "certified"

    @pytest.mark.parametrize("n", [201, 801])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_certified_ball_runs_stay_certified(self, n, dim):
        # the runs of the binding-ball matrix (amplitudes 0.5 and 5, r 0.01,
        # 0.3 and 3.0) that certify
        g = hx.RadialGrid(n=n, dim=dim)
        f = hx.GridFunction(g, 0.5 * np.sin(np.pi * g.nodes), hx.NEUMANN_ZERO)
        cert, report = hx.run_problem(hx.ProblemSpec(family="nonhomogeneous", grid=g, p=3.0, f=f, r=3.0))
        assert cert.verdict == "certified"
        assert report.reason == "vi_residual"

    def test_ordinary_run_keeps_its_level(self):
        # a radial-large op that first-order descent certified in 15 rows at
        # c = 0.5746898610882595; the Newton steps start inside the cone and
        # stay at the same critical point
        cert, report = hx.run_problem(_neumann(801, 3, 4.0, 1.0928791583140323))
        assert cert.verdict == "certified"
        assert len(report.trace) <= 8
        assert cert.mountain_pass_value == pytest.approx(0.5746898610882595, rel=1e-9)

    def test_newton_goes_on_below_the_tolerance(self):
        # nonhomogeneous dim 1, n=201, p=4, r=0.1255 at the forcing
        # amplitude first-order descent certified: the Newton step lands at
        # VI 9.7e-11, just under tol_residual, with a strong residual of
        # 2.7e-6; one more Newton step takes both to rounding
        g = hx.RadialGrid(n=201, dim=1)
        f = hx.GridFunction(g, np.sin(np.pi * g.nodes), hx.NEUMANN_ZERO)
        r = 0.12552897543352587
        template = hx.ProblemSpec(family="nonhomogeneous", grid=g, p=4.0, f=f, r=r)
        assert certified_at_amplitude(template, r, hx.SolverConfig(), 0.11877346992492677)

    def test_newton_stops_at_the_energy_floor(self):
        # without forcing the solution is 0, which Newton steps approach by
        # a factor of about 1e-14 each; the run stops once the VI residual
        # is under the energy's rounding floor
        g = hx.RadialGrid(n=201, dim=1)
        f = hx.GridFunction(g, np.zeros(g.size), hx.NEUMANN_ZERO)
        spec = hx.ProblemSpec(family="nonhomogeneous", grid=g, p=4.0, f=f, r=0.1255)
        cert, report = hx.run_problem(spec)
        assert cert.verdict == "certified"
        assert report.reason == "vi_residual"
        assert len(report.trace) == 3

    @pytest.mark.parametrize(
        ("max_iters", "reason", "verdict", "rows"),
        [(6, "vi_residual", "certified", 7), (5, "max_iters", "not-critical", 6)],
    )
    def test_last_allowed_step_to_the_tolerance_ends_vi_residual(self, max_iters, reason, verdict, rows):
        # the ridge of a = 1 + r takes 7 rows; with max_iters=6 the last
        # allowed step lands at VI 1.6e-13, so the run that ran out of
        # iterations is relabelled vi_residual and certifies
        cert, report = hx.run_problem(_neumann(201, 1, 4.0, 1.0), hx.SolverConfig(max_iters=max_iters))
        assert report.reason == reason
        assert cert.verdict == verdict
        assert len(report.trace) == rows
        assert (report.trace.rows[-1][2] <= hx.SolverConfig().tol_residual) == (reason == "vi_residual")

    @pytest.mark.parametrize(
        ("dim", "p", "forcing"),
        [(2, 4.0, lambda x: 1.0 - x**2), (3, 3.0, lambda x: 0.5 * (0.5 + x))],
        ids=["dim2", "dim3"],
    )
    def test_newton_trial_on_the_ball_may_raise_the_energy(self, dim, p, forcing):
        # nonhomogeneous, n=3201, r=3: from VI 4.3e-8 (dim 2) and 3.2e-8
        # (dim 3) the Newton trial takes the residual to about 8e-17 and
        # raises the energy by 6.5e-13 (dim 2).  A test that rejects a rise
        # beyond 1e-13 (1 + |I|) stops these runs on a null first-order
        # step, not-critical; a critical point certifies whether or not the
        # energy fell on the way to it
        g = hx.RadialGrid(n=3201, dim=dim)
        f = hx.GridFunction(g, forcing(g.nodes), hx.NEUMANN_ZERO)
        cert, report = hx.run_problem(hx.ProblemSpec(family="nonhomogeneous", grid=g, p=p, f=f, r=3.0))
        assert report.reason == "vi_residual"
        assert cert.verdict == "certified"
        assert len(report.trace) == 4

    def test_square_takes_no_newton_step(self, monkeypatch):
        attempts = []
        newton = solvers._newton_step
        monkeypatch.setattr(solvers, "_newton_step", lambda *args: attempts.append(1) or newton(*args))
        g = hx.Square2DGrid(m=24)
        spec = hx.ProblemSpec(family="concave-convex", grid=g, p=4.0, q=1.5, mu=0.1)
        cert, _ = hx.run_problem(spec)
        assert cert.verdict == "certified"
        assert attempts == []

    def test_rejected_trials_are_retried_above_the_certificate_tolerance(self, monkeypatch):
        # a trial that fails its guards is replaced by the first-order step,
        # and the next iterate tries Newton again; the attempts end at the
        # first rejection within the certificate's VI tolerance, where a
        # trial that does not halve the residual has met its rounding floor
        attempts = []
        monkeypatch.setattr(solvers, "_newton_step", lambda spec, K, u, rho: attempts.append(rho))
        cert, report = hx.run_problem(_neumann(801, 3, 3.0, 3.0))
        assert report.reason == "vi_residual"
        assert cert.verdict == "certified"
        above = [row[2] for row in report.trace.rows if DEFAULT_MEMBERSHIP_TOL < row[2] <= solvers.NEWTON_HANDOVER]
        assert len(above) > 1
        assert attempts[:-1] == above
        assert attempts[-1] <= DEFAULT_MEMBERSHIP_TOL

    @pytest.mark.parametrize(
        ("dim", "n", "p", "c"),
        [(1, 201, 16.0, 0.4289054073527145), (3, 401, 30.0, 1.9532852952322561)],
        ids=["dim1", "dim3"],
    )
    def test_near_constant_weight_above_p_star_certifies(self, dim, n, p, c):
        # a = 1 + 0.001 r above the bifurcation threshold p* = 1 + lambda_2:
        # Newton trials are rejected on the way down from the constant's ray
        # maximum, and a run that gave up on Newton at the first of them
        # stalled not-critical (47 rows in dim 1, 62 in dim 3).  The
        # certified profile is nonconstant, below the constant's level
        spec = _neumann(n, dim, p, 0.001)
        cert, report = hx.run_problem(spec)
        assert report.reason == "vi_residual"
        assert cert.verdict == "certified"
        assert cert.mountain_pass_value == pytest.approx(c, rel=1e-9)
        constant = solvers.ray_rescale(spec, spec.function(np.ones(spec.grid.size)))
        assert cert.mountain_pass_value < hx.energy(spec, constant) - 1e-3

    @pytest.mark.parametrize(
        "solve_shifted",
        [
            pytest.param(_singular_solve, id="singular"),
            pytest.param(lambda op, shift, rhs: np.full_like(rhs, np.inf), id="non-finite-trial"),
            # the trial u + 1e200 is a constant, in the cone, whose energy overflows
            pytest.param(lambda op, shift, rhs: np.full_like(rhs, -1e200), id="non-finite-energy"),
        ],
    )
    def test_newton_guards_reject_and_the_run_goes_on(self, monkeypatch, solve_shifted):
        monkeypatch.setattr(hx.EllipticOperator, "solve_shifted", solve_shifted)
        results = []
        newton = solvers._newton_step
        monkeypatch.setattr(solvers, "_newton_step", lambda *args: results.append(newton(*args)) or results[-1])
        cert, report = hx.run_problem(_neumann(801, 3, 3.0, 3.0))
        assert len(results) > 1
        assert results == [None] * len(results)
        assert report.reason == "vi_residual"
        assert cert.verdict == "certified"


class TestIterTrace:
    def test_csv_roundtrip(self, tmp_path):
        trace = hx.IterTrace()
        trace.append(0, -1.0, 0.5, float("nan"), 0.25)
        trace.append(1, -2.0, 0.1, 1.0, 0.30)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,energy,vi_residual,step,h2_norm"
        assert len(lines) == 3
        data = np.genfromtxt(path, delimiter=",", skip_header=1)
        assert data.shape == (2, 5)
        np.testing.assert_allclose(data[1], [1, -2.0, 0.1, 1.0, 0.30])
