import collections
import json
import math
import sys
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

import hintcvx as hx
from hintcvx import convex_sets, functionals, principle
from hintcvx.grid import weighted_inner
from hintcvx.principle import (
    PROBE_DOUBLINGS,
    PROBE_GROWTH,
    PROBE_RESOLUTION,
    PROBE_S_START,
    VERDICT_CERTIFIED,
    VERDICT_NOT_CRITICAL,
    VERDICT_STEP_II_FAILED,
    certified_at_amplitude,
    default_radius,
    non_monotone_flips,
    run_problem,
    step_ii_verify,
    strong_residual,
)

from conftest import OVERFLOWING_STARTS


def window_defect(C1, mu, p, q):
    return lambda r: C1 * r ** (p - 1) + C1 * mu * r ** (q - 1) - r


def _certified_spec(family):
    """Radial n=201 specs that certify: concave-convex dim 1 at mu*/2 and
    neumann-radial dim 3 with a = 1 + r/2."""
    if family == "concave-convex":
        g = hx.RadialGrid(n=201, dim=1)
        return hx.ProblemSpec(family=family, grid=g, p=3.0, q=1.5, mu=0.5 * hx.mu_star(1.0, 3.0, 1.5))
    g = hx.RadialGrid(n=201, dim=3)
    a = hx.GridFunction(g, 1.0 + 0.5 * g.nodes, hx.NEUMANN_ZERO)
    return hx.ProblemSpec(family=family, grid=g, p=4.0, a=a)


class TestRadiusWindow:
    def test_mu_zero_closed_form(self):
        # g(r) = r^2 - r <= 0 on (0, 1]
        r1, r2 = hx.radius_window(1.0, 0.0, 3.0, 1.5)
        assert r1 == 0.0
        assert abs(r2 - 1.0) <= 1e-9

    def test_mu_zero_exact_root(self):
        assert hx.radius_window(1.0, 0.0, 3.0, 1.5) == (0.0, 1.0)
        assert hx.radius_window(0.25, 0.0, 4.0, 1.5) == (0.0, 2.0)

    def test_pinned_oracle_values(self):
        # frozen from a 30-digit bisection oracle on g
        r1, r2 = hx.radius_window(1.0, 0.1, 3.0, 1.5)
        assert abs(r1 - 0.010207315069019311) <= 1e-9
        assert abs(r2 - 0.8942525492722156) <= 1e-9

    def test_live_brentq_cross_check(self):
        C1, mu, p, q = 0.8, 0.15, 3.5, 1.3
        r1, r2 = hx.radius_window(C1, mu, p, q)
        g = window_defect(C1, mu, p, q)
        rmin = (mu * (2 - q) / (p - 2)) ** (1 / (p - q))
        assert abs(r1 - brentq(g, 1e-12, rmin, xtol=1e-14)) <= 1e-9
        assert abs(r2 - brentq(g, rmin, 50.0, xtol=1e-14)) <= 1e-9
        # r1 near (C1 mu)^(1/(2-q)), 1e-12 and 1e-20 in the last two cases,
        # where a bisection once stopped at its bracket end instead
        for C1, mu, p, q in ((C1, mu, p, q), (1.0, 1e-6, 4.0, 1.5), (1.0, 1e-4, 3.0, 1.8)):
            r1, r2 = hx.radius_window(C1, mu, p, q)
            g = window_defect(C1, mu, p, q)
            rmin = (mu * (2 - q) / (p - 2)) ** (1 / (p - q))
            lo = np.log(0.5 * (C1 * mu) ** (1 / (2 - q)))
            s1 = brentq(lambda s: g(np.exp(s)) / np.exp(s), lo, np.log(rmin), xtol=1e-14)
            assert abs(r1 - np.exp(s1)) <= 1e-9 * np.exp(s1)
            assert abs(r2 - brentq(g, rmin, 50.0, xtol=1e-14)) <= 1e-9

    def test_empty_above_mu_star(self):
        star = hx.mu_star(1.0, 3.0, 1.5)
        assert hx.radius_window(1.0, 1.01 * star, 3.0, 1.5) is None
        assert hx.radius_window(1.0, 0.99 * star, 3.0, 1.5) is not None

    def test_float_range_ends(self):
        # r2 ~ 1/C1 = 1e300, where r^(p-1) alone overflows inside the window
        assert hx.radius_window(1e-300, 1e-3, 3.0, 1.5)[1] == pytest.approx(1e300, rel=1e-12)
        # g overflows at its minimizer: the window is empty
        assert hx.radius_window(1.0, 1e308, 3.0, 1.5) is None
        with pytest.raises(ValueError, match="float range"):
            hx.radius_window(1e-300, 0.0, 2.0001, 1.5)
        with pytest.raises(ValueError, match="float range"):
            hx.mu_star(1e-300, 3.0, 1.5)
        # C1 (p - q) underflows to 0 here
        with pytest.raises(ValueError, match="float range"):
            hx.mu_star(5e-324, 2.2, 1.8)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            hx.radius_window(-1.0, 0.1, 3.0, 1.5)
        with pytest.raises(ValueError):
            hx.radius_window(1.0, 0.1, 3.0, 2.5)
        with pytest.raises(ValueError):
            hx.radius_window(1.0, 0.1, 1.5, 1.2)


class TestMuStar:
    def test_hand_calculus_value(self):
        # maximand r^(1/2) - r^(3/2) peaks at r = 1/3 with value 2/(3 sqrt 3)
        star = hx.mu_star(1.0, 3.0, 1.5)
        assert abs(star - 2.0 / (3.0 * np.sqrt(3.0))) <= 1e-9

    def test_golden_section_matches_scipy(self):
        C1, p, q = 0.7, 4.2, 1.4
        star = hx.mu_star(C1, p, q)
        cap = (1 / C1) ** (1 / (p - 2))
        res = minimize_scalar(
            lambda r: -(r - C1 * r ** (p - 1)) / (C1 * r ** (q - 1)),
            bounds=(1e-12, cap),
            method="bounded",
            options={"xatol": 1e-12},
        )
        assert abs(star + res.fun) <= 1e-9

    def test_monotone_decreasing_in_C1(self):
        stars = [hx.mu_star(c, 3.0, 1.5) for c in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(a > b for a, b in zip(stars, stars[1:]))
        assert stars[-1] > 0.0

    def test_window_consistency_sweep(self):
        rng = np.random.default_rng(1234)
        for _ in range(25):
            C1 = rng.uniform(0.3, 3.0)
            p = rng.uniform(2.3, 5.5)
            q = rng.uniform(1.1, 1.9)
            star = hx.mu_star(C1, p, q)
            assert hx.radius_window(C1, 0.97 * star, p, q) is not None
            assert hx.radius_window(C1, 1.03 * star, p, q) is None


class TestDefaultRadius:
    def test_log_midpoint(self):
        assert default_radius((0.01, 1.0)) == pytest.approx(0.1)

    def test_degenerate_left_endpoint(self):
        assert default_radius((0.0, 0.8)) == pytest.approx(0.4)


class TestStepII:
    def test_trivial_zero(self, grid1d):
        spec = hx.ProblemSpec(family="concave-convex", grid=grid1d, p=4.0, q=1.5, mu=0.0)
        K = hx.H2Ball(0.5, spec.geometry)
        v0, in_k, diag = step_ii_verify(spec, K, spec.function(np.zeros(spec.grid.size)))
        assert np.all(v0.values == 0.0)
        assert in_k
        assert diag["v0_h2"] == 0.0

    def test_constructed_violation(self, grid1d):
        # huge amplitude with a tiny radius: v0 cannot stay inside
        spec = hx.ProblemSpec(family="concave-convex", grid=grid1d, p=4.0, q=1.5, mu=0.1)
        K = hx.H2Ball(1e-4, spec.geometry)
        vals = np.sin(np.pi * grid1d.nodes) * 10.0
        vals[0] = vals[-1] = 0.0
        v0, in_k, diag = step_ii_verify(spec, K, spec.function(vals))
        assert not in_k
        assert diag["v0_h2"] > K.r

    def test_regularity_chain_reported(self, grid1d):
        spec = hx.ProblemSpec(family="concave-convex", grid=grid1d, p=4.0, q=1.5, mu=0.1)
        K = hx.H2Ball(0.5, spec.geometry)
        vals = 0.01 * np.sin(np.pi * grid1d.nodes)
        vals[0] = vals[-1] = 0.0
        _, _, diag = step_ii_verify(spec, K, spec.function(vals))
        u0_h2 = diag["u0_h2"]
        expected = spec.C1 * (u0_h2**3.0 + spec.mu * u0_h2**0.5)
        assert diag["chain_bound"] == pytest.approx(expected)

    def test_regularity_chain_saturates_at_large_p(self):
        # u0_h2^(p-1) leaves the float range at p = 500; a float power
        # would raise OverflowError out of run_problem
        g = hx.RadialGrid(n=41, dim=3)
        a = hx.GridFunction(g, 1.0 + g.nodes, hx.NEUMANN_ZERO)
        spec = hx.ProblemSpec(family="neumann-radial", grid=g, p=500.0, a=a)
        cert, _ = run_problem(spec)
        assert cert.error is None
        assert cert.v0_in_K is not None


def _sin_forcing(dim, p, r):
    g = hx.RadialGrid(n=41, dim=dim)
    f = hx.GridFunction(g, np.sin(np.pi * g.nodes), hx.NEUMANN_ZERO)
    return hx.ProblemSpec(family="nonhomogeneous", grid=g, p=p, f=f, r=r)


def _run_without_warnings(spec):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cert, report = run_problem(spec)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    text = json.dumps(cert.to_json_dict())
    assert "Infinity" not in text and "NaN" not in text
    return cert, report


class TestOverflow:
    """Runs whose numbers leave the float range end in a certificate that
    says so, with no RuntimeWarning and no non-finite number in it."""

    @pytest.mark.parametrize("dim, p, r", OVERFLOWING_STARTS)
    def test_start_whose_vi_residual_overflows_is_an_error(self, dim, p, r):
        cert, report = _run_without_warnings(_sin_forcing(dim, p, r))
        assert cert.error == "solve: initial VI residual is not finite: it overflows"
        assert cert.verdict == VERDICT_NOT_CRITICAL
        assert report.reason == "error"

    def test_trials_whose_vi_residual_overflows_are_not_taken(self):
        # Armijo admits trials here whose VI residual overflows; taking one,
        # the run recorded an infinite residual and stage ii an infinite
        # strong residual
        cert, report = _run_without_warnings(_sin_forcing(1, 200.0, 100.0))
        assert cert.error is None
        assert cert.verdict == VERDICT_NOT_CRITICAL
        assert report.reason == "line-search-stalled"

    def test_stage_ii_overflow_is_an_error(self):
        # stage i ends at VI 9.5e140; A u0 - Phi'(u0) there has a weighted
        # norm past the float range
        cert, report = _run_without_warnings(_sin_forcing(3, 50.0, 1e4))
        assert cert.error == "step-ii: a stage-ii number is not finite: it overflows"
        assert cert.strong_residual is None and cert.v0 is None
        assert report.reason == "line-search-stalled"


class TestRunProblem:
    def test_trivial_certified_at_zero(self, grid1d):
        # mu = 0, f = 0: the only critical point in the ball is u = 0
        spec = hx.ProblemSpec(family="concave-convex", grid=grid1d, p=4.0, q=1.5, mu=0.0, r=0.5)
        cert, report = run_problem(spec)
        assert cert.verdict == VERDICT_CERTIFIED
        assert abs(cert.energy) <= 1e-20
        assert np.max(np.abs(cert.u0.values)) <= 1e-10

    @pytest.mark.parametrize("dim", [2, 3])
    def test_large_radius_ends_without_a_solve_error(self, dim):
        # zero forcing, p=4, r=1e6: a projected iterate's recomputed
        # ||u||_h2 exceeds r by 1.4e-9 to 1.5e-9, a few ulps of r, so with an
        # absolute membership slack of 1e-9 vi_residual raised and the run
        # ended on a solve error
        g = hx.RadialGrid(n=201, dim=dim)
        f = hx.GridFunction(g, np.zeros(g.size), hx.NEUMANN_ZERO)
        cert, report = run_problem(hx.ProblemSpec(family="nonhomogeneous", grid=g, p=4.0, f=f, r=1e6))
        assert cert.error is None
        assert report.reason != "error"

    def test_concave_convex_certifies(self):
        g = hx.RadialGrid(n=81, dim=1)
        star = hx.mu_star(1.0, 4.0, 1.5)
        spec = hx.ProblemSpec(family="concave-convex", grid=g, p=4.0, q=1.5, mu=star / 2)
        cert, report = run_problem(spec)
        assert cert.verdict == VERDICT_CERTIFIED
        assert cert.error is None
        assert cert.energy < 0.0
        assert cert.window is not None
        assert report.reason in ("vi_residual", "step")
        # theorem logic: certified implies both hypotheses hold numerically
        assert cert.vi_residual <= 1e-9 and cert.v0_in_K
        d = cert.u0.values - cert.v0.values
        direct = 0.5 * float(d @ (spec.operator.form @ d))
        assert abs(cert.eq10_defect - direct) <= 1e-10

    def test_neumann_radial_certifies(self):
        g = hx.RadialGrid(n=81, dim=3)
        a = hx.GridFunction(g, 1.0 + g.nodes, hx.NEUMANN_ZERO)
        spec = hx.ProblemSpec(family="neumann-radial", grid=g, p=4.0, a=a)
        cert, report = run_problem(spec)
        assert cert.verdict == VERDICT_CERTIFIED
        assert cert.mountain_pass_value > 0.0
        assert cert.positivity_min >= -1e-9
        assert cert.monotonicity_defect <= 1e-9
        assert cert.box_bound == pytest.approx(10 * np.max(np.abs(cert.u0.values)))

    # fine grids where a stage-ii solve short of its 1e-9 contract would
    # fail runs whose stage i converged
    def test_neumann_radial_certifies_dim3_n801(self):
        g = hx.RadialGrid(n=801, dim=3)
        a = hx.GridFunction(g, 1.0 + g.nodes, hx.NEUMANN_ZERO)
        spec = hx.ProblemSpec(family="neumann-radial", grid=g, p=3.0, a=a)
        cert, report = run_problem(spec)
        assert cert.error is None
        assert cert.verdict == VERDICT_CERTIFIED
        assert report.reason in ("vi_residual", "step")

    # the residual check itself rounds at about 2e-8 ||b||_w here, above the
    # relative contract; the attained residual is 1.0-1.4e-9 ||b||_w.  The
    # drawn slopes are ones where the ridge search once stalled at a VI
    # residual of 1.0-8.0e-9, just above the 1e-9 tolerance
    @pytest.mark.parametrize(
        "slope",
        [
            1.0,
            3.0,
            0.46819588996976946,
            1.0900911252385752,
            1.7572828543390342,
            0.4027179687523549,
            1.0762896851912818,
            1.270740743293554,
        ],
    )
    def test_neumann_radial_certifies_dim3_n3201(self, slope):
        g = hx.RadialGrid(n=3201, dim=3)
        a = hx.GridFunction(g, 1.0 + slope * g.nodes, hx.NEUMANN_ZERO)
        spec = hx.ProblemSpec(family="neumann-radial", grid=g, p=4.0, a=a)
        cert, report = run_problem(spec)
        assert cert.error is None
        assert cert.verdict == VERDICT_CERTIFIED
        assert report.reason in ("vi_residual", "step")

    # above the H^2 embedding exponent (2d-4)/(d-4) = 3, 4, 8/3: the cone
    # bounds its profiles by their value at r = 1, so no embedding caps p
    @pytest.mark.parametrize("dim, p", [(5, 8.0), (6, 6.0), (8, 10.0)])
    def test_neumann_radial_certifies_supercritical(self, dim, p):
        g = hx.RadialGrid(n=401, dim=dim)
        a = hx.GridFunction(g, 1.0 + g.nodes, hx.NEUMANN_ZERO)
        spec = hx.ProblemSpec(family="neumann-radial", grid=g, p=p, a=a)
        cert, report = run_problem(spec)
        assert cert.error is None
        assert cert.verdict == VERDICT_CERTIFIED
        assert cert.mountain_pass_value > 0.0
        assert report.reason == "vi_residual"

    def test_concave_convex_certifies_dim1_n3201(self):
        g = hx.RadialGrid(n=3201, dim=1)
        star = hx.mu_star(1.0, 4.0, 1.5)
        spec = hx.ProblemSpec(family="concave-convex", grid=g, p=4.0, q=1.5, mu=star / 2)
        cert, report = run_problem(spec)
        assert cert.error is None
        assert cert.verdict == VERDICT_CERTIFIED
        assert report.reason in ("vi_residual", "step")

    @pytest.mark.parametrize(
        "grid, repeats_before",
        [(hx.RadialGrid(n=201, dim=1), 42), (hx.Square2DGrid(m=40), 40)],
        ids=["radial-201", "square-40"],
    )
    def test_h2_norm_evaluated_once_per_point(self, monkeypatch, grid, repeats_before):
        # the stage-i trace, the VI residual's membership test, the ball
        # projection and stage ii each asked for the same points' norms
        calls = collections.Counter()
        h2_norm = hx.H2Geometry.h2_norm

        def counted(geo, values):
            calls[np.asarray(values, dtype=float).tobytes()] += 1
            return h2_norm(geo, values)

        monkeypatch.setattr(hx.H2Geometry, "h2_norm", counted)
        spec = hx.ProblemSpec(family="concave-convex", grid=grid, p=3.0, q=1.5, mu=0.5 * hx.mu_star(1.0, 3.0, 1.5))
        cert, _ = run_problem(spec)
        assert cert.verdict == VERDICT_CERTIFIED
        assert sum(calls.values()) - len(calls) <= repeats_before // 2

    @pytest.mark.parametrize("family", ["concave-convex", "neumann-radial"])
    def test_energy_grad_evaluated_once_per_point(self, monkeypatch, family):
        # the VI residual, the step rule that follows it on the same point
        # and the strong residual each asked for the same gradient
        calls = collections.Counter()
        phi_prime = functionals._phi_prime

        def counted(spec, v):
            # stage ii's phi_grad shares the helper; count energy_grad's calls
            if sys._getframe(1).f_code is functionals.energy_grad.__code__:
                calls[v.tobytes()] += 1
            return phi_prime(spec, v)

        monkeypatch.setattr(functionals, "_phi_prime", counted)
        spec = _certified_spec(family)
        cert, _ = run_problem(spec)
        assert cert.verdict == VERDICT_CERTIFIED
        assert len(calls) > 1
        assert sum(calls.values()) == len(calls)
        # one array is shared by every caller on the point
        g = functionals.energy_grad(spec, cert.u0)
        with pytest.raises(ValueError):
            g[0] = 1.0

    def test_cone_projection_loop_never_runs(self, monkeypatch):
        # every mountain-pass trial point is already nondecreasing, so the
        # pool-adjacent-violators loop is skipped on each projection
        fits, loops = [], []
        isotonic_fit, pav = convex_sets.isotonic_fit, convex_sets._pool_adjacent_violators
        monkeypatch.setattr(convex_sets, "isotonic_fit", lambda y, w: fits.append(1) or isotonic_fit(y, w))
        monkeypatch.setattr(convex_sets, "_pool_adjacent_violators", lambda y, w: loops.append(1) or pav(y, w))
        cert, _ = run_problem(_certified_spec("neumann-radial"))
        assert cert.verdict == VERDICT_CERTIFIED
        assert len(fits) > 0
        assert len(loops) == 0

    def test_empty_window_short_circuits(self, grid1d):
        star = hx.mu_star(1.0, 4.0, 1.5)
        spec = hx.ProblemSpec(family="concave-convex", grid=grid1d, p=4.0, q=1.5, mu=2 * star)
        cert, report = run_problem(spec)
        assert cert.verdict == VERDICT_STEP_II_FAILED
        assert cert.window is None
        assert "empty radius window" in cert.detail
        assert cert.u0 is None
        assert report.iterations == 0

    def test_vi_residual_above_tol_is_not_critical(self):
        cert, report = run_problem(_certified_spec("concave-convex"), hx.SolverConfig(max_iters=1))
        assert report.reason == "max_iters"
        assert cert.verdict == VERDICT_NOT_CRITICAL
        assert cert.detail.startswith("vi residual")

    def test_strong_residual_above_tol_is_not_critical(self, monkeypatch):
        monkeypatch.setattr(principle, "DEFAULT_TOL_STRONG", 0.0)
        cert, _ = run_problem(_certified_spec("neumann-radial"))
        assert cert.verdict == VERDICT_NOT_CRITICAL
        assert cert.detail.startswith("strong residual")

    def test_stage_ii_error_is_captured(self, monkeypatch):
        def fail(op, rhs):
            raise hx.IterationLimitError("linear solve failed its residual contract", residual=1.0)

        monkeypatch.setattr(principle, "linear_solve", fail)
        cert, report = run_problem(_certified_spec("concave-convex"))
        assert cert.error == "step-ii: linear solve failed its residual contract"
        assert cert.verdict == VERDICT_NOT_CRITICAL and cert.v0 is None
        assert report.reason == "vi_residual" and report.iterations > 1

    def test_interior_criticality_equivalence(self):
        # at the converged interior point, vi residual and strong residual
        # vanish together; off criticality both are large
        g = hx.RadialGrid(n=61, dim=1)
        spec = hx.ProblemSpec(family="concave-convex", grid=g, p=4.0, q=1.5, mu=0.2)
        cert, _ = run_problem(spec)
        assert cert.vi_residual <= 1e-9
        assert cert.strong_residual <= 1e-6
        K = hx.H2Ball(cert.problem["r"], spec.geometry)
        perturbed = spec.function(cert.u0.values * 0.5)
        rho_pert = hx.vi_residual(spec, K, perturbed)
        assert rho_pert > 1e-6
        assert strong_residual(spec, perturbed) > 1e-6
        # crude interior bound: rho <= ||g||_w * diam(K) in the ball geometry
        assert rho_pert <= strong_residual(spec, perturbed) * 2.0 * K.r

    def test_certificate_json_stable_keys(self, grid1d):
        spec = hx.ProblemSpec(family="concave-convex", grid=grid1d, p=4.0, q=1.5, mu=0.1, r=0.3)
        cert, _ = run_problem(spec)
        doc = cert.to_json_dict()
        for key in (
            "problem",
            "verdict",
            "vi_residual",
            "strong_residual",
            "v0_in_K",
            "eq10_defect",
            "duality_gap",
            "energy",
            "window",
            "norms",
        ):
            assert key in doc
        assert set(doc["window"]) == {"r1", "r2"}
        assert set(doc["norms"]) == {"u0_h2", "v0_h2"}
        assert doc["problem"]["family"] == "concave-convex"

    @pytest.mark.parametrize("dim, slope", [(1, 0.5), (3, 1.0)])
    def test_duality_gap_is_second_order_in_the_solve(self, dim, slope):
        # the form solve's error at n = 3201 is about 1e-9; a gap first order
        # in it read 3.7e-10 (dim 1) and 3.5e-11 (dim 3)
        g = hx.RadialGrid(n=3201, dim=dim)
        a = hx.GridFunction(g, 1.0 + slope * g.nodes, hx.NEUMANN_ZERO)
        cert, _ = run_problem(hx.ProblemSpec(family="neumann-radial", grid=g, p=4.0, a=a))
        assert cert.verdict == VERDICT_CERTIFIED
        assert abs(cert.duality_gap) <= 2e-11


class TestRefinement:
    """The discretisation is second order: on nested grids each halving of
    h shrinks the change in a certified value about fourfold."""

    @staticmethod
    def concave_convex_energy(n, dim):
        mu = 0.5 * hx.mu_star(1.0, 3.0, 1.5)
        spec = hx.ProblemSpec(family="concave-convex", grid=hx.RadialGrid(n=n, dim=dim), p=3.0, q=1.5, mu=mu)
        cert, _ = run_problem(spec)
        assert cert.verdict == VERDICT_CERTIFIED
        return cert.energy

    @staticmethod
    def neumann_radial_value(n, dim):
        g = hx.RadialGrid(n=n, dim=dim)
        a = hx.GridFunction(g, 1.0 + g.nodes, hx.NEUMANN_ZERO)
        cert, _ = run_problem(hx.ProblemSpec(family="neumann-radial", grid=g, p=4.0, a=a))
        assert cert.verdict == VERDICT_CERTIFIED
        return cert.mountain_pass_value

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("value", ["concave_convex_energy", "neumann_radial_value"])
    def test_successive_changes_shrink_fourfold(self, value, dim):
        values = [getattr(self, value)(n, dim) for n in (101, 201, 401, 801)]
        changes = np.diff(values)
        ratios = changes[:-1] / changes[1:]
        assert np.all((3.5 <= ratios) & (ratios <= 4.5)), ratios


class TestCertificationSoundness:
    @staticmethod
    def dense_radial_operator(n, dim, dirichlet, plus_identity):
        """Second assembly path: dense loops over edges and cells."""
        from math import gamma, pi

        h = 1.0 / (n - 1)
        omega = 1.0 if dim == 1 else 2 * pi ** (dim / 2) / gamma(dim / 2)
        r = np.linspace(0.0, 1.0, n)
        lo = np.maximum(r - h / 2, 0.0)
        hi = np.minimum(r + h / 2, 1.0)
        w = omega * (hi**dim - lo**dim) / dim
        S = np.zeros((n, n))
        for j in range(n - 1):
            c = omega * ((j + 0.5) * h) ** (dim - 1) / h
            S[j, j] += c
            S[j + 1, j + 1] += c
            S[j, j + 1] -= c
            S[j + 1, j] -= c
        bnd = ([0, n - 1] if dim == 1 else [n - 1]) if dirichlet else []
        for b in bnd:
            S[b, :] = 0.0
            S[:, b] = 0.0

        def apply(v):
            out = S @ v
            if plus_identity:
                out = out + w * v
            out = out / w
            for b in bnd:
                out[b] = 0.0
            return out

        return apply, w

    def test_strong_residual_reevaluated_second_path(self):
        # certified verdicts must survive a from-scratch operator re-assembly
        g1 = hx.RadialGrid(n=61, dim=1)
        cc = hx.ProblemSpec(family="concave-convex", grid=g1, p=4.0, q=1.5, mu=0.2)
        g3 = hx.RadialGrid(n=61, dim=3)
        a = hx.GridFunction(g3, 1.0 + g3.nodes, hx.NEUMANN_ZERO)
        nr = hx.ProblemSpec(family="neumann-radial", grid=g3, p=4.0, a=a)
        for spec, dirichlet, plus_id in ((cc, True, False), (nr, False, True)):
            cert, _ = run_problem(spec)
            assert cert.verdict == VERDICT_CERTIFIED
            apply2, w2 = self.dense_radial_operator(
                spec.grid.n, spec.grid.dim, dirichlet, plus_id
            )
            res_vec = apply2(cert.u0.values) - hx.phi_grad(spec, cert.u0).values
            res2 = float(np.sqrt(np.dot(w2, res_vec**2)))
            assert res2 <= 1e-6
            assert abs(res2 - cert.strong_residual) <= 1e-8


class TestForcingProbe:
    def make_template(self, n=41):
        g = hx.RadialGrid(n=n, dim=1)
        f = hx.GridFunction(g, np.sin(np.pi * g.nodes), hx.NEUMANN_ZERO)
        return hx.ProblemSpec(family="nonhomogeneous", grid=g, p=4.0, f=f)

    def test_zero_amplitude_certifies(self):
        spec = self.make_template()
        assert certified_at_amplitude(spec, 0.5, hx.SolverConfig(), 0.0)

    def test_probe_endpoints(self):
        spec = self.make_template()
        evals = []
        lam = hx.forcing_threshold_probe(spec, 0.5, hx.SolverConfig(), trace_out=evals)
        assert lam > 0.0
        assert certified_at_amplitude(spec, 0.5, hx.SolverConfig(), lam)
        assert not certified_at_amplitude(spec, 0.5, hx.SolverConfig(), 2 * lam)
        assert non_monotone_flips(evals) == 0

    def test_threshold_shrinks_with_radius(self):
        # 3-point sweep: tighter balls admit less forcing
        spec = self.make_template(n=31)
        cfg = hx.SolverConfig()
        lams = [hx.forcing_threshold_probe(spec, r, cfg) for r in (0.5, 0.2, 0.05)]
        assert lams[0] > lams[1] > lams[2] > 0.0

    def test_probe_builds_one_operator(self, operator_counts):
        # every amplitude's spec shares the template's operator and factors,
        # and so does the slope that places the first amplitude
        builds, factors = operator_counts
        spec = self.make_template()
        evals = []
        hx.forcing_threshold_probe(spec, 0.5, hx.SolverConfig(), trace_out=evals)
        assert len(evals) == 4
        assert len(builds) == 1
        assert sorted(factors) == [False, True]

    @staticmethod
    def linear_root(spec, r):
        """Root of the margin's tangent at s = 0: (r + tol) / ||A^-1 f_dir||_h2,
        f_dir the unit-l2 direction of the template's forcing."""
        f = spec.f.values
        f_dir = f / math.sqrt(weighted_inner(spec.weights, f, f))
        slope = spec.geometry.h2_norm(spec.operator.solve_form(f_dir))
        return (r + convex_sets.DEFAULT_MEMBERSHIP_TOL) / slope

    def test_first_amplitude_is_the_linear_root(self, monkeypatch):
        # m(0) = r + tol needs no run; the first run is where the margin's
        # tangent at 0 crosses zero, and a positive lambda_hat never runs s = 0
        spec = self.make_template()
        self.model_pipeline(monkeypatch, lambda s: (s <= 0.3, 0.5 + (s - 0.3)))
        evals = []
        hx.forcing_threshold_probe(spec, 0.5, hx.SolverConfig(), trace_out=evals)
        assert evals[0][0] == pytest.approx(self.linear_root(spec, 0.5), rel=1e-14)
        assert 0.0 not in dict(evals)

    def test_nothing_certifies_not_even_zero_forcing(self, monkeypatch):
        # nothing certifies, not even s = 0: the search ends at 0 and its
        # run there raises
        self.model_pipeline(monkeypatch, lambda s: (False, 1.0))
        evals = []
        with pytest.raises(RuntimeError, match="no forcing amplitude certifies at r = 0.5, not even zero"):
            hx.forcing_threshold_probe(self.make_template(), 0.5, hx.SolverConfig(), trace_out=evals)
        assert evals[-1] == (0.0, False)
        assert len(evals) > 1 and all(s > 0.0 for s, _ in evals[:-1])

    @staticmethod
    def check_bracket(evals, lam):
        """lam is the largest certified amplitude the probe evaluated, and the
        smallest failed one lies within the probe's resolution above it,
        relative to the first amplitude when lam = 0."""
        assert lam == max(s for s, ok in evals if ok)
        s_fail = min(s for s, ok in evals if not ok)
        assert lam < s_fail
        assert s_fail - lam <= PROBE_RESOLUTION * (lam if lam > 0.0 else evals[0][0])

    @staticmethod
    def model_pipeline(monkeypatch, model):
        """Stand in for run_problem: model(s) gives the verdict at forcing
        amplitude s and ||v0||_h2 (None for no v0)."""

        def fake(spec, cfg=None):
            f = spec.f.values
            ok, v0_h2 = model(math.sqrt(weighted_inner(spec.weights, f, f)))
            verdict = VERDICT_CERTIFIED if ok else VERDICT_STEP_II_FAILED
            return principle.Certificate(problem={}, verdict=verdict, v0_h2_norm=v0_h2), None

        monkeypatch.setattr(principle, "run_problem", fake)

    def test_first_amplitude_fails(self):
        # lambda_hat ~ 4.74e-3 lies below PROBE_S_START; the bisection took 26
        # pipelines (0, 1e-2 and 24 halvings) and returned 0.004742395878.
        # The margin is concave, so its tangent's root overshoots lambda_hat
        spec = self.make_template(n=201)
        evals = []
        lam = hx.forcing_threshold_probe(spec, 0.005, hx.SolverConfig(), trace_out=evals)
        assert evals[0] == (pytest.approx(self.linear_root(spec, 0.005), rel=1e-14), False)
        assert len(evals) <= 4
        self.check_bracket(evals, lam)
        assert min(s for s, ok in evals if not ok) - lam <= PROBE_RESOLUTION * PROBE_S_START
        assert lam == pytest.approx(0.004742395878, rel=1e-7)

    def test_newton_finish_on_the_ball_keeps_the_threshold(self):
        # dim 2, n=801, p=3, r=3, f = r (1 - r^2): at s = 1.99767 a Newton
        # trial takes the VI from 1.5e-7 to 3.7e-15 and raises the energy by
        # 1.5e-13; a probe whose pipeline rejects that trial ends there
        # not-critical and returns 1.97686 after 30 pipelines.  The bordered
        # Newton solve of the threshold gives 2.6635563
        g = hx.RadialGrid(n=801, dim=2)
        f = hx.GridFunction(g, g.nodes * (1.0 - g.nodes**2), hx.NEUMANN_ZERO)
        spec = hx.ProblemSpec(family="nonhomogeneous", grid=g, p=3.0, f=f)
        evals = []
        lam = hx.forcing_threshold_probe(spec, 3.0, hx.SolverConfig(), trace_out=evals)
        assert lam == pytest.approx(2.6635563, rel=1e-7)
        assert len(evals) <= 10
        self.check_bracket(evals, lam)

    def test_nothing_positive_certifies(self, monkeypatch):
        # lambda_hat = 0 ends at the width PROBE_RESOLUTION * s1, s1 ~ 0.474 the
        # first amplitude: one secant step to just above s1 / 2 (the margin is
        # -0.5 there), 24 halvings, and then the one run at s = 0 that makes
        # lambda_hat an evaluated amplitude
        self.model_pipeline(monkeypatch, lambda s: (s == 0.0, 0.0 if s == 0.0 else 1.0))
        evals = []
        lam = hx.forcing_threshold_probe(self.make_template(), 0.5, hx.SolverConfig(), trace_out=evals)
        assert lam == 0.0
        self.check_bracket(evals, lam)
        assert evals[-1] == (0.0, True)
        assert [s for s, _ in evals].count(0.0) == 1
        assert len(evals) <= 27

    def test_never_fails(self, monkeypatch, caplog):
        self.model_pipeline(monkeypatch, lambda s: (True, 0.0))
        evals = []
        with caplog.at_level("WARNING", logger="hintcvx.principle"):
            lam = hx.forcing_threshold_probe(self.make_template(), 0.5, hx.SolverConfig(), trace_out=evals)
        reach = PROBE_S_START * 2.0**PROBE_DOUBLINGS
        assert lam == max(s for s, _ in evals) == reach
        assert all(ok for _, ok in evals)
        assert "never failed" in caplog.text
        # the linear root s1 ~ 0.474, then s1 * 8^k for k = 1..11, then the reach
        s1 = self.linear_root(self.make_template(), 0.5)
        assert [s for s, _ in evals] == [s1 * 8.0**k for k in range(12)] + [reach]

    @pytest.mark.parametrize("certified_h2, failed_h2", [(None, None), (1.0, 0.0)], ids=["missing", "wrong-sign"])
    def test_unusable_margins_bisect(self, monkeypatch, certified_h2, failed_h2):
        # certified exactly up to 0.3; margins r - ||v0||_h2 at r = 0.5 that
        # are missing, or negative where certified and positive where not
        self.model_pipeline(monkeypatch, lambda s: (s <= 0.3, certified_h2 if s <= 0.3 else failed_h2))
        evals = []
        lam = hx.forcing_threshold_probe(self.make_template(), 0.5, hx.SolverConfig(), trace_out=evals)
        self.check_bracket(evals, lam)
        assert lam == pytest.approx(0.3, rel=PROBE_RESOLUTION)
        # past the first failure every amplitude is the bracket's midpoint;
        # the bracket's certified end is s = 0 when nothing ran below it
        first_fail = next(i for i, (_, ok) in enumerate(evals) if not ok)
        lo = max([0.0] + [s for s, ok in evals[:first_fail] if ok])
        hi = evals[first_fail][0]
        for s, ok in evals[first_fail + 1:]:
            assert s == 0.5 * (lo + hi)
            lo, hi = (s, hi) if ok else (lo, s)

    def test_margin_counts_the_ball_slack(self, monkeypatch):
        # certified runs with r < ||v0||_h2 <= r + tol passed the ball test, so
        # their margins steer the search: read as r - ||v0||_h2 they would
        # disagree with the verdict and leave only bisection (29 runs)
        tol = convex_sets.DEFAULT_MEMBERSHIP_TOL
        self.model_pipeline(monkeypatch, lambda s: (s <= 0.3, 0.5 + tol * s / 0.3))
        evals = []
        lam = hx.forcing_threshold_probe(self.make_template(), 0.5, hx.SolverConfig(), trace_out=evals)
        self.check_bracket(evals, lam)
        assert len(evals) <= 8

    @pytest.mark.parametrize("order", [5, 9])
    def test_flat_margin_still_brackets(self, monkeypatch, order):
        # margin 0.5 + tol - (0.3 - s)^order below the threshold 0.3, linear
        # above it: the first amplitude (~0.474) fails and two secant steps
        # on the linear side reach 0.3 from above; as they left the bracket
        # [0, 0.3] wider than half of [0, 0.474], the halving rule bisects
        # once, to 0.15, and the secant from there to 0.3 ends the search
        # within the resolution
        tol = convex_sets.DEFAULT_MEMBERSHIP_TOL
        self.model_pipeline(
            monkeypatch,
            lambda s: (s <= 0.3, 0.5 + tol - (0.3 - s) ** order if s <= 0.3 else 0.5 + tol + (s - 0.3)),
        )
        evals = []
        lam = hx.forcing_threshold_probe(self.make_template(), 0.5, hx.SolverConfig(), trace_out=evals)
        self.check_bracket(evals, lam)
        assert lam == pytest.approx(0.3, rel=PROBE_RESOLUTION)
        assert len(evals) <= 5

    @pytest.mark.parametrize(
        "margin, threshold, runs",
        [
            (lambda s: 0.5 * (1.0 - s * s), 1.0, 16),
            (lambda s: 0.5 * (1.0 - s / 3.0) ** 9 if s <= 3.0 else 3.0 - s, 3.0, 26),
            (lambda s: 0.5 - s / 1.2 if s <= 0.6 else 0.6 - s, 0.6, 3),
        ],
        ids=["concave", "flat-order-9", "linear-kink"],
    )
    def test_growth_from_a_certified_first_amplitude(self, monkeypatch, margin, threshold, runs):
        # the first amplitude s1 ~ 0.474 certifies and the search grows s
        # towards the margin's root, by at most PROBE_GROWTH per step
        tol = convex_sets.DEFAULT_MEMBERSHIP_TOL
        self.model_pipeline(monkeypatch, lambda s: (margin(s) >= 0.0, 0.5 + tol - margin(s)))
        evals = []
        lam = hx.forcing_threshold_probe(self.make_template(), 0.5, hx.SolverConfig(), trace_out=evals)
        assert evals[0][1] is True
        self.check_bracket(evals, lam)
        assert lam == pytest.approx(threshold, rel=PROBE_RESOLUTION)
        assert all(b <= PROBE_GROWTH * a for (a, _), (b, _) in zip(evals, evals[1:]))
        assert len(evals) <= runs

    def test_verdict_flips_inside_the_ball(self):
        # p=3, r=0.05: amplitudes up to ~3.6e-7 relative below the margin's
        # root are not-critical (strong residual 2.3e-5) with v0 still in
        # the ball; the probe backs away from them instead of creeping
        template = self.make_template()
        spec = hx.ProblemSpec(family="nonhomogeneous", grid=template.grid, p=3.0, f=template.f)
        evals = []
        lam = hx.forcing_threshold_probe(spec, 0.05, hx.SolverConfig(), trace_out=evals)
        self.check_bracket(evals, lam)
        assert lam == pytest.approx(0.04739492655, rel=1e-7)
        assert len(evals) <= 12

    # guard configs (p=4, sin(pi x) forcing): dim, n, r and the lambda_hat
    # that the 24-step bisection on the verdict returned
    BISECTION_THRESHOLDS = [
        (1, 201, 0.1, 0.09484657287597657),
        (1, 201, 0.3, 0.2845077705383301),
        (1, 201, 0.6, 0.5687998390197755),
        (1, 801, 0.1, 0.09484667301177979),
        (1, 801, 0.3, 0.28450806617736824),
        (1, 801, 0.6, 0.5688004493713379),
        (3, 201, 0.1, 0.09527326583862304),
        (3, 201, 0.3, 0.285811185836792),
        (3, 201, 0.6, 0.5715642166137695),
        (3, 801, 0.1, 0.09527336597442626),
        (3, 801, 0.3, 0.2858114910125732),
        (3, 801, 0.6, 0.5715648460388183),
    ]

    @pytest.mark.parametrize("dim, n, r, bisected", BISECTION_THRESHOLDS)
    def test_matches_bisection_threshold(self, dim, n, r, bisected):
        g = hx.RadialGrid(n=n, dim=dim)
        f = hx.GridFunction(g, np.sin(np.pi * g.nodes), hx.NEUMANN_ZERO)
        spec = hx.ProblemSpec(family="nonhomogeneous", grid=g, p=4.0, f=f)
        cfg = hx.SolverConfig()
        evals = []
        lam = hx.forcing_threshold_probe(spec, r, cfg, trace_out=evals)
        assert lam == pytest.approx(bisected, rel=1e-7)
        assert len(evals) <= 4
        self.check_bracket(evals, lam)
        assert dict(evals)[lam] is True
        assert not certified_at_amplitude(spec, r, cfg, 2.0 * lam)

    def test_family_check(self, grid1d):
        spec = hx.ProblemSpec(family="concave-convex", grid=grid1d, p=4.0, q=1.5, mu=0.1)
        with pytest.raises(ValueError):
            hx.forcing_threshold_probe(spec, 0.5, hx.SolverConfig())

    def test_zero_direction_rejected(self, grid1d):
        f = hx.GridFunction(grid1d, np.zeros(grid1d.size), hx.NEUMANN_ZERO)
        spec = hx.ProblemSpec(family="nonhomogeneous", grid=grid1d, p=3.0, f=f)
        with pytest.raises(ValueError):
            hx.forcing_threshold_probe(spec, 0.5, hx.SolverConfig())


class TestSweepSharing:
    """A parameter sweep holds one grid and makes a fresh spec per
    parameter, as scripts/run_concave_convex.py and run_neumann_radial.py
    do: the grid's operator is built, and each factor made, once."""

    def test_concave_convex_sweep_over_mu(self, operator_counts):
        builds, factors = operator_counts
        g = hx.RadialGrid(n=201, dim=1)
        for frac in (0.25, 0.5, 0.75):
            spec = hx.ProblemSpec(family="concave-convex", grid=g, p=4.0, q=1.5, mu=frac * hx.mu_star(1.0, 4.0, 1.5))
            cert, _ = run_problem(spec)
            assert cert.verdict == VERDICT_CERTIFIED
        assert len(builds) == 1
        assert sorted(factors) == [False, True]

    def test_cone_sweep_over_the_weight(self, operator_counts):
        builds, factors = operator_counts
        g = hx.RadialGrid(n=201, dim=3)
        for slope in (0.5, 1.0, 2.0):
            a = hx.GridFunction(g, 1.0 + slope * g.nodes, hx.NEUMANN_ZERO)
            cert, _ = run_problem(hx.ProblemSpec(family="neumann-radial", grid=g, p=4.0, a=a))
            assert cert.verdict == VERDICT_CERTIFIED
        assert len(builds) == 1
        assert sorted(factors) == [False]


class TestWindowCorrectnessSweep:
    def test_seeded_tuples_interior_and_edges(self):
        rng = np.random.default_rng(777)
        for _ in range(100):
            C1 = rng.uniform(0.3, 3.0)
            p = rng.uniform(2.3, 5.0)
            q = rng.uniform(1.1, 1.9)
            star = hx.mu_star(C1, p, q)
            mu = rng.uniform(0.05, 0.9) * star
            window = hx.radius_window(C1, mu, p, q)
            assert window is not None
            r1, r2 = window
            g = window_defect(C1, mu, p, q)
            for r in np.linspace(r1, r2, 10):
                assert g(r) <= 1e-9
            assert g(r2 * 1.01) > 0.0
            if r1 > 0.0:
                assert g(r1 * 0.99) > 0.0

    def test_endpoints_are_roots_inside_the_window(self):
        # r1 once stopped at 2.29e-3 and 1.21e-4 in the first two cases,
        # and outside the window at g/r = +8.5e-14 in the third
        cases = [(1.0, 1e-6, 4.0, 1.5), (1.0, 1e-4, 3.0, 1.8), (1.0, 0.1, 3.0, 1.5)]
        rng = np.random.default_rng(2017)
        for _ in range(2000):
            p = rng.uniform(2.2, 6.0)
            q = rng.uniform(1.1, 1.9)
            cases.append((1.0, 10 ** rng.uniform(-3.0, 0.0) * hx.mu_star(1.0, p, q), p, q))
        for C1, mu, p, q in cases:
            g = window_defect(C1, mu, p, q)
            for r in hx.radius_window(C1, mu, p, q):
                # a root of g/r, inside the window up to the rounding of g
                assert r > 0.0
                assert abs(g(r) / r) <= 1e-8
                assert g(r) / r <= 1e-14
