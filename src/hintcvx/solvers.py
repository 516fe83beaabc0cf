"""Optimization drivers: the stage-ii linear solve, and one stage-i loop
(``_descend``: trace, termination tests, reason) run with two step rules
and a Newton finish.  Every solve with A, in either stage, uses the solver
cached on the operator (``EllipticOperator.form_solver``).  It and the H^2
Gram solve of the fallback direction come from the operator's one backend:
on radial grids a sparse LU factor of the form and one complex tridiagonal
(``gttrf``) factor for the Gram matrix, sine-basis diagonalisation on the
square.  The Newton system is tridiagonal on radial grids and solved there
by the same backend module (``EllipticOperator.solve_shifted``).

Descent directions are Riesz representatives of the energy gradient in the
quadratic-form inner product of Psi (one solve with A per step),
which contracts every frequency of the error at once.  Both step rules run
one backtracking search (``_backtrack``) and differ only in the test that
accepts a trial point:

* Projected gradient (the ball families) takes an Armijo step over the
  H^2 ball: the trial must decrease the energy sufficiently.  The ball's
  own H^2 representative is kept as a fallback direction whenever the fast
  direction fails its line search, so sufficient decrease is always
  available.
* Mountain pass (the Neumann-radial family) is ridge descent on the ray
  maximum: each trial point is projected onto the cone and rescaled to the
  maximum of the energy along its ray.  The trial is accepted when that
  ridge merit falls, or when the VI residual halves.

On radial grids both rules hand over to guarded Newton steps
(``_newton_step``, accepted when the VI residual halves) once the VI
residual is at or below ``NEWTON_HANDOVER``; the first rejected Newton
trial returns the run to the step rule for good.  The square takes no
Newton step: a sparse LU of its Jacobian costs more than a whole run
there.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from functools import partial
from typing import ClassVar

import numpy as np

from .convex_analysis import vi_residual
from .convex_sets import (
    DEFAULT_MEMBERSHIP_TOL,
    ConvexSet,
    H2Ball,
    MembershipError,
    MonotoneCone,
    contains,
    project,
)
from .functionals import (
    NEUMANN_RADIAL,
    FieldError,
    ProblemSpec,
    energy,
    energy_grad,
    phi_hess,
    phi_value,
    psi_value,
)
from .grid import EllipticOperator, GridFunction, weighted_inner

logger = logging.getLogger("hintcvx.solvers")

TRACE_HEADER = ("k", "energy", "vi_residual", "step", "h2_norm")
# line search: first trial step, Armijo sufficient-decrease constant, and
# the backtracking factor applied at most MAX_BACKTRACKS times
STEP0 = 1.0
ARMIJO_C = 1e-4
SHRINK = 0.5
MAX_BACKTRACKS = 60
# VI residual at or below which stage i on a radial grid first tries a
# Newton step (``_newton_step``)
NEWTON_HANDOVER = 1e-2
# Stage-ii contract ||A v - b||_w <= LINEAR_SOLVE_RTOL ||b||_w + floor, where
# floor bounds the rounding of evaluating A v - b itself (_residual_floor).
LINEAR_SOLVE_RTOL = 1e-9


class IterationLimitError(RuntimeError):
    """Linear solve did not meet its residual contract."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class DivergenceError(RuntimeError):
    """The starting point of stage i has a non-finite energy."""


class MPGError(ValueError):
    """Mountain-pass geometry violated at the inputs."""


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 500
    # the VI residual at which stage i stops; a constant, since a looser
    # value ends runs not critical and a tighter one stalls the line search
    tol_residual: ClassVar[float] = 1e-10
    # a label echoed into the certificate; the pipeline is deterministic,
    # so the seed drives nothing
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise FieldError("max_iters", "max_iters must be at least 1")


@dataclass
class IterTrace:
    """Per-iteration records (k, energy, vi residual, step, h2 norm)."""

    rows: list[tuple] = field(default_factory=list)
    reason: str = ""

    def append(self, k: int, energy_val: float, residual: float, step: float, h2_norm: float):
        self.rows.append((int(k), float(energy_val), float(residual), float(step), float(h2_norm)))

    def __len__(self) -> int:
        return len(self.rows)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRACE_HEADER)
            for row in self.rows:
                writer.writerow([row[0]] + [repr(x) for x in row[1:]])


def _residual_floor(op: EllipticOperator, v: np.ndarray, b: np.ndarray) -> float:
    """Weighted norm of the rounding bound gamma_{k+1} (|A| |v| + |b|) of
    evaluating A v - b in doubles, k the most stored entries in a row of the
    form and gamma_n = n u / (1 - n u) (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., sec. 3.5 and Thm 7.3).  It grows like
    eps / h^2, and more where a centre-cell weight is tiny."""
    n_terms = int(np.diff(op.form.indptr).max()) + 1
    u = np.finfo(float).eps / 2.0
    gamma = n_terms * u / (1.0 - n_terms * u)
    # |A| = W^-1 |form|; the form's rows at inactive nodes are zero
    bound = (abs(op.form) @ np.abs(v)) / op.weights + np.abs(b)
    return gamma * float(np.sqrt(weighted_inner(op.weights, bound, bound)))


def linear_solve(op: EllipticOperator, rhs: GridFunction) -> GridFunction:
    """Direct solve of A v = rhs to
    ||A v - rhs||_w <= LINEAR_SOLVE_RTOL ||rhs||_w + floor.

    Solves with the operator's cached solver (the one stage i uses for its
    descent directions), then takes one step of iterative
    refinement.  The contract is checked with the flux-form ``apply``, not
    the factor; ``floor`` is the rounding bound of that check itself
    (``_residual_floor``).  A miss raises ``IterationLimitError``.  Entries
    of rhs at Dirichlet boundary nodes are ignored (the solution vanishes
    there).
    """
    if rhs.grid != op.grid:
        raise ValueError("right-hand side lives on a different grid than the operator")
    b = np.where(op.active, rhs.values, 0.0)
    v = op.solve_form(b)
    v += op.solve_form(b - op.apply(v))
    err = op.apply(v) - b
    res = float(np.sqrt(weighted_inner(op.weights, err, err)))
    rhs_norm = float(np.sqrt(weighted_inner(op.weights, b, b)))
    # the floor costs a sparse product, so only residuals above the
    # relative term pay for it
    if res > LINEAR_SOLVE_RTOL * rhs_norm:
        floor = _residual_floor(op, v, b)
        if res > LINEAR_SOLVE_RTOL * rhs_norm + floor:
            raise IterationLimitError(
                f"linear solve failed its residual contract: "
                f"{res:.3e} > {LINEAR_SOLVE_RTOL:.1e} * {rhs_norm:.3e} + {floor:.3e} (rounding floor)",
                residual=res,
            )
    return GridFunction(op.grid, v, op.bc)


def _descent_directions(spec: ProblemSpec, K: H2Ball, g: np.ndarray):
    """Fast Psi-form Riesz direction, then the ball's H^2 fallback."""
    yield spec.operator.solve_form(g)
    yield K.geometry.riesz(g)


def _backtrack(spec: ProblemSpec, K: ConvexSet, u: GridFunction, directions, rescale=None):
    """Backtracking line search shared by both step rules.

    For each direction d in turn, yields (cand, I(cand), tau) for every
    trial cand = P_K(u - tau d), passed through ``rescale`` when given, at
    tau = STEP0, STEP0 SHRINK, ... (MAX_BACKTRACKS sizes) whose energy is
    finite.  A step rule takes the first trial its own test admits.
    """
    for direction in directions:
        tau = STEP0
        for _ in range(MAX_BACKTRACKS):
            cand = project(K, u.with_values(u.values - tau * direction))
            if rescale is not None:
                cand = rescale(cand)
            cand_value = energy(spec, cand)
            if np.isfinite(cand_value):
                yield cand, cand_value, tau
            tau *= SHRINK


def _energy_floor(value: float) -> float:
    # the quadratic-form rounding floor of an energy near value
    return 1e-13 * (1.0 + abs(value))


def _newton_step(spec: ProblemSpec, K: ConvexSet, u: GridFunction, value: float, rho: float):
    """Guarded Newton trial u - delta, with J delta = W g for the weighted
    gradient g and the Jacobian J = form - W diag(Phi''(u)), tridiagonal on
    radial grids (Neuberger & Swift, Int. J. Bifur. Chaos 11 (2001); Choi &
    McKenna, Nonlinear Anal. 20 (1993)).

    Returns ``(cand, I(cand), 1.0, rho(cand))`` when the trial lies in K,
    its energy is finite and, on the H^2 ball, where stage i minimises,
    exceeds value by no more than the rounding floor, and its VI residual
    is below half of rho (one that does not halve it has met the residual's
    rounding floor, or is not converging quadratically); else None.  A
    null trial, u itself, has residual rho and so fails the last test.
    """
    try:
        delta = spec.operator.solve_shifted(phi_hess(spec, u), energy_grad(spec, u))
    except np.linalg.LinAlgError:  # J is singular
        return None
    trial = u.values - delta
    if not np.isfinite(trial).all():  # an overflow in Phi'' or in the solve
        return None
    cand = u.with_values(trial)
    if not contains(K, cand, DEFAULT_MEMBERSHIP_TOL):
        return None
    cand_value = energy(spec, cand)
    if not np.isfinite(cand_value) or (isinstance(K, H2Ball) and cand_value > value + _energy_floor(value)):
        return None
    cand_rho = vi_residual(spec, K, cand)
    return (cand, cand_value, 1.0, cand_rho) if cand_rho < 0.5 * rho else None


def _descend(spec: ProblemSpec, K: ConvexSet, u: GridFunction, value: float, cfg: SolverConfig, step):
    """Stage-i loop shared by both drivers.

    Records one trace row per iterate and stops when the VI residual drops
    below ``tol_residual``, when ``step(u, value, rho)`` finds no
    acceptable point (it returns ``(cand, cand_value, tau, cand_rho)`` or
    None; rho is the VI residual at u, cand_rho the one at cand if the step
    computed it, else None), on ``step`` when the accepted trial left the
    point unchanged (its values equal the iterate's: a fixed point of the
    step rule, where no later step can move), or at ``max_iters``.  The
    last two end on an accepted trial without a row, so it gets a final
    one.  The last row always holds the returned point's energy and VI
    residual.

    When the operator ``has_banded_form`` (radial grids) and rho is at or
    below ``NEWTON_HANDOVER``, each iteration first tries ``_newton_step``
    and takes ``step`` only when the trial is rejected; after the first
    rejection the run makes no further Newton attempt.  Newton steps go on
    below ``tol_residual`` until a trial is rejected or rho reaches the
    energy's rounding floor (``_energy_floor``): landing just under the
    tolerance can leave a strong residual above the certificate's, and one
    more O(n) step takes both down to rounding.  A Newton row records
    step 1.0.
    """
    trace = IterTrace()
    step_prev = float("nan")
    rho = None
    newton = spec.operator.has_banded_form
    for k in range(cfg.max_iters):
        if rho is None:
            rho = vi_residual(spec, K, u)
        trace.append(k, value, rho, step_prev, spec.geometry.norm(u))
        result = None
        # below tol_residual Newton steps go on down to the energy's floor
        if newton and min(cfg.tol_residual, _energy_floor(value)) < rho <= NEWTON_HANDOVER:
            result = _newton_step(spec, K, u, value, rho)
            newton = result is not None
        if result is None:
            if rho <= cfg.tol_residual:
                trace.reason = "vi_residual"
                return u, trace
            result = step(u, value, rho)
        if result is None:
            trace.reason = "line-search-stalled"
            return u, trace
        cand, value, step_prev, rho = result
        if np.array_equal(cand.values, u.values):
            reason = "step"
            break
        u = cand
    else:
        reason = "max_iters"
    if rho is None:
        rho = vi_residual(spec, K, u)
    trace.append(k + 1, value, rho, step_prev, spec.geometry.norm(u))
    if rho <= cfg.tol_residual and reason == "max_iters":
        reason = "vi_residual"
    trace.reason = reason
    return u, trace


def projected_gradient_minimize(
    spec: ProblemSpec, K: H2Ball, u_init: GridFunction, cfg: SolverConfig
) -> tuple[GridFunction, IterTrace]:
    """Minimize I = Psi - Phi over the H^2 ball K by projected gradient with
    Armijo backtracking.

    Iterates stay feasible.  The first-order steps
    u_{k+1} = P_K(u_k - tau_k d_k) decrease the energy; the Newton steps of
    radial grids are accepted on a halved VI residual, and may not raise
    the energy beyond its rounding floor.  The run stops when the VI
    residual drops below ``tol_residual``, on ``step`` when the accepted
    trial left the point unchanged, or at ``max_iters``.
    """
    if not isinstance(K, H2Ball):
        raise ValueError("projected gradient needs the H^2 ball constraint")
    if not contains(K, u_init, DEFAULT_MEMBERSHIP_TOL):
        raise MembershipError("projected gradient must start inside the constraint set")
    value = energy(spec, u_init)
    if not np.isfinite(value):
        raise DivergenceError("initial energy is not finite")

    def armijo_step(u, value, rho):
        g = energy_grad(spec, u)
        wg = spec.weights * g
        for cand, cand_value, tau in _backtrack(spec, K, u, _descent_directions(spec, K, g)):
            # value_new <= value + c <g, new - u>_w, the predicted term
            # clamped to be a decrease
            pred = float(wg @ (cand.values - u.values))
            if pred <= 0.0 and cand_value <= value + ARMIJO_C * pred:
                return cand, cand_value, tau, None
        return None

    u, trace = _descend(spec, K, u_init, value, cfg, armijo_step)
    logger.info("projected gradient terminated (%s) after %d rows", trace.reason, len(trace))
    return u, trace


def ray_rescale(spec: ProblemSpec, u: GridFunction) -> GridFunction:
    """Rescale u to the maximum of I along its ray.

    For the p-homogeneous Phi of the Neumann-radial family,
    I(t u) = t^2 Psi(u) - t^p Phi(u) peaks at
    t* = (2 Psi / (p Phi))^(1/(p-2)); rays stay inside the cone.  A u
    whose Phi overflows comes back unscaled, with a non-finite energy: t*
    would be 0, and the zero profile a false critical point.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        psi = psi_value(spec, u)
        phi = phi_value(spec, u)
    if psi <= 0.0 or not 0.0 < phi < np.inf:
        return u
    t = (2.0 * psi / (spec.p * phi)) ** (1.0 / (spec.p - 2.0))
    return u.with_values(t * u.values)


def mountain_pass(
    spec: ProblemSpec, K: MonotoneCone, cfg: SolverConfig
) -> tuple[GridFunction, IterTrace, float]:
    """Mountain-pass search for the Neumann-radial family: ridge descent on
    the ray maximum.

    With the p-homogeneous Phi of this family, the mountain-pass level over
    the cone is the infimum over the cone of the ray maximum I(ray-max(u))
    (the Nehari-manifold characterisation; Szulkin & Weth, Handbook of
    Nonconvex Analysis, 2010).  The search starts at the ray maximum of the
    constant profile 1, t* 1 with t* = (2 Psi(1) / (p Phi(1)))^(1/(p-2)),
    and descends that merit: each step pushes the iterate along the
    Psi-form Riesz direction, projects onto the cone and rescales to the
    ray maximum.  A step is accepted when the merit falls, or when the VI
    residual halves, so the reported value c is the ray maximum of the last
    iterate, which is positive.  ``MPGError`` means Phi(1) = 0, i.e. a = 0:
    then no ray in the cone has a maximum.
    """
    if spec.family != NEUMANN_RADIAL:
        raise ValueError("mountain_pass drives the Neumann-radial family only")
    if not isinstance(K, MonotoneCone):
        raise ValueError("mountain_pass needs the monotone cone constraint")
    ones = spec.function(np.ones(spec.grid.size))
    if not phi_value(spec, ones) > 0.0:
        raise MPGError("mountain-pass geometry violated: Phi(1) = 0, so a = 0 and I grows on every ray")
    try:
        u = ray_rescale(spec, ones)
        value = energy(spec, u)
    except OverflowError:  # t* itself overflows
        value = float("inf")
    if not np.isfinite(value):
        raise DivergenceError("the constant profile's ray maximum is past the float range")

    def ridge_step(u, value, rho):
        direction = spec.operator.solve_form(energy_grad(spec, u))
        # ridge-merit decrease beyond the quadratic-form rounding floor, or
        # failing that a halved VI residual (near the saddle the merit gap
        # scales like distance^2 and falls under float resolution, while the
        # residual the loop stops on keeps contracting)
        merit_floor = _energy_floor(value)
        for cand, cand_value, tau in _backtrack(spec, K, u, (direction,), partial(ray_rescale, spec)):
            if cand_value < value - merit_floor:
                return cand, cand_value, tau, None
            cand_rho = vi_residual(spec, K, cand)
            if cand_rho < 0.5 * rho:
                return cand, cand_value, tau, cand_rho
        return None

    u, trace = _descend(spec, K, u, value, cfg, ridge_step)
    c = trace.rows[-1][1]
    logger.info("mountain pass terminated (%s), c = %.6e", trace.reason, c)
    return u, trace, c
