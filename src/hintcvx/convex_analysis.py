"""Convexity certificates: Fenchel conjugates, duality gaps, the
variational-inequality residual, and the two-point energy defect.

For the quadratic energy Psi(u) = 1/2 <A u, u>_w the conjugate is again
quadratic, Psi*(u*) = 1/2 <A^-1 u*, u*>_w, so every certificate here
reduces to linear solves with A (``EllipticOperator.solve_form``).  The VI
residual is the computable criticality test: rho(u) = -inf over v in K of
<Psi'(u) - Phi'(u), v - u>, zero exactly when u is a constrained critical
point.
"""

from __future__ import annotations

import numpy as np

from .convex_sets import (
    DEFAULT_MEMBERSHIP_TOL,
    ConvexSet,
    H2Ball,
    MembershipError,
    contains,
)
from .functionals import ProblemSpec, energy_grad
from .grid import EllipticOperator, GridFunction, weighted_inner

# the cone's linear minimization runs over {||v||_inf <= BOX_FACTOR ||u||_inf}
BOX_FACTOR = 10.0


def fenchel_conjugate_quadratic(op: EllipticOperator, ustar: GridFunction) -> float:
    """Conjugate of the quadratic form: Psi*(u*) = 1/2 <A^-1 u*, u*>_w,
    finite for every u* because A (``-Lap`` or ``-Lap + I``) is positive
    definite."""
    if ustar.grid != op.grid:
        raise ValueError("dual element lives on a different grid than the operator")
    x = op.solve_form(ustar.values)
    return 0.5 * weighted_inner(op.weights, x, ustar.values)


def duality_gap(
    op: EllipticOperator, u: GridFunction, ustar: GridFunction, solution: GridFunction | None = None
) -> float:
    """Fenchel-Young gap Psi(u) + Psi*(u*) - <u, u*>_w.

    Nonnegative up to solver rounding; zero exactly when u* = A u.  A
    caller that has already solved A x = u* passes x as ``solution``, and
    Psi*(u*) then costs no solve: it is the Fenchel-Young value
    <x, u*>_w - Psi(x), which is exact at x = A^-1 u* and, as that x
    maximizes <v, u*>_w - Psi(v), off by only 1/2 ||x - A^-1 u*||_A^2,
    second order in the solve's error.
    """
    if u.grid != ustar.grid:
        raise ValueError("dual pair must share one grid")
    pairing = weighted_inner(op.weights, ustar.values, u.values)
    if not np.isfinite(pairing):
        raise ValueError("dual pairing is not finite")
    if solution is None:
        conj = fenchel_conjugate_quadratic(op, ustar)
    else:
        conj = weighted_inner(op.weights, solution.values, ustar.values) - op.quadratic_form(solution.values)
    return op.quadratic_form(u.values) + conj - pairing


def biconjugate_value(op: EllipticOperator, u: GridFunction) -> float:
    """Conjugate-of-conjugate probe: for lsc convex Psi this must return
    Psi(u).  The inner conjugate is evaluated through an actual linear
    solve, so the probe exercises the full dual round trip numerically."""
    z = u.with_values(op.apply(u.values))
    return weighted_inner(op.weights, u.values, z.values) - fenchel_conjugate_quadratic(op, z)


def cone_box_bound(u: GridFunction) -> float:
    """Compactness box for the cone's linear minimization.

    The cone is unbounded, so the infimum is taken over its intersection
    with {||v||_inf <= B}, B = BOX_FACTOR * ||u||_inf, with a unit floor
    when u vanishes identically (otherwise the box degenerates)."""
    amp = float(np.max(np.abs(u.values)))
    return BOX_FACTOR * amp if amp > 0.0 else 1.0


def vi_residual(spec: ProblemSpec, K: ConvexSet, u: GridFunction) -> float:
    """Variational-inequality residual rho(u) = -inf_{v in K} <g, v - u>_w
    with g = Psi'(u) - Phi'(u).

    Always >= 0 up to rounding for u in K; rho <= DEFAULT_MEMBERSHIP_TOL
    certifies u as a discrete constrained critical point.  For the ball the
    infimum is attained in closed form at -r G/||G||_h2 with G the h2 Riesz
    representative of g; for the cone it is attained at a step-function
    vertex of the cone boxed by ``cone_box_bound``.  On the ball, a
    residual whose ``riesz_norm`` overflows comes back infinite.
    """
    if not contains(K, u, DEFAULT_MEMBERSHIP_TOL):
        raise MembershipError("vi_residual requires a point inside the constraint set")
    g = energy_grad(spec, u)
    w = spec.weights
    g_dot_u = weighted_inner(w, g, u.values)
    if isinstance(K, H2Ball):
        _, g_h2 = K.geometry.riesz_norm(g)
        return g_dot_u + K.r * g_h2
    B = cone_box_bound(u)
    tails = np.cumsum((w * g)[::-1])[::-1]  # tails[k] = sum_{i >= k} w_i g_i
    lin_min = B * min(0.0, float(np.min(tails)))
    return g_dot_u - lin_min


def equality10_defect(op: EllipticOperator, u0: GridFunction, v0: GridFunction) -> float:
    """Defect |Psi(v0) - Psi(u0) - <A v0, v0 - u0>_w|.

    For the quadratic Psi this equals 1/2 ||v0 - u0||_A^2, so a vanishing
    defect pins u0 = v0 in the operator seminorm.  It is evaluated in that
    form, 1/2 d^T F d with d = u0 - v0, which is >= 0 and carries no
    cancellation between the three terms.
    """
    if u0.grid != op.grid or v0.grid != op.grid:
        raise ValueError("both functions must live on the operator's grid")
    return op.quadratic_form(u0.values - v0.values)
