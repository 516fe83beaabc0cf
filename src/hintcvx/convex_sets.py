"""Constraint sets: the H^2 ball and the nonnegative nondecreasing cone.

Both sets come with a membership test and an exact metric projection.  The
ball is centered at the origin of its own norm, so projection is radial
scaling; the cone projection is weighted isotonic regression (pool
adjacent violators) followed by clamping at zero, which solves the
lower-bounded isotonic problem exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .functionals import H2Geometry
from .grid import GridFunction, RadialGrid

DEFAULT_MEMBERSHIP_TOL = 1e-9


class MembershipError(ValueError):
    """Raised when an operation requires a point inside the constraint set."""


@dataclass(eq=False)
class H2Ball:
    """Centered ball {u : ||u||_h2 <= r} in the geometry's H^2 norm."""

    r: float
    geometry: H2Geometry = field(repr=False)

    def __post_init__(self):
        if not self.r > 0.0:
            raise ValueError(f"ball radius must be positive, got r={self.r}")

    def descriptor(self) -> dict:
        return {"kind": "h2ball", "r": self.r}


@dataclass(eq=False)
class MonotoneCone:
    """Cone of nonnegative node-wise nondecreasing radial profiles."""

    grid: RadialGrid
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.grid.size,):
            raise ValueError("weights must have one entry per grid node")
        if not np.all(w >= 0.0):
            raise ValueError("cone weights must be nonnegative")
        self.weights = w

    def descriptor(self) -> dict:
        return {"kind": "monotone-cone"}


ConvexSet = H2Ball | MonotoneCone


def _check_set_grid(K: ConvexSet, u: GridFunction) -> None:
    grid = K.geometry.op.grid if isinstance(K, H2Ball) else K.grid
    if u.grid != grid:
        raise ValueError("grid function lives on a different grid than the constraint set")


def ball_bound(r: float, tol: float = DEFAULT_MEMBERSHIP_TOL) -> float:
    """Largest ||u||_h2 the test of a ball of radius r admits: r plus the
    slack tol max(1, r), relative for r > 1, where an absolute tol would be
    a few ulps of r."""
    return r + tol * max(1.0, r)


def contains(K: ConvexSet, u: GridFunction, tol: float = DEFAULT_MEMBERSHIP_TOL) -> bool:
    """Membership with slack tol (scaled by ``ball_bound`` on the ball);
    deterministic."""
    _check_set_grid(K, u)
    if isinstance(K, H2Ball):
        return K.geometry.norm(u) <= ball_bound(K.r, tol)
    v = u.values
    if np.min(v) < -tol:
        return False
    # u_i <= u_j + tol for every i <= j, via the running maximum
    return float(np.max(np.maximum.accumulate(v) - v)) <= tol


def project_ball(K: H2Ball, u: GridFunction) -> GridFunction:
    """Exact metric projection onto the ball in its own h2 inner product.
    ``OverflowError`` when u's h2 norm overflows: scaling by r / inf would
    give the zero profile."""
    _check_set_grid(K, u)
    nrm = K.geometry.norm(u)
    if nrm <= K.r:
        return u
    if not np.isfinite(nrm):
        raise OverflowError("the h2 norm of the point to project overflows")
    return u.with_values(u.values * (K.r / nrm))


def isotonic_fit(y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted isotonic regression: argmin sum w_i (x_i - y_i)^2 over
    nondecreasing x.

    A nondecreasing y (ties allowed) is its own fit and comes back as a
    copy, which is bitwise what the pool-adjacent-violators loop
    (``_pool_adjacent_violators``) returns, since it pools strict violators
    only; the loop runs on every other input.  The mountain pass's trial
    points are in practice nondecreasing already, so on them the cone
    projection costs one vectorised comparison.
    """
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    if np.all(y[1:] >= y[:-1]):  # also true below two entries
        return y.copy()
    return _pool_adjacent_violators(y, w)


def _pool_adjacent_violators(y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The pool-adjacent-violators loop behind ``isotonic_fit``.

    Block means are computed once per merged block, so within a block the
    output values are bitwise equal and across blocks strictly increasing.
    """
    means: list[float] = []
    wsums: list[float] = []
    counts: list[int] = []
    for yi, wi in zip(y, w):
        means.append(float(yi))
        wsums.append(float(wi))
        counts.append(1)
        while len(means) > 1 and means[-2] > means[-1]:
            m2, w2, c2 = means.pop(), wsums.pop(), counts.pop()
            m1, w1, c1 = means.pop(), wsums.pop(), counts.pop()
            wt = w1 + w2
            # zero-weight blocks fall back to the plain average
            m = (w1 * m1 + w2 * m2) / wt if wt > 0.0 else 0.5 * (m1 + m2)
            means.append(m)
            wsums.append(wt)
            counts.append(c1 + c2)
    return np.repeat(means, counts)


def project_cone(K: MonotoneCone, u: GridFunction) -> GridFunction:
    """Weighted-L^2 projection onto the cone: isotonic fit, then clamp at 0.

    Clamping the unconstrained isotonic solution at a constant lower bound
    yields the exact solution of the bounded problem, so the output
    minimizes the weighted distance among cone members.
    """
    _check_set_grid(K, u)
    fitted = np.maximum(isotonic_fit(u.values, K.weights), 0.0)
    return u.with_values(fitted)


def project(K: ConvexSet, u: GridFunction) -> GridFunction:
    if isinstance(K, H2Ball):
        return project_ball(K, u)
    return project_cone(K, u)
