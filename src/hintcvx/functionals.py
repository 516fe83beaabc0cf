"""Energies, their derivatives, and norms for the three problem families.

Every family's energy is I(u) = Psi(u) - Phi(u), with Psi the quadratic
form of its elliptic operator (``EllipticOperator.quadratic_form``) and

    Phi(u) = int a |u|^p / p + mu |u|^q / q + f u,

of which a family keeps its own terms: mu for ``concave-convex``, f for
``nonhomogeneous``, a for ``neumann-radial`` (absent, a = 1, mu = 0 and
f = 0).  ``ProblemSpec`` enforces that split, so the functions here read
the terms, never the family.

Gradients are returned as grid functions representing the derivative in
the quadrature-weighted pairing: ``<grad, h>_w`` equals the directional
derivative for every admissible direction h.
"""

from __future__ import annotations

import copy
import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import (
    DIRICHLET_ZERO,
    NEUMANN_ZERO,
    EllipticOperator,
    FieldError,
    Grid,
    GridFunction,
    RadialGrid,
    Square2DGrid,
    build_2d_laplacian,
    build_radial_laplacian,
    weighted_inner,
)

CONCAVE_CONVEX = "concave-convex"
NONHOMOGENEOUS = "nonhomogeneous"
NEUMANN_RADIAL = "neumann-radial"
FAMILIES = (CONCAVE_CONVEX, NONHOMOGENEOUS, NEUMANN_RADIAL)
BALL_FAMILIES = (CONCAVE_CONVEX, NONHOMOGENEOUS)

# ProblemSpec.operator's cache: grid -> {bc: operator}.  Its keys
# are weak and matched by equality, so an operator, with every factor cached
# on it, lives as long as the grid it was first built for, and after that as
# long as a spec holds it.  A held radial grid at dim 3, n = 51201 so keeps
# about 10 MB alive.  Each operator is built on a copy of its key grid, so no
# entry keeps its own key alive.
_OPERATORS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


class DegenerateInputError(ValueError):
    """Raised when a nonlinearity over- or underflows to non-finite values."""


def _p_star(dim: int) -> float:
    # Exponent ceiling from the H^2 embedding, which the ball families'
    # regularity chain needs; unbounded for dim <= 4.  The cone family has
    # none: a nonnegative nondecreasing profile is bounded by its value at
    # r = 1.
    if dim <= 4:
        return float("inf")
    return (2.0 * dim - 4.0) / (dim - 4.0)


@dataclass(eq=False)
class ProblemSpec:
    """One of the three problem families with its exponents and data.

    Parameters mirror the configuration file: ``q``/``mu`` belong to the
    concave-convex family, ``f`` to the nonhomogeneous one, ``a`` to the
    Neumann-radial one.  ``C1`` is the regularity constant used by the
    radius-window machinery (a configuration input, default 1.0) and ``r``
    optionally pins the constraint-ball radius.
    """

    family: str
    grid: Grid
    p: float
    q: float | None = None
    mu: float = 0.0
    f: GridFunction | None = None
    a: GridFunction | None = None
    C1: float = 1.0
    r: float | None = None
    # energy_grad's last two points and their gradients, newest first
    _last_grads: tuple[tuple[GridFunction, np.ndarray], ...] = field(default=(), init=False, repr=False)

    def __post_init__(self):
        # comparisons are written so that NaN and infinities fail them
        if self.family not in FAMILIES:
            raise FieldError("family", f"unknown family {self.family!r}; expected one of {FAMILIES}")
        dim = self.grid.dim if isinstance(self.grid, RadialGrid) else 2
        if not 2.0 < self.p < math.inf:
            raise FieldError("p", f"p must be finite and exceed 2, got p={self.p}")
        if self.family in BALL_FAMILIES and self.p >= _p_star(dim):
            raise FieldError(
                "p", f"p={self.p} violates the embedding bound p < {_p_star(dim)} at dim={dim}"
            )
        if not 0.0 < self.C1 < math.inf:
            raise FieldError("C1", f"C1 must be positive and finite, got C1={self.C1}")
        if self.r is not None and not 0.0 < self.r < math.inf:
            raise FieldError("r", f"constraint radius must be positive and finite, got r={self.r}")

        takes = {CONCAVE_CONVEX: ("q", "mu"), NONHOMOGENEOUS: ("f",), NEUMANN_RADIAL: ("a",)}
        # mu = 0 counts as not given
        for name, val in (("q", self.q), ("mu", self.mu or None), ("f", self.f), ("a", self.a)):
            if val is not None and name not in takes[self.family]:
                raise FieldError(name, f"{self.family} takes no {name}")

        if self.family == CONCAVE_CONVEX:
            if self.q is None or not (1.0 < self.q < 2.0):
                raise FieldError("q", f"q must lie in (1, 2), got q={self.q}")
            if not 0.0 <= self.mu < math.inf:
                raise FieldError("mu", f"mu must be nonnegative and finite, got mu={self.mu}")
        elif self.family == NONHOMOGENEOUS:
            if self.f is None:
                raise FieldError("f", "nonhomogeneous family needs a forcing f")
            if self.f.grid != self.grid:
                raise FieldError("f", "forcing f lives on a different grid")
        else:
            if not isinstance(self.grid, RadialGrid):
                raise FieldError("grid", "neumann-radial needs a radial grid")
            if self.a is None:
                raise FieldError("a", "neumann-radial family needs a radial weight a")
            if self.a.grid != self.grid:
                raise FieldError("a", "weight a lives on a different grid")
            av = self.a.values
            if np.min(av) < 0.0:
                raise FieldError("a", "weight a must be nonnegative")
            if np.min(np.diff(av)) < -1e-12:
                raise FieldError("a", "weight a must be node-wise nondecreasing")

    @property
    def bc(self) -> str:
        return DIRICHLET_ZERO if self.family in BALL_FAMILIES else NEUMANN_ZERO

    @cached_property
    def operator(self) -> EllipticOperator:
        """The family's operator on this grid, built on the first request
        and then shared, read-only, by every spec on an equal grid.

        The operator and its cached factors stay alive while the grid they
        were first built for lives, so a sweep that holds one grid and makes
        a spec per parameter builds and factors once.  A held grid keeps
        them in memory: at dim 3, n = 51201 that is about 10 MB with both
        factors (RSS).  Once that grid and every spec holding the operator
        are gone, refcounting frees it, with no garbage collection needed."""
        ops = _OPERATORS.setdefault(self.grid, {})
        op = ops.get(self.bc)
        if op is None:
            grid = copy.copy(self.grid)
            if isinstance(grid, Square2DGrid):
                op = build_2d_laplacian(grid)
            else:
                op = build_radial_laplacian(grid, self.bc)
            ops[self.bc] = op
        return op

    @property
    def weights(self) -> np.ndarray:
        return self.operator.weights

    @cached_property
    def geometry(self) -> "H2Geometry":
        return H2Geometry(self.operator)

    def function(self, values: np.ndarray) -> GridFunction:
        return GridFunction(self.grid, values, self.bc)

    def summary(self) -> dict:
        doc = {
            "family": self.family,
            "grid": self.grid.to_json(self.bc),
            "p": self.p,
            "q": self.q,
            "mu": self.mu,
            "C1": self.C1,
            "r": self.r,
        }
        if self.f is not None:
            w = self.weights
            doc["f_l2"] = float(np.sqrt(weighted_inner(w, self.f.values, self.f.values)))
        if self.a is not None:
            doc["a_range"] = [float(self.a.values.min()), float(self.a.values.max())]
        return doc


def _check_grid(spec: ProblemSpec, u: GridFunction) -> None:
    if u.grid != spec.grid:
        raise ValueError("grid function lives on a different grid than the problem")


def _check_space(spec: ProblemSpec, u: GridFunction) -> None:
    _check_grid(spec, u)
    if u.bc != spec.bc:
        raise ValueError(f"function carries bc {u.bc!r} but the family needs {spec.bc!r}")


def psi_value(spec: ProblemSpec, u: GridFunction) -> float:
    """Quadratic part 1/2 <A u, u>_w of the family energy."""
    _check_space(spec, u)
    return spec.operator.quadratic_form(u.values)


def psi_grad(spec: ProblemSpec, u: GridFunction) -> GridFunction:
    """Derivative of Psi in the weighted pairing: the operator value A u."""
    _check_space(spec, u)
    return GridFunction(spec.grid, spec.operator.apply(u.values), u.bc)


def _power_term(v: np.ndarray, expo: float) -> np.ndarray:
    """|v|^(expo-2) * v with the zero-node convention for expo < 2."""
    if expo >= 2.0:
        return np.abs(v) ** (expo - 2.0) * v
    out = np.zeros_like(v)
    nz = v != 0.0
    out[nz] = np.abs(v[nz]) ** (expo - 2.0) * v[nz]
    return out


def phi_value(spec: ProblemSpec, u: GridFunction) -> float:
    """Nonquadratic energy Phi(u) = int a |u|^p / p + mu |u|^q / q + f u."""
    _check_grid(spec, u)
    w, v = spec.weights, u.values
    power = np.abs(v) ** spec.p
    if spec.a is not None:
        power = spec.a.values * power
    val = np.dot(w, power) / spec.p
    if spec.mu > 0.0:
        val += spec.mu * np.dot(w, np.abs(v) ** spec.q) / spec.q
    if spec.f is not None:
        val += weighted_inner(w, spec.f.values, v)
    return float(val)


def _phi_prime(spec: ProblemSpec, v: np.ndarray) -> np.ndarray:
    """Values of Phi'(v) = a |v|^(p-2) v + mu |v|^(q-2) v + f, zero at the
    operator's pinned nodes (no admissible variation moves them)."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = _power_term(v, spec.p)
        if spec.a is not None:
            out = spec.a.values * out
        if spec.mu > 0.0:
            out = out + spec.mu * _power_term(v, spec.q)
        if spec.f is not None:
            out = out + spec.f.values
    if not np.isfinite(out).all():
        raise DegenerateInputError("nonlinearity produced non-finite values (exponent overflow)")
    return np.where(spec.operator.active, out, 0.0)


def phi_grad(spec: ProblemSpec, u: GridFunction) -> GridFunction:
    """Node-wise derivative of Phi in the weighted pairing, in the same
    constrained space as u (Dirichlet boundary entries are zero)."""
    _check_grid(spec, u)
    return GridFunction(spec.grid, _phi_prime(spec, u.values), u.bc)


def phi_hess(spec: ProblemSpec, u: GridFunction) -> np.ndarray:
    """Node-wise second derivative Phi''(u), the diagonal of the Hessian of
    Phi in the weighted pairing.

    It is zero at Dirichlet boundary nodes and at nodes where u vanishes:
    there the sublinear term's |u|^(q-2) is infinite, and the superlinear
    one's is zero.  An overflow comes back as a non-finite entry.
    """
    _check_grid(spec, u)
    v = np.abs(u.values)
    nz = v != 0.0
    out = np.zeros_like(v)
    with np.errstate(over="ignore", invalid="ignore"):
        out[nz] = (spec.p - 1.0) * v[nz] ** (spec.p - 2.0)
        if spec.a is not None:
            out *= spec.a.values
        if spec.mu > 0.0:
            out[nz] += spec.mu * (spec.q - 1.0) * v[nz] ** (spec.q - 2.0)
    out[~spec.operator.active] = 0.0
    return out


def energy_grad(spec: ProblemSpec, u: GridFunction) -> np.ndarray:
    """Values of I'(u) = Psi'(u) - Phi'(u) in the weighted pairing, which is
    also the residual A u - Phi'(u) of the strong equation.

    The gradients of the last two grid functions asked are kept on the
    spec: a run asks again for the point whose VI residual it has just
    taken, and for the iterate once more after a rejected Newton trial has
    asked for its own; a grid function's values never change.  The arrays
    are shared by those callers, so they are read-only.
    """
    for v, g in spec._last_grads:
        if v is u:
            return g
    _check_space(spec, u)
    au = spec.operator.apply(u.values)
    if not np.isfinite(au).all():  # the check psi_grad's grid function makes
        raise ValueError("grid function values must be finite")
    g = au - _phi_prime(spec, u.values)
    g.flags.writeable = False
    spec._last_grads = ((u, g), *spec._last_grads[:1])
    return g


def energy(spec: ProblemSpec, u: GridFunction) -> float:
    """I(u) = Psi(u) - Phi(u).

    A point whose energy overflows gets a non-finite value, without a
    warning; callers test ``np.isfinite`` on it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return psi_value(spec, u) - phi_value(spec, u)


class H2Geometry:
    """The H^2 inner product <u,v>_w + <grad u, grad v> + <A u, A v>_w and
    its Riesz map for a fixed operator.

    The Gram matrix on active nodes is H = W + S + F W^-1 F with S the
    laplacian stiffness and F the operator form; ``riesz(g)`` solves
    H x = W g so that <x, v>_h2 = <g, v>_w for all admissible v.  H is
    solved by the operator's one backend (``EllipticOperator.gram_solver``,
    beside ``form_solver``), so every geometry on an operator shares its
    factor; only a ``dirichlet-zero`` operator has one.  The norm needs no
    solve.
    """

    def __init__(self, op: EllipticOperator):
        self.op = op
        self._last: tuple[GridFunction, float] | None = None

    def h2_norm_sq(self, values: np.ndarray) -> float:
        """The squared h2 norm; one that overflows comes back non-finite,
        without a warning."""
        op = self.op
        v = np.asarray(values, dtype=float)
        av = op.apply(v)
        with np.errstate(over="ignore", invalid="ignore"):
            semi = float(v @ (op.stiffness @ v))
            return float(np.dot(op.weights, v * v) + semi + np.dot(op.weights, av * av))

    def h2_norm(self, values: np.ndarray) -> float:
        return float(np.sqrt(max(self.h2_norm_sq(values), 0.0)))

    def norm(self, u: GridFunction) -> float:
        """``h2_norm`` of a grid function, kept for the last one asked: a run
        asks again for the point it has just projected, tested or traced,
        and a grid function's values never change."""
        last = self._last
        if last is not None and last[0] is u:
            return last[1]
        nrm = self.h2_norm(u.values)
        self._last = (u, nrm)
        return nrm

    def riesz(self, g_values: np.ndarray) -> np.ndarray:
        """H^2 Riesz representative of the weighted-pairing functional g."""
        op = self.op
        out = np.zeros(op.grid.size)
        out[op.active] = op.gram_solver((op.weights * g_values)[op.active])
        return out

    def riesz_norm(self, g_values: np.ndarray) -> tuple[np.ndarray, float]:
        """Riesz representative G of g and its h2 norm (via <G, W g>), which
        comes back infinite, without a warning, where it overflows."""
        G = self.riesz(g_values)
        with np.errstate(over="ignore"):
            nrm_sq = float(np.dot(G, self.op.weights * g_values))
        return G, float(np.sqrt(max(nrm_sq, 0.0)))
