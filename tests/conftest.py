import weakref

import numpy as np
import pytest

import hintcvx as hx
from hintcvx import functionals


@pytest.fixture
def grid1d():
    return hx.RadialGrid(n=41, dim=1)


@pytest.fixture
def op1d(grid1d):
    return hx.build_radial_laplacian(grid1d, hx.DIRICHLET_ZERO)


@pytest.fixture
def grid3d():
    return hx.RadialGrid(n=81, dim=3)


@pytest.fixture
def grid2d():
    return hx.Square2DGrid(m=6)


@pytest.fixture
def operator_counts(monkeypatch):
    """An empty operator cache, so no live grid from another test shares an
    operator, and the work done through it: the radial operators built and,
    by their ``gram`` flag, the factors made (``EllipticOperator._solver``)."""
    monkeypatch.setattr(functionals, "_OPERATORS", weakref.WeakKeyDictionary())
    builds, factors = [], []
    build, solver = functionals.build_radial_laplacian, hx.EllipticOperator._solver
    monkeypatch.setattr(functionals, "build_radial_laplacian", lambda *a: builds.append(a) or build(*a))
    monkeypatch.setattr(hx.EllipticOperator, "_solver", lambda op, gram: factors.append(gram) or solver(op, gram))
    return builds, factors


@pytest.fixture
def cc_spec(grid1d):
    return hx.ProblemSpec(family="concave-convex", grid=grid1d, p=4.0, q=1.5, mu=0.1)


@pytest.fixture
def nr_spec(grid3d):
    a = hx.GridFunction(grid3d, 1.0 + grid3d.nodes, hx.NEUMANN_ZERO)
    return hx.ProblemSpec(family="neumann-radial", grid=grid3d, p=4.0, a=a)


# nonhomogeneous runs, f = sin(pi r) at n=41, as (dim, p, r), whose start
# h2 norm r / 10 is finite but whose start VI residual overflows
OVERFLOWING_STARTS = [
    (1, 50.0, 1e6), (1, 50.0, 1e8), (1, 100.0, 1e4), (2, 100.0, 1e4), (3, 50.0, 1e8), (3, 100.0, 1e4),
]


def random_dirichlet(grid, seed, scale=1.0):
    """Seeded random function vanishing on the Dirichlet boundary."""
    rng = np.random.default_rng(seed)
    vals = scale * rng.standard_normal(grid.size)
    vals[grid.boundary_indices(hx.DIRICHLET_ZERO)] = 0.0
    return hx.GridFunction(grid, vals, hx.DIRICHLET_ZERO)


def random_neumann(grid, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return hx.GridFunction(grid, scale * rng.standard_normal(grid.size), hx.NEUMANN_ZERO)
