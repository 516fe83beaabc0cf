import csv
import gc
import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import hintcvx as hx
from hintcvx.grid import _repr_frames, sphere_area, weighted_inner, write_node_csv
from hintcvx.principle import mu_star, run_problem

from conftest import random_dirichlet


class TestGrids:
    def test_radial_nodes_increasing_and_span(self):
        g = hx.RadialGrid(n=17, dim=2)
        assert np.all(np.diff(g.nodes) > 0)
        assert abs(g.h * (g.n - 1) - 1.0) <= 1e-12

    def test_radial_rejects_small_n(self):
        with pytest.raises(ValueError):
            hx.RadialGrid(n=2)

    def test_radial_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            hx.RadialGrid(n=5, dim=0)

    def test_square_rejects_small_m(self):
        with pytest.raises(ValueError):
            hx.Square2DGrid(m=1)

    @pytest.mark.parametrize("m", [2, 3, 17, 64])
    def test_square_nodes_tile_the_axis(self, m):
        # write_node_csv builds the x and y columns from the m axis values
        xs, ys = hx.Square2DGrid(m=m).nodes
        axis = xs[:m]
        assert xs.tobytes() == np.tile(axis, m).tobytes()
        assert ys.tobytes() == np.repeat(axis, m).tobytes()


class TestGridFunction:
    def test_length_mismatch_rejected(self, grid1d):
        with pytest.raises(ValueError):
            hx.GridFunction(grid1d, np.zeros(grid1d.size + 1))

    def test_nonfinite_rejected(self, grid1d):
        vals = np.zeros(grid1d.size)
        vals[3] = np.inf
        with pytest.raises(ValueError):
            hx.GridFunction(grid1d, vals)

    def test_dirichlet_boundary_enforced(self, grid1d):
        vals = np.ones(grid1d.size)
        with pytest.raises(ValueError):
            hx.GridFunction(grid1d, vals, hx.DIRICHLET_ZERO)
        hx.GridFunction(grid1d, vals, hx.NEUMANN_ZERO)  # fine without the pin

    def test_values_frozen(self, grid1d):
        u = hx.GridFunction(grid1d, np.zeros(grid1d.size))
        with pytest.raises(ValueError):
            u.values[0] = 1.0

    def test_csv_writer(self, tmp_path, grid1d):
        u = random_dirichlet(grid1d, 7)
        path = tmp_path / "u.csv"
        u.to_csv(path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "coord,value"
        assert len(rows) == grid1d.size + 1

    @pytest.mark.parametrize(
        "grid", [hx.RadialGrid(n=5), hx.Square2DGrid(m=3)], ids=["radial", "square"]
    )
    def test_csv_cells_are_plain_numbers(self, tmp_path, grid):
        path = tmp_path / "u.csv"
        hx.GridFunction(grid, np.zeros(grid.size)).to_csv(path)
        header, *rows = path.read_text().splitlines()
        assert header == ("coord,value" if isinstance(grid, hx.RadialGrid) else "x,y,value")
        for row in rows:
            for cell in row.split(","):
                float(cell)

    @pytest.mark.parametrize(
        "grid",
        [hx.RadialGrid(n=8)] + [hx.Square2DGrid(m=m) for m in (3, 2, 17, 64)],
        ids=["radial", "square", "square-2", "square-17", "square-64"],
    )
    def test_node_csv_bytes_match_csv_writer(self, tmp_path, grid):
        specials = [0.0, -0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf, -1.5, 0.1]
        specials += [1e-5, 9.999999999999999e-05, 1e16, 2.0**-20, 1.5e-310]
        value = np.resize(specials, grid.size)
        path = tmp_path / "u.csv"
        write_node_csv(path, grid, {"value": value, "empty": None})
        ref = tmp_path / "ref.csv"
        coords = [grid.nodes] if isinstance(grid, hx.RadialGrid) else list(grid.nodes)
        cells = [[repr(x) for x in c.tolist()] for c in coords + [value]] + [[""] * grid.size]
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow((["coord"] if len(coords) == 1 else ["x", "y"]) + ["value", "empty"])
            writer.writerows(zip(*cells))
        assert path.read_bytes() == ref.read_bytes()


def join_writer(path, grid, columns):
    """The join-based writer ``write_node_csv`` replaced, kept as the
    reference for its bytes: every cell through repr, rows joined by hand."""

    def cells(values):
        return repr(np.asarray(values, dtype=float).tolist())[1:-1].split(", ")

    if isinstance(grid, hx.RadialGrid):
        header, coords = ["coord"], [cells(grid.nodes)]
    else:
        axis = cells(grid.nodes[0][: grid.m])
        header, coords = ["x", "y"], [axis * grid.m, [c for c in axis for _ in range(grid.m)]]
    body = coords + [[""] * grid.size if c is None else cells(c) for c in columns.values()]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header + list(columns))
        fh.write("\r\n".join(map(",".join, zip(*body))) + "\r\n")


@pytest.mark.parametrize(
    "spec",
    [
        hx.ProblemSpec(family="concave-convex", grid=hx.Square2DGrid(m=223), p=4.0, q=1.5, mu=0.1),
        hx.ProblemSpec(
            family="neumann-radial",
            grid=hx.RadialGrid(n=3201, dim=3),
            p=4.0,
            a=hx.GridFunction(hx.RadialGrid(n=3201, dim=3), 1.0 + np.linspace(0.0, 1.0, 3201), hx.NEUMANN_ZERO),
        ),
    ],
    ids=["square-223", "radial-3201"],
)
def test_profile_bytes_match_the_join_writer(tmp_path, spec):
    cert, _ = run_problem(spec)
    columns = {"u0": cert.u0.values, "v0": cert.v0.values}
    write_node_csv(tmp_path / "new.csv", spec.grid, columns)
    join_writer(tmp_path / "old.csv", spec.grid, columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def repr_cells(values) -> list[str]:
    """The cells ``_repr_frames`` formats, NUL bytes dropped."""
    text = _repr_frames(np.asarray(values, dtype=float)).view(np.uint8).reshape(len(values), -1).copy()
    text[:, -1] = ord("\n")
    return text.tobytes().translate(None, b"\0").decode("ascii").splitlines()


def assert_reprs(values):
    got = repr_cells(values)
    want = [repr(v) for v in np.asarray(values, dtype=float).tolist()]
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert len(got) == len(want) and not bad, f"{len(bad)} cells differ from repr, e.g. {bad[:5]}"


@given(st.lists(st.floats(), min_size=1, max_size=64))
@settings(max_examples=500, deadline=None)
def test_repr_frames_match_repr_on_any_double(values):
    # every double: subnormals, +-0, +-inf and nan included
    assert_reprs(values)


@given(
    st.lists(
        st.floats(min_value=1e-6, max_value=1e17) | st.floats(min_value=-1e17, max_value=-1e-6),
        min_size=1,
        max_size=64,
    )
)
@settings(max_examples=500, deadline=None)
def test_repr_frames_match_repr_in_the_fast_range(values):
    assert_reprs(values)


def test_repr_frames_match_repr_in_bulk():
    rng = np.random.default_rng(20261020)
    n = 150_000
    neighbours = []
    for centre in [10.0**e for e in range(-6, 18)] + [2.0**e for e in range(-20, 57)]:
        for direction in (-math.inf, math.inf):
            x = centre
            for _ in range(8):
                x = math.nextafter(x, direction)
                neighbours.append(x)
        neighbours.append(centre)
    samples = [
        rng.random(n),
        rng.random(n) * 1e-4,
        rng.random(n) * 1e-6,
        np.exp(rng.uniform(-300.0, 300.0, n) * math.log(10.0)) * rng.choice([-1.0, 1.0], n),
        rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64),
        rng.integers(-(2**40), 2**40, n) / 2.0 ** rng.integers(0, 60, n),
        # short decimals: few significant digits at every exponent
        np.array([float(f"{d}e{e}") for d, e in zip(rng.integers(1, 10**6, n), rng.integers(-12, 20, n))]),
        -rng.random(n),
        np.array(neighbours),
    ]
    values = np.concatenate(samples)
    assert values.size >= 10**6
    assert_reprs(values)


class TestQuadrature:
    def test_interval_measure(self):
        g = hx.RadialGrid(n=33, dim=1)
        assert abs(hx.quadrature_weights(g).sum() - 1.0) <= 1e-10

    def test_ball_volume_dim3(self):
        g = hx.RadialGrid(n=51, dim=3)
        assert abs(hx.quadrature_weights(g).sum() - 4 * np.pi / 3) <= 1e-12

    def test_disk_area_dim2(self):
        g = hx.RadialGrid(n=51, dim=2)
        assert abs(hx.quadrature_weights(g).sum() - np.pi) <= 1e-12

    def test_affine_exactness_1d(self):
        g = hx.RadialGrid(n=23, dim=1)
        w = hx.quadrature_weights(g)
        vals = 3.0 - 2.0 * g.nodes
        assert abs(np.dot(w, vals) - 2.0) <= 1e-10  # int_0^1 (3 - 2x) dx = 2

    def test_2d_interior_rule_increases_to_one(self):
        prev = 0.0
        for m in (4, 8, 16, 32):
            total = hx.quadrature_weights(hx.Square2DGrid(m=m)).sum()
            assert total <= 1.0
            assert total > prev
            prev = total
        assert 1.0 - prev <= 0.07

    def test_weights_nonnegative(self, grid3d, grid2d):
        assert hx.quadrature_weights(grid3d).min() > 0
        assert hx.quadrature_weights(grid2d).min() > 0


class TestRadialLaplacian:
    def test_constants_in_neumann_kernel(self):
        # the flux form puts constants exactly in the kernel of the
        # Laplacian part: -Lap c is 0 away from the pinned node, where the
        # assembled stiffness leaves rounding noise, and -Lap c + c is c
        for n, dim in ((41, 3), (201, 3), (3201, 5)):
            g = hx.RadialGrid(n=n, dim=dim)
            c = np.full(n, 4.25)
            lap = hx.build_radial_laplacian(g, hx.DIRICHLET_ZERO)
            far = slice(0, n - 2)  # the nodes not next to the pinned node r = 1
            assert not lap.apply(c)[far].any()
            assert (lap.stiffness @ np.where(lap.active, c, 0.0))[far].any()
            op = hx.build_radial_laplacian(g, hx.NEUMANN_ZERO)
            assert np.array_equal(op.apply(c), (op.weights * c) / op.weights)

    def test_r_squared_dim3(self):
        # -Lap(r^2) = -2 dim = -6 in dimension 3
        g = hx.RadialGrid(n=101, dim=3)
        op = hx.build_radial_laplacian(g, hx.NEUMANN_ZERO)
        out = op.apply(g.nodes**2) - g.nodes**2  # the Laplacian part
        interior = out[1:-1]
        assert np.max(np.abs(interior + 6.0)) <= 40 * g.h**2

    def test_second_order_consistency(self):
        # halve h twice on a smooth profile; fitted slope must be >= 1.8
        errs = []
        for n in (33, 65, 129):
            g = hx.RadialGrid(n=n, dim=3)
            op = hx.build_radial_laplacian(g, hx.NEUMANN_ZERO)
            r = g.nodes
            u = np.cos(np.pi * r)  # u'(0) = 0, u'(1) = 0: compatible both ends
            exact = np.pi**2 * np.cos(np.pi * r) - 2.0 / np.maximum(r, 1e-30) * (
                -np.pi * np.sin(np.pi * r)
            )
            exact[0] = 3 * np.pi**2  # limit of -N u''(0)
            lap_u = op.apply(u) - u  # the Laplacian part
            errs.append(np.max(np.abs(lap_u[1:-1] - exact[1:-1])))
        slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.min(slopes) >= 1.8

    @pytest.mark.parametrize("bc", [hx.DIRICHLET_ZERO, hx.NEUMANN_ZERO])
    def test_weighted_symmetry(self, bc):
        g = hx.RadialGrid(n=37, dim=3)
        op = hx.build_radial_laplacian(g, bc)
        w = op.weights
        rng = np.random.default_rng(5)
        for _ in range(5):
            u = rng.standard_normal(g.size)
            v = rng.standard_normal(g.size)
            lhs = weighted_inner(w, op.apply(u), v)
            rhs = weighted_inner(w, op.apply(v), u)
            scale = np.linalg.norm(u) * np.linalg.norm(v)
            assert abs(lhs - rhs) <= 1e-10 * scale

    def test_positive_semidefinite(self, grid3d):
        op = hx.build_radial_laplacian(grid3d, hx.NEUMANN_ZERO)
        rng = np.random.default_rng(11)
        for _ in range(20):
            u = rng.standard_normal(grid3d.size)
            quad = weighted_inner(op.weights, op.apply(u), u)
            assert quad >= -1e-10 * np.dot(u, u)

    def test_dirichlet_positive_definite_flag(self, grid3d):
        # -Lap under zero Dirichlet data and -Lap + I under zero Neumann
        # data, the only two operators, are both positive definite
        rng = np.random.default_rng(8)
        for bc in (hx.DIRICHLET_ZERO, hx.NEUMANN_ZERO):
            op = hx.build_radial_laplacian(grid3d, bc)
            u = rng.standard_normal(grid3d.size)
            u[~op.active] = 0.0
            assert weighted_inner(op.weights, op.apply(u), u) > 0.0

    def test_unknown_bc_rejected(self, grid1d):
        with pytest.raises(ValueError):
            hx.build_radial_laplacian(grid1d, "robin")


class Test2DLaplacian:
    def test_zero_maps_to_zero(self, grid2d):
        op = hx.build_2d_laplacian(grid2d)
        assert np.all(op.apply(np.zeros(grid2d.size)) == 0.0)

    def test_eigenfunction(self):
        g = hx.Square2DGrid(m=24)
        op = hx.build_2d_laplacian(g)
        xs, ys = g.nodes
        u = np.sin(np.pi * xs) * np.sin(np.pi * ys)
        ratio = op.apply(u) / u
        assert np.max(np.abs(ratio - 2 * np.pi**2)) <= 2 * np.pi**2 * 1.1 * g.h**2 * np.pi**2 / 4

    def test_m2_matches_hand_assembled_stencil(self):
        g = hx.Square2DGrid(m=2)
        op = hx.build_2d_laplacian(g)
        A = np.column_stack([op.apply(e) for e in np.eye(4)])
        inv_h2 = 1.0 / g.h**2
        expected = inv_h2 * np.array(
            [
                [4, -1, -1, 0],
                [-1, 4, 0, -1],
                [-1, 0, 4, -1],
                [0, -1, -1, 4],
            ],
            dtype=float,
        )
        np.testing.assert_allclose(A, expected, atol=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 5, 6, 17, 64])
    def test_banded_stiffness_matches_kron_assembly(self, m):
        T = sp.diags([-np.ones(m - 1), 2 * np.ones(m), -np.ones(m - 1)], [-1, 0, 1])
        eye = sp.identity(m)
        ref = (sp.kron(eye, T) + sp.kron(T, eye)).tocsr()
        S = hx.build_2d_laplacian(hx.Square2DGrid(m=m)).stiffness
        assert (S != ref).nnz == 0
        if m >= 6:  # below that, kron also stores explicit zeros
            for name in ("indptr", "indices", "data"):
                a, b = getattr(S, name), getattr(ref, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        else:
            assert np.all(S.data != 0.0)

    def test_weighted_symmetry_and_pd(self, grid2d):
        op = hx.build_2d_laplacian(grid2d)
        rng = np.random.default_rng(3)
        for _ in range(5):
            u = rng.standard_normal(grid2d.size)
            v = rng.standard_normal(grid2d.size)
            lhs = weighted_inner(op.weights, op.apply(u), v)
            rhs = weighted_inner(op.weights, op.apply(v), u)
            assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(u) * np.linalg.norm(v)
            assert weighted_inner(op.weights, op.apply(u), u) > 0


@pytest.mark.parametrize(
    "op",
    [
        hx.build_radial_laplacian(hx.RadialGrid(n=9), hx.DIRICHLET_ZERO),
        hx.build_radial_laplacian(hx.RadialGrid(n=9, dim=3), hx.NEUMANN_ZERO),
        hx.build_2d_laplacian(hx.Square2DGrid(m=3)),
    ],
    ids=["radial-dirichlet", "radial-neumann-plus-identity", "square"],
)
def test_operator_arrays_are_read_only(op):
    # one operator serves every spec on its grid, so none may change it
    arrays = [op.weights, op.active]
    for M in (op.stiffness, op.form):
        arrays += [M.data, M.indices, M.indptr]
    if op.edge_coeffs is not None:
        arrays.append(op.edge_coeffs)
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]


def _matvec_ld(M):
    """The product with sparse M, evaluated in np.longdouble."""
    C = M.tocoo()
    data = C.data.astype(np.longdouble)

    def apply(x):
        out = np.zeros(M.shape[0], dtype=np.longdouble)
        np.add.at(out, C.row, data * x[C.col])
        return out

    return apply


def _refined_solve(M, apply_ld, b, sweeps=4):
    """M x = b by a sparse LU of M and iterative refinement with residuals
    b - M x from ``apply_ld`` in np.longdouble (Higham, *Accuracy and
    Stability of Numerical Algorithms*, ch. 12).  Where np.longdouble has a
    64-bit significand (x86) this reaches about 1e-16 relative, far past
    the LU's own forward error."""
    lu = spla.splu(M.tocsc())
    x = lu.solve(b).astype(np.longdouble)
    for _ in range(sweeps):
        x += lu.solve((b - apply_ld(x)).astype(float))
    return x.astype(float)


class TestSineBasisSolves:
    """The square's form and H^2 Gram solves run in the sine basis."""

    @pytest.mark.parametrize(
        "op",
        [hx.build_2d_laplacian(hx.Square2DGrid(m=m)) for m in (2, 3, 12, 40)]  # 13 and 41 are prime
        + [
            hx.build_radial_laplacian(hx.RadialGrid(n=41), hx.DIRICHLET_ZERO),
            hx.build_radial_laplacian(hx.RadialGrid(n=41, dim=3), hx.DIRICHLET_ZERO),
            hx.build_radial_laplacian(hx.RadialGrid(n=41, dim=3), hx.NEUMANN_ZERO),
        ],
        ids=["2", "3", "12", "40", "radial-dim1-dirichlet", "radial-dim3-dirichlet", "radial-dim3-neumann"],
    )
    def test_form_and_gram_match_sparse_solves(self, op):
        # both systems go through the operator's one backend: the sine basis
        # on the square; on radial grids tridiagonal factors of F's bands,
        # real for the form and complex for the Gram matrix, which only a
        # dirichlet-zero operator has.  The references are refined in
        # extended precision: an LU of the assembled Gram matrix alone is
        # off by 9.3e-10 relative at dim 3, n = 201.
        idx = np.flatnonzero(op.active)
        b = np.random.default_rng(op.grid.size).standard_normal(op.grid.size)
        w = op.weights[idx]
        F = op.form[np.ix_(idx, idx)]
        F_ld = _matvec_ld(F)
        solves = [(op.solve_form(b), _refined_solve(F, F_ld, w * b[idx]))]
        if op.bc == hx.DIRICHLET_ZERO:
            S = op.stiffness[np.ix_(idx, idx)]
            gram = sp.diags(w) + S + F @ sp.diags(1.0 / w) @ F
            S_ld, w_ld = _matvec_ld(S), w.astype(np.longdouble)
            y_ref = _refined_solve(gram, lambda y: w_ld * y + S_ld(y) + F_ld(F_ld(y) / w_ld), w * b[idx])
            solves.append((hx.H2Geometry(op).riesz(b), y_ref))
        for sol, ref in solves:
            assert np.linalg.norm(sol[idx] - ref) <= 1e-12 * np.linalg.norm(ref)
            assert not sol[~op.active].any()

    @pytest.mark.parametrize("n, dim", [(3, 1), (4, 1), (3, 3), (4, 3), (5, 1)], ids=["1", "2", "2-dim3", "3-dim3", "3"])
    def test_gram_solve_on_few_active_nodes(self, n, dim):
        # one to three active nodes, where the complex factor's LAPACK
        # wrapper needs its own path; a dense solve is exact enough here
        op = hx.build_radial_laplacian(hx.RadialGrid(n=n, dim=dim), hx.DIRICHLET_ZERO)
        idx = np.flatnonzero(op.active)
        w = op.weights[idx]
        F = op.form[np.ix_(idx, idx)].toarray()
        gram = np.diag(w) + op.stiffness[np.ix_(idx, idx)].toarray() + F @ np.diag(1.0 / w) @ F
        b = np.arange(1.0, n + 1.0)
        ref = np.linalg.solve(gram, w * b[idx])
        y = hx.H2Geometry(op).riesz(b)
        assert np.linalg.norm(y[idx] - ref) <= 1e-14 * np.linalg.norm(ref)
        assert not y[~op.active].any()

    def test_gram_solve_serves_dirichlet_operators_only(self):
        # the radial Gram solve takes S = F, which -Lap + I breaks, and no
        # family asks for it under zero Neumann data
        op = hx.build_radial_laplacian(hx.RadialGrid(n=41, dim=3), hx.NEUMANN_ZERO)
        with pytest.raises(ValueError, match="dirichlet-zero"):
            op.gram_solver

    @pytest.mark.parametrize(
        "op",
        [
            hx.build_radial_laplacian(hx.RadialGrid(n=41), hx.DIRICHLET_ZERO),
            hx.build_radial_laplacian(hx.RadialGrid(n=41, dim=3), hx.DIRICHLET_ZERO),
            hx.build_radial_laplacian(hx.RadialGrid(n=41, dim=3), hx.NEUMANN_ZERO),
            hx.build_radial_laplacian(hx.RadialGrid(n=3), hx.DIRICHLET_ZERO),
            hx.build_radial_laplacian(hx.RadialGrid(n=4), hx.DIRICHLET_ZERO),
            hx.build_radial_laplacian(hx.RadialGrid(n=3), hx.NEUMANN_ZERO),
        ],
        ids=[
            "radial-dim1-dirichlet",
            "radial-dim3-dirichlet",
            "radial-dim3-neumann",
            "one-active-node",
            "two-active-nodes",
            "three-active-nodes",
        ],
    )
    def test_shifted_solve_matches_sparse_solve(self, op):
        # the Newton system (form - W diag(c)) x = W b on active nodes; with
        # no shift it is the form solve, whose factor takes gtsv's path below
        # three active nodes and gttrf's from three on
        idx = np.flatnonzero(op.active)
        rng = np.random.default_rng(op.grid.size)
        b, c = rng.standard_normal(op.grid.size), rng.uniform(0.0, 5.0, op.grid.size)
        w = op.weights[idx]
        J = op.form[np.ix_(idx, idx)] - sp.diags(w * c[idx])
        ref = spla.spsolve(J.tocsc(), w * b[idx])
        x = op.solve_shifted(c, b)
        assert np.linalg.norm(x[idx] - ref) <= 1e-10 * np.linalg.norm(ref)
        assert not x[~op.active].any()
        # with no shift it is the form solve
        y, y_ref = op.solve_shifted(np.zeros(op.grid.size), b), op.solve_form(b)
        assert np.linalg.norm(y - y_ref) <= 1e-10 * np.linalg.norm(y_ref)

    def test_only_radial_forms_are_banded(self):
        # the square's form has five bands and gets no shifted solve
        assert hx.build_radial_laplacian(hx.RadialGrid(n=41, dim=3), hx.NEUMANN_ZERO).has_banded_form
        assert not hx.build_2d_laplacian(hx.Square2DGrid(m=8)).has_banded_form

    def test_singular_shifted_solve_raises(self):
        # n=3 has one active node, with form 2/h = 4 and weight h = 0.5
        op = hx.build_radial_laplacian(hx.RadialGrid(n=3), hx.DIRICHLET_ZERO)
        with pytest.raises(np.linalg.LinAlgError):
            op.solve_shifted(np.full(3, 8.0), np.ones(3))

    def test_shifted_solve_keeps_its_bands_on_the_operator(self):
        # the bands are cached on the operator and die with it, so a
        # finished run leaves nothing behind
        op = hx.build_radial_laplacian(hx.RadialGrid(n=41), hx.DIRICHLET_ZERO)
        op.solve_shifted(np.ones(41), np.ones(41))
        bands = weakref.ref(op._form_bands[1])
        with pytest.raises(ValueError, match="read-only"):
            op._form_bands[1][0] = 0.0
        del op
        gc.collect()
        assert bands() is None

    @pytest.mark.parametrize("m", [2, 3, 12, 40])
    def test_riesz_identity(self, m):
        g = hx.Square2DGrid(m=m)
        op = hx.build_2d_laplacian(g)
        geo = hx.H2Geometry(op)
        rng = np.random.default_rng(100 + m)
        gvals, v = rng.standard_normal(g.size), rng.standard_normal(g.size)
        G = geo.riesz(gvals)
        w = op.weights
        h2_pairing = np.dot(w, G * v) + G @ (op.stiffness @ v) + np.dot(w, op.apply(G) * op.apply(v))
        scale = geo.h2_norm(G) * geo.h2_norm(v)
        assert abs(h2_pairing - weighted_inner(w, gvals, v)) <= 1e-10 * scale

    def test_square_run_factors_nothing(self, monkeypatch, operator_counts):
        # operator_counts empties the operator cache, so the runs below
        # build the square's operator and its solvers under the patch
        def refuse(*args, **kwargs):
            raise AssertionError("tridiagonal factorization on the square")

        monkeypatch.setattr("hintcvx.grid._gt_solver", refuse)
        g = hx.Square2DGrid(m=12)
        specs = [
            hx.ProblemSpec(family="concave-convex", grid=g, p=3.0, q=1.5, mu=0.5 * mu_star(1.0, 3.0, 1.5)),
            hx.ProblemSpec(
                family="nonhomogeneous", grid=g, p=3.0, f=hx.GridFunction(g, 0.05 * np.ones(g.size))
            ),
        ]
        for spec in specs:
            cert, _ = run_problem(spec)
            assert cert.verdict == "certified"
        # the same patch does catch the radial grids' factor
        with pytest.raises(AssertionError, match="tridiagonal factorization"):
            hx.build_radial_laplacian(hx.RadialGrid(n=9), hx.DIRICHLET_ZERO).form_solver

    def test_concave_convex_certifies_at_prime_m_plus_one(self):
        g = hx.Square2DGrid(m=192)  # m + 1 = 193 is prime
        spec = hx.ProblemSpec(family="concave-convex", grid=g, p=3.0, q=1.5, mu=0.2 * mu_star(1.0, 3.0, 1.5))
        cert, report = run_problem(spec)
        assert cert.verdict == "certified"
        assert report.iterations == 15


@given(dim=st.integers(min_value=1, max_value=6))
@settings(max_examples=6, deadline=None)
def test_sphere_area_matches_gamma_formula(dim):
    if dim == 1:
        assert sphere_area(dim) == 1.0
    else:
        from math import gamma, pi

        assert np.isclose(sphere_area(dim), 2 * pi ** (dim / 2) / gamma(dim / 2))
