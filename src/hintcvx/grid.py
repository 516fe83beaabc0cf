"""Discrete domains, elliptic operators, quadrature, and boundary conditions.

Two desk-scale domains are supported:

* ``RadialGrid``: radial profiles on [0, 1].  With ambient dimension
  ``dim == 1`` the grid is the plain unit interval (both endpoints are
  boundary under Dirichlet conditions, and the quadrature measure is
  Lebesgue on [0, 1]).  With ``dim >= 2`` the grid represents radial
  functions on the unit ball of R^dim: the node at r = 0 is the center
  (regularity condition u'(0) = 0) and only r = 1 is a boundary.

* ``Square2DGrid``: interior nodes of a uniform grid on the unit square
  with an implicit zero Dirichlet boundary.

Operators are second-order finite differences assembled from a symmetric
stiffness form, so they are exactly self-adjoint in the quadrature-weighted
inner product.  The boundary condition fixes the operator: ``-Lap`` under
zero Dirichlet data, ``-Lap + I`` under zero Neumann data.  Both are
positive definite.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

DIRICHLET_ZERO = "dirichlet-zero"
NEUMANN_ZERO = "neumann-zero"
BC_TAGS = (DIRICHLET_ZERO, NEUMANN_ZERO)


class FieldError(ValueError):
    """Invalid constructor argument; ``field`` names the offending one."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


def _check_count(name: str, value, least: int) -> None:
    # bool is an int subclass, but true is no node count
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise FieldError(name, f"expected an integer {name} >= {least}, got {name}={value!r}")


def sphere_area(dim: int) -> float:
    """Surface measure constant omega_N of the unit sphere in R^dim.

    ``dim == 1`` returns 1.0: one-dimensional problems live on the unit
    interval [0, 1] itself, not on [-1, 1], so the radial measure is plain
    Lebesgue measure.
    """
    if dim == 1:
        return 1.0
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid on [0, 1] with ``n`` nodes, ambient dimension ``dim``."""

    n: int
    dim: int = 1

    def __post_init__(self):
        _check_count("n", self.n, 3)
        _check_count("dim", self.dim, 1)

    @property
    def h(self) -> float:
        return 1.0 / (self.n - 1)

    @cached_property
    def nodes(self) -> np.ndarray:
        r = np.linspace(0.0, 1.0, self.n)
        r.flags.writeable = False
        return r

    @property
    def size(self) -> int:
        return self.n

    def boundary_indices(self, bc: str) -> np.ndarray:
        """Indices pinned to zero under the given boundary condition."""
        if bc not in BC_TAGS:
            raise ValueError(f"unknown boundary condition tag {bc!r}; expected one of {BC_TAGS}")
        if bc == NEUMANN_ZERO:
            return np.array([], dtype=int)
        if self.dim == 1:
            return np.array([0, self.n - 1], dtype=int)
        return np.array([self.n - 1], dtype=int)

    def to_json(self, bc: str) -> dict:
        return {"kind": "radial", "n": self.n, "dim": self.dim, "bc": bc}


@dataclass(frozen=True)
class Square2DGrid:
    """Interior nodes of a uniform grid on the unit square, ``m`` per axis.

    Only the m*m interior nodes are stored; the zero Dirichlet boundary is
    implicit.  Nodes are ordered lexicographically: flat index
    ``k = j * m + i`` holds the node at ``(x_i, y_j) = ((i+1) h, (j+1) h)``.
    """

    m: int

    def __post_init__(self):
        _check_count("m", self.m, 2)

    @property
    def h(self) -> float:
        return 1.0 / (self.m + 1)

    @property
    def size(self) -> int:
        return self.m * self.m

    @cached_property
    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate arrays (x, y) of all interior nodes in flat order."""
        coords = (np.arange(1, self.m + 1)) * self.h
        x, y = np.meshgrid(coords, coords, indexing="xy")
        xs, ys = x.ravel(), y.ravel()
        xs.flags.writeable = False
        ys.flags.writeable = False
        return xs, ys

    def boundary_indices(self, bc: str) -> np.ndarray:
        if bc != DIRICHLET_ZERO:
            raise ValueError("the square grid only supports dirichlet-zero conditions")
        return np.array([], dtype=int)  # boundary nodes are not stored

    def to_json(self, bc: str) -> dict:
        return {"kind": "square2d", "m": self.m, "bc": bc}


Grid = RadialGrid | Square2DGrid


@dataclass(frozen=True)
class GridFunction:
    """Real values sampled at the nodes of a grid, tagged with its space.

    Dirichlet-zero functions must vanish at the boundary nodes (enforced at
    construction within 1e-12).  Values are frozen after construction, so
    instances are safe to share across threads.
    """

    grid: Grid
    values: np.ndarray
    bc: str = DIRICHLET_ZERO

    def __post_init__(self):
        vals = np.array(self.values, dtype=float, copy=True)
        if vals.shape != (self.grid.size,):
            raise ValueError(
                f"values have shape {vals.shape}, grid has {self.grid.size} nodes"
            )
        if not np.isfinite(vals).all():
            raise ValueError("grid function values must be finite")
        bnd = self.grid.boundary_indices(self.bc)  # also rejects an unknown or unsupported tag
        if bnd.size and np.max(np.abs(vals[bnd])) > 1e-12:
            raise ValueError("dirichlet-zero function has nonzero boundary values")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.grid, values, self.bc)

    def to_csv(self, path) -> None:
        """Write (coordinates, value) columns."""
        write_node_csv(path, self.grid, {"value": self.values})


def write_node_csv(path, grid: Grid, columns: dict) -> None:
    """Write one CSV row per node: the node coordinates (``coord`` on radial
    grids, ``x,y`` on the square), then the named value columns, each
    given as one value per node or as ``None`` for an empty column.

    Every number cell is ``repr(float(value))``, the shortest string that
    reads back as the same double, and the file is byte for byte what
    ``csv.writer`` makes of those strings.  The cells come from
    ``_repr_frames``, ``_CSV_BLOCK`` rows at a time."""
    coord_names = ["coord"] if isinstance(grid, RadialGrid) else ["x", "y"]
    values = [None if col is None else np.asarray(col, dtype=float) for col in columns.values()]
    if isinstance(grid, RadialGrid):
        block = _CSV_BLOCK
    else:
        # node k = j m + i sits at (x_i, y_j), so both coordinate columns
        # are made of the m axis cells, and a block is whole lines of j
        axis = _repr_frames(grid.nodes[0][: grid.m])
        block = max(_CSV_BLOCK // grid.m, 1) * grid.m
    width = len(coord_names) + len(values)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(coord_names + list(columns))
        for start in range(0, grid.size, block):
            stop = min(start + block, grid.size)
            rows = np.zeros((stop - start, width), dtype=_CELL)
            if isinstance(grid, RadialGrid):
                rows[:, 0] = _repr_frames(grid.nodes[start:stop])
            else:
                lines = rows.reshape(-1, grid.m, width)
                lines[:, :, 0] = axis
                lines[:, :, 1] = axis[start // grid.m : stop // grid.m, None]
            for c, col in enumerate(values, start=len(coord_names)):
                if col is not None:
                    rows[:, c] = _repr_frames(col[start:stop])
            # a cell's last two bytes are NUL until here: end each cell with
            # csv.writer's delimiter, or the row with its "\r\n" terminator
            cells = rows.view(np.uint8).reshape(stop - start, width, _CELL.itemsize)
            cells[:, :, -1] = ord(",")
            cells[:, -1, -2:] = np.frombuffer(b"\r\n", dtype=np.uint8)
            fh.write(rows.tobytes().translate(None, b"\0").decode("ascii"))


# nodes formatted and written at a time, which bounds the writer's scratch
# arrays; the square's blocks are whole grid lines
_CSV_BLOCK = 4096
# one formatted cell with NUL padding: a repr takes at most 24 bytes, a
# fast-path layout 28, and the last two are kept free for a separator
_CELL = np.dtype("V32")
# distance, in units of the 17th significant digit, within which the fast
# path calls a rounding decision too close and leaves the cell to repr
_REPR_MARGIN = 1e-6
# the fast path takes e = floor(log10 |v|) in [-6, 16], where 10^(16 - e) is
# an exact double; its layouts span one more, as rounding up to 10^17
# carries e to 17
_FAST_LOW, _FAST_HIGH = -6, 16
_LAYOUT_EXPONENTS = range(_FAST_LOW, _FAST_HIGH + 2)
_POW10 = np.array([float(10**j) for j in range(23)])
_POW10_INT = 10 ** np.arange(18, dtype=np.int64)
_MANTISSA = np.uint64((1 << 52) - 1)
_EXPONENT = np.uint64(0x7FF << 52)


def _veltkamp_split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split doubles into two halves of at most 26 significant bits, so
    the products of halves are exact (Dekker, Numer. Math. 18 (1971))."""
    c = 134217729.0 * v  # 2^27 + 1
    hi = c - (c - v)
    return hi, v - hi


def _layout(neg: bool, e: int, k: int) -> bytes:
    """repr's layout of a number with sign ``neg``, decimal exponent e and
    k significant digits, as a ``_CELL`` template for ``_lay_out``.

    ``_lay_out`` writes digit 0 into byte 6 and ands digit i into byte
    7 + i, for i = 1 to 16, where the template holds 0xFF to keep it or 0
    to drop it; every other byte is the template's.  repr writes
    ``0.000ddd``, ``d.ddd`` and ``ddd.ddd`` or ``ddd00.0`` for
    -4 <= e < 16, and ``d.ddde-XX`` otherwise.  For e >= 1 the point falls
    among the digits: ``_lay_out`` moves digits 1 to e one byte down and
    puts it after them."""
    cell = bytearray(_CELL.itemsize)
    cell[0] = ord("-") if neg else 0
    if e < -4 or e >= 16:
        shown, point = k, k > 1
        cell[24:28] = b"e%+03d" % e
    elif e < 0:
        shown, point = k, False
        cell[1 : 2 - e] = b"0.000"[: 1 - e]
    else:
        # at least one digit follows the point
        shown, point = max(k, e + 2), e == 0
    cell[7] = ord(".") if point else 0
    cell[8 : 7 + shown] = b"\xff" * (shown - 1)
    return bytes(cell)


@cache
def _repr_tables() -> tuple[np.ndarray, np.ndarray]:
    """The ASCII four-digit groups 0000-9999 as uint32 items, and the
    ``_layout`` of every sign, fast-path exponent and digit count 1-17, in
    that order of nesting."""
    t = np.arange(10000)
    groups = np.stack([t // 1000, t // 100 % 10, t // 10 % 10, t % 10], axis=1) + ord("0")
    layouts = b"".join(
        _layout(neg, e, k) for neg in (False, True) for e in _LAYOUT_EXPONENTS for k in range(1, 18)
    )
    return groups.astype(np.uint8).view(np.uint32).ravel(), np.frombuffer(layouts, dtype=_CELL)


def _repr_frames(values: np.ndarray) -> np.ndarray:
    """``repr(float(v))`` of every entry of a float array, one ``_CELL``
    item each: its characters in order with NUL bytes among and after
    them, so dropping the NUL bytes leaves the repr.

    The fast path (``_shortest_decimals``, ``_lay_out``) covers |v| in
    [1e-6, 1e17) but for powers of two, whose gap below is half the gap
    above; the other cells, and those the fast path cannot decide, take
    repr itself."""
    x = np.asarray(values, dtype=float)
    a = np.abs(x)
    with np.errstate(divide="ignore"):
        e = np.floor(np.log10(a))
    done = np.flatnonzero(
        (e >= _FAST_LOW) & (e <= _FAST_HIGH) & (a.view(np.uint64) & _MANTISSA != 0)
    )
    N, e, k, ok = _shortest_decimals(a[done], e[done].astype(np.int64))
    done = done[ok]
    cells = _lay_out(x[done] < 0, N[ok], e[ok], k[ok])
    if done.size == x.size:
        return cells
    out = np.zeros(x.size, dtype=_CELL)
    out[done] = cells
    slow = np.ones(x.size, dtype=bool)
    slow[done] = False
    out[slow] = np.array([repr(v) for v in x[slow].tolist()], dtype=f"S{_CELL.itemsize}").view(_CELL)
    return out


def _shortest_decimals(a: np.ndarray, e: np.ndarray):
    """repr's digits of positive doubles a with e = floor(log10 a) in
    [-6, 16]: the digits as the integer N in [10^16, 10^17) whose leading
    k digits they are, the decimal exponent, k, and whether the cell was
    decided (else it is left to repr).

    repr is the shortest decimal that reads back as a, and the one nearest
    to a if several are as short (Gay's shortest mode, which CPython
    uses).  V = a 10^(16-e) lies in [10^16, 10^17) and is the exact sum
    H + f of an integer and a fraction, by Dekker's product, since
    10^(16-e) is an exact double.  The decimals that read back as a lie
    within g of V, half the gap between doubles at a times 10^(16-e),
    which is exact because 5^22 < 2^53, and exceeds 1/2.  Let
    (top - width, top] be the integers within g.  The shortest decimal has
    17 - t digits for the largest t with a multiple of 10^t among them, and
    it is the multiple of 10^t nearest to V.  A cell within
    ``_REPR_MARGIN`` of a boundary or a tie in these decisions is left
    undecided, as is one whose e log10 misjudged.
    """
    scale = _POW10[16 - e]
    hi = a * scale
    a_hi, a_lo = _veltkamp_split(a)
    s_hi, s_lo = _veltkamp_split(scale)
    lo = ((a_hi * s_hi - hi) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo
    lo_int = np.floor(lo)
    f = lo - lo_int
    H = hi.astype(np.int64) + lo_int.astype(np.int64)
    # half the gap between doubles at a: 2^-53 times a's power of two
    g = (a.view(np.uint64) & _EXPONENT).view(np.float64) * (scale * 2.0**-53)
    up, down = np.floor(f + g), np.floor(f - g)
    ok = (
        (H >= 10**16)
        & (H < 10**17)
        & (np.abs(f + g - up - 0.5) < 0.5 - _REPR_MARGIN)
        & (np.abs(f - g - down - 0.5) < 0.5 - _REPR_MARGIN)
    )
    top = H + up.astype(np.int64)
    width = (up - down).astype(np.int64)
    # a multiple of 10^(t+1) is one of 10^t, so t counts the powers that
    # fit; few cells get past t = 2
    tens = top - top // 10 * 10 < width
    hundreds = top - top // 100 * 100 < width
    t = tens + hundreds.astype(np.int64)
    live = np.flatnonzero(hundreds)
    for power in range(3, 18):
        rem = top[live] - top[live] // 10**power * 10**power
        live = live[rem < width[live]]
        if not live.size:
            break
        t[live] += 1
    step = _POW10_INT[t]
    q = H // step
    rest = (H - q * step) + f
    ok &= np.abs(rest - 0.5 * step) >= _REPR_MARGIN
    N = (q + (rest > 0.5 * step)) * step
    # N = 10^17 is one digit with the exponent one higher
    carry = t == 17
    N[carry] = 10**16
    return N, e + carry, 17 - t + carry, ok


def _lay_out(neg: np.ndarray, N: np.ndarray, e: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``_CELL`` items of repr's text for the signs, digits, exponents and
    digit counts ``_shortest_decimals`` gives: each cell's ``_layout``
    with digit 0 at byte 6 and digit i at byte 7 + i where it keeps them."""
    groups, layouts = _repr_tables()
    index = (neg * len(_LAYOUT_EXPONENTS) + (e - _FAST_LOW)) * 17 + (k - 1)
    cells = np.take(layouts, index)
    lead = N // 10**16
    high = N // 10**8
    low = N - high * 10**8
    high -= lead * 10**8
    quads = np.empty((N.size, 4), dtype=np.int64)
    quads[:, 0] = high // 10**4
    quads[:, 1] = high - quads[:, 0] * 10**4
    quads[:, 2] = low // 10**4
    quads[:, 3] = low - quads[:, 2] * 10**4
    # digits 1-16 fill bytes 8-23, the cell's 64-bit words 1 and 2, where a
    # layout byte is 0xFF or 0, so the bitwise and keeps or drops each
    words = cells.view(np.uint64).reshape(N.size, 4)
    digits = np.take(groups, quads).view(np.uint64)
    words[:, 1] &= digits[:, 0]
    words[:, 2] &= digits[:, 1]
    text = cells.view(np.uint8).reshape(N.size, _CELL.itemsize)
    text[:, 6] = lead + ord("0")
    inner = np.flatnonzero((e >= 1) & (e < 16))
    for p in np.unique(e[inner]).tolist():
        # the point goes after digit p: digits 1 to p move one byte down
        rows = inner[e[inner] == p]
        text[rows, 7 : 7 + p] = text[rows, 8 : 8 + p]
        text[rows, 7 + p] = ord(".")
    return cells


def quadrature_weights(grid: Grid) -> np.ndarray:
    """Quadrature weights realizing the domain integral at the nodes.

    Radial grids use the cell-integrated rule with the full surface
    constant: ``w_i = omega_N * integral of r^(N-1) over the node's cell``.
    For dim == 1 this reduces to the trapezoidal rule on [0, 1] (exact on
    affine integrands); for dim >= 2 the weights sum to the exact ball
    volume and the rule is O(h^2) accurate.  The square grid carries the
    plain interior rule ``w = h^2`` per node.
    """
    if isinstance(grid, RadialGrid):
        r = grid.nodes
        h = grid.h
        lo = np.maximum(r - 0.5 * h, 0.0)
        hi = np.minimum(r + 0.5 * h, 1.0)
        n = grid.dim
        w = sphere_area(n) * (hi**n - lo**n) / n
    else:
        w = np.full(grid.size, grid.h**2)
    w.flags.writeable = False
    return w


def weighted_inner(weights: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    """Quadrature-weighted L^2 pairing sum(w * u * v)."""
    return float(np.dot(weights * u, v))


@dataclass(frozen=True)
class EllipticOperator:
    """Sparse self-adjoint elliptic operator on grid functions.

    The operator is defined through its stiffness form: ``A u`` is the
    quadrature representative of the bilinear form, i.e.
    ``<A u, v>_w = u^T form v`` for every v supported on active nodes.
    ``stiffness`` holds the gradient part only (used for the H^1 seminorm);
    ``form`` adds the identity term under ``neumann-zero``.  Dirichlet
    rows and columns are zeroed, so the operator acts on the subspace of
    functions vanishing at the boundary and returns members of it.

    One operator serves every problem on its grid, so its arrays, and those
    of its matrices, are read-only.
    """

    grid: Grid
    bc: str
    weights: np.ndarray = field(repr=False)
    stiffness: sp.csr_matrix = field(repr=False)
    active: np.ndarray = field(repr=False)
    edge_coeffs: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        S = self.stiffness
        _read_only(S.data, S.indices, S.indptr, self.weights, self.active)
        if self.edge_coeffs is not None:
            _read_only(self.edge_coeffs)

    @cached_property
    def form(self) -> sp.csr_matrix:
        if self.bc == DIRICHLET_ZERO:
            return self.stiffness
        # neumann-zero pins no node
        F = (self.stiffness + sp.diags(self.weights)).tocsr()
        _read_only(F.data, F.indices, F.indptr)
        return F

    @property
    def has_banded_form(self) -> bool:
        """Whether ``solve_shifted`` is available: the form is tridiagonal
        on radial grids.  The square's is not, and a sparse LU of its shifted
        form costs more than a whole stage-i run there."""
        return not isinstance(self.grid, Square2DGrid)

    @cached_property
    def _active_block(self) -> slice:
        # a radial grid pins only its end nodes, so its active nodes form
        # one contiguous run and the active block is a slice
        idx = np.flatnonzero(self.active)
        return slice(idx[0], idx[-1] + 1)

    def _solver(self, gram: bool):
        """The operator's one solve backend on active nodes, of the form F or
        with ``gram`` of the H^2 Gram matrix H = W + S + F W^-1 F.

        On the square it is the sine basis (there H = h^2 I + K + K^2 / h^2).
        On radial grids both are tridiagonal factors (``_gt_solver``) made
        from F's bands: F's own, real, and for H, never assembled, a complex
        one.  With S = F (``-Lap``), H = W q(A) for A = W^-1 F and
        1 / q(t) = 1 / (t^2 + t + 1) = (2 / sqrt 3) Im 1 / (t - omega),
        omega = e^(2 pi i / 3), so x = (2 / sqrt 3) Im (F - omega W)^-1 b.
        An LU of the assembled H, whose F W^-1 F term squares the condition
        of F, is far less accurate: at dim 3, n = 201 its relative error is
        9.3e-10, against 1.3e-13 here."""
        if isinstance(self.grid, Square2DGrid):
            if gram:
                h2 = self.grid.h**2
                return sine_solver(self.grid, lambda lam: h2 + lam + lam * lam / h2)
            return sine_solver(self.grid, lambda lam: lam)
        lower, diag, upper = self._form_bands
        if not gram:
            return _gt_solver(lower, diag, upper)
        omega = complex(-0.5, math.sqrt(0.75))
        solve_c = _gt_solver(lower, diag - omega * self.weights[self._active_block], upper)
        return lambda b: (2.0 / math.sqrt(3.0)) * solve_c(b).imag

    @cached_property
    def form_solver(self):
        """Cached solve of the active form matrix."""
        return self._solver(gram=False)

    @cached_property
    def gram_solver(self):
        """Cached solve of the active H^2 Gram matrix (``H2Geometry.riesz``)
        of a ``dirichlet-zero`` operator: the H^2 ball of the two Dirichlet
        families is its only user, and its radial solve needs S = F."""
        if self.bc != DIRICHLET_ZERO:
            raise ValueError("the H^2 Gram solve serves the dirichlet-zero ball families only")
        return self._solver(gram=True)

    def quadratic_form(self, values: np.ndarray) -> float:
        """Psi(v) = 1/2 <A v, v>_w = 1/2 v^T form v."""
        return 0.5 * float(values @ (self.form @ values))

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Pointwise operator values A u (zero at inactive nodes).

        One-dimensional chains evaluate the stiffness part in flux form,
        flux_j = c_j (u_{j+1} - u_j), so constants land exactly in the
        kernel of the Laplacian part (node differences cancel without
        rounding; the assembled matrix would leave noise amplified by the
        tiny center-cell weight).
        """
        v = np.where(self.active, np.asarray(values, dtype=float), 0.0)
        if self.edge_coeffs is not None:
            flux = self.edge_coeffs * np.diff(v)
            out = np.zeros_like(v)
            out[:-1] -= flux
            out[1:] += flux
        else:
            out = self.stiffness @ v
        if self.bc == NEUMANN_ZERO:
            out = out + self.weights * v
        result = np.zeros_like(out)
        result[self.active] = out[self.active] / self.weights[self.active]
        return result

    def solve_form(self, rhs_values: np.ndarray) -> np.ndarray:
        """Solve A x = rhs in the weighted pairing, i.e. form x = W rhs, by
        the cached direct factorization.  Inactive entries of rhs are ignored."""
        x = np.zeros(self.grid.size)
        idx = self.active
        x[idx] = self.form_solver((self.weights * rhs_values)[idx])
        return x

    @cached_property
    def _form_bands(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The radial form's active block on its three bands: sub-, main
        and super-diagonal."""
        F = self.form[self._active_block, self._active_block]
        # gtsv takes max(n - 1, 1) entries off the diagonal, so a single
        # active node gets one unused zero on each side
        n_off = F.shape[0] - 1
        lower, upper = np.zeros(max(n_off, 1)), np.zeros(max(n_off, 1))
        lower[:n_off], upper[:n_off] = F.diagonal(-1), F.diagonal(1)
        bands = (lower, F.diagonal(), upper)
        _read_only(*bands)
        return bands

    def solve_shifted(self, shift: np.ndarray, rhs_values: np.ndarray) -> np.ndarray:
        """Solve (A - diag(shift)) x = rhs in the weighted pairing, i.e.
        (form - W diag(shift)) x = W rhs, on the active nodes of an
        operator with ``has_banded_form``.

        The matrix is tridiagonal, and possibly indefinite, so this is one
        O(n) LAPACK ``gtsv`` solve (Gaussian elimination with partial
        pivoting) with no factor kept; it is ``scipy.linalg.solve_banded``'s
        own path for one band each side, called without that wrapper's
        argument checks, which cost more than the solve at n = 201.
        Inactive entries of shift and rhs are ignored.  A singular matrix
        raises ``numpy.linalg.LinAlgError``."""
        act = self._active_block
        lower, diag, upper = self._form_bands
        *_, x_act, info = sla.lapack.dgtsv(
            lower, diag - (self.weights * shift)[act], upper, (self.weights * rhs_values)[act]
        )
        if info > 0:
            raise np.linalg.LinAlgError("singular matrix")
        x = np.zeros(self.grid.size)
        x[act] = x_act
        return x


def _gt_solver(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray):
    """Solve with the tridiagonal matrix of the given bands, real or complex
    as they are, by its LAPACK ``gttrf`` factor (LU with partial pivoting),
    made once."""
    gtsv, gttrf, gttrs = sla.get_lapack_funcs(("gtsv", "gttrf", "gttrs"), (lower, diag, upper))
    if diag.size < 3:
        # the gttrf wrappers take no fewer than three unknowns; gtsv takes
        # the bands as _form_bands pads them
        return lambda b: gtsv(lower, diag, upper, b)[3]
    *factor, info = gttrf(lower, diag, upper)
    if info != 0:
        raise np.linalg.LinAlgError("singular matrix")
    return lambda b: gttrs(*factor, b)[0]


def _read_only(*arrays) -> None:
    for arr in arrays:
        arr.flags.writeable = False


def build_radial_laplacian(grid: RadialGrid, bc: str) -> EllipticOperator:
    """Assemble the radial operator -u'' - (dim-1)/r u', plus the identity
    under ``neumann-zero``.

    The stiffness form uses midpoint radial factors on each edge, which
    reproduces the symmetric ghost-point treatment of the center node
    (regularity u'(0) = 0) and the natural Neumann condition at r = 1.
    """
    n, h = grid.n, grid.h
    omega = sphere_area(grid.dim)
    mid = (np.arange(n - 1) + 0.5) * h
    c = omega * mid ** (grid.dim - 1) / h

    active = np.ones(n, dtype=bool)
    active[grid.boundary_indices(bc)] = False
    # node i gets c_(i-1) + c_i on the diagonal and -c_i towards node i+1;
    # Dirichlet rows and columns are zero
    diag = np.where(active, np.append(c, 0.0) + np.insert(c, 0, 0.0), 0.0)
    off = np.where(active[:-1] & active[1:], -c, 0.0)
    S = sp.diags([off, diag, off], [-1, 0, 1], format="csr")
    return EllipticOperator(
        grid=grid,
        bc=bc,
        weights=quadrature_weights(grid),
        stiffness=S,
        active=active,
        edge_coeffs=c,
    )


def sine_solver(grid: Square2DGrid, f):
    """Solve f(K) x = b for the square's 5-point stiffness K = T(x)I + I(x)T
    by fast diagonalisation (Lynch, Rice & Thomas, Numer. Math. 6 (1964)).

    The orthonormal DST-I matrix Q[j,k] = sqrt(2/(m+1)) sin(jk pi/(m+1)) is
    symmetric, its own inverse, and diagonalises T with eigenvalues
    t_j = 2 - 2 cos(j pi/(m+1)) = 4 sin^2(j pi/(2(m+1))), so K has the
    eigenvalues lam_jk = t_j + t_k and x = Q ((Q B Q) / f(lam)) Q with B
    the right-hand side as an m x m array.  ``f`` maps the eigenvalue array
    elementwise to those of the matrix being solved.  Four dense products
    cost O(m^3) and no factorization; the sine form of t_j avoids the
    cancellation of 2 - 2 cos at low frequencies.
    """
    m = grid.m
    k = np.arange(1, m + 1)
    # sin is 2(m+1)-periodic in jk, so reduce exactly in integers first
    Q = np.sqrt(2.0 / (m + 1)) * np.sin(np.pi / (m + 1) * (np.outer(k, k) % (2 * (m + 1))))
    t = 4.0 * np.sin(0.5 * np.pi / (m + 1) * k) ** 2
    scale = f(t[:, None] + t[None, :])

    def solve(b: np.ndarray) -> np.ndarray:
        return (Q @ ((Q @ b.reshape(m, m) @ Q) / scale) @ Q).ravel()

    return solve


def build_2d_laplacian(grid: Square2DGrid) -> EllipticOperator:
    """Standard 5-point negative Laplacian on the unit square, zero Dirichlet."""
    m, n = grid.m, grid.size
    # stiffness = h^2 * (5-point / h^2) on its five bands; node k = j m + i
    # has no x-neighbour across a row end, where the +-1 bands are zero
    side = -np.ones(n - 1)
    side[m - 1 :: m] = 0.0
    far = -np.ones(n - m)
    S = sp.diags([far, side, np.full(n, 4.0), side, far], [-m, -1, 0, 1, m], format="csr")
    S.eliminate_zeros()
    active = np.ones(n, dtype=bool)
    return EllipticOperator(
        grid=grid,
        bc=DIRICHLET_ZERO,
        weights=quadrature_weights(grid),
        stiffness=S,
        active=active,
    )
