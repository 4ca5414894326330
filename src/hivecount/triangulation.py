"""Placing triangulations of integral cone generators and integral vertices.

The generators are the columns of a matrix (for hives, the homogenized hive
matrix).  Everything is measured in the lattice Z^m intersected with the
linear span of the generators, so cell determinants are meaningful even when
the configuration is not full-dimensional in ambient space.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DegenerateSpanError, InvariantError, NoUnimodularCellError
from .hives import build_hive_polytope, homogenize
from .linalg import (
    det,
    dot,
    hermite_solve,
    identity,
    integer_kernel,
    kernel_line,
    rank as matrix_rank,
    solve_square,
)
from .polyhedra import INFEASIBLE, OPTIMAL, lp_standard
from .weights import make_triple


@dataclass(frozen=True)
class PointConfiguration:
    """Integral generators a_1..a_n, given as vectors in Z^m."""

    points: tuple

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(tuple(p) for p in self.points))
        if not self.points:
            raise DegenerateSpanError("empty configuration")
        if any(not any(p) for p in self.points):
            raise DegenerateSpanError("zero generator")

    @property
    def ambient_dim(self) -> int:
        return len(self.points[0])

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class SimplicialCell:
    """Indices (0-based) of a maximal simplicial subcone and its determinant."""

    indices: tuple
    det: int


@dataclass(frozen=True)
class Triangulation:
    config: PointConfiguration
    cells: tuple
    insertion_order: tuple
    span_basis: tuple  # lattice basis of Z^m cap span(points)
    coords: tuple  # each point written in span_basis coordinates

    @property
    def span_dim(self) -> int:
        return len(self.span_basis)


def span_lattice_basis(points):
    """Basis of the lattice Z^m cap span_Q(points)."""
    m = len(points[0])
    left_kernel = integer_kernel([list(p) for p in points])
    if not left_kernel:
        return identity(m)
    return integer_kernel(left_kernel)


def _span_coordinates(basis, vector):
    """Integral coordinates of a lattice vector of the span w.r.t. basis."""
    rows = [[b[i] for b in basis] for i in range(len(vector))]
    coeffs, _ = hermite_solve(rows, list(vector))
    return tuple(coeffs)


def _assert_pointed(points):
    """A nonnegative nonzero combination of generators summing to zero kills pointedness."""
    n = len(points)
    dim = len(points[0])
    rows = [[p[i] for p in points] + [0] * n for i in range(dim)]
    for j in range(n):
        cap = [0] * (2 * n)
        cap[j] = 1
        cap[n + j] = 1
        rows.append(cap)
    rhs = [0] * dim + [1] * n
    res = lp_standard(rows, rhs, [-1] * n + [0] * n)
    if res.status != OPTIMAL or res.value != 0:
        raise DegenerateSpanError("generators positively span a line; the cone is not pointed")


def _facet_normal(lin_vectors, facet_vectors, opposite):
    """Outer normal of a boundary facet, expressed in span coordinates.

    The normal is constrained to the space spanned by lin_vectors so that
    visibility is decided inside the current cone's own span.
    """
    rows = [[dot(f, lv) for lv in lin_vectors] for f in facet_vectors]
    beta = kernel_line(rows) if rows else (1,)
    if beta is None:
        return None
    k = len(lin_vectors[0])
    normal = tuple(
        sum(bt * lv[i] for bt, lv in zip(beta, lin_vectors)) for i in range(k)
    )
    side = dot(normal, opposite)
    if side == 0:
        raise InvariantError("cell vertex on its own facet hyperplane")
    return tuple(-v for v in normal) if side > 0 else normal


def placing_triangulation(config, order=None, *, pointed=False) -> Triangulation:
    """Incremental triangulation of cone(config) by insertion order.

    Each generator is inserted in turn; one that extends the dimension joins
    every existing cell, one inside the current cone changes nothing, and one
    outside is joined to the strictly visible boundary facets.  A caller that
    knows cone(config) to be pointed passes pointed=True to skip the LP that
    checks it.
    """
    if not isinstance(config, PointConfiguration):
        config = PointConfiguration(tuple(config))
    pts = config.points
    n = len(pts)
    order = tuple(order) if order is not None else tuple(range(n))
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of the point indices")
    if not pointed:
        _assert_pointed(pts)
    m = config.ambient_dim
    if matrix_rank(pts) == m:
        # the span is all of Q^m, and its lattice Z^m
        basis = identity(m)
        coords = list(pts)
    else:
        basis = span_lattice_basis(pts)
        coords = [_span_coordinates(basis, p) for p in pts]

    cells = []  # each a tuple of point indices, len == current dimension
    lin = []  # indices of an independent spanning subset
    for idx in order:
        v = coords[idx]
        if matrix_rank([list(coords[i]) for i in lin] + [list(v)]) > len(lin):
            cells = [cell + (idx,) for cell in cells] if cells else [(idx,)]
            lin.append(idx)
            continue
        lin_vectors = [coords[i] for i in lin]
        facet_owner = {}
        for cell in cells:
            for drop in cell:
                facet = tuple(sorted(i for i in cell if i != drop))
                facet_owner[facet] = None if facet in facet_owner else (cell, drop)
        new_cells = []
        for facet, owner in sorted(facet_owner.items()):
            if owner is None:
                continue
            cell, drop = owner
            normal = _facet_normal(
                lin_vectors, [coords[i] for i in facet], coords[drop]
            )
            if normal is not None and dot(normal, v) > 0:
                new_cells.append(facet + (idx,))
        cells.extend(new_cells)
    span_dim = len(basis)
    out = []
    for cell in cells:
        mat = [[coords[i][r] for i in cell] for r in range(span_dim)]
        d = det(mat)
        if d == 0:
            raise InvariantError("degenerate cell in placing triangulation")
        out.append(SimplicialCell(tuple(sorted(cell)), d))
    return Triangulation(
        config=config,
        cells=tuple(out),
        insertion_order=order,
        span_basis=tuple(tuple(b) for b in basis),
        coords=tuple(coords),
    )


def is_unimodular(tri: Triangulation):
    """(True, None) when every cell has determinant +-1, else (False, cell)."""
    for cell in tri.cells:
        if abs(cell.det) != 1:
            return False, cell
    return True, None


def cell_contains(tri: Triangulation, cell: SimplicialCell, target_coords):
    """Barycentric solve: coefficients of target over the cell, or None."""
    span_dim = tri.span_dim
    mat = [[tri.coords[i][r] for i in cell.indices] for r in range(span_dim)]
    sol = solve_square(mat, list(target_coords))
    if sol is None:
        return None
    return sol if all(c >= 0 for c in sol) else None


def hive_matrix(rank: int) -> PointConfiguration:
    """Columns of the homogenized hive matrix M = [B 0; R I] as a configuration."""
    if rank < 1:
        raise ValueError("rank must be at least 1")
    return PointConfiguration(tuple(zip(*hive_matrix_rows(rank))))


def hive_matrix_rows(rank: int):
    """Rows of the homogenized hive matrix M = [B 0; R I] at the given rank."""
    zero = (0,) * (rank + 1)
    system = build_hive_polytope(make_triple(zero, zero, zero, rank=rank))
    rows, _ = homogenize(system)
    return rows


# Insertion orders pinned per rank where the natural column order does not
# give unit cells.  At rank 4 the natural placing order produces cells of
# determinant 2 and 4; the recorded permutation (found by randomized search
# over insertion orders) places the same columns into 34 cells, all of
# determinant +-1.  Ranks 2 and 3 need no pin: natural order is unimodular.
_PINNED_ORDERS = {
    4: (4, 30, 17, 19, 13, 12, 2, 27, 10, 24, 18, 9, 21, 8, 6, 29, 15, 11,
        3, 5, 1, 28, 7, 14, 0, 32, 20, 23, 26, 31, 25, 22, 16),
}


@lru_cache(maxsize=None)
def hive_triangulation(rank: int) -> Triangulation:
    return placing_triangulation(hive_matrix(rank), order=_PINNED_ORDERS.get(rank))


def integral_vertex_witness(b, rank: int):
    """Integral vertex of {x >= 0 : M x = b} for the rank's hive matrix.

    Returns None when b is outside cone(M), certified by LP infeasibility.
    Raises NoUnimodularCellError if b lies only in non-unimodular cells of the
    stored placing triangulation.
    """
    tri = hive_triangulation(rank)
    rows = hive_matrix_rows(rank)
    n = len(rows[0])
    feas = lp_standard(rows, list(b), [0] * n)
    if feas.status == INFEASIBLE:
        return None
    target = _span_coordinates(tri.span_basis, tuple(b))
    blocked = False
    for cell in tri.cells:
        coeffs = cell_contains(tri, cell, target)
        if coeffs is None:
            continue
        if abs(cell.det) != 1:
            blocked = True
            continue
        x = [0] * n
        for col, c in zip(cell.indices, coeffs):
            if c.denominator != 1:
                raise InvariantError("non-integral solve in a unimodular cell")
            x[col] = int(c)
        _verify_vertex(rows, b, x)
        return tuple(x)
    if blocked:
        raise NoUnimodularCellError(
            f"rank {rank}: rhs lies only in cells of determinant != 1"
        )
    raise InvariantError("feasible rhs not covered by any cell; triangulation is broken")


def _verify_vertex(rows, b, x):
    n = len(x)
    if any(v < 0 for v in x):
        raise InvariantError("witness has a negative coordinate")
    if any(dot(r, x) != bv for r, bv in zip(rows, b)):
        raise InvariantError("witness does not satisfy M x = b")
    tight = [list(r) for r in rows]
    for j in range(n):
        if x[j] == 0:
            row = [0] * n
            row[j] = 1
            tight.append(row)
    if matrix_rank(tight) != n:
        raise InvariantError("witness is not a vertex: tight conditions do not pin it")


def write_triangulation(tri: Triangulation, path, rank: int):
    """Text export: header 'rank rows cols cellcount', then 1-based cells."""
    lines = [f"{rank} {tri.config.ambient_dim} {len(tri.config)} {len(tri.cells)}"]
    for cell in tri.cells:
        lines.append(" ".join(str(i + 1) for i in cell.indices))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
