"""Placing triangulations of integral cone generators and integral vertices.

The generators are the columns of a matrix (for hives, the homogenized hive
matrix).  Everything is measured in the lattice Z^m intersected with the
linear span of the generators, so cell determinants are meaningful even when
the configuration is not full-dimensional in ambient space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .errors import DegenerateSpanError, InvariantError, NoUnimodularCellError
from .hives import build_hive_polytope, homogenize
from .linalg import (
    add_row_column,
    dot,
    echelon_pivots,
    hermite_solve,
    identity,
    integer_kernel,
    replace_column,
)
from .polyhedra import INFEASIBLE, lp_standard
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
    """Indices (0-based) of a maximal simplicial subcone, its determinant and adjugate.

    Both are of the matrix whose columns are the cell's points, in index order,
    in span coordinates.
    """

    indices: tuple
    det: int
    adjugate: tuple = field(default=None, compare=False, repr=False)


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


def placing_triangulation(config, order=None) -> Triangulation:
    """Incremental triangulation of cone(config) by insertion order.

    Each generator is inserted in turn; one that extends the dimension joins
    every existing cell, one inside the current cone changes nothing, and one
    outside is joined to the strictly visible boundary facets: those opposite
    a negative barycentric coordinate of the point in their cell.  Each cell's
    adjugate comes from an earlier one, bordered by a row and a column or
    updated in one column, with no elimination.  A point v that does not
    extend the dimension and lies strictly inside no boundary facet has -v in
    the cone so far, and the first point to put a line into the cone is such
    a point, so DegenerateSpanError is raised exactly when cone(config) is
    not pointed.
    """
    if not isinstance(config, PointConfiguration):
        config = PointConfiguration(tuple(config))
    pts = config.points
    n = len(pts)
    order = tuple(order) if order is not None else tuple(range(n))
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of the point indices")
    m = config.ambient_dim
    pivot_of = echelon_pivots(pts, order)
    if len(pivot_of) == m:
        # the span is all of Q^m, and its lattice Z^m
        basis = identity(m)
        coords = list(pts)
    else:
        basis = span_lattice_basis(pts)
        coords = [_span_coordinates(basis, p) for p in pts]
        pivot_of = echelon_pivots(coords, order)

    cells = [()]  # each a tuple of point indices, len == current dimension
    inverses = [([], 1)]  # per cell, (adjugate, determinant) over the pivots
    pivots = []  # pivots of the points so far that extended the span
    for idx in order:
        # the points so far span what their echelon rows span, which projects
        # one to one onto their pivots, so every cell is invertible there
        v = coords[idx]
        vp = [v[p] for p in pivots]
        if idx in pivot_of:
            # every cell gains the point as a column and its pivot as a row
            p = pivot_of[idx]
            inverses = [
                add_row_column(adj, d, vp, [coords[i][p] for i in cell], v[p])
                for cell, (adj, d) in zip(cells, inverses)
            ]
            cells = [cell + (idx,) for cell in cells]
            pivots.append(p)
            continue
        facet_owner = {}
        for c, cell in enumerate(cells):
            for j, drop in enumerate(cell):
                facet = tuple(sorted(i for i in cell if i != drop))
                facet_owner[facet] = None if facet in facet_owner else (c, j)
        inside = False
        for facet, owner in sorted(facet_owner.items()):
            if owner is None:
                continue
            c, j = owner
            cell = cells[c]
            adj, d = inverses[c]
            if d == 0:
                raise InvariantError("degenerate cell in placing triangulation")
            # v has barycentric coordinates adj vp / d in the cell, and the
            # facet opposite point j is visible exactly where coordinate j < 0
            s = dot(adj[j], vp)
            if s < 0 if d > 0 else s > 0:
                cells.append(cell[:j] + (idx,) + cell[j + 1 :])
                inverses.append(replace_column(adj, d, j, [dot(row, vp) for row in adj]))
            elif s:
                inside = True
        if not inside:
            raise DegenerateSpanError("generators positively span a line; the cone is not pointed")
    # the pivots are a permutation of the span coordinates: putting the rows
    # of each square in coordinate order, and its columns in index order,
    # permutes its adjugate's columns and rows and multiplies both by the signs
    unpivot = sorted(range(len(pivots)), key=pivots.__getitem__)
    sign = (-1) ** sum(a > b for i, a in enumerate(pivots) for b in pivots[i + 1 :])
    out = []
    for cell, (adj, d) in zip(cells, inverses):
        if d == 0:
            raise InvariantError("degenerate cell in placing triangulation")
        sgn = sign * (-1) ** sum(a > b for i, a in enumerate(cell) for b in cell[i + 1 :])
        rows = sorted(range(len(cell)), key=cell.__getitem__)
        adj = tuple([tuple([sgn * adj[k][c] for c in unpivot]) for k in rows])
        out.append(SimplicialCell(tuple(cell[k] for k in rows), sgn * d, adj))
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


def cell_contains(cell: SimplicialCell, target_coords):
    """Coefficients adj target / det of target over the cell, or None outside it."""
    sol = [Fraction(dot(row, target_coords), cell.det) for row in cell.adjugate]
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

    Returns None when b is outside cone(M), certified by LP infeasibility, and
    raises ValueError when b's length is not M's number of rows.
    Raises NoUnimodularCellError if b lies only in non-unimodular cells of the
    stored placing triangulation.
    """
    tri = hive_triangulation(rank)
    rows = hive_matrix_rows(rank)
    if len(b) != len(rows):
        raise ValueError(
            f"rhs has {len(b)} entries; the rank-{rank} hive matrix has {len(rows)} rows"
        )
    n = len(rows[0])
    feas = lp_standard(rows, list(b), [0] * n)
    if feas.status == INFEASIBLE:
        return None
    target = _span_coordinates(tri.span_basis, tuple(b))
    blocked = False
    for cell in tri.cells:
        coeffs = cell_contains(cell, target)
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
    if len(echelon_pivots(tight, range(len(tight)))) != n:
        raise InvariantError("witness is not a vertex: tight conditions do not pin it")


def write_triangulation(tri: Triangulation, path, rank: int):
    """Text export: header 'rank rows cols cellcount', then 1-based cells."""
    lines = [f"{rank} {tri.config.ambient_dim} {len(tri.config)} {len(tri.cells)}"]
    for cell in tri.cells:
        lines.append(" ".join(str(i + 1) for i in cell.indices))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
