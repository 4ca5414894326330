"""The placing triangulation before cached adjugates, kept as a test oracle.

placing_triangulation here decides visibility from an outer facet normal,
one kernel_line per boundary facet at every insertion, tests each point
for a new dimension with a rank computation over the whole independent set,
and checks pointedness up front with one LP (_assert_pointed).  The
package's version reads visibility and pointedness off barycentric
coordinates; it must reject the same configurations and give the same
cells, in the same order, with the same determinants: each taken over the
cell's points in the order of its sorted indices.
"""

from _lll_oracle import det, rank as matrix_rank
from _vertex_oracle import kernel_line
from hivecount.errors import DegenerateSpanError, InvariantError
from hivecount.linalg import dot, identity
from hivecount.polyhedra import OPTIMAL, lp_standard
from hivecount.triangulation import (
    PointConfiguration,
    SimplicialCell,
    Triangulation,
    _span_coordinates,
    span_lattice_basis,
)


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


def placing_triangulation(config, order=None) -> Triangulation:
    """Incremental triangulation of cone(config) by insertion order."""
    if not isinstance(config, PointConfiguration):
        config = PointConfiguration(tuple(config))
    pts = config.points
    n = len(pts)
    order = tuple(order) if order is not None else tuple(range(n))
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of the point indices")
    _assert_pointed(pts)
    m = config.ambient_dim
    if matrix_rank(pts) == m:
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
    for cell in map(sorted, cells):
        mat = [[coords[i][r] for i in cell] for r in range(span_dim)]
        d = det(mat)
        if d == 0:
            raise InvariantError("degenerate cell in placing triangulation")
        out.append(SimplicialCell(tuple(cell), d))
    return Triangulation(
        config=config,
        cells=tuple(out),
        insertion_order=order,
        span_basis=tuple(tuple(b) for b in basis),
        coords=tuple(coords),
    )
