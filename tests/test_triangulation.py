import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import _triangulation_oracle as oracle
from _lll_oracle import det, rank as matrix_rank

from hivecount import (
    PointConfiguration,
    decompose_cone,
    hive_matrix,
    hive_triangulation,
    integral_vertex_witness,
    is_unimodular,
    placing_triangulation,
)
from hivecount.errors import DegenerateSpanError
from hivecount.linalg import dot
from hivecount.polyhedra import VertexCone
from hivecount.triangulation import (
    cell_contains,
    hive_matrix_rows,
    span_lattice_basis,
    write_triangulation,
)


def test_two_dimensional_fan():
    # (1,1) lies inside cone((1,0),(0,1)): placing it last changes nothing
    tri = placing_triangulation(((1, 0), (0, 1), (1, 1)))
    assert [c.indices for c in tri.cells] == [(0, 1)]
    assert abs(tri.cells[0].det) == 1

    # placing (1,1) first forces the two-cell fan
    tri = placing_triangulation(((1, 0), (0, 1), (1, 1)), order=(2, 0, 1))
    cells = sorted(c.indices for c in tri.cells)
    assert cells == [(0, 2), (1, 2)]
    assert all(abs(c.det) == 1 for c in tri.cells)


def test_identity_columns_single_cell():
    tri = placing_triangulation(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert len(tri.cells) == 1
    assert abs(tri.cells[0].det) == 1
    ok, witness = is_unimodular(tri)
    assert ok and witness is None


def test_order_must_be_permutation():
    with pytest.raises(ValueError):
        placing_triangulation(((1, 0), (0, 1)), order=(0, 0))


def test_rejects_unpointed_configuration():
    with pytest.raises(DegenerateSpanError):
        placing_triangulation(((1, 0), (-1, 0)))
    with pytest.raises(DegenerateSpanError):
        PointConfiguration(((0, 0), (1, 0)))
    # a tangent cone that contains the line through (1, 0, 0)
    line = VertexCone(apex=(0, 0, 0), rays=((1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, 0, 1)))
    with pytest.raises(DegenerateSpanError):
        decompose_cone(line)


def test_span_lattice_basis_full_rank():
    basis = span_lattice_basis([(1, 0), (0, 1)])
    assert sorted(tuple(b) for b in basis) == [(0, 1), (1, 0)]


def test_span_lattice_basis_sublattice():
    # span of (2, 2) is the line x = y whose lattice is generated by (1, 1)
    basis = span_lattice_basis([(2, 2)])
    assert len(basis) == 1
    assert tuple(map(abs, basis[0])) == (1, 1)


def test_hive_rank2_unimodular_natural_order():
    tri = placing_triangulation(hive_matrix(2))
    ok, _ = is_unimodular(tri)
    assert ok
    assert len(tri.cells) == 1
    assert tri.span_dim == 9


def test_hive_rank3_unimodular_natural_order():
    tri = placing_triangulation(hive_matrix(3))
    ok, _ = is_unimodular(tri)
    assert ok
    assert tri.span_dim == 18


def test_hive_rank4_default_unimodular():
    tri = hive_triangulation(4)
    ok, _ = is_unimodular(tri)
    assert ok
    assert tri.span_dim == 30


@pytest.mark.slow
def test_hive_rank4_natural_order_is_not_unimodular():
    # the natural column order genuinely fails at rank 4; the default order
    # for hive_triangulation(4) is pinned to a searched permutation instead
    tri = placing_triangulation(hive_matrix(4))
    ok, witness = is_unimodular(tri)
    assert not ok
    assert abs(witness.det) > 1


def test_coverage_and_uniqueness_sampling():
    # every sampled cone point lies in at least one cell, and points in
    # general position lie in exactly one
    rng = random.Random(17)
    tri = hive_triangulation(3)
    pts = tri.coords
    k = tri.span_dim
    n = len(pts)
    for _ in range(120):
        m = rng.randint(1, n)
        idxs = rng.sample(range(n), m)
        target = [Fraction(0)] * k
        for i in idxs:
            w = Fraction(rng.randint(1, 9), rng.randint(1, 5))
            for r in range(k):
                target[r] += w * pts[i][r]
        inside = strict = 0
        for cell in tri.cells:
            coeffs = cell_contains(cell, target)
            if coeffs is None:
                continue
            inside += 1
            if all(c > 0 for c in coeffs):
                strict += 1
        assert inside >= 1
        assert strict <= 1


def test_integral_vertex_witness_round_trip():
    rng = random.Random(5)
    for rank in (2, 3):
        rows = hive_matrix_rows(rank)
        n = len(rows[0])
        for _ in range(5):
            x = [rng.randint(0, 5) for _ in range(n)]
            b = tuple(dot(r, x) for r in rows)
            w = integral_vertex_witness(b, rank)
            assert w is not None
            assert all(v >= 0 for v in w)
            assert all(dot(r, w) == bv for r, bv in zip(rows, b))
            # tight conditions (equalities plus zero coordinates) pin a vertex
            tight = [list(r) for r in rows]
            for j, v in enumerate(w):
                if v == 0:
                    row = [0] * n
                    row[j] = 1
                    tight.append(row)
            assert matrix_rank(tight) == n


def test_integral_vertex_witness_zero_rhs():
    rank = 2
    rows = hive_matrix_rows(rank)
    b = (0,) * len(rows)
    w = integral_vertex_witness(b, rank)
    assert w == (0,) * len(rows[0])


def test_integral_vertex_witness_infeasible():
    rank = 2
    rows = hive_matrix_rows(rank)
    b = [0] * len(rows)
    b[0] = -1  # one-hot boundary rows force nonnegative entries
    assert integral_vertex_witness(tuple(b), rank) is None


@pytest.mark.parametrize("length", [3, 9, 12])
def test_integral_vertex_witness_rejects_wrong_rhs_length(length):
    rows = hive_matrix_rows(2)
    assert len(rows) == 10
    with pytest.raises(ValueError, match=f"rhs has {length} entries; .* has 10 rows"):
        integral_vertex_witness((0,) * length, 2)


def test_write_triangulation_format(tmp_path):
    tri = hive_triangulation(2)
    path = tmp_path / "tri.txt"
    write_triangulation(tri, path, 2)
    lines = path.read_text().strip().splitlines()
    header = lines[0].split()
    assert header == ["2", "10", "9", "1"]
    assert len(lines) == 1 + len(tri.cells)
    for line in lines[1:]:
        idxs = [int(v) for v in line.split()]
        assert all(1 <= i <= 9 for i in idxs)
        assert idxs == sorted(idxs)


def test_cell_contains_rejects_outside_point():
    tri = placing_triangulation(((1, 0), (0, 1)))
    cell = tri.cells[0]
    inside = cell_contains(cell, (3, 2))
    outside = cell_contains(cell, (-1, 2))
    assert inside is not None
    assert outside is None


def _cells(tri):
    return [(cell.indices, cell.det) for cell in tri.cells]


@st.composite
def pointed_configurations(draw):
    """(points, order): a configuration in ambient dimension 2-6 and an insertion order.

    The points are nonzero integer combinations of r drawn vectors, r from 1
    to the ambient dimension, so their rank is often below it.  Unless the
    flip is skipped, each is negated where needed to make f . p > 0 for a
    drawn functional f, which makes the cone pointed; without it the cone
    often contains a line.  Up to two points are repeated, and the order is
    any permutation.
    """
    m = draw(st.integers(2, 6))
    r = draw(st.integers(1, m))
    vectors = draw(st.lists(st.lists(st.integers(-2, 2), min_size=m, max_size=m),
                            min_size=r, max_size=r))
    f = draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m).filter(any))
    flip = draw(st.booleans())
    points = []
    for c in draw(st.lists(st.lists(st.integers(-2, 3), min_size=r, max_size=r),
                           min_size=1, max_size=9)):
        p = [dot(c, [v[i] for v in vectors]) for i in range(m)]
        side = dot(f, p) if flip else any(p)  # True > 0 keeps p as drawn
        if side:
            points.append(tuple(x if side > 0 else -x for x in p))
    assume(points)
    points += draw(st.lists(st.sampled_from(points), max_size=2))
    return points, draw(st.permutations(range(len(points))))


@given(pointed_configurations())
@example(([(1, 0), (0, 1), (1, 1)], [2, 0, 1]))  # the two-cell fan
@example(([(1, 1, 0), (1, 0, 1), (1, 1, 0), (2, 1, 1)], [3, 0, 2, 1]))  # rank 2 in 3, repeats
@example(([(1, 0), (0, 1), (-1, -1)], [0, 1, 2]))  # positively spans the plane
@example(([(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, 0, 1)], [0, 1, 3, 2]))  # a line, then more
@settings(max_examples=400, deadline=None)
def test_placing_triangulation_matches_facet_normal_oracle(data):
    """Barycentric visibility gives the cells, order and determinants of the facet normals.

    It also rejects exactly the configurations that the pointedness LP rejects.
    """
    points, order = data
    try:
        oracle._assert_pointed(points)
    except DegenerateSpanError:
        with pytest.raises(DegenerateSpanError):
            placing_triangulation(points, order=order)
        return
    want = oracle.placing_triangulation(points, order=order)
    assert _cells(placing_triangulation(points, order=order)) == _cells(want)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_hive_triangulation_matches_facet_normal_oracle(rank):
    tri = hive_triangulation(rank)
    want = oracle.placing_triangulation(hive_matrix(rank), order=tri.insertion_order)
    assert _cells(tri) == _cells(want)


def test_hive_rank4_natural_order_spectrum():
    # the determinant spectrum that the README quotes for the natural order
    tri = placing_triangulation(hive_matrix(4))
    assert Counter(abs(cell.det) for cell in tri.cells) == {1: 144, 2: 24, 4: 1}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cell_det_and_adjugate_are_over_listed_indices(seed):
    # the random orders of `hivecount triangulate --rank 4 --order random`
    # make cells from several parents, whose columns come in another order
    order = list(range(33))
    random.Random(seed).shuffle(order)
    tri = placing_triangulation(hive_matrix(4), order=order)
    k = tri.span_dim
    for cell in tri.cells:
        mat = [[tri.coords[i][r] for i in cell.indices] for r in range(k)]
        assert cell.det == det(mat)
        # adj M = det(M) I; a cofactor adjugate of a 30 x 30 matrix is too slow
        product = [[dot(row, col) for col in zip(*mat)] for row in cell.adjugate]
        assert product == [[cell.det if i == j else 0 for j in range(k)] for i in range(k)]
