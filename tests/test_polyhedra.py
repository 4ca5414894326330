import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from _lp_oracle import fraction_simplex
from _vertex_oracle import subset_supporting_cone, subset_vertices
from hivecount import HRepPolytope, make_triple
from hivecount.counting import hive_hrep
from hivecount.errors import InfeasibleLatticeError
from hivecount.linalg import dot, rank as matrix_rank
from hivecount.polyhedra import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    _standard_simplex,
    coordinate_bounds,
    dedupe_rows,
    enumerate_vertices,
    interior_point,
    lattice_chart,
    lp,
    lp_standard,
    restrict_chart,
    supporting_cone,
)


def cube_rows(d, lo=0, hi=1):
    rows, rhs = [], []
    for j in range(d):
        row = [0] * d
        row[j] = 1
        rows.append(tuple(row))
        rhs.append(hi)
        row = [0] * d
        row[j] = -1
        rows.append(tuple(row))
        rhs.append(-lo)
    return rows, rhs


def test_lp_maximize_on_square():
    rows, rhs = cube_rows(2)
    res = lp([1, 1], rows, rhs, [], [], maximize=True)
    assert res.status == OPTIMAL
    assert res.value == 2
    assert list(res.x) == [1, 1]


def test_lp_infeasible():
    res = lp([1], [(1,), (-1,)], [0, -1], [], [])
    assert res.status == INFEASIBLE


def test_lp_unbounded():
    res = lp([1], [(-1,)], [0], [], [], maximize=True)
    assert res.status == UNBOUNDED


def test_lp_standard_feasibility():
    # x + y = 1, x, y >= 0, minimize 0
    res = lp_standard([[1, 1]], [1], [0, 0])
    assert res.status == OPTIMAL
    assert sum(res.x) == 1
    res = lp_standard([[1, 1]], [-1], [0, 0])
    assert res.status == INFEASIBLE


def test_lp_standard_redundant_rows():
    # x + y + z = 2 twice over and x = z: the copy is dropped after phase 1
    rows = [[1, 1, 1], [2, 2, 2], [1, 0, -1]]
    rhs = [2, 4, 0]
    res = lp_standard(rows, rhs, [1, 3, 1])
    assert res == lp_standard(rows[::2], rhs[::2], [1, 3, 1])
    assert res.status == OPTIMAL
    assert res.x == (1, 0, 1)
    assert res.value == 2
    assert _standard_simplex(rows, rhs, [1, 3, 1]) == fraction_simplex(rows, rhs, [1, 3, 1])


@st.composite
def standard_programs(draw):
    """(rows, rhs, cost) with up to 8 rows, 12 columns and entries in [-3, 3].

    Half the right-hand sides are 0, so that phase 1 often ends with an
    artificial variable basic at level 0, which the drive-out pivot then
    replaces, often on a negative entry.  Up to two extra rows are a row plus -1, 0 or 1 times a row, with the same
    combination of right-hand sides, so the system is often dependent.  Some
    rows are divided by 2 or 3, and the cost may have Fraction entries.
    """
    n = draw(st.integers(1, 12))
    entries = st.integers(-3, 3)
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=6))
    rhs = draw(st.lists(st.one_of(st.just(0), entries), min_size=len(rows), max_size=len(rows)))
    if rows:
        at = st.integers(0, len(rows) - 1)
        for i, j, k in draw(st.lists(st.tuples(at, at, st.integers(-1, 1)), max_size=2)):
            rows.append([u + k * v for u, v in zip(rows[i], rows[j])])
            rhs.append(rhs[i] + k * rhs[j])
        for i, d in enumerate(draw(st.lists(st.sampled_from((1, 1, 1, 2, 3)), max_size=len(rows)))):
            rows[i] = [Fraction(v, d) for v in rows[i]]
            rhs[i] = Fraction(rhs[i], d)
    fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    cost = draw(st.lists(st.one_of(entries, fractions), min_size=n, max_size=n))
    return rows, rhs, cost


@given(standard_programs())
@example(([[-2, 0]], [0], [-1, -2]))  # drive-out pivot on -2, then unbounded
@example(([[1, 1, 0], [1, -1, 0], [0, 1, 1]], [0, 0, 1], [0, 0, -1]))  # drive-out, then phase 2
@example(([[1, 1, 0], [1, 1, 0], [0, 0, 1]], [1, 1, 2], [1, 0, 0]))  # duplicate row
@example(([[1, -1], [-1, 1]], [-1, -1], [0, 0]))  # infeasible
@example(([[1, -1]], [0], [-1, 0]))  # unbounded
@example(([[1, 1, 0], [1, 0, 1]], [0, 0], [-1, -1, -1]))  # degenerate ratio ties
@example(([[2, 1, 1]], [3], [Fraction(1, 2), Fraction(-1, 3), 1]))  # Fraction cost
@example(([[1, 2]], [-2], [1, 1]))  # negative right-hand side
@example(([], [], [1, -1]))  # no rows
@settings(max_examples=400, deadline=None)
def test_standard_simplex_matches_fraction_simplex(program):
    rows, rhs, cost = program
    assert _standard_simplex(rows, rhs, cost) == fraction_simplex(rows, rhs, cost)


def test_lp_with_equalities():
    rows, rhs = cube_rows(2, 0, 3)
    res = lp([1, 0], rows, rhs, [(1, 1)], [4], maximize=True)
    assert res.status == OPTIMAL
    assert res.value == 3
    assert list(res.x) == [3, 1]


def test_interior_point_cube():
    rows, rhs = cube_rows(3)
    t_star, x = interior_point(rows, rhs, 3)
    assert t_star == Fraction(1, 2)
    assert all(dot(r, x) + t_star <= b for r, b in zip(rows, rhs))


def test_interior_point_flat_and_empty():
    # x <= 0, -x <= 0 forces x = 0: max slack 0
    t_star, _ = interior_point([(1,), (-1,)], [0, 0], 1)
    assert t_star == 0
    t_star, _ = interior_point([(1,), (-1,)], [-1, 0], 1)
    assert t_star < 0


def test_coordinate_bounds_box():
    rows, rhs = cube_rows(2, -2, 5)
    assert coordinate_bounds(rows, rhs, 0, 2) == (-2, 5)
    # unbounded above
    assert coordinate_bounds([(-1, 0), (0, 1), (0, -1)], [0, 1, 0], 0, 2)[1] is None


def test_coordinate_bounds_empty():
    assert coordinate_bounds([(1,), (-1,)], [-1, 0], 0, 1) is None


def test_dedupe_rows():
    # (2,0) <= 2 is the same halfplane as (1,0) <= 1; (1,0) <= 0 is tighter
    rows = [(1, 0), (2, 0), (1, 0), (0, 1)]
    rhs = [1, 2, 0, 1]
    drows, drhs = dedupe_rows(rows, rhs)
    assert len(drows) == len(drhs) == 2
    kept = dict(zip(drows, drhs))
    assert kept[(1, 0)] == 0


@given(st.integers(2, 3), st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_enumerate_vertices_cube(d, hi):
    rows, rhs = cube_rows(d, 0, hi)
    verts = enumerate_vertices(rows, rhs, d)
    expected = sorted(itertools.product((Fraction(0), Fraction(hi)), repeat=d))
    assert list(verts) == expected


def test_enumerate_vertices_simplex():
    # x, y >= 0, x + y <= 1
    rows = [(-1, 0), (0, -1), (1, 1)]
    rhs = [0, 0, 1]
    verts = enumerate_vertices(rows, rhs, 2)
    assert set(verts) == {(0, 0), (0, 1), (1, 0)}


def test_enumerate_vertices_non_simple():
    # square pyramid apex: octahedron has non-simple structure in 3d slices;
    # use the 3d cross-polytope |x|+|y|+|z| <= 1 whose 6 vertices are simple
    rows = []
    for signs in itertools.product((1, -1), repeat=3):
        rows.append(signs)
    rhs = [1] * 8
    verts = enumerate_vertices(rows, rhs, 3)
    assert len(verts) == 6
    for v in verts:
        assert sum(abs(c) for c in v) == 1


def test_enumerate_vertices_fraction_rhs():
    assert enumerate_vertices([(1,), (-1,)], [Fraction(1, 2), 0], 1) == [
        (Fraction(0),),
        (Fraction(1, 2),),
    ]


@st.composite
def inequality_systems(draw):
    """(rows, rhs, dim): up to 10 rows with entries in [-2, 2], some repeated."""
    dim = draw(st.integers(1, 4))
    rows = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim), max_size=7))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    rhs = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
    return rows, rhs, dim


@given(inequality_systems())
@example(([(1,), (-1,)], [-1, 0], 1))  # empty
@example(([(1, 1), (1, 1), (-1, -1)], [1, 1, 0], 2))  # a slab: lines, no vertex
@example(([(-1, 0), (0, -1), (-1, 0)], [0, 0, 0], 2))  # unbounded quadrant
@example(([(1, 0), (-1, 0), (0, 1), (0, -1)], [0, 0, 0, 0], 2))  # a point
@example(([(0, 0), (1, 0), (-1, 0), (0, -1)], [-1, 1, 0, 0], 2))  # 0 <= -1
@example(([], [], 3))  # all of space
@settings(max_examples=300, deadline=None)
def test_enumerate_vertices_matches_subset_walk(system):
    rows, rhs, dim = system
    assert enumerate_vertices(rows, rhs, dim) == subset_vertices(rows, rhs, dim)


def test_enumerate_vertices_rank5_paper_row():
    # the 557744 row of the paper's table: a 6-dimensional chart with 27 rows
    triple = make_triple((73, 58, 41, 21, 4), (77, 61, 46, 27, 1), (124, 117, 71, 52, 45))
    chart = lattice_chart(hive_hrep(triple))
    assert chart.dim == 6
    verts = enumerate_vertices(chart.rows, chart.rhs, chart.dim)
    assert len(verts) == 232
    for v in verts:
        assert all(dot(a, v) <= b for a, b in zip(chart.rows, chart.rhs))
        tight = [list(a) for a, b in zip(chart.rows, chart.rhs) if dot(a, v) == b]
        assert matrix_rank(tight) == chart.dim


@given(inequality_systems())
@example((  # a square pyramid: 4 tight rows at the apex
    [(1, 0, -1), (-1, 0, -1), (0, 1, -1), (0, -1, -1), (0, 0, 1)],
    [0, 0, 0, 0, 1],
    3,
))
@example(([(1,), (-1,)], [0, 0], 1))  # a point: the cone is {0}
@example((  # a repeated tight row: two rays share dim - 2 tight rows but are not adjacent
    [(-1, 1, 1, 0), (1, -1, -1, 2), (-2, 0, 2, 2), (1, -2, -2, 1), (0, 2, -2, 2), (1, -1, -1, 2),
     (2, 0, -2, -1)],
    [0, -2, 0, 3, 2, -2, -1],
    4,
))
@example(([(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1)], [1, 0, 1, 0, 1], 2))  # a redundant tight row
@settings(max_examples=300, deadline=None)
def test_supporting_cone_matches_subset_walk(system):
    rows, rhs, dim = system
    for v in subset_vertices(rows, rhs, dim):
        assert supporting_cone(rows, rhs, v).rays == subset_supporting_cone(rows, rhs, v)


def test_supporting_cone_rank5_paper_row():
    # the 557744 row of the paper's table, as in the vertex test above
    triple = make_triple((73, 58, 41, 21, 4), (77, 61, 46, 27, 1), (124, 117, 71, 52, 45))
    chart = lattice_chart(hive_hrep(triple))
    verts = enumerate_vertices(chart.rows, chart.rhs, chart.dim)
    cones = [supporting_cone(chart.rows, chart.rhs, v) for v in verts]
    assert len(cones) == 232
    assert sum(len(c.rays) for c in cones) == 1504
    assert max(len(c.rays) for c in cones) <= 10
    for c in cones:
        assert c.rays == subset_supporting_cone(chart.rows, chart.rhs, c.apex)


def test_supporting_cone_rejects_non_vertices():
    rows, rhs = cube_rows(2)
    with pytest.raises(ValueError, match="not a vertex"):
        supporting_cone(rows, rhs, (Fraction(0), Fraction(1, 2)))  # an edge midpoint
    with pytest.raises(ValueError, match="violates"):
        supporting_cone(rows, rhs, (5, 5))  # outside the square


def test_supporting_cone_square_corner():
    rows, rhs = cube_rows(2)
    cone = supporting_cone(rows, rhs, (Fraction(0), Fraction(0)))
    assert cone.apex == (0, 0)
    assert set(cone.rays) == {(1, 0), (0, 1)}


def test_supporting_cone_non_simple_vertex():
    # apex of the pyramid over a square: 4 tight facets at a 3d vertex
    rows = [
        (1, 0, -1),
        (-1, 0, -1),
        (0, 1, -1),
        (0, -1, -1),
        (0, 0, -1),
    ]
    rhs = [0, 0, 0, 0, 0]
    cone = supporting_cone(rows, rhs, (Fraction(0), Fraction(0), Fraction(0)))
    assert len(cone.rays) == 4
    assert matrix_rank([list(r) for r in cone.rays]) == 3


def test_lattice_chart_integral_origin():
    # equalities x + y + z = 3, x - y = 1 with a 1-dim lattice of solutions
    poly = HRepPolytope(
        rows=((-1, 0, 0), (0, -1, 0), (0, 0, -1)),
        rhs=(0, 0, 0),
        eq_rows=((1, 1, 1), (1, -1, 0)),
        eq_rhs=(3, 1),
    )
    chart = lattice_chart(poly)
    assert chart.dim == 1
    assert all(isinstance(v, int) for row in chart.rows for v in row)
    assert all(isinstance(v, int) for v in chart.rhs)
    # chart points map to integral ambient points satisfying the equalities
    amb = chart.to_ambient([0])
    assert sum(amb) == 3 and amb[0] - amb[1] == 1


def test_lattice_chart_infeasible_lattice():
    # 2x = 1 has no integer solutions
    poly = HRepPolytope(rows=((1,),), rhs=(5,), eq_rows=((2,),), eq_rhs=(1,))
    with pytest.raises(InfeasibleLatticeError):
        lattice_chart(poly)


def test_restrict_chart_drops_dimension():
    poly = HRepPolytope(
        rows=((1, 0), (-1, 0), (0, 1), (0, -1)),
        rhs=(2, 0, 2, 0),
        eq_rows=(),
        eq_rhs=(),
    )
    chart = lattice_chart(poly)
    assert chart.dim == 2
    # impose x = 2 (in chart coordinates) as a new equality
    sub = restrict_chart(chart, [(1, 0)], [2])
    assert sub.dim == 1
