import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from _corpus import LARGE_WEIGHT_ROW, LARGE_WEIGHT_STRETCH, SMALL_WEIGHT_ROWS
from _dd_oracle import scan_extreme_rays
from _lll_oracle import rank as matrix_rank
from _lp_oracle import fraction_simplex
from _reduce_oracle import gcd_keyed_dedupe_rows, gcd_keyed_pinned_by_pairs, hnf_lattice_chart
from _samplers import random_triple_corpus
from _vertex_oracle import kernel_line, subset_supporting_cone, subset_vertices
from hivecount import HRepPolytope, make_triple
from hivecount.counting import _iter_chart_points, _pinned_by_pairs, hive_hrep
from hivecount.errors import InfeasibleLatticeError
from hivecount.linalg import dot, primitive
from hivecount.polyhedra import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    _cone_row,
    _extreme_rays,
    _in_at_least,
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
    res = lp([1, 1], rows, rhs, maximize=True)
    assert res.status == OPTIMAL
    assert res.value == 2
    assert list(res.x) == [1, 1]


def test_lp_infeasible():
    res = lp([1], [(1,), (-1,)], [0, -1])
    assert res.status == INFEASIBLE


def test_lp_unbounded():
    res = lp([1], [(-1,)], [0], maximize=True)
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
    # x + y = 4 as two opposing rows
    res = lp([1, 0], rows + [(1, 1), (-1, -1)], rhs + [4, -4], maximize=True)
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
    # a zero row 0 <= b holds everywhere for b >= 0 and nowhere for b < 0
    assert dedupe_rows([[0, 0], (1, 0), (0, 0)], [0, 1, Fraction(1, 2)]) == ([(1, 0)], [1])
    with pytest.raises(InfeasibleLatticeError, match="reduces to 0 <= -1/2"):
        dedupe_rows([(1, 0), (0, 0)], [1, Fraction(-1, 2)])


@st.composite
def parallel_row_systems(draw):
    """(rows, rhs) of up to 10 rows a x <= b over at most 3 directions u in dimension 1-3.

    Each row is a = k u, for k one of -3..-1, 1..3 and u with entries in
    [-2, 2], so common factors, duplicate and opposite rows, and zero rows
    (from a zero u) all come up.  Its bound is b = k c + |k| s, for c an int
    or half-integer in [-2, 2] drawn per direction and s, the row's slack
    over the hyperplane u x = c, one of -1/2, 0, 1/2, 1, 3 with 0 thrice as
    likely: opposite rows of slack 0 pin u x = c, at an integer or not, and
    a negative slack makes them cross.  b is an int when integral and a
    Fraction otherwise.
    """
    dim = draw(st.integers(1, 3))
    entries = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
    centers = st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=2))
    dirs = draw(st.lists(st.tuples(entries, centers), min_size=1, max_size=3))
    factors = st.sampled_from((-3, -2, -1, 1, 2, 3))
    slacks = st.sampled_from((Fraction(-1, 2), 0, 0, 0, Fraction(1, 2), 1, 3))
    rows, rhs = [], []
    for (u, c), k, s in draw(st.lists(st.tuples(st.sampled_from(dirs), factors, slacks), max_size=10)):
        b = k * c + abs(k) * s
        rows.append(tuple([k * v for v in u]))
        rhs.append(int(b) if b.denominator == 1 else b)
    return rows, rhs


@given(parallel_row_systems())
@example(([(2, 4), (1, 2), (-3, -6), (0, 0), (2, 4)], [3, 2, 1, 0, Fraction(1, 2)]))
@settings(max_examples=300, deadline=None)
def test_dedupe_rows_normal_form(system):
    """Primitive rows, one per direction in first-seen order, each with its direction's least b / g."""
    rows, rhs = system
    if any(b < 0 for a, b in zip(rows, rhs) if not any(a)):
        with pytest.raises(InfeasibleLatticeError, match="reduces to 0 <= -"):
            dedupe_rows(rows, rhs)
        return
    least = {}
    for a, b in zip(rows, rhs):
        g = gcd(*a)
        if g:
            p = tuple([v // g for v in a])
            least[p] = min(least[p], Fraction(b, g)) if p in least else Fraction(b, g)
    out_rows, out_rhs = dedupe_rows(rows, rhs)
    assert all(gcd(*a) == 1 for a in out_rows)
    assert len(set(out_rows)) == len(out_rows)
    assert out_rows == list(least) and out_rhs == list(least.values())
    # a bound is an int when integral: the rhs are ints or non-integral Fractions
    assert all(isinstance(b, int) or b.denominator > 1 for b in out_rhs)


@given(parallel_row_systems())
@example(([(1, 0), (-2, 0), (0, 3)], [2, -4, 1]))  # x = 2 pinned
@example(([(2, 0), (-2, 0)], [1, -1]))  # x = 1/2: no lattice point
@example(([(1,), (-3,)], [1, -6]))  # 2 <= x <= 1: empty
@settings(max_examples=300, deadline=None)
def test_pinned_by_pairs_matches_gcd_keyed_oracle(system):
    """On dedupe_rows' primitive rows, the pins the gcd-keyed version reads off the original rows."""
    rows, rhs = system
    try:
        want = gcd_keyed_pinned_by_pairs(*gcd_keyed_dedupe_rows(rows, rhs))
    except InfeasibleLatticeError:
        with pytest.raises(InfeasibleLatticeError):
            dedupe_rows(rows, rhs)
        return
    assert _pinned_by_pairs(*dedupe_rows(rows, rhs)) == want


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
@example(([(1,), (0,), (1,)], [0, 1, -1], 1))  # two rays sharing no tight row, adjacent
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


def test_kernel_line_corank_one():
    v = kernel_line([[1, 0, -1], [0, 1, -1]])
    assert v is not None
    got = primitive(v)
    assert got in ((1, 1, 1), (-1, -1, -1))
    assert kernel_line([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) is None
    assert kernel_line([[1, 1, 1]]) is None  # kernel dimension 2, not a line


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


def test_supporting_cone_on_rational_rows():
    # the box [0, 2] x [0, 1] with x <= 2 written as x / 2 <= 1, which
    # enumerate_vertices accepts: the tangent cone at (2, 1) is the same
    rows = [(Fraction(1, 2), 0), (0, 1), (-1, 0), (0, -1)]
    rhs = [1, 1, 0, 0]
    assert (2, 1) in enumerate_vertices(rows, rhs, 2)
    cone = supporting_cone(rows, rhs, (2, 1))
    assert cone.rays == ((-1, 0), (0, -1))
    assert cone.rays == supporting_cone([(1, 0), (0, 1), (-1, 0), (0, -1)], [2, 1, 0, 0], (2, 1)).rays


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
    # the restriction points to its parent, in whose coordinates its map is
    assert sub.parent is chart and [len(k) for k in sub.basis] == [chart.dim]
    assert {sub.to_ambient((v,)) for v in range(-1, 2)} == {(2, v) for v in range(-1, 2)}


def _chart_or_error(chart_fn, poly):
    try:
        return chart_fn(poly)
    except InfeasibleLatticeError:
        return "lattice-empty"


_PAPER_TRIPLES = [make_triple(*t) for t, _ in SMALL_WEIGHT_ROWS + [LARGE_WEIGHT_ROW]]
_PAPER_TRIPLES += [make_triple(*t) for t, _ in LARGE_WEIGHT_STRETCH]

hive_triples = st.one_of(
    st.sampled_from(_PAPER_TRIPLES),
    st.builds(
        lambda rank, seed: random_triple_corpus(random.Random(seed), 1, rank, 4)[0],
        st.integers(1, 6),
        st.integers(0, 2**32),
    ),
)


@given(hive_triples)
@settings(max_examples=80, deadline=None)
def test_lattice_chart_matches_hnf_on_hive_charts(triple):
    """Substituting the boundary rows gives the Hermite chart field for field."""
    poly = hive_hrep(triple)
    assert _chart_or_error(lattice_chart, poly) == _chart_or_error(hnf_lattice_chart, poly)


@st.composite
def equality_systems(draw):
    """The box [-2, 2]^n cut by up to seven equality rows, in any order.

    Most rows have one nonzero entry, +-1 or +-2, some fix a coordinate that
    another row fixes too, to the same value or not, and up to two are
    general rows with entries in [-2, 2].  Right-hand sides may be Fractions.
    """
    n = draw(st.integers(1, 4))
    coordinate = st.integers(0, n - 1)
    values = st.one_of(
        st.integers(-3, 3), st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2)))
    )
    eqs = []
    for j, c, b in draw(st.lists(st.tuples(coordinate, st.sampled_from((1, -1, 2, -2)), values),
                                 max_size=4)):
        eqs.append((tuple(c if i == j else 0 for i in range(n)), b))
    if eqs:
        # the same row scaled, which fixes its coordinate to the same value
        for k, scale in draw(st.lists(st.tuples(st.integers(0, len(eqs) - 1),
                                                st.sampled_from((-1, 2))), max_size=1)):
            eqs.append((tuple(scale * v for v in eqs[k][0]), scale * eqs[k][1]))
    eqs += draw(st.lists(st.tuples(st.tuples(*[st.integers(-2, 2)] * n), values), max_size=2))
    eqs = draw(st.permutations(eqs))
    rows, rhs = cube_rows(n, -2, 2)
    return HRepPolytope(rows, rhs, [a for a, _ in eqs], [b for _, b in eqs])


def _box_points(poly):
    """Lattice points of poly inside [-2, 2]^n, by trying every one."""
    return {
        x
        for x in itertools.product(range(-2, 3), repeat=poly.dim)
        if all(dot(a, x) == b for a, b in zip(poly.eq_rows, poly.eq_rhs))
        and all(dot(a, x) <= b for a, b in zip(poly.rows, poly.rhs))
    }


@given(equality_systems())
@example(HRepPolytope(*cube_rows(2, -2, 2)))  # no equalities
@example(HRepPolytope(*cube_rows(2, -2, 2), [(0, 2), (0, -1)], [2, -1]))  # a consistent duplicate
@example(HRepPolytope(*cube_rows(2, -2, 2), [(0, 2), (0, 1)], [2, 2]))  # a conflicting one
@example(HRepPolytope(*cube_rows(1, -2, 2), [(2,)], [Fraction(1, 2)]))  # 2x = 1/2
@example(HRepPolytope(*cube_rows(1, -2, 2), [(-2,)], [Fraction(4)]))  # -2x = 4 as a Fraction
@example(HRepPolytope(*cube_rows(3, -2, 2), [(1, 1, 0), (0, 1, 0), (1, 0, -1)], [1, 2, 0]))  # general first
@settings(max_examples=300, deadline=None)
def test_lattice_chart_matches_hnf_on_mixed_systems(poly):
    """Both charts reach the brute-force lattice points, or both raise InfeasibleLatticeError."""
    want = _box_points(poly)
    charts = [_chart_or_error(chart_fn, poly) for chart_fn in (lattice_chart, hnf_lattice_chart)]
    if "lattice-empty" in charts:
        assert charts == ["lattice-empty"] * 2 and not want
        return
    for chart in charts:
        points = _iter_chart_points(list(chart.rows), list(chart.rhs), chart.dim)
        assert {chart.to_ambient(t) for t in points} == want


@given(
    st.lists(st.integers(0, 2**12 - 1), max_size=10),
    st.integers(0, 2**10 - 1),
    st.integers(0, 11),
    st.integers(0, 2**12 - 1),
)
@settings(max_examples=300, deadline=None)
def test_in_at_least_counts_memberships(on, mask, need, universe):
    mask &= (1 << len(on)) - 1
    rows = [k for k in range(len(on)) if mask >> k & 1]
    want = sum(
        1 << j
        for j in range(12)
        if universe >> j & 1 and sum(on[k] >> j & 1 for k in rows) >= need
    )
    assert _in_at_least(on, mask, need, universe) == want


def _sorted_rays(rays):
    return None if rays is None else sorted(rays)


@st.composite
def cones(draw):
    """(rows, n): up to 10 rows in dimension n <= 4 with entries in [-2, 2], some repeated."""
    n = draw(st.integers(0, 4))
    rows = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n), max_size=8))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=2))
    return rows, n


@given(cones())
# the homogenized cone of x <= 0, 0 <= 1, x <= -1 and the tangent cone at
# (1, 0) of the unit square cut by x + y <= 1: in both, two rays that share
# no tight row are adjacent, as an AND started from -1 instead of the set of
# all rays would miss
@example(([(1, 0), (0, -1), (1, 1), (0, -1)], 2))
@example(([(1, 0), (0, -1), (1, 1)], 2))
@example(([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)], 3))  # a line: rank below n
@example(([(0, 0), (1, 1), (-1, -1)], 2))  # a zero row and a line
@settings(max_examples=400, deadline=None)
def test_extreme_rays_match_scan(cone):
    """Small cones, joined by scanning and, with no scan threshold, by incidence bitsets."""
    import hivecount.polyhedra as polyhedra

    rows, n = cone
    want = _sorted_rays(scan_extreme_rays(rows, n))
    assert _sorted_rays(_extreme_rays(rows, n)) == want
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polyhedra, "_SCAN_BELOW", 0)
        assert _sorted_rays(_extreme_rays(rows, n)) == want


def _hive_cone(triple):
    """(rows, n) of the homogenized cone over the triple's chart, as homogenized_rays builds it."""
    chart = lattice_chart(hive_hrep(triple))
    rows = [_cone_row(tuple(a) + (-b,)) for a, b in zip(chart.rows, chart.rhs)]
    return rows + [(0,) * chart.dim + (-1,)], chart.dim + 1


@given(st.integers(4, 6), st.integers(0, 2**32))
@example(4, 27524)  # a rank-2 triple whose boundary breaks a rhombus row
@settings(max_examples=15, deadline=None)
def test_extreme_rays_match_scan_on_hive_charts(rank, seed):
    (triple,) = random_triple_corpus(random.Random(seed), 1, rank, 4)
    # a chart whose rows reduce to an impossible constant has no cone
    assume(_chart_or_error(lattice_chart, hive_hrep(triple)) != "lattice-empty")
    rows, n = _hive_cone(triple)
    assert sorted(_extreme_rays(rows, n)) == sorted(scan_extreme_rays(rows, n))


@pytest.mark.parametrize(
    "triple, vertices",
    [
        (((73, 58, 41, 21, 4), (77, 61, 46, 27, 1), (124, 117, 71, 52, 45)), 232),
        (((60, 50, 40, 30, 20, 10), (55, 45, 35, 25, 15, 5), (100, 90, 75, 60, 40, 25)), 392),
    ],
)
def test_extreme_rays_match_scan_on_paper_charts(triple, vertices):
    # the 557744 row, and R6, whose double description pass adds its rows
    # bottom-up and never holds more than its 392 final rays
    rows, n = _hive_cone(make_triple(*triple))
    rays = _extreme_rays(rows, n)
    assert sorted(rays) == sorted(scan_extreme_rays(rows, n))
    assert sum(ray[-1] > 0 for ray, _ in rays) == vertices
