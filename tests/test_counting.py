import itertools
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from _reduce_oracle import lp_reduce_bounded
from hivecount import (
    BARVINOK,
    NAIVE,
    CapExceededError,
    CountMismatchError,
    HRepPolytope,
    UnboundedError,
    count_barvinok,
    count_dilation,
    count_naive,
    decompose_cone,
    hive_hrep,
    iter_lattice_points,
    lr_coefficient,
    lr_nonzero,
    lr_tableau_count,
    make_triple,
)
from hivecount.counting import NAIVE_DIMENSION_CAP, _iter_chart_points, _reduce
from hivecount.linalg import dot, primitive
from hivecount.polyhedra import VertexCone, _extreme_rays, enumerate_vertices


def box_poly(bounds):
    """H-rep of the box prod [lo_j, hi_j]."""
    d = len(bounds)
    rows, rhs = [], []
    for j, (lo, hi) in enumerate(bounds):
        row = [0] * d
        row[j] = 1
        rows.append(tuple(row))
        rhs.append(hi)
        row = [0] * d
        row[j] = -1
        rows.append(tuple(row))
        rhs.append(-lo)
    return HRepPolytope(rows=tuple(rows), rhs=tuple(rhs), eq_rows=(), eq_rhs=())


def brute_count(rows, rhs, box):
    count = 0
    ranges = [range(lo, hi + 1) for lo, hi in box]
    for p in itertools.product(*ranges):
        if all(dot(r, p) <= b for r, b in zip(rows, rhs)):
            count += 1
    return count


@given(
    st.integers(2, 3).flatmap(
        lambda d: st.tuples(
            st.just(d),
            st.lists(
                st.tuples(
                    st.lists(st.integers(-3, 3), min_size=d, max_size=d),
                    st.integers(-6, 6),
                ),
                min_size=1,
                max_size=4,
            ),
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_barvinok_matches_brute_force(data):
    d, cuts = data
    box = [(-2, 3)] * d
    poly = box_poly(box)
    rows = list(poly.rows) + [tuple(a) for a, _ in cuts]
    rhs = list(poly.rhs) + [b for _, b in cuts]
    poly = HRepPolytope(rows=tuple(rows), rhs=tuple(rhs), eq_rows=(), eq_rhs=())
    expected = brute_count(rows, rhs, box)
    assert count_barvinok(poly).value == expected
    assert count_naive(poly).value == expected


@given(st.integers(0, 9), st.integers(0, 9))
@settings(max_examples=20, deadline=None)
def test_interval_count(a, b):
    lo, hi = min(a, b), max(a, b)
    poly = box_poly([(lo, hi)])
    assert count_barvinok(poly).value == hi - lo + 1
    assert count_naive(poly).value == hi - lo + 1


def test_empty_polytope_counts_zero():
    poly = HRepPolytope(rows=((1,), (-1,)), rhs=(-1, 0), eq_rows=(), eq_rhs=())
    assert count_barvinok(poly).value == 0
    assert count_naive(poly).value == 0


def test_point_polytope_counts_one():
    poly = HRepPolytope(rows=(), rhs=(), eq_rows=((1, 0), (0, 1)), eq_rhs=(2, 5))
    assert count_barvinok(poly).value == 1


def test_fractional_flat_polytope():
    # x = 1/2 holds no lattice points even though the polytope is nonempty
    poly = HRepPolytope(rows=((1,), (-1,)), rhs=(Fraction(1, 2), Fraction(-1, 2)), eq_rows=(), eq_rhs=())
    assert count_barvinok(poly).value == 0


def test_fractional_rhs_counts():
    # 0 <= 2x <= 7/2 and 0 <= y <= 5/2: x in {0, 1}, y in {0, 1, 2}
    poly = HRepPolytope(
        rows=((2, 0), (-1, 0), (0, 1), (0, -1)),
        rhs=(Fraction(7, 2), 0, Fraction(5, 2), 0),
    )
    assert count_barvinok(poly).value == count_naive(poly).value == 6


def test_unbounded_raises():
    poly = HRepPolytope(rows=((-1, 0), (0, -1)), rhs=(0, 0), eq_rows=(), eq_rhs=())
    with pytest.raises(UnboundedError):
        count_barvinok(poly)
    with pytest.raises(UnboundedError):
        count_naive(poly)


def test_naive_cap():
    poly = box_poly([(0, 1)] * 2)
    with pytest.raises(CapExceededError):
        count_naive(poly, cap=1)
    assert NAIVE_DIMENSION_CAP >= 2


def test_naive_cap_precedes_vertex_enumeration():
    # rank 7: a full-dimensional chart of dimension 15 with 60 rows, whose
    # double description pass runs for minutes
    lam, nu = (7, 6, 5, 4, 3, 2, 1), (13, 12, 10, 8, 6, 4, 3)
    with pytest.raises(CapExceededError):
        count_naive(hive_hrep(make_triple(lam, lam, nu)))


def test_iter_lattice_points_box():
    poly = box_poly([(0, 1), (0, 2)])
    pts = sorted(iter_lattice_points(poly))
    assert pts == sorted((x, y) for x in (0, 1) for y in (0, 1, 2))


def test_decompose_cone_signed_indicator():
    # index-2 cone from the generators (1,0) and (1,2)
    cone = VertexCone(apex=(Fraction(0), Fraction(0)), rays=((1, 0), (1, 2)))
    leaves = decompose_cone(cone)
    assert all(abs(_ray_det(leaf.rays)) == 1 for leaf in leaves)

    def member(p):
        # p in cone(rays) iff 2a >= 0 and ... solve p = s(1,0)+t(1,2)
        t = Fraction(p[1], 2)
        s = p[0] - t
        return s >= 0 and t >= 0

    for p in itertools.product(range(-5, 6), repeat=2):
        signed = 0
        for leaf in leaves:
            signed += leaf.sign * _in_half_open(leaf, p)
        assert signed == (1 if member(p) else 0), p


def _ray_det(rays):
    (a, b), (c, d) = rays
    return a * d - b * c


def _in_half_open(leaf, p):
    (a, b), (c, d) = leaf.rays
    det = a * d - b * c
    # coordinates of p in the ray basis
    s = Fraction(d * (p[0] - leaf.apex[0]) - c * (p[1] - leaf.apex[1]), det)
    t = Fraction(-b * (p[0] - leaf.apex[0]) + a * (p[1] - leaf.apex[1]), det)
    for coord, is_open in zip((s, t), leaf.open_facets):
        if is_open and coord <= 0:
            return 0
        if not is_open and coord < 0:
            return 0
    return 1


def test_lr_coefficient_classic():
    t = make_triple((2, 1), (2, 1), (3, 2, 1))
    assert lr_coefficient(t, method=BARVINOK) == 2
    assert lr_coefficient(t, method=NAIVE) == 2
    assert lr_coefficient(t, method="both") == 2


def test_lr_coefficient_size_mismatch_is_zero():
    t = make_triple((2, 1), (1,), (2, 1))
    assert lr_coefficient(t) == 0
    assert not lr_nonzero(t)


def test_lr_coefficient_rejects_unknown_method():
    t = make_triple((1,), (1,), (1, 1))
    with pytest.raises(ValueError):
        lr_coefficient(t, method="magic")


def test_lr_nonzero_matches_positivity():
    pairs = [
        (make_triple((2, 1), (2, 1), (3, 2, 1)), True),
        (make_triple((2, 0), (2, 0), (2, 2)), True),
        (make_triple((4, 0), (1, 1), (3, 3)), False),
        (make_triple((1, 0), (1, 0), (2, 0)), True),
    ]
    for triple, expect in pairs:
        assert lr_nonzero(triple) == expect
        assert (lr_coefficient(triple) > 0) == expect


def test_count_dilation_scales_box():
    poly = box_poly([(0, 1), (0, 1)])
    for n in (1, 2, 3, 7):
        assert count_dilation(poly, n).value == (n + 1) ** 2
    with pytest.raises(ValueError):
        count_dilation(poly, 0)


def test_determinism_across_seeds_and_threads():
    t = make_triple((9, 7, 3, 0, 0), (9, 9, 3, 2, 0), (10, 9, 9, 8, 6))
    values = {
        lr_coefficient(t, seed=s, threads=th)
        for s in (0, 5, 91)
        for th in (1, 2)
    }
    assert values == {2}


def test_hive_hrep_shape():
    t = make_triple((2, 1), (1, 1), (3, 2))
    poly = hive_hrep(t)
    assert len(poly.eq_rows) == 3 * t.rank + 1
    assert len(poly.rows) == 3 * t.rank * (t.rank - 1) // 2
    assert all(v == 0 for v in poly.rhs)


def test_method_both_mismatch_raises(monkeypatch):
    import hivecount.counting as counting

    t = make_triple((2, 1), (2, 1), (3, 2, 1))
    real = counting.count_naive

    def fake(poly, cap=NAIVE_DIMENSION_CAP):
        res = real(poly, cap=cap)
        return counting.CountResult(value=res.value + 1, method=res.method)

    monkeypatch.setattr(counting, "count_naive", fake)
    with pytest.raises(CountMismatchError):
        lr_coefficient(t, method="both")


def test_rank6_row_matches_tableau_rule():
    # a chart of dimension 10 with 42 rows, the largest the reduction sees here
    lam, nu = (6, 5, 4, 3, 2, 1), (11, 10, 8, 6, 4, 3)
    assert lr_coefficient(make_triple(lam, lam, nu)) == lr_tableau_count(lam, lam, nu) == 16


def test_rank6_second_row_matches_tableau_rule():
    # dimension 9 with degenerate vertices of up to 22 tight rows: the polar
    # side built on every tight row, redundant ones too, and the primal side
    # both take several times as long as the polar side on the facet rows
    lam, mu, nu = (6, 5, 4, 3, 2, 1), (6, 5, 4, 3, 2, 1), (10, 10, 8, 7, 4, 3)
    assert lr_coefficient(make_triple(lam, mu, nu)) == lr_tableau_count(lam, mu, nu) == 18


def test_count_path_runs_no_chart_lp(monkeypatch):
    """Chart reduction, vertices, cones and their triangulations take no simplex run."""
    import hivecount.polyhedra as polyhedra

    def simplex(*args):
        caller = sys._getframe(2).f_code.co_name  # simplex <- lp_standard <- caller
        raise AssertionError(f"{caller} ran a simplex on the count path")

    monkeypatch.setattr(polyhedra, "_standard_simplex", simplex)
    paper_row = make_triple((73, 58, 41, 21, 4), (77, 61, 46, 27, 1), (124, 117, 71, 52, 45))
    assert lr_coefficient(paper_row) == 557744
    # a flat chart: dimension 3, one implicit equality
    flat = make_triple((3, 2, 2), (4, 3, 1), (6, 4, 3, 2))
    assert lr_coefficient(flat) == lr_tableau_count(flat.lam, flat.mu, flat.nu) == 3


def _primal_leaves(apex, tight):
    rays = _extreme_rays(tight, len(apex))
    return decompose_cone(VertexCone(apex, tuple(sorted(ray for ray, _ in rays))))


def _every_tight_row(tight, dim):
    return [primitive(a) for a in tight]


@st.composite
def cone_polytopes(draw):
    """Full-dimensional polytopes of dimension 2-4 with degenerate vertices.

    The box [-2, 3]^d ([-1, 2]^4 at d = 4) is cut by up to 5 halfspaces
    a . x <= a . p + s through or just past one point p inside it, with
    entries of a in [-2, 2] and s in {0, 1/2, 1}.  Every a makes a . y < 0
    for one drawn direction y, so p + e y is an interior point for small
    e > 0; cuts with s = 0 all meet at p, which is then often a vertex with
    more tight rows than its dimension.
    """
    dim = draw(st.integers(2, 4))
    lo, hi = (-1, 2) if dim == 4 else (-2, 3)
    p = draw(st.lists(st.integers(lo + 1, hi - 1), min_size=dim, max_size=dim))
    y = draw(st.lists(st.integers(-1, 1), min_size=dim, max_size=dim).filter(any))
    rows, rhs = [], []
    for j in range(dim):
        rows += [tuple(int(i == j) for i in range(dim)), tuple(-int(i == j) for i in range(dim))]
        rhs += [hi, -lo]
    cut = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).filter(lambda a: dot(a, y))
    for a in draw(st.lists(cut, max_size=5)):
        if dot(a, y) > 0:
            a = [-v for v in a]
        rows.append(tuple(a))
        rhs.append(dot(a, p) + draw(st.sampled_from((0, 0, 0, Fraction(1, 2), 1))))
    return HRepPolytope(rows=rows, rhs=rhs)


@given(cone_polytopes())
# the apex of a square pyramid: four tight rows in dimension 3
@example(HRepPolytope(rows=((0, 0, -1), (-1, 0, 1), (1, 0, 1), (0, -1, 1), (0, 1, 1)),
                      rhs=(0, 0, 2, 0, 2)))
# at (0, 2) the polar cone((-1, 0), (1, 2)) has index 2, so the recursion recurses
@example(HRepPolytope(rows=((-1, 0), (0, -1), (1, 2)), rhs=(0, 0, 4)))
# a Fraction right-hand side: fractional vertices, closed polar leaves at them
@example(HRepPolytope(rows=((-1, 0), (0, -1), (2, 1), (1, 3)),
                      rhs=(0, 0, Fraction(9, 2), Fraction(13, 3))))
# a redundant tight row: at (0, 0) the row -x - y <= 0 cuts out only the apex
@example(HRepPolytope(rows=((-1, 0), (0, -1), (-1, -1), (1, 0), (0, 1)), rhs=(0, 0, 0, 2, 2)))
@settings(max_examples=60, deadline=None)
def test_polar_and_primal_sides_match_naive(poly):
    """The count's polar side, the polar on every tight row and the primal side agree."""
    import hivecount.counting as counting

    expected = count_naive(poly).value
    assert count_barvinok(poly).value == expected
    for name, fake in (("_polar_generators", _every_tight_row), ("_vertex_leaves", _primal_leaves)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(counting, name, fake)
            assert count_barvinok(poly).value == expected, name


def test_polar_side_leaves():
    from hivecount.counting import _polar_generators, _vertex_leaves

    assert _polar_generators([(-2, 0), (0, -1), (-1, -1)], 2) == [(-1, 0), (0, -1)]
    # the polar cone((-1, 0), (1, 2)) has index 2, so the recursion recurses
    leaves = _vertex_leaves((Fraction(0), Fraction(2)), [(-1, 0), (1, 2)])
    assert len(leaves) > 1
    for leaf in leaves:
        assert not any(leaf.open_facets)
        # inverse is the inverse of the ray matrix, which is unimodular
        assert all(dot(row, ray) == int(i == j) for i, row in enumerate(leaf.inverse)
                   for j, ray in enumerate(leaf.rays))
        assert abs(_ray_det(leaf.rays)) == 1


@st.composite
def reduce_systems(draw):
    """Polytopes of dimension 1-3 for the chart reduction.

    Around a point p with coordinates in [-2, 3]: a box of integer sides
    through or beyond p, some sides dropped when it is drawn unbounded, up
    to 3 cuts with entries in [-2, 2] that p misses by at most 1/2 or meets
    with up to 3 to spare, up to 2 opposing row pairs through p or half a
    unit off it (flat, often lattice-empty), and at most one equality row
    through p.
    """
    dim = draw(st.integers(1, 3))
    p = draw(st.lists(st.integers(-2, 3), min_size=dim, max_size=dim))
    entries = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
    bounded = draw(st.booleans())
    rows, rhs = [], []
    for j in range(dim):
        for sign in (1, -1):
            if bounded or draw(st.booleans()):
                rows.append(tuple(sign if i == j else 0 for i in range(dim)))
                rhs.append(sign * p[j] + draw(st.integers(0, 2)))
    for a in draw(st.lists(entries, max_size=3)):
        rows.append(tuple(a))
        rhs.append(dot(a, p) + Fraction(draw(st.integers(-1, 6)), 2))
    for a in draw(st.lists(entries, max_size=2)):
        b = dot(a, p) + draw(st.sampled_from((0, 0, Fraction(1, 2))))
        rows += [tuple(a), tuple(-v for v in a)]
        rhs += [b, -b]
    eq_rows = draw(st.lists(entries.filter(any), max_size=1))
    return HRepPolytope(
        rows=rows, rhs=rhs, eq_rows=eq_rows, eq_rhs=[dot(a, p) for a in eq_rows]
    )


def _reduced(reduce_fn, poly):
    try:
        return reduce_fn(poly)
    except UnboundedError:
        return "unbounded"


def _ambient_points(chart):
    points = _iter_chart_points(list(chart.rows), list(chart.rhs), chart.dim)
    return {chart.to_ambient(t) for t in points}


@given(reduce_systems())
@example(HRepPolytope(rows=((1, 0), (-1, 0), (0, 1), (0, -1), (1, 0), (-1, 0)),
                      rhs=(3, 0, 3, 0, 1, -1)))  # flat: x = 1 in a box
@example(HRepPolytope(rows=((1,), (-1,)), rhs=(-1, 0)))  # empty
@example(HRepPolytope(rows=((1,), (-1,)),
                      rhs=(Fraction(1, 2), Fraction(-1, 2))))  # x = 1/2, lattice-empty
@example(HRepPolytope(rows=((-1, 0), (0, -1)), rhs=(0, 0)))  # unbounded quadrant
@example(HRepPolytope(rows=((1, 0), (-1, 0)), rhs=(1, 0)))  # a strip: rank below dim
@example(HRepPolytope(rows=((1, 0), (-1, 0)), rhs=(-1, 0)))  # an empty strip
@example(HRepPolytope(rows=((2, 0), (-2, 0)), rhs=(1, -1)))  # the line 2x = 1, lattice-empty
@example(HRepPolytope(rows=((2, 0), (-2, 0), (0, -1)), rhs=(1, -1, 0)))  # a lattice-empty ray
@example(HRepPolytope(rows=(), rhs=(), eq_rows=((1, 0, 0),), eq_rhs=(0,)))  # a plane, no rows
@settings(max_examples=300, deadline=None)
def test_reduce_matches_lp_oracle(poly):
    got = _reduced(_reduce, poly)
    want = _reduced(lp_reduce_bounded, poly)
    if want is None or want == "unbounded":
        assert got == want
        return
    chart, vertices = got
    assert chart.dim == want.dim
    assert _ambient_points(chart) == _ambient_points(want)
    assert {chart.to_ambient(v) for v, _ in vertices} == {
        want.to_ambient(v) for v in enumerate_vertices(want.rows, want.rhs, want.dim)
    }
    for v, mask in vertices:
        rows = zip(chart.rows, chart.rhs)
        assert mask == sum(1 << k for k, (a, b) in enumerate(rows) if dot(a, v) == b)
