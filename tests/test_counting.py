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
from hivecount.linalg import dot
from hivecount.polyhedra import VertexCone, enumerate_vertices


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


def test_count_path_runs_no_chart_lp(monkeypatch):
    """Chart reduction and vertices take no simplex run.

    The only simplex runs left on the count path are the triangulation's
    pointedness checks of non-simplicial tangent cones (71 on the 557744 row).
    """
    import hivecount.polyhedra as polyhedra

    real = polyhedra._standard_simplex

    def simplex(*args):
        caller = sys._getframe(2).f_code.co_name  # simplex <- lp_standard <- caller
        assert caller == "_assert_pointed", f"{caller} ran a simplex on the count path"
        return real(*args)

    monkeypatch.setattr(polyhedra, "_standard_simplex", simplex)
    paper_row = make_triple((73, 58, 41, 21, 4), (77, 61, 46, 27, 1), (124, 117, 71, 52, 45))
    assert lr_coefficient(paper_row) == 557744
    # a flat chart: dimension 3, one implicit equality
    flat = make_triple((3, 2, 2), (4, 3, 1), (6, 4, 3, 2))
    assert lr_coefficient(flat) == lr_tableau_count(flat.lam, flat.mu, flat.nu) == 3


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
    assert {chart.to_ambient(v) for v in vertices} == {
        want.to_ambient(v) for v in enumerate_vertices(want.rows, want.rhs, want.dim)
    }
