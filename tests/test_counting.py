import itertools
import random
import sys
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from _corpus import SMALL_WEIGHT_ROWS
from _lll_oracle import adjugate_cofactor, det, rank
from _reduce_oracle import lp_reduce_bounded
from _samplers import random_tensor_triples, random_triple_corpus
from _series_oracle import (
    _binomial_series,
    _series_mul,
    exact_total,
    reduce_mod,
    series_quotient_by_inverse,
)
from _vertex_oracle import _polar_generators
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
from hivecount.counting import (
    _PRIMES,
    NAIVE_DIMENSION_CAP,
    SignedUnimodularCone,
    _box_bound,
    _iter_chart_points,
    _pinned_by_pairs,
    _reduce,
    _series_total,
    _short_vector,
)
from hivecount.errors import InvariantError
from hivecount.linalg import dot, vec_gcd
from hivecount.polyhedra import (
    VertexCone,
    _extreme_rays,
    enumerate_vertices,
    incidence_bitsets,
    lattice_chart,
    vertex_of,
)


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
    # cap one slack LP settles before any double description pass
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


@st.composite
def pointed_cones(draw):
    """Pointed full-dimensional cones at 0 in dimension 2-4 over 2-6 rays, entries in [-2, 2].

    Each ray is flipped to the positive side of one drawn functional c, so
    the cone is pointed; rays need be neither primitive nor extreme.
    """
    d = draw(st.integers(2, 4))
    c = draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d).filter(any))
    ray = st.lists(st.integers(-2, 2), min_size=d, max_size=d).filter(lambda r: dot(r, c))
    rays = [
        tuple(r) if dot(r, c) > 0 else tuple(-v for v in r)
        for r in draw(st.lists(ray, min_size=d, max_size=6))
    ]
    assume(rank(rays) == d)
    return VertexCone((0,) * d, tuple(rays))


def _facet_normals(rays):
    """Inner normals n of the facets of a pointed full-dimensional cone(rays), by brute force.

    Every d - 1 independent rays span a hyperplane; it bounds the cone when
    all rays lie on one side, and the cone is {x : n . x >= 0 for every n}.
    """
    d = len(rays[0])
    normals = []
    for sub in itertools.combinations(rays, d - 1):
        # the generalized cross product: n . x = det(sub rows, x)
        n = [(-1) ** (d - 1 + j) * det([r[:j] + r[j + 1 :] for r in sub]) for j in range(d)]
        sides = {(dot(n, r) > 0) - (dot(n, r) < 0) for r in rays} - {0}
        if any(n) and len(sides) == 1:
            side = sides.pop()
            normals.append([side * v for v in n])
    return normals


@given(pointed_cones())
@example(VertexCone((0, 0), ((1, 0), (1, 2))))
@example(VertexCone((0, 0, 0), ((1, 0, 0), (0, 1, 0), (1, 1, 2))))
@example(VertexCone((0, 0, 0), ((1, 0, 0), (1, 2, 0), (1, 0, 2), (1, 2, 2))))
@settings(max_examples=60, deadline=None)
def test_decompose_cone_is_exact_on_pointed_cones(cone):
    """The signed half-open indicator sum is membership in cone at every point of a box."""
    leaves = decompose_cone(cone)
    assert decompose_cone(cone, seed=7) == leaves
    _assert_exact_indicator(cone, leaves)


def _assert_exact_indicator(cone, leaves):
    """Each leaf's inverse inverts its rays, and the signed sum is membership in cone on a box."""
    d = len(cone.apex)
    for leaf in leaves:
        assert [[dot(row, u) for u in leaf.rays] for row in leaf.inverse] == [
            [int(i == j) for j in range(d)] for i in range(d)
        ]
    normals = _facet_normals(cone.rays)
    for p in itertools.product(range(-2, 3), repeat=d):
        signed = 0
        for leaf in leaves:
            coords = [dot(row, p) for row in leaf.inverse]
            signed += leaf.sign * all(
                x > 0 if is_open else x >= 0 for x, is_open in zip(coords, leaf.open_facets)
            )
        assert signed == all(dot(n, p) >= 0 for n in normals), p


@pytest.mark.parametrize(
    "cone",
    [
        VertexCone((0, 0), ((1, -1),)),
        VertexCone((0, 0, 0), ((1, 0, 1), (1, 0, -1))),
    ],
)
def test_decompose_cone_rejects_lower_dimensional_cones(cone):
    with pytest.raises(ValueError, match="full-dimensional"):
        decompose_cone(cone)


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
    # a float, string or bool factor is rejected too, not failed on in the
    # chart code (2.0) or counted (1.5, and True as 1)
    for bad in (0, 2.0, 1.5, "2", True):
        with pytest.raises(ValueError, match="dilation factor must be a positive integer"):
            count_dilation(poly, bad)


def test_determinism_across_seeds_and_threads(monkeypatch):
    """seed and threads do not reach the count: one direction serves every pair."""
    import hivecount.counting as counting

    real = counting._specialization_direction
    directions = []

    def spy(rays, dim):
        directions.append(real(rays, dim))
        return directions[-1]

    monkeypatch.setattr(counting, "_specialization_direction", spy)
    t = make_triple((9, 7, 3, 0, 0), (9, 9, 3, 2, 0), (10, 9, 9, 8, 6))
    values = {
        lr_coefficient(t, seed=s, threads=th)
        for s in (0, 5, 91)
        for th in (1, 2)
    }
    assert values == {2}
    assert len(directions) == 6 and len(set(directions)) == 1


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


def test_r6_is_the_fifth_dilation_of_a_tableau_checked_triple():
    """R6 = (60,50,40,30,20,10),(55,45,35,25,15,5) -> (100,90,75,60,40,25) = 37239595.

    It is the fifth dilation of a triple whose coefficient the tableau rule
    gives as 667 (|mu| = 36, above the default cap).
    """
    lam, mu, nu = (12, 10, 8, 6, 4, 2), (11, 9, 7, 5, 3, 1), (20, 18, 15, 12, 8, 5)
    assert lr_tableau_count(lam, mu, nu, cap=36) == 667
    assert count_dilation(hive_hrep(make_triple(lam, mu, nu)), 5).value == 37239595


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


def test_count_path_runs_one_dd_pass(monkeypatch):
    """The double description routine runs once per chart, not once per vertex."""
    import hivecount.polyhedra as polyhedra

    real = polyhedra._extreme_rays
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(polyhedra, "_extreme_rays", counted)
    paper_row = make_triple((73, 58, 41, 21, 4), (77, 61, 46, 27, 1), (124, 117, 71, 52, 45))
    assert lr_coefficient(paper_row) == 557744
    assert len(calls) == 1
    # the flat chart's equality is a pair of opposite rows, imposed before the
    # pass, so one pass reads the vertices of the restricted chart
    calls.clear()
    assert lr_coefficient(make_triple((3, 2, 2), (4, 3, 1), (6, 4, 3, 2))) == 3
    assert len(calls) == 1


def _reduction_calls(monkeypatch):
    """The list that each restrict_chart and homogenized_rays call of the count appends to."""
    import hivecount.counting as counting

    calls = []

    def spy(name):
        real = getattr(counting, name)

        def counted(*args):
            calls.append(name)
            return real(*args)

        return counted

    for name in ("restrict_chart", "homogenized_rays"):
        monkeypatch.setattr(counting, name, spy(name))
    return calls


def test_single_point_takes_one_dd_pass(monkeypatch):
    """A hive polytope that is one lattice point is read off the one pass.

    Its chart has dimension 3.  Imposing its meeting opposite pairs leaves a
    chart of dimension 1 with a new meeting pair, which a second
    restrict_chart imposes; the one double description pass then runs in
    dimension 0, and nothing follows it.
    """
    calls = _reduction_calls(monkeypatch)
    triple = make_triple((3, 3, 2), (2, 1), (3, 3, 3, 2))
    assert lattice_chart(hive_hrep(triple)).dim == 3
    assert lr_coefficient(triple) == lr_tableau_count(triple.lam, triple.mu, triple.nu) == 1
    assert calls == ["restrict_chart", "restrict_chart", "homogenized_rays"]


@pytest.mark.parametrize(
    "triple, value",
    [
        (((4, 4, 3, 2), (3, 3, 2, 1), (7, 5, 4, 4, 2)), 3),
        (((5, 4, 3, 1), (5, 4, 2, 1, 1), (9, 5, 5, 4, 3)), 4),
    ],
)
def test_pairs_made_by_a_restriction_take_no_second_pass(monkeypatch, triple, value):
    """Pairs that one restriction leaves are imposed by the next, not found by a pass.

    Each of these flat hive charts (dimension 6) needs two restrictions, the
    second for opposite rows that the first one makes meet; the chart after
    both is full-dimensional, so one double description pass reads its
    vertices.
    """
    calls = _reduction_calls(monkeypatch)
    assert lr_coefficient(make_triple(*triple)) == value
    assert calls == ["restrict_chart", "restrict_chart", "homogenized_rays"]


def test_count_path_eliminates_once_per_simple_vertex(monkeypatch):
    """On the 557744 row no polar cone takes an elimination.

    The polar cones of its 161 simple vertices, and those of 53 of its 59
    vertices on d + 1 = 7 facets, have only unimodular cells, which the edge
    directions show without a triangulation; the other 18 vertices' polar
    cones are triangulated, which gets every cell's adjugate by bordering
    and rank-one updates, and every child in the recursion gets its
    adjugate from its parent.  linalg keeps no elimination to take.
    """
    import hivecount.counting as counting
    import hivecount.linalg as linalg
    import hivecount.polyhedra as polyhedra
    import hivecount.triangulation as triangulation

    for module in (linalg, polyhedra, triangulation, counting):
        assert not hasattr(module, "adjugate")
    real = counting.placing_triangulation
    calls = []

    def counted(gens):
        calls.append((len(gens), len(gens[0])))
        return real(gens)

    monkeypatch.setattr(counting, "placing_triangulation", counted)
    paper_row = make_triple((73, 58, 41, 21, 4), (77, 61, 46, 27, 1), (124, 117, 71, 52, 45))
    assert lr_coefficient(paper_row) == 557744
    assert len(calls) == 18
    # a simple vertex's polar cone is square: none of them is triangulated
    assert all(n > d for n, d in calls)


# three paper rows with weights about 1e2, 1e3 and 1e6: (triple, value, leaves)
LARGE_PAPER_ROWS = [
    (((73, 58, 41, 21, 4), (77, 61, 46, 27, 1), (124, 117, 71, 52, 45)), 557744, 364),
    (((935, 639, 283, 75, 48), (921, 683, 386, 136, 21), (1529, 1142, 743, 488, 225)),
     1303088213330, 394),
    (((859647, 444276, 283294, 33686, 24714), (482907, 437967, 280801, 79229, 26997),
      (1120207, 699019, 624861, 351784, 157647)), 11711220003870071391294871475, 316),
]


@pytest.mark.parametrize("triple, value, leaves", LARGE_PAPER_ROWS)
def test_paper_rows_leaf_counts(monkeypatch, triple, value, leaves):
    """The polar decompositions of three paper rows keep their number of leaves."""
    import hivecount.counting as counting

    real = counting._vertex_leaves
    sizes = []

    def spy(ray, gens, edges):
        out = real(ray, gens, edges)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(counting, "_vertex_leaves", spy)
    assert lr_coefficient(make_triple(*triple)) == value
    assert sum(sizes) == leaves


@pytest.mark.parametrize(
    "triple, value, leaves",
    [
        (((6, 5, 4, 3, 2, 1), (6, 5, 4, 3, 2, 1), (11, 9, 8, 6, 4, 4)), 30, 2552),
        (((6, 5, 4, 3, 2, 1), (6, 5, 4, 3, 2, 1), (10, 10, 8, 7, 4, 3)), 18, 554),
    ],
)
def test_rank6_rows_leaf_counts(monkeypatch, triple, value, leaves):
    """Two rank-6 rows, whose final sums merge many scales, keep their counts and leaves."""
    test_paper_rows_leaf_counts(monkeypatch, triple, value, leaves)


def _packed_inputs(d):
    """(e values, each at most emax, often equal to it; emax; ray signs; apex)."""
    return st.integers(1, 10**6).flatmap(
        lambda emax: st.tuples(
            st.lists(st.one_of(st.just(emax), st.integers(1, emax)), min_size=d, max_size=d),
            st.just(emax),
            st.lists(st.sampled_from((1, -1)), min_size=d, max_size=d),
            st.lists(st.integers(-50, 50), min_size=d, max_size=d),
        )
    )


# one-prime moduli and a product of two primes
moduli = st.sampled_from((_PRIMES[0], _PRIMES[1], _PRIMES[3], _PRIMES[0] * _PRIMES[1]))


def _axis_total(sign, es, signs, a, emax, modulus, copies=1):
    """_series_total of copies of one closed leaf at the integral apex a, ray i s_i e_i times unit i.

    Direction (1, ..., 1) meets ray i at s_i e_i.  e_of also holds a ray that
    meets it at emax, which sets the packing width.  Returns the total and
    the oracle's exact series of one leaf, reduced mod modulus.
    """
    d = len(es)
    rays = tuple(
        tuple(s * e if j == i else 0 for j in range(d)) for i, (e, s) in enumerate(zip(es, signs))
    )
    unit = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
    leaf = SignedUnimodularCone(sign, tuple(a), rays, (False,) * d, unit)
    direction = (1,) * d
    e_of = {u: dot(direction, u) for u in rays + ((emax,) + (0,) * (d - 1),)}
    vertex_leaves = [(tuple(a) + (1,), [leaf] * copies)]
    exact = exact_total([(tuple(a) + (1,), [leaf])], direction, d)
    return _series_total(vertex_leaves, direction, e_of, d, modulus), reduce_mod(exact, modulus)


@given(st.integers(1, 12).flatmap(_packed_inputs), st.sampled_from((1, -1)), moduli)
@example(([10**6] * 12, 10**6, [1] * 12, [0] * 12), 1, _PRIMES[0])
@example(([10**6] * 12, 10**6, [-1, 1] * 6, [7] * 12), -1, _PRIMES[0] * _PRIMES[1])
@example(([1] * 3, 1, [1, 1, -1], [0, 1, 2]), 1, _PRIMES[0])
@settings(max_examples=200, deadline=None)
def test_leaf_series_packed_matches_series_mul(inputs, sign, modulus):
    """The packed denominator product, solved mod M, is the exact _series_mul chain's series mod M.

    A second copy of the leaf reads the packed series cached by the first
    and adds the same terms again.
    """
    es, emax, signs, a = inputs
    total, expected = _axis_total(sign, es, signs, a, emax, modulus)
    assert total == expected
    twice, _ = _axis_total(sign, es, signs, a, emax, modulus, copies=2)
    assert twice == [2 * c % modulus for c in expected]


@given(
    st.integers(1, 12).flatmap(
        lambda deg: st.tuples(
            st.just(deg),
            st.integers(-(10**7), 10**7),
            st.integers(1, 10**6).flatmap(
                lambda emax: st.lists(st.integers(1, emax), min_size=deg, max_size=deg)
            ),
        )
    ),
    moduli,
)
@example((12, -(10**7), [10**6] * 12), _PRIMES[0])
@example((12, 10**7, [1] * 12), _PRIMES[1])
@example((1, -3, [5]), _PRIMES[0])
@settings(max_examples=200, deadline=None)
def test_series_quotient_matches_scaled_inverse(data, modulus):
    """The solve mod M is the binomial series times the exact scaled inverse, reduced mod M.

    The denominator is the product of deg series ((1+s)^e - 1)/s, as one
    leaf's with rays e times unit vectors; the binomial exponent may be
    negative.
    """
    deg, exponent, es = data
    denom = [1] + [0] * deg
    for e in es:
        denom = _series_mul(denom, [comb(e, k + 1) for k in range(deg + 1)], deg)
    quotient = series_quotient_by_inverse(_binomial_series(exponent, deg), denom, deg)
    scale = pow(denom[0] ** (deg + 1), -1, modulus)
    expected = [(-1) ** deg * c * scale % modulus for c in quotient]
    a = [exponent] + [0] * (deg - 1)
    assert _axis_total(1, es, [1] * deg, a, max(es), modulus)[0] == expected


def _primal_leaves(ray, gens, edges):
    apex = vertex_of(ray)
    rays = _extreme_rays(gens, len(apex))
    return decompose_cone(VertexCone(apex, tuple(sorted(ray for ray, _ in rays))))


def _every_row(on):
    return (1 << len(on)) - 1


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


CONE_EXAMPLES = (
    # the apex of a square pyramid: four tight rows in dimension 3
    HRepPolytope(rows=((0, 0, -1), (-1, 0, 1), (1, 0, 1), (0, -1, 1), (0, 1, 1)),
                 rhs=(0, 0, 2, 0, 2)),
    # at (0, 2) the polar cone((-1, 0), (1, 2)) has index 2, so the recursion recurses
    HRepPolytope(rows=((-1, 0), (0, -1), (1, 2)), rhs=(0, 0, 4)),
    # a Fraction right-hand side: fractional vertices, closed polar leaves at them
    HRepPolytope(rows=((-1, 0), (0, -1), (2, 1), (1, 3)),
                 rhs=(0, 0, Fraction(9, 2), Fraction(13, 3))),
    # a redundant tight row: at (0, 0) the row -x - y <= 0 cuts out only the apex
    HRepPolytope(rows=((-1, 0), (0, -1), (-1, -1), (1, 0), (0, 1)), rhs=(0, 0, 0, 2, 2)),
)


def with_cone_examples(test):
    for poly in CONE_EXAMPLES:
        test = example(poly)(test)
    return given(cone_polytopes())(test)


@with_cone_examples
@settings(max_examples=60, deadline=None)
def test_polar_and_primal_sides_match_naive(poly):
    """The count's polar side, the polar on every tight row and the primal side agree."""
    import hivecount.counting as counting

    expected = count_naive(poly).value
    assert count_barvinok(poly).value == expected
    for name, fake in (("_facet_mask", _every_row), ("_vertex_leaves", _primal_leaves)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(counting, name, fake)
            assert count_barvinok(poly).value == expected, name


def _vertex_leaf_calls(poly):
    """The (ray, gens, edges) that count_barvinok hands _vertex_leaves, one per vertex."""
    import hivecount.counting as counting

    real = counting._vertex_leaves
    seen = []

    def spy(ray, gens, edges):
        seen.append((ray, gens, edges))
        return real(ray, gens, edges)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "_vertex_leaves", spy)
        count_barvinok(poly)
    return seen


def _count_generators(poly):
    """(tight rows, polar generators) at each vertex, as count_barvinok decomposes them."""
    chart, vertices = _reduce(poly)
    seen = _vertex_leaf_calls(poly)
    assert [ray for ray, _, _ in seen] == [ray for ray, _ in vertices]
    return chart, [
        ([a for a, b in zip(chart.rows, chart.rhs) if dot(a, vertex_of(ray)) == b], gens)
        for ray, gens, _ in seen
    ]


def _prism(rows, rhs):
    """The prism rows x [0, 1] over the polytope rows x <= rhs, one dimension up."""
    rows = [tuple(a) + (0,) for a in rows]
    unit = (0,) * (len(rows[0]) - 1)
    return HRepPolytope(rows=rows + [unit + (-1,), unit + (1,)], rhs=tuple(rhs) + (0, 1))


@with_cone_examples
@example(HRepPolytope(rows=((2,), (-3,)), rhs=(7, 2)))  # [-2/3, 7/2]: one facet per vertex
# at the origin the 5 facets x, y, z, x - y + z <= 0 and w >= 0 have one
# dependence, which leaves w >= 0 out; every cell of that circuit is unimodular
@example(_prism(((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)),
                (0, 0, 0, 0, 2, 2, 2)))
# the same at the apex of a square pyramid, whose circuit cells have |det| 2
@example(_prism(CONE_EXAMPLES[0].rows, CONE_EXAMPLES[0].rhs))
@example(hive_hrep(make_triple((22, 19, 8, 3), (23, 20, 13, 12), (41, 38, 24, 17))))
@example(hive_hrep(make_triple(*SMALL_WEIGHT_ROWS[-1][0])))
@example(hive_hrep(make_triple((6, 5, 4, 3, 2, 1), (6, 5, 4, 3, 2, 1), (10, 10, 8, 7, 4, 3))))
@settings(max_examples=60, deadline=None)
def test_simple_vertex_leaf_matches_elimination(poly):
    """At a vertex on at most dim + 1 facets the edge directions give the elimination's leaves.

    They are read off the edges exactly when every cell of the placing
    triangulation is unimodular; otherwise the vertex is triangulated.
    """
    from hivecount.counting import _edge_leaves, _vertex_leaves
    from hivecount.triangulation import placing_triangulation

    def leaf_set(leaves):
        return Counter((leaf.sign, leaf.rays, leaf.inverse) for leaf in leaves)

    for ray, gens, edges in _vertex_leaf_calls(poly):
        assert (edges is not None) == (len(gens) <= len(ray))
        if edges is not None:
            expected = leaf_set(_vertex_leaves(ray, gens, None))
            assert leaf_set(_vertex_leaves(ray, gens, edges)) == expected
            unimodular = all(abs(c.det) == 1 for c in placing_triangulation(gens).cells)
            assert (_edge_leaves(ray, gens, edges) is not None) == unimodular


def test_simple_vertex_shortcut_needs_a_unimodular_polar():
    from hivecount.counting import _vertex_leaves

    # the triangle x, y >= 0, x + 2y <= 4: the polar cones at (0, 0) and
    # (4, 0) are unimodular, and the one at (0, 2) has index 2, so there the
    # edge directions fail the test and the elimination runs
    calls = _vertex_leaf_calls(CONE_EXAMPLES[1])
    unimodular = {
        ray: all(dot(g, edges[j, j]) == -1 for j, g in enumerate(gens)) for ray, gens, edges in calls
    }
    assert unimodular == {(0, 0, 1): True, (4, 0, 1): True, (0, 2, 1): False}
    leaves = {ray: _vertex_leaves(ray, gens, edges) for ray, gens, edges in calls}
    assert [len(leaves[ray]) for ray in sorted(leaves)] == [1, 2, 1]


@with_cone_examples
@settings(max_examples=60, deadline=None)
def test_facet_mask_matches_per_vertex_dd(poly):
    """At every vertex the count decomposes the facet rows that a DD run on its tight rows finds."""
    chart, pairs = _count_generators(poly)
    for tight, gens in pairs:
        assert gens == _polar_generators(tight, chart.dim)


@pytest.mark.parametrize(
    "triple, most_tight",
    [
        (((73, 58, 41, 21, 4), (77, 61, 46, 27, 1), (124, 117, 71, 52, 45)), 9),
        (((6, 5, 4, 3, 2, 1), (6, 5, 4, 3, 2, 1), (10, 10, 8, 7, 4, 3)), 22),
    ],
)
def test_facet_mask_matches_per_vertex_dd_on_hive_charts(triple, most_tight):
    # charts of dimension 6 and 9, whose degenerate vertices have up to
    # most_tight tight rows
    chart, pairs = _count_generators(hive_hrep(make_triple(*triple)))
    for tight, gens in pairs:
        assert gens == _polar_generators(tight, chart.dim)
    assert max(len(tight) for tight, _ in pairs) == most_tight


def test_polar_side_leaves():
    from hivecount.counting import _facet_mask, _vertex_leaves

    # the square [0, 2]^2 with -x - y <= 0, tight only at the origin, and
    # x + y <= 10, tight nowhere: only the four sides are facets
    square = HRepPolytope(rows=((-1, 0), (0, -1), (1, 0), (0, 1), (-1, -1), (1, 1)),
                          rhs=(0, 0, 2, 2, 0, 10))
    chart, vertices = _reduce(square)
    assert chart.rows == square.rows
    on = incidence_bitsets([mask for _, mask in vertices], len(chart.rows))
    assert _facet_mask(on) == 0b1111
    # the polar cone((-1, 0), (1, 2)) at (0, 2) has index 2, so the recursion recurses
    leaves = _vertex_leaves((0, 2, 1), [(-1, 0), (1, 2)], None)
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


@st.composite
def planted_pair_systems(draw):
    """(poly, box): a box around a point p, cut by opposite row pairs planted near p.

    The box [p - lo, p + hi] has sides of 0-2 units, and up to 2 cuts with
    entries in [-2, 2] miss p by at most 1/2.  Each of up to 3 pairs holds
    a t in [a p + s, a p + s'] with a primitive or not, through rows c a t
    <= c (a p + s') and -c' a t <= -c' (a p + s) scaled by c, c' in 1..3.
    The range is one integer (a zero-sum pair), one value off the integers
    (no lattice point), empty (a crossing pair) or of positive width.
    """
    dim = draw(st.integers(1, 3))
    p = draw(st.lists(st.integers(-2, 3), min_size=dim, max_size=dim))
    entries = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).filter(any)
    box = [(v - draw(st.integers(0, 2)), v + draw(st.integers(0, 2))) for v in p]
    base = box_poly(box)
    rows, rhs = list(base.rows), list(base.rhs)
    for a in draw(st.lists(entries, max_size=2)):
        rows.append(tuple(a))
        rhs.append(dot(a, p) + Fraction(draw(st.integers(-1, 4)), 2))
    offsets = st.sampled_from(
        [(0, 0), (1, 1), (Fraction(1, 2), Fraction(1, 2)), (Fraction(2, 3), Fraction(2, 3)),
         (1, 0), (Fraction(1, 2), 0), (0, Fraction(1, 3)), (-1, 1)]
    )
    for a in draw(st.lists(entries, min_size=1, max_size=3)):
        s, s_hi = draw(offsets)
        c, c_opp = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        rows += [tuple(c * v for v in a), tuple(-c_opp * v for v in a)]
        rhs += [c * (dot(a, p) + s_hi), -c_opp * (dot(a, p) + s)]
    return HRepPolytope(rows=rows, rhs=rhs), box


@given(planted_pair_systems())
@example((HRepPolytope(rows=((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)),
                       rhs=(2, 0, 2, 0, 2, -2)), [(0, 2), (0, 2)]))  # x + y = 2
@example((HRepPolytope(rows=((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)),
                       rhs=(2, 0, 2, 0, 1, -2)), [(0, 2), (0, 2)]))  # 2 <= x + y <= 1
@example((HRepPolytope(rows=((1, 0), (-1, 0), (0, 1), (0, -1), (2, 4), (-3, -6)),
                       rhs=(2, 0, 2, 0, 4, -6)), [(0, 2), (0, 2)]))  # x + 2y = 2, scaled rows
@example((HRepPolytope(rows=((1, 0), (-1, 0), (0, 1), (0, -1), (2, 2), (-2, -2)),
                       rhs=(2, 0, 2, 0, 3, -3)), [(0, 2), (0, 2)]))  # x + y = 3/2
@settings(max_examples=200, deadline=None)
def test_planted_opposite_pairs_count_exactly(system):
    """Pairs pinned before the DD pass keep every count and the polytope's dimension."""
    poly, box = system
    want = brute_count(poly.rows, poly.rhs, box)
    assert count_barvinok(poly).value == count_naive(poly).value == want
    reduced, oracle = _reduce(poly), lp_reduce_bounded(poly)
    degree = 0 if reduced is None else reduced[0].dim
    assert degree == (0 if oracle is None else oracle.dim)


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
@example(HRepPolytope(rows=((1, 0), (-1, 0), (0, 1), (0, -1)), rhs=(2, -2, -1, 1)))  # (2, -1)
@example(HRepPolytope(rows=((2,), (-2,)), rhs=(1, -1)))  # the point 1/2
@example(HRepPolytope(rows=((2, 0), (-2, 0), (0, 2), (0, -2)), rhs=(1, -1, 3, -3)))  # (1/2, 3/2)
@example(HRepPolytope(rows=((1, 0), (2, 0), (-1, 0), (-3, 0), (0, 1), (0, 1), (0, -1), (1, -1)),
                      rhs=(1, 2, -1, -3, 0, 0, 0, 1)))  # (1, 0) cut out by parallel rows
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
    assert {chart.to_ambient(vertex_of(ray)) for ray, _ in vertices} == {
        want.to_ambient(v) for v in enumerate_vertices(want.rows, want.rhs, want.dim)
    }
    for ray, mask in vertices:
        assert ray[-1] > 0 and vec_gcd(ray) == 1
        v = vertex_of(ray)
        rows = zip(chart.rows, chart.rhs)
        assert mask == sum(1 << k for k, (a, b) in enumerate(rows) if dot(a, v) == b)


hive_polytopes = st.builds(
    lambda sample, rank, seed: hive_hrep(sample(random.Random(seed), 1, rank, 3)[0]),
    st.sampled_from((random_triple_corpus, random_tensor_triples)),
    st.integers(2, 5),
    st.integers(0, 2**32),
)


@given(st.one_of(reduce_systems(), hive_polytopes))
@settings(max_examples=200, deadline=None)
def test_reduced_chart_is_a_fixed_point(poly):
    """The chart _reduce returns leaves the loop nothing to impose.

    Its rows are in dedupe_rows' normal form, no opposite rows meet on it,
    and above dimension 0 no row is tight at every vertex, so it is
    full-dimensional.
    """
    try:
        reduced = _reduce(poly)
    except UnboundedError:
        return
    if reduced is None:
        return
    chart, vertices = reduced
    assert all(vec_gcd(a) == 1 for a in chart.rows)
    assert len(set(chart.rows)) == len(chart.rows)
    assert _pinned_by_pairs(chart.rows, chart.rhs) == ([], [])
    if chart.dim > 0:
        implicit = -1
        for _, mask in vertices:
            implicit &= mask
        assert implicit == 0


def _series_calls(poly):
    """count_barvinok's value, with the arguments and result of each _series_total call it makes."""
    import hivecount.counting as counting

    real = counting._series_total
    seen = []

    def spy(*args):
        seen.append((args, real(*args)))
        return seen[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "_series_total", spy)
        value = count_barvinok(poly).value
    return value, seen


@given(st.one_of(cone_polytopes(), hive_polytopes))
@example(CONE_EXAMPLES[2])  # vertices (9/4, 0) and (0, 13/9): q > 1
@example(hive_hrep(make_triple((4, 2, 1), (3, 2), (5, 4, 2, 1))))
@settings(max_examples=100, deadline=None)
def test_modular_sum_matches_exact_per_scale_sum(poly):
    """The leaves summed mod M give the exact per-scale Fraction sum mod M, and the count.

    M exceeds the box bound, which bounds the count.
    """
    expected = count_naive(poly).value
    value, seen = _series_calls(poly)
    assert value == expected
    if not seen:
        return
    [((vertex_leaves, direction, _, deg, modulus), total)] = seen
    assert total == reduce_mod(exact_total(vertex_leaves, direction, deg), modulus)
    assert total == [0] * deg + [expected]
    _, vertices = _reduce(poly)
    assert expected <= _box_bound(vertices) < modulus


def test_modulus_skips_primes_at_most_the_bound_or_some_e(monkeypatch):
    """The square [0, 2]^2 has box bound 9, and under the direction (11, 13) |e| is 11 or 13.

    Of the listed primes 7, 11, 13 and 17, 7 is below the bound and 11 and 13
    divide some |e|, so the count sums mod 17.  The square [0, 20]^2 has bound
    441, above every listed prime, so it sums mod the product 17 * 19 * 23 of
    those above 13; the product 17 * 19 alone does not exceed the bound.
    """
    import hivecount.counting as counting

    monkeypatch.setattr(counting, "_specialization_direction", lambda rays, dim: (11, 13))
    monkeypatch.setattr(counting, "_PRIMES", (7, 11, 13, 17))
    value, seen = _series_calls(box_poly([(0, 2), (0, 2)]))
    assert value == 9 and [args[-1] for args, _ in seen] == [17]
    monkeypatch.setattr(counting, "_PRIMES", (7, 17, 19, 23))
    value, seen = _series_calls(box_poly([(0, 20), (0, 20)]))
    assert value == 441 and [args[-1] for args, _ in seen] == [23 * 19 * 17]
    monkeypatch.setattr(counting, "_PRIMES", (7, 17, 19))
    with pytest.raises(InvariantError, match="box bound 441"):
        count_barvinok(box_poly([(0, 20), (0, 20)]))


def _no_short_basis(cols):
    """A stand-in for lll_reduce on the adjugate columns cols: |D| e_1, ..., |D| e_d.

    Those vectors lie in the columns' lattice, which holds |D| Z^d, but none
    is shorter than |D|, so _short_vector must take its fallback.  |D| is
    read off |det(cols)| = |D|^(d-1).
    """
    d = len(cols)
    power = abs(det(cols))
    size = next(k for k in itertools.count(2) if k ** (d - 1) >= power)
    return [[size * int(i == j) for j in range(d)] for i in range(d)]


def _fallback_short_vectors(mp):
    """Send every _short_vector through its fallback, and check each vector it returns."""
    import hivecount.counting as counting

    real = counting._short_vector
    returned = []

    def checked(adj, target):
        b = real(adj, target)
        assert any(b) and max(map(abs, b)) < target
        returned.append(b)
        return b

    mp.setattr(counting, "lll_reduce", _no_short_basis)
    mp.setattr(counting, "_short_vector", checked)
    return returned


@with_cone_examples
@settings(max_examples=60, deadline=None)
def test_short_vector_fallback_counts_exactly(poly):
    """With no short vector from LLL, every count still matches the naive one."""
    expected = count_naive(poly).value
    with pytest.MonkeyPatch.context() as mp:
        _fallback_short_vectors(mp)
        assert count_barvinok(poly).value == expected


@given(pointed_cones())
@example(VertexCone((0, 0), ((1, 0), (1, 2))))
@example(VertexCone((0, 0, 0), ((1, 0, 0), (0, 1, 0), (1, 1, 2))))
@example(VertexCone((0, 0, 0), ((1, 0, 0), (1, 2, 0), (1, 0, 2), (1, 2, 2))))
@settings(max_examples=60, deadline=None)
def test_short_vector_fallback_decomposes_exactly(cone):
    """With no short vector from LLL, decompose_cone stays exact on pointed cones."""
    with pytest.MonkeyPatch.context() as mp:
        _fallback_short_vectors(mp)
        leaves = decompose_cone(cone)
    _assert_exact_indicator(cone, leaves)


def test_short_vector_fallback_is_reached():
    """The index-2 cone((1, 0), (1, 2)) takes one short vector, a reduced adjugate column.

    Its adjugate has columns (2, 0), which is 0 mod 2, and (-1, 1), which
    reduces to (1, 1).
    """
    with pytest.MonkeyPatch.context() as mp:
        returned = _fallback_short_vectors(mp)
        decompose_cone(VertexCone((0, 0), ((1, 0), (1, 2))))
    assert returned == [(1, 1)]


@given(
    st.integers(1, 8).flatmap(
        lambda dim: st.lists(
            st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).map(tuple).filter(any),
            min_size=1,
            max_size=300,
        )
    ),
    st.randoms(use_true_random=False),
)
@example([u for u in itertools.product((-1, 0, 1), repeat=4) if any(u)], random.Random(0))
@settings(max_examples=200, deadline=None)
def test_specialization_direction_is_orthogonal_to_no_ray(rays, rng):
    """The direction meets every ray, ignores the rays' order, and keeps |v_j| <= ceil(m_j / 2).

    m_j is the number of rays whose last nonzero entry is j.
    """
    import hivecount.counting as counting

    dim = len(rays[0])
    v = counting._specialization_direction(rays, dim)
    assert len(v) == dim and all(dot(v, u) for u in rays)
    shuffled = list(rays)
    rng.shuffle(shuffled)
    assert counting._specialization_direction(shuffled, dim) == v
    m = Counter(max(j for j, c in enumerate(u) if c) for u in set(rays))
    assert all(abs(x) <= -(-m[j] // 2) for j, x in enumerate(v))


def test_large_paper_rows_take_short_directions():
    """The three large paper rows count right with every |direction . ray| below 64.

    The seeded draws gave 182 and 364 on two of them.
    """
    for triple, value, _ in LARGE_PAPER_ROWS:
        count, [((_, _, e_of, _, _), _)] = _series_calls(hive_hrep(make_triple(*triple)))
        assert count == value and max(map(abs, e_of.values())) < 64


@st.composite
def small_det_cells(draw):
    """Square int matrices of determinant +-2 or +-3, as cells of the recursion have.

    diag(1, ..., D, ..., 1) under random elementary row and column operations.
    """
    d = draw(st.integers(2, 6))
    D = draw(st.sampled_from((2, 3, -2, -3)))
    k = draw(st.integers(0, d - 1))
    m = [[D if i == j == k else int(i == j) for j in range(d)] for i in range(d)]
    index = st.integers(0, d - 1)
    for on_rows, i, j, c in draw(st.lists(st.tuples(st.booleans(), index, index, st.integers(-4, 4)),
                                          max_size=5 * d)):
        if i == j:
            continue
        if on_rows:
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        else:
            for row in m:
                row[i] += c * row[j]
    return m


@given(small_det_cells())
@example([[1, 0], [1, 2]])
@example([[1, 1, 1], [0, 3, 1], [0, 0, 1]])
@settings(max_examples=200, deadline=None)
def test_small_determinant_short_vector_matches_lll(m):
    """For |D| <= 3 the reduced adjugate column and LLL's shortest row have one zero pattern.

    Both are nonzero and in the lattice L of the adjugate's columns (m v / D
    is integral, since m / D inverts the adjugate), with sup-norm below |D|;
    the column has sup-norm 1.
    """
    from hivecount.linalg import lll_reduce

    D = det(m)
    adj = adjugate_cofactor(m)
    cols = [[row[j] for row in adj] for j in range(len(adj))]
    shortest = min(lll_reduce(cols), key=lambda v: max(map(abs, v)))
    closed = _short_vector(adj, abs(D))
    for v in (shortest, closed):
        assert any(v) and max(map(abs, v)) < abs(D)
        assert all(dot(row, v) % D == 0 for row in m)
    assert max(map(abs, closed)) == 1
    assert [x == 0 for x in shortest] == [x == 0 for x in closed]


def test_large_paper_rows_take_no_lll(monkeypatch):
    """The 46 non-unimodular polar cells of the three large paper rows all have |D| = 2."""
    import hivecount.counting as counting

    real_lll, real_short = counting.lll_reduce, counting._short_vector
    lll_calls, targets = [], []

    def lll_spy(cols):
        lll_calls.append(cols)
        return real_lll(cols)

    def short_spy(adj, target):
        targets.append(target)
        return real_short(adj, target)

    monkeypatch.setattr(counting, "lll_reduce", lll_spy)
    monkeypatch.setattr(counting, "_short_vector", short_spy)
    for triple, value, _ in LARGE_PAPER_ROWS:
        assert lr_coefficient(make_triple(*triple)) == value
    assert lll_calls == []
    assert targets == [2] * 46


def test_count_naive_builds_one_chart(monkeypatch):
    import hivecount.counting as counting

    real, calls = counting.lattice_chart, []

    def chart(poly):
        calls.append(poly)
        return real(poly)

    monkeypatch.setattr(counting, "lattice_chart", chart)
    triple = make_triple((3, 2, 1), (2, 1), (4, 3, 1, 1))
    want = lr_tableau_count(triple.lam, triple.mu, triple.nu)
    assert count_naive(hive_hrep(triple)).value == want
    assert len(calls) == 1


def _chart_depth(chart):
    depth = 0
    while chart.parent is not None:
        chart, depth = chart.parent, depth + 1
    return depth


def _composed_map(chart):
    """(origin, basis) of chart in ambient coordinates, each level's basis multiplied out."""
    origin, basis = chart.origin, chart.basis
    while chart.parent is not None:
        chart = chart.parent
        # column i: coordinate i of each of the parent's basis vectors
        columns = [tuple(k[i] for k in chart.basis) for i in range(len(chart.origin))]
        origin = tuple(o + dot(col, origin) for o, col in zip(chart.origin, columns))
        basis = tuple(tuple(dot(col, k) for col in columns) for k in basis)
    return origin, basis


@st.composite
def chained_systems(draw):
    """(poly, box): a box around a point p, cut through p in ways that each add a chart level.

    In dimension 2-5 the box [p - lo, p + hi] has sides of 0-2 units.  Up to
    one equality row with one nonzero entry (substituted) and up to one
    general equality row (a restrict_chart in lattice_chart) go through p,
    as do up to one opposite row pair, each row scaled by 1-2 (pinned before
    the double description pass) and up to one implied equality: rows
    a t <= a p, c t <= c p and -(a + c) t <= -(a + c) p hold with equality
    everywhere, though no two of them are opposite (a restrict_chart after
    the pass).  The pair may miss p by 1/2 on both sides, which leaves no
    lattice point.
    """
    dim = draw(st.integers(2, 5))
    p = draw(st.lists(st.integers(-1, 2), min_size=dim, max_size=dim))
    entries = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).filter(any)
    box = [(v - draw(st.integers(0, 2)), v + draw(st.integers(0, 2))) for v in p]
    base = box_poly(box)
    rows, rhs, eq_rows, eq_rhs = list(base.rows), list(base.rhs), [], []
    for j, c in draw(st.lists(st.tuples(st.integers(0, dim - 1), st.sampled_from((1, -1, 2))),
                              max_size=1)):
        eq_rows.append(tuple(c * int(i == j) for i in range(dim)))
        eq_rhs.append(c * p[j])
    for a in draw(st.lists(entries.filter(lambda a: sum(map(bool, a)) > 1), max_size=1)):
        eq_rows.append(tuple(a))
        eq_rhs.append(dot(a, p))
    for a in draw(st.lists(entries, max_size=1)):
        s = draw(st.sampled_from((0, 0, 0, Fraction(1, 2))))
        c, c_opp = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        rows += [tuple(c * v for v in a), tuple(-c_opp * v for v in a)]
        rhs += [c * (dot(a, p) + s), -c_opp * (dot(a, p) + s)]
    for a, c in draw(st.lists(st.tuples(entries, entries), max_size=1)):
        for row in (a, c, [-u - v for u, v in zip(a, c)]):
            rows.append(tuple(row))
            rhs.append(dot(row, p))
    return HRepPolytope(rows, rhs, eq_rows, eq_rhs), box


# a 6-box around (1, ..., 1) with x5 = 1, x0 + x1 + x2 = 3, the pair x0 = x1
# and the implied x2 = x3 = 1: the segment 0 <= x4 <= 2, three charts deep
THREE_LEVELS = (
    HRepPolytope(
        rows=box_poly([(0, 2)] * 6).rows + ((1, -1, 0, 0, 0, 0), (-1, 1, 0, 0, 0, 0),
                                            (0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0),
                                            (0, 0, -1, -1, 0, 0)),
        rhs=box_poly([(0, 2)] * 6).rhs + (0, 0, 1, 1, -2),
        eq_rows=((0, 0, 0, 0, 0, 1), (1, 1, 1, 0, 0, 0)),
        eq_rhs=(1, 3),
    ),
    [(0, 2)] * 6,
)


@given(chained_systems())
@example(THREE_LEVELS)
@settings(max_examples=200, deadline=None)
def test_chart_chains_reach_every_lattice_point(system):
    """Charts that point to their parents map back the brute-force points, as the composed map does."""
    poly, box = system
    want = {
        x
        for x in itertools.product(*[range(lo, hi + 1) for lo, hi in box])
        if all(dot(a, x) == b for a, b in zip(poly.eq_rows, poly.eq_rhs))
        and all(dot(a, x) <= b for a, b in zip(poly.rows, poly.rhs))
    }
    assert set(iter_lattice_points(poly)) == want
    reduced = _reduce(poly)
    assert (reduced is None) == (not want)
    if reduced is None:
        return
    chart, _ = reduced
    origin, basis = _composed_map(chart)
    units = [tuple(int(i == j) for i in range(chart.dim)) for j in range(chart.dim)]
    points = _iter_chart_points(list(chart.rows), list(chart.rhs), chart.dim)
    for t in [(0,) * chart.dim, *units, *points]:
        assert chart.to_ambient(t) == tuple(
            o + sum(k[i] * v for k, v in zip(basis, t)) for i, o in enumerate(origin)
        )


def test_three_level_chain():
    poly, _ = THREE_LEVELS
    assert _chart_depth(lattice_chart(poly)) == 1
    chart, vertices = _reduce(poly)
    assert chart.dim == 1 and len(vertices) == 2
    assert _chart_depth(chart) == 3
    assert sorted(iter_lattice_points(poly)) == [(1, 1, 1, 1, x, 1) for x in range(3)]


def test_count_path_maps_no_point_back(monkeypatch):
    """Counting needs no ambient coordinates: no chart on the count path calls to_ambient."""
    from hivecount.polyhedra import LatticeChart

    def to_ambient(self, t):
        raise AssertionError("to_ambient on the count path")

    monkeypatch.setattr(LatticeChart, "to_ambient", to_ambient)
    assert count_barvinok(THREE_LEVELS[0]).value == 3
    for lam, mu, nu, want in [
        ((3, 3, 2), (2, 1), (3, 3, 3, 2), 1),  # one point, pinned by pairs
        ((3, 2, 2), (4, 3, 1), (6, 4, 3, 2), 3),  # a flat chart
        ((2, 1), (2, 1), (3, 2, 1), 2),
    ]:
        assert lr_coefficient(make_triple(lam, mu, nu)) == want
