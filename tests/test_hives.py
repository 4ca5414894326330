from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hivecount import (
    HivePattern,
    SizeMismatchError,
    build_hive_polytope,
    dilation_rhs_identity,
    hive_indices,
    homogenize,
    is_hive_pattern,
    make_triple,
)
from hivecount.hives import rhombus_constraints
from hivecount.weights import dilate_triple


def test_index_counts():
    for r in range(1, 7):
        idx = hive_indices(r)
        assert len(idx) == (r + 1) * (r + 2) // 2
        assert all(i + j + k == r for (i, j, k) in idx)
        assert sum(0 in ix for ix in idx) == 3 * r


def test_rhombus_row_count():
    for r in range(2, 6):
        rows = rhombus_constraints(r)
        assert len(rows) == 3 * r * (r - 1) // 2
        # each row touches exactly four entries with coefficients +-1 summing to 0
        for row in rows:
            support = [c for c in row if c]
            assert sorted(support) == [-1, -1, 1, 1]


def test_rhombus_rows_shared_within_a_rank():
    # two triples of one rank get equal rows, built once and immutable
    a = build_hive_polytope(make_triple((3, 1), (2, 2), (4, 3, 1)))
    b = build_hive_polytope(make_triple((5, 2, 1), (1,), (5, 3, 1)))
    assert a.rank == b.rank == 3
    assert a.R == b.R == rhombus_constraints(3)
    assert a.R is b.R
    assert isinstance(a.R, tuple)


def test_boundary_system_shape():
    t = make_triple((2, 1), (1, 1), (3, 2))
    system = build_hive_polytope(t)
    assert len(system.B) == 3 * t.rank + 1
    assert len(system.rhs_b) == 3 * t.rank + 1
    assert len(system.R) == 3 * t.rank * (t.rank - 1) // 2
    # every boundary row is one-hot
    for row in system.B:
        assert sorted(row) == [0] * (len(row) - 1) + [1]


def test_size_mismatch_raises():
    t = make_triple((2, 1), (1, 1), (3, 1))
    with pytest.raises(SizeMismatchError):
        build_hive_polytope(t)


def test_homogenized_shapes():
    t2 = make_triple((0, 0), (0, 0), (0, 0), rank=2)
    rows, rhs = homogenize(build_hive_polytope(t2))
    assert len(rows) == 10 and len(rows[0]) == 9
    assert len(rhs) == 10
    t3 = make_triple((0, 0, 0), (0, 0, 0), (0, 0, 0), rank=3)
    rows, rhs = homogenize(build_hive_polytope(t3))
    assert len(rows) == 19 and len(rows[0]) == 19


def test_homogenized_block_structure():
    t = make_triple((2, 1), (1, 1), (3, 2))
    system = build_hive_polytope(t)
    rows, rhs = homogenize(system)
    nb, ns = len(system.B), len(system.R)
    nh = len(hive_indices(t.rank))
    for i in range(nb):
        assert rows[i][:nh] == system.B[i]
        assert all(v == 0 for v in rows[i][nh:])
    for s in range(ns):
        row = rows[nb + s]
        assert row[:nh] == system.R[s]
        assert row[nh + s] == 1
        assert sum(map(abs, row[nh:])) == 1
    assert rhs[nb:] == (0,) * ns


@given(st.integers(1, 5))
@settings(max_examples=20)
def test_dilation_rhs_identity_small(n):
    t = make_triple((3, 1), (2, 2), (4, 4))
    assert dilation_rhs_identity(t, n)


def test_pattern_round_trip_and_rhombus_check():
    # the classic rank-2 hive for lambda=(2,1), mu=(1,1), nu=(3,2)
    rows = [[0], [3, 2], [5, 4, 3]]
    p = HivePattern.from_rows(rows)
    assert is_hive_pattern(p)
    q = HivePattern(2, dict(zip(hive_indices(2), p.vector())))
    assert q == p


def test_classic_hive_lies_in_its_polytope():
    # the boundary of the classic rank-2 hive differences to its triple
    vec = HivePattern.from_rows([[0], [3, 2], [5, 4, 3]]).vector()
    system = build_hive_polytope(make_triple((2, 1), (1, 1), (3, 2)))
    assert tuple(sum(a * v for a, v in zip(row, vec)) for row in system.B) == system.rhs_b
    assert all(sum(a * v for a, v in zip(row, vec)) <= 0 for row in system.R)


def test_non_hive_pattern_detected():
    rows = [[0], [0, 3], [1, 1, 4]]
    p = HivePattern.from_rows(rows)
    assert not is_hive_pattern(p)


def test_fractional_pattern_allowed():
    rows = [[0], [Fraction(3, 2), 1], [2, 2, 1]]
    p = HivePattern.from_rows(rows)
    assert p.entries[(1, 0, 1)] == Fraction(3, 2)
    assert p.entries[(0, 1, 1)] == 1


def test_dilated_system_keeps_blocks():
    t = make_triple((2, 1), (1, 1), (3, 2))
    base = build_hive_polytope(t)
    scaled = build_hive_polytope(dilate_triple(t, 3))
    assert scaled.B == base.B and scaled.R == base.R
    assert scaled.rhs_b == tuple(3 * v for v in base.rhs_b)
