from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hivecount import (
    HRepPolytope,
    count_barvinok,
    hive_hrep,
    make_triple,
    polytope_from_text,
    polytope_to_text,
    read_polytope_file,
    write_polytope_file,
)


def test_round_trip_inequalities_only():
    poly = HRepPolytope(
        rows=((1, 0), (0, 1), (-1, 0), (0, -1)),
        rhs=(2, 3, 0, 0),
        eq_rows=(),
        eq_rhs=(),
    )
    text = polytope_to_text(poly)
    back = polytope_from_text(text)
    assert set(zip(back.rows, back.rhs)) == set(zip(poly.rows, poly.rhs))
    assert back.eq_rows == ()


def test_header_and_linearity_layout():
    poly = HRepPolytope(
        rows=((1, 0),),
        rhs=(4,),
        eq_rows=((1, 1),),
        eq_rhs=(3,),
    )
    lines = polytope_to_text(poly).strip().splitlines()
    assert lines[0] == "2 3"
    # equality rows come first and are declared in the trailing linearity line
    assert lines[1] == "3 -1 -1"
    assert lines[2] == "4 -1 0"
    assert lines[3] == "linearity 1 1"


def test_round_trip_with_equalities_preserves_count():
    t = make_triple((2, 1), (2, 1), (3, 2, 1))
    poly = hive_hrep(t)
    text = polytope_to_text(poly)
    back = polytope_from_text(text)
    assert count_barvinok(back).value == count_barvinok(poly).value == 2


def test_rejects_fractional_data():
    poly = HRepPolytope(rows=((1,),), rhs=(Fraction(1, 2),), eq_rows=(), eq_rhs=())
    with pytest.raises(ValueError):
        polytope_to_text(poly)


def test_parse_errors():
    with pytest.raises(ValueError):
        polytope_from_text("")
    with pytest.raises(ValueError):
        polytope_from_text("2 2\n1 1\n")  # missing a row
    with pytest.raises(ValueError):
        polytope_from_text("1 2\n1 1 1\n")  # row too long
    with pytest.raises(ValueError):
        polytope_from_text("1 2\n1 1\nlinearity 1 2\n")  # index out of range
    with pytest.raises(ValueError):
        polytope_from_text("1 2\n0 1\nlinearity\n")  # no row count
    with pytest.raises(ValueError):
        polytope_from_text("1 2\n0 1\nlinearityX 1 1\n")  # not the linearity keyword
    with pytest.raises(ValueError):
        polytope_from_text("2 2\n0 1\n0 -1\nlinearity 2 1 1\n")  # a row listed twice


def test_file_round_trip(tmp_path):
    poly = hive_hrep(make_triple((1, 0), (1, 0), (1, 1)))
    path = tmp_path / "zero.poly"
    write_polytope_file(poly, path)
    back = read_polytope_file(path)
    assert len(back.eq_rows) == len(poly.eq_rows)
    assert count_barvinok(back).value == 1


@given(
    st.lists(
        st.tuples(st.lists(st.integers(-5, 5), min_size=2, max_size=2), st.integers(-9, 9)),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=40, deadline=None)
def test_text_round_trip_property(rows_rhs):
    rows = tuple(tuple(a) for a, _ in rows_rhs)
    rhs = tuple(b for _, b in rows_rhs)
    poly = HRepPolytope(rows=rows, rhs=rhs, eq_rows=(), eq_rhs=())
    back = polytope_from_text(polytope_to_text(poly))
    assert sorted(zip(back.rows, back.rhs)) == sorted(zip(rows, rhs))
