from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hivecount import WeightError, WeightTriple, kostka_to_lr, make_triple, parse_weight
from hivecount.weights import (
    dilate,
    nonnegative_parts,
    dilate_triple,
    nonzero_length,
    parse_parts,
    partial_sums,
    validate_weight,
    weight_size,
    zero_pad,
)

partition_lists = st.lists(st.integers(0, 30), min_size=1, max_size=6).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def test_validate_accepts_weakly_decreasing():
    assert validate_weight((3, 2, 2, 0)) == (3, 2, 2, 0)


def test_validate_rejects_increase():
    with pytest.raises(WeightError):
        validate_weight((1, 2))


def test_validate_rejects_negative():
    with pytest.raises(WeightError):
        validate_weight((2, -1))


def test_non_integral_parts_are_rejected():
    # int() would truncate the triple to c_{(2,1),(1)}^{(3,1)} = 1
    with pytest.raises(WeightError, match="2.5"):
        make_triple((2.5, 1), (1.9,), (3, 1.2))
    with pytest.raises(WeightError, match="1.9"):
        validate_weight((1.9,))
    with pytest.raises(WeightError, match="0.5"):
        kostka_to_lr((2, 1), (2.5, 0.5))
    assert make_triple((2.0, 1), (1,), (3, 1)).lam == (2, 1, 0)
    assert nonnegative_parts((3, Fraction(4, 2), True)) == (3, 2, 1)


def test_parse_and_format_round_trip():
    assert parse_weight("9,7,3") == (9, 7, 3)
    assert parse_weight(",".join(map(str, (5, 0)))) == (5, 0)


def test_parse_rejects_garbage():
    for text in ("", "1,,2", "3,,1", "3,1,", "a,b", "3 2"):
        with pytest.raises(WeightError):
            parse_weight(text)


@given(partition_lists)
def test_partial_sums_are_prefix_sums(w):
    sums = partial_sums(w)
    assert len(sums) == len(w)
    total = 0
    for part, s in zip(w, sums):
        total += part
        assert s == total
    assert sums[-1] == weight_size(w)


@given(partition_lists, st.integers(1, 7))
def test_dilate_scales_size(w, n):
    assert weight_size(dilate(w, n)) == n * weight_size(w)
    assert validate_weight(dilate(w, n))


def test_zero_pad_extends_and_refuses_truncation():
    assert zero_pad((2, 1), 4) == (2, 1, 0, 0)
    assert zero_pad((2, 1, 0), 2) == (2, 1)
    with pytest.raises(WeightError):
        zero_pad((2, 1), 1)


def test_nonzero_length():
    assert nonzero_length((3, 2, 0, 0)) == 2
    assert nonzero_length((0, 0)) == 0


def test_make_triple_infers_rank():
    t = make_triple((2, 1), (1, 1), (2, 2, 1))
    assert t.rank == 3
    assert t.lam == (2, 1, 0, 0)
    assert t.nu == (2, 2, 1, 0)


def test_make_triple_ignores_trailing_zeros():
    t = make_triple((2, 1), (2, 1), (3, 2, 1, 0, 0, 0, 0, 0, 0))
    assert t == make_triple((2, 1), (2, 1), (3, 2, 1))
    assert t.rank == 3
    assert make_triple((0, 0), (0,), (0, 0, 0)).rank == 1
    assert make_triple((2, 1), (1,), (3, 1), rank=4).nu == (3, 1, 0, 0, 0)


def test_parse_parts_keeps_order():
    assert parse_parts("1, 3,0") == (1, 3, 0)
    for text in ("", "1,x", "1.5"):
        with pytest.raises(WeightError):
            parse_parts(text)


def test_triple_requires_trailing_zero():
    with pytest.raises(WeightError):
        WeightTriple(lam=(2, 1, 1), mu=(1, 1, 1), nu=(3, 2, 2), rank=2)


def test_triple_rejects_too_many_parts():
    with pytest.raises(WeightError):
        make_triple((2, 1, 1), (1,), (3, 1, 1), rank=2)


def test_sizes_and_consistency():
    t = make_triple((2, 1), (1,), (2, 2))
    assert t.sizes == (3, 1, 4)
    t2 = make_triple((2, 1), (1,), (3, 2))
    assert t2.sizes == (3, 1, 5)


@given(partition_lists, st.integers(1, 5))
def test_dilate_triple_consistency(lam, n):
    t = make_triple(lam, lam, tuple(2 * v for v in lam))
    nt = dilate_triple(t, n)
    assert nt.rank == t.rank
    assert nt.lam == dilate(t.lam, n)
    assert nt.sizes == tuple(n * s for s in t.sizes)


def test_kostka_to_lr_suffix_sums():
    sigma, tau = kostka_to_lr((2, 1), (1, 1, 1))
    assert tau == (3, 2, 1)
    assert sigma == (2, 1, 0)
    assert tuple(t - s for s, t in zip(sigma, tau)) == (1, 1, 1)
    with pytest.raises(WeightError):
        kostka_to_lr((2, 1), (1, 1))
