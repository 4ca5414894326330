from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hivecount import (
    DIRECT,
    HIVE,
    ZERO,
    CapExceededError,
    WeightError,
    dominant_conjugate,
    klimyk_decompose,
    kostka,
    lr_tableau_count,
    make_triple,
    weight_multiplicities,
)
from hivecount.klimyk import DecompositionTerm

partitions = st.lists(st.integers(0, 5), min_size=1, max_size=4).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def test_weight_multiplicity_classic():
    mult = weight_multiplicities((2, 1, 0))
    assert mult[(1, 1, 1)] == 2
    assert mult[(2, 1, 0)] == 1
    assert mult[(0, 1, 2)] == 1


def test_weight_multiplicities_standard_rep():
    mult = weight_multiplicities((1, 0, 0))
    assert mult == {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}


def test_weight_multiplicities_total_dimension():
    # dim V_(2,1,0) = 8 for sl_3 (the adjoint representation)
    mult = weight_multiplicities((2, 1, 0))
    assert sum(mult.values()) == 8


def test_weight_multiplicities_cap():
    with pytest.raises(CapExceededError):
        weight_multiplicities((40, 0), cap=30)


def test_dominant_conjugate_examples():
    assert dominant_conjugate((3, 1, 2)) == ((3, 2, 1), -1)
    assert dominant_conjugate((1, 2, 3)) == ((3, 2, 1), -1)
    assert dominant_conjugate((3, 2, 1)) == ((3, 2, 1), 1)
    assert dominant_conjugate((1, 1)) is ZERO or dominant_conjugate((1, 1)) == ZERO


def test_dominant_conjugate_rejects_non_integral_entries():
    # int() truncated each of these to a weight whose conjugate is ((2, 1, ...), 1)
    with pytest.raises(WeightError, match="2.5"):
        dominant_conjugate((2.5, 1))
    with pytest.raises(WeightError, match="Fraction"):
        dominant_conjugate((Fraction(5, 2), 1, 0))
    # negative and integral-valued entries are any ambient weight's
    assert dominant_conjugate((Fraction(-4, 2), 3.0, 0)) == ((3, 0, -2), 1)
    assert dominant_conjugate((0, 3, -1)) == ((3, 0, -1), -1)


def test_dominant_conjugate_sign_parity():
    # swapping two distinct entries flips the sign
    w = (5, 3, 1)
    base, sign = dominant_conjugate(w)
    swapped, sign2 = dominant_conjugate((3, 5, 1))
    assert base == swapped
    assert sign == -sign2


def test_klimyk_tensor_square_of_standard():
    terms = klimyk_decompose((1, 0), (1, 0))
    got = {t.nu: t.multiplicity for t in terms}
    assert got == {(2, 0): 1, (1, 1): 1}


def test_klimyk_with_zero_mu():
    terms = klimyk_decompose((3, 1), (0, 0))
    assert terms == [DecompositionTerm(nu=(3, 1), multiplicity=1)]


def test_klimyk_adjoint_squared_coefficient():
    terms = klimyk_decompose((2, 1, 0), (2, 1, 0))
    got = {t.nu: t.multiplicity for t in terms}
    assert got[(3, 2, 1)] == 2
    # total dimension is preserved: sum of mult * dim matches dim^2 = 64
    assert all(m > 0 for m in got.values())


def test_klimyk_multiplicities_match_lr(tmp_path=None):
    rng_pairs = [((2, 1), (2, 1)), ((3, 1), (2, 2)), ((2, 2, 1), (2, 1, 0))]
    for lam, mu in rng_pairs:
        for term in klimyk_decompose(lam, mu):
            t = make_triple(lam, mu, term.nu)
            assert lr_tableau_count(lam, mu, term.nu) == term.multiplicity


def test_lr_tableau_count_classic():
    assert lr_tableau_count((2, 1), (2, 1), (3, 2, 1)) == 2
    assert lr_tableau_count((2, 1), (2, 1), (4, 2)) == 1
    assert lr_tableau_count((2, 1), (2, 1), (2, 2, 2)) == 1


def test_lr_tableau_count_zero_cases():
    # size mismatch
    assert lr_tableau_count((2, 1), (1, 0), (2, 1)) == 0
    # nu does not contain lambda
    assert lr_tableau_count((3, 0), (1, 1), (2, 2, 1)) == 0


def test_lr_tableau_count_trivial():
    assert lr_tableau_count((2, 1), (0, 0), (2, 1)) == 1


def test_lr_tableau_skew_example():
    # shape (4,3,2)/(2,1) with content (3,2,1): cross-checked against the
    # lattice-point count and the Klimyk expansion
    assert lr_tableau_count((2, 1, 0), (3, 2, 1), (4, 3, 2)) == 2


def test_kostka_direct_examples():
    assert kostka((2, 1), (1, 1, 1), via=DIRECT) == 2
    assert kostka((2, 1), (2, 1), via=DIRECT) == 1
    assert kostka((1, 1), (2, 0), via=DIRECT) == 0
    assert kostka((3, 0), (1, 1, 1), via=DIRECT) == 1


def test_kostka_content_order_invariance():
    # Kostka numbers for permuted content agree
    assert kostka((2, 1), (1, 1, 1), via=DIRECT) == kostka((2, 1), (1, 1, 1), via=HIVE)
    assert kostka((4, 3, 1), (2, 3, 1, 2), via=DIRECT) == 5
    assert kostka((4, 3, 1), (2, 3, 1, 2), via=HIVE) == 5


def test_kostka_rejects_bad_input():
    with pytest.raises(WeightError):
        kostka((2, 1), (1, -1, 3), via=DIRECT)
    with pytest.raises(ValueError):
        kostka((2, 1), (1, 1, 1), via="wrong")
    assert kostka((2, 1), (1, 1), via=DIRECT) == 0  # size mismatch


@pytest.mark.parametrize("via", [DIRECT, HIVE])
def test_kostka_rejects_non_integral_parts(via):
    # int() would truncate each of these to an input whose answer is 1
    with pytest.raises(WeightError, match="2.7"):
        kostka((2.7, 1), (1.5, 2), via=via)
    with pytest.raises(WeightError, match="1.5"):
        kostka((3, 1), (1.5, 2.5), via=via)
    with pytest.raises(WeightError, match="2.5"):
        lr_tableau_count((2.5, 1), (1,), (3, 1))
    assert kostka((2.0, 1), (1, True, 1.0), via=via) == 2


small_shapes = (
    st.lists(st.integers(0, 8), min_size=1, max_size=4)
    .map(lambda xs: tuple(sorted(xs, reverse=True)))
    .filter(lambda p: sum(p) <= 8)
)


def compositions(size, parts):
    """Every content vector of the given length and sum, zeros included."""
    if parts == 1:
        yield (size,)
        return
    for head in range(size + 1):
        for rest in compositions(size - head, parts - 1):
            yield (head,) + rest


@given(small_shapes, st.integers(0, 2))
@settings(max_examples=100, deadline=None)
def test_kostka_direct_matches_gelfand_tsetlin(lam, pad):
    """The tableau filler against the Gelfand-Tsetlin weight system, an independent oracle.

    Every content of the shape's length, padded by up to two zero rows, is
    checked: contents with zero parts, permuted contents, and contents that
    are no weight of the shape (multiplicity 0).
    """
    lam = lam + (0,) * pad
    mult = weight_multiplicities(lam)
    for content in compositions(sum(lam), len(lam)):
        assert kostka(lam, content, via=DIRECT) == mult.get(content, 0), content


def test_kostka_cap():
    with pytest.raises(CapExceededError):
        kostka((20, 12), (16, 16), via=DIRECT, cap=30)


@given(partitions, partitions)
@settings(max_examples=30, deadline=None)
def test_klimyk_total_dimension_conserved(lam, mu):
    """Tensor decomposition preserves total weight-space count."""
    if sum(lam) + sum(mu) > 16:
        return
    n = max(len(lam), len(mu))
    lam = lam + (0,) * (n - len(lam))
    mu = mu + (0,) * (n - len(mu))
    dim_lam = sum(weight_multiplicities(lam).values())
    dim_mu = sum(weight_multiplicities(mu).values())
    total = 0
    for term in klimyk_decompose(lam, mu):
        total += term.multiplicity * sum(weight_multiplicities(term.nu).values())
    assert total == dim_lam * dim_mu
