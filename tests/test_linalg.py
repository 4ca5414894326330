import itertools

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from _lll_oracle import adjugate_cofactor, det, lll_reduce_fraction, rank
from hivecount.linalg import (
    add_row_column,
    dot,
    hermite_solve,
    integer_kernel,
    lll_reduce,
    primitive,
    replace_column,
    vec_gcd,
)

small_int = st.integers(-6, 6)


def square_matrices(n):
    return st.lists(
        st.lists(small_int, min_size=n, max_size=n), min_size=n, max_size=n
    )


def det_by_permutations(m):
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = 1
        for i in range(n):
            prod *= m[i][perm[i]]
        total += sign * prod
    return total


@given(st.integers(1, 4).flatmap(square_matrices))
@settings(max_examples=120)
def test_det_matches_permanent_expansion(m):
    assert det(m) == det_by_permutations(m)


def test_vec_gcd_and_primitive():
    assert vec_gcd((4, -6, 10)) == 2
    assert vec_gcd((0, 0)) == 0
    assert primitive((4, -6, 10)) == (2, -3, 5)


def test_rank_basics():
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[0, 0]]) == 0


@given(
    st.integers(1, 3).flatmap(
        lambda r: st.tuples(
            st.just(r),
            st.lists(st.lists(small_int, min_size=4, max_size=4), min_size=r, max_size=r),
        )
    )
)
@settings(max_examples=60)
def test_integer_kernel_annihilates(data):
    _, rows = data
    kern = integer_kernel(rows)
    for v in kern:
        for row in rows:
            assert dot(row, v) == 0
    # kernel dimension matches rank-nullity over Q
    assert len(kern) == 4 - rank(rows)


def test_hermite_solve_integral_system():
    rows = [[2, 0], [0, 3], [2, 3]]
    x0, kernel = hermite_solve(rows, [4, 9, 13])
    assert x0 == [2, 3]
    assert kernel == []


def test_hermite_solve_with_kernel():
    rows = [[1, 1, 1]]
    x0, kernel = hermite_solve(rows, [6])
    assert sum(x0) == 6
    assert len(kernel) == 2
    for v in kernel:
        assert sum(v) == 0


@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=3, max_size=3), min_size=3, max_size=3
    )
)
@settings(max_examples=60)
def test_lll_preserves_lattice(basis):
    if det(basis) == 0:
        return
    reduced = lll_reduce(basis)
    assert abs(det(reduced)) == abs(det(basis))
    # every reduced vector is an integer combination of the input rows
    adj = adjugate_cofactor(basis)
    d = det(basis)
    for v in reduced:
        coords = [sum(v[j] * adj[j][i] for j in range(3)) for i in range(3)]
        assert all(c % d == 0 for c in coords)


def int_rows(n, m, bound):
    return st.lists(
        st.lists(st.integers(-bound, bound), min_size=m, max_size=m), min_size=n, max_size=n
    )


lll_inputs = st.integers(1, 6).flatmap(
    lambda n: st.integers(n, 7).flatmap(
        lambda m: st.sampled_from((3, 40, 10**6)).flatmap(lambda b: int_rows(n, m, b))
    )
)


@given(lll_inputs)
@settings(max_examples=200, deadline=None)
def test_lll_matches_fraction_oracle(rows):
    assume(rank(rows) == len(rows))
    assert lll_reduce(rows) == lll_reduce_fraction(rows)


@given(lll_inputs, st.lists(st.integers(-3, 3), min_size=6, max_size=6), st.integers(0, 6))
@settings(max_examples=100, deadline=None)
def test_lll_rejects_dependent_rows(rows, coeffs, at):
    extra = [sum(c * r[i] for c, r in zip(coeffs, rows)) for i in range(len(rows[0]))]
    rows = rows[:at] + [extra] + rows[at:]
    with pytest.raises(ValueError):
        lll_reduce(rows)
    with pytest.raises(ValueError):
        lll_reduce_fraction(rows)


@st.composite
def column_replacements(draw):
    """(A, i, w): a nonsingular A, n <= 6, entries in [-9, 9], and w for its column i.

    w is a drawn vector times a drawn factor from 1 to 4, so that, as in the
    Barvinok recursion, w and b = adj(A) w often share a factor to divide out.
    """
    n = draw(st.integers(1, 6))
    m = draw(int_rows(n, n, 9))
    assume(det(m) != 0)
    factor = draw(st.integers(1, 4))
    w = [factor * x for x in draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))]
    return m, draw(st.integers(0, n - 1)), w


@given(column_replacements())
# b = (-6, 0) before the common factor 2 of w and b is divided out: b_i < 0
@example(([[2, 1], [0, 3]], 0, [-2, 0]))
# w = 0 makes the new matrix singular, whose adjugate keeps only row i
@example(([[1, 2, 0], [0, 3, 1], [4, 0, 5]], 1, [0, 0, 0]))
@example(([[1, 2, 0], [0, 3, 1], [4, 0, 5]], 2, [6, -4, 2]))
@settings(max_examples=300, deadline=None)
def test_replace_column_matches_adjugate(data):
    """The rank-one update gives the adjugate and determinant of A with column i replaced."""
    m, i, w = data
    adj, d = adjugate_cofactor(m), det(m)
    b = [dot(row, w) for row in adj]
    g = vec_gcd(w)
    if g > 1:
        w = [x // g for x in w]
        b = [x // g for x in b]
    child = [row[:i] + [x] + row[i + 1 :] for row, x in zip(m, w)]
    assert replace_column(adj, d, i, b) == (adjugate_cofactor(child), det(child))


@st.composite
def borderings(draw):
    """(A, col, row, corner): nonsingular A, n <= 5, one more column and row, entries in [-9, 9]."""
    n = draw(st.integers(0, 5))
    m = draw(int_rows(n, n, 9))
    assume(det(m) != 0)
    vector = st.lists(st.integers(-9, 9), min_size=n, max_size=n)
    return m, draw(vector), draw(vector), draw(st.integers(-9, 9))


@given(borderings())
@example(([], [], [], 3))  # the first point of a triangulation
@example(([[2, 1], [0, 3]], [1, 1], [2, 1], 1))  # the new row repeats row 0: det 0
@settings(max_examples=300, deadline=None)
def test_add_row_column_matches_adjugate(data):
    """Bordering gives the adjugate and determinant of [[A, col], [row, corner]]."""
    m, col, row, corner = data
    adj, d = adjugate_cofactor(m), det(m)
    big = [r + [c] for r, c in zip(m, col)] + [row + [corner]]
    assert add_row_column(adj, d, col, row, corner) == (adjugate_cofactor(big), det(big))
