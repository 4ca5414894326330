from fractions import Fraction

import pytest

from hivecount import (
    NoFitError,
    QuasiPolynomial,
    conjecture2_report,
    fit_quasi_polynomial,
    make_triple,
    report_to_json,
    stretched_counts,
)
from hivecount.stretch import VALIDATION_MARGIN, polytope_degree


def test_quasi_polynomial_evaluate_period_one():
    # f(n) = 1 + 2n + n^2
    q = QuasiPolynomial(period=1, constituents=((Fraction(1), Fraction(2), Fraction(1)),), degree=2)
    assert [q.evaluate(n) for n in range(1, 5)] == [4, 9, 16, 25]


def test_quasi_polynomial_residue_classes():
    # period 2: f(n) = 0 for odd n, 1 for even n
    q = QuasiPolynomial(period=2, constituents=((Fraction(0),), (Fraction(1),)), degree=0)
    assert [q.evaluate(n) for n in range(1, 6)] == [0, 1, 0, 1, 0]


def test_fit_constant_sequence():
    samples = [(n, 7) for n in range(1, 8)]
    q = fit_quasi_polynomial(samples, degree_bound=1)
    assert q.period == 1
    assert q.evaluate(1) == 7 and q.evaluate(6) == 7


def test_fit_polynomial_sequence():
    samples = [(n, (n + 1) * (n + 2) // 2) for n in range(1, 12)]
    q = fit_quasi_polynomial(samples, degree_bound=2)
    assert q.period == 1
    assert q.degree == 2
    for n in range(1, 12):
        assert q.evaluate(n) == (n + 1) * (n + 2) // 2


def test_fit_true_quasi_polynomial_period_two():
    # e(n) = n/2 rounded up has period 2 constituents
    samples = [(n, (n + 1) // 2) for n in range(1, 15)]
    q = fit_quasi_polynomial(samples, degree_bound=1)
    assert q.period == 2
    for n in range(1, 15):
        assert q.evaluate(n) == (n + 1) // 2


def test_fit_insufficient_samples():
    samples = [(1, 1), (2, 2)]
    with pytest.raises(NoFitError):
        fit_quasi_polynomial(samples, degree_bound=3)


def test_fit_no_period_fits():
    # a sequence that is not quasi-polynomial of degree <= 1 with period <= 2
    samples = [(n, 2**n) for n in range(1, 10)]
    with pytest.raises(NoFitError):
        fit_quasi_polynomial(samples, degree_bound=1)


def test_fit_requires_contiguous_coverage():
    need = 1 * (1 + 1) + VALIDATION_MARGIN
    samples = [(n, n) for n in range(1, need + 1) if n != 2]
    with pytest.raises(NoFitError):
        fit_quasi_polynomial(samples, degree_bound=1)


def test_stretched_counts_simple_triple():
    t = make_triple((1, 0), (1, 0), (1, 1))
    counts = stretched_counts(t, 4)
    assert counts == [(1, 1), (2, 1), (3, 1), (4, 1)]
    with pytest.raises(ValueError):
        stretched_counts(t, 0)
    # a bool n_max was counted as 1, a float or string failed in range()
    for bad in (True, 2.5, "3"):
        with pytest.raises(ValueError, match="n_max must be at least 1"):
            stretched_counts(t, bad)


def test_polytope_degree_zero_dimensional():
    t = make_triple((1, 0), (1, 0), (1, 1))
    assert polytope_degree(t) == 0


def test_conjecture2_report_linear_case():
    t = make_triple((9, 7, 3, 0, 0), (9, 9, 3, 2, 0), (10, 9, 9, 8, 6))
    report = conjecture2_report(t)
    assert report.quasi.period == 1
    assert report.quasi.evaluate(1) == 2
    # stretched coefficients grow, so degree is at least 1
    assert report.quasi.degree >= 1
    assert isinstance(report.all_coeffs_nonnegative, bool)
    assert report.verified_points


def test_report_json_schema():
    t = make_triple((1, 0), (1, 0), (1, 1))
    report = conjecture2_report(t)
    doc = report_to_json(report)
    assert doc["triple"]["lambda"] == [1, 0, 0]
    assert doc["triple"]["rank"] == 2
    assert doc["period"] == report.quasi.period
    assert doc["degree"] == report.quasi.degree
    assert isinstance(doc["constituents"], list)
    for constituent in doc["constituents"]:
        for coeff in constituent:
            assert set(coeff) == {"num", "den"}
    assert doc["all_coeffs_nonnegative"] in (True, False)
    assert all(len(pair) == 2 for pair in doc["verified_points"])


def test_fitted_quasi_polynomial_reproduces_held_out():
    t = make_triple((2, 1), (2, 1), (3, 2, 1))
    counts = dict(stretched_counts(t, 8))
    fit_on = [(n, counts[n]) for n in range(1, 7)]
    q = fit_quasi_polynomial(fit_on, degree_bound=1)
    assert q.evaluate(7) == counts[7]
    assert q.evaluate(8) == counts[8]
