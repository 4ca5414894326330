"""Stretched multiplicities e(n) = c_{n.lambda, n.mu}^{n.nu} and their fits.

Dilating the triple scales only the boundary right-hand sides, so e(n) is the
Ehrhart counting function of a rational polytope and agrees with a
quasi-polynomial for n >= 1.  Fitting is exact rational interpolation per
residue class, validated against held-out samples; for type A hive data the
period always comes out 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .counting import _reduce, count_dilation, hive_hrep
from .errors import NoFitError
from .weights import WeightTriple

VALIDATION_MARGIN = 2


@dataclass(frozen=True)
class QuasiPolynomial:
    """Period-N quasi-polynomial with exact rational constituents.

    constituents[i-1] holds the ascending coefficients of f_i; the value at n
    is f_i(n) where i = n mod N, taking i = N when N divides n.
    """

    period: int
    constituents: tuple
    degree: int

    def evaluate(self, n: int) -> Fraction:
        i = n % self.period
        if i == 0:
            i = self.period
        acc = Fraction(0)
        for c in reversed(self.constituents[i - 1]):
            acc = acc * n + c
        return acc


@dataclass(frozen=True)
class StretchReport:
    triple: WeightTriple
    quasi: QuasiPolynomial
    all_coeffs_nonnegative: bool
    verified_points: tuple


def _interpolate(points):
    """Exact Newton interpolation; returns ascending monomial coefficients."""
    xs = [Fraction(x) for x, _ in points]
    divided = [Fraction(y) for _, y in points]
    for level in range(1, len(points)):
        for i in range(len(points) - 1, level - 1, -1):
            divided[i] = (divided[i] - divided[i - 1]) / (xs[i] - xs[i - level])
    coeffs = [Fraction(0)] * len(points)
    basis = [Fraction(1)]
    for k, dk in enumerate(divided):
        for j, bc in enumerate(basis):
            coeffs[j] += dk * bc
        grown = [Fraction(0)] * (len(basis) + 1)
        for j, bc in enumerate(basis):
            grown[j] -= xs[k] * bc
            grown[j + 1] += bc
        basis = grown
    return coeffs


def _trim(coeffs):
    out = list(coeffs)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def fit_quasi_polynomial(samples, degree_bound: int, period_candidates=(1, 2)):
    """Smallest-period exact fit of the samples, validated on every sample.

    samples is an iterable of (n, count) pairs; a candidate period N is
    attempted only when the samples cover n = 1 .. N*(degree_bound+1) plus the
    validation margin, interpolates on the first degree_bound+1 points of each
    residue class, and is accepted only if every remaining sample is
    reproduced exactly.
    """
    table = {}
    for n, c in samples:
        table[int(n)] = c
    attempted = False
    for period in sorted(period_candidates):
        need = period * (degree_bound + 1) + VALIDATION_MARGIN
        if any(n not in table for n in range(1, need + 1)):
            continue
        attempted = True
        constituents = []
        for residue in range(1, period + 1):
            ns = [n for n in sorted(table) if (n - residue) % period == 0]
            pts = [(n, table[n]) for n in ns[: degree_bound + 1]]
            constituents.append(_trim(_interpolate(pts)))
        quasi = QuasiPolynomial(
            period=period,
            constituents=tuple(constituents),
            degree=max(len(c) - 1 for c in constituents),
        )
        if all(quasi.evaluate(n) == c for n, c in table.items()):
            return quasi
    if not attempted:
        raise NoFitError(
            f"samples cover too little of n = 1..{min(period_candidates) * (degree_bound + 1) + VALIDATION_MARGIN}"
        )
    raise NoFitError(
        f"no period in {tuple(sorted(period_candidates))} fits at degree {degree_bound}"
    )


def stretched_counts(triple: WeightTriple, n_max: int, seed: int = 0, threads: int = 1):
    """Exact counts [(n, e(n))], n = 1..n_max, by scaling the hive rhs; seed and threads do nothing."""
    if isinstance(n_max, bool) or not isinstance(n_max, int) or n_max < 1:
        raise ValueError("n_max must be at least 1")
    poly = hive_hrep(triple)
    return [(n, count_dilation(poly, n).value) for n in range(1, n_max + 1)]


def polytope_degree(triple: WeightTriple) -> int:
    """Dimension of the hive polytope after implicit equalities, 0 if empty."""
    reduced = _reduce(hive_hrep(triple))
    return 0 if reduced is None else reduced[0].dim


def conjecture2_report(
    triple: WeightTriple, n_max: int | None = None, seed: int = 0, threads: int = 1
) -> StretchReport:
    """Fit e(n) and record whether every constituent coefficient is >= 0.

    Nonnegativity is an observation in the report, never an assertion; a
    negative coefficient would be a finding worth publishing, not a crash.
    seed and threads have no effect.
    """
    degree = polytope_degree(triple)
    if n_max is None:
        n_max = degree + 1 + VALIDATION_MARGIN
    samples = stretched_counts(triple, n_max)
    quasi = fit_quasi_polynomial(samples, degree)
    nonneg = all(c >= 0 for coeffs in quasi.constituents for c in coeffs)
    return StretchReport(
        triple=triple,
        quasi=quasi,
        all_coeffs_nonnegative=nonneg,
        verified_points=tuple(samples),
    )


def _fraction_json(q: Fraction) -> dict:
    return {"num": str(q.numerator), "den": str(q.denominator)}


def report_to_json(report: StretchReport) -> dict:
    """JSON-ready dict for a StretchReport, rationals as num/den strings."""
    return {
        "triple": {
            "lambda": list(report.triple.lam),
            "mu": list(report.triple.mu),
            "nu": list(report.triple.nu),
            "rank": report.triple.rank,
        },
        "period": report.quasi.period,
        "degree": report.quasi.degree,
        "constituents": [
            [_fraction_json(Fraction(c)) for c in coeffs]
            for coeffs in report.quasi.constituents
        ],
        "all_coeffs_nonnegative": report.all_coeffs_nonnegative,
        "verified_points": [[n, str(c)] for n, c in report.verified_points],
    }
