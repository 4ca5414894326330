"""Leaf series and final sum of the count before packed ints, kept as a test oracle.

leaf_series_unpacked multiplies a leaf's denominator series one _series_mul
at a time, inverts it with _scaled_inverse and multiplies the binomial series
by that inverse, and per_scale_total adds one Fraction per scale and
coefficient.  counting._leaf_series packs the denominator series into ints
and divides by it in one triangular solve (counting._series_quotient), and
counting._pairwise_total merges scales two at a time; all must return
exactly what these do.
"""

from fractions import Fraction
from math import comb

from hivecount.counting import _binomial_series, _lowest_lattice_point
from hivecount.errors import InvariantError
from hivecount.linalg import dot


def _series_mul(a, b, deg):
    out = [0] * (deg + 1)
    for i, av in enumerate(a[: deg + 1]):
        if av:
            for j in range(deg + 1 - i):
                if b[j]:
                    out[i + j] += av * b[j]
    return out


def _scaled_inverse(a, deg):
    """a[0]^(deg+1) / a up to degree deg, for an int series a with a[0] != 0.

    Coefficient k of 1/a has denominator dividing a[0]^(k+1), so every
    coefficient here is an int and every division is exact.
    """
    lead = a[0]
    out = [lead**deg] + [0] * deg
    for k in range(1, deg + 1):
        acc = 0
        for i in range(1, min(k, len(a) - 1) + 1):
            if a[i]:
                acc += a[i] * out[k - i]
        out[k] = -acc // lead
    return out


def series_quotient_by_inverse(b, a, deg):
    """a[0]^(deg+1) * b / a up to degree deg, as b times the scaled inverse of a."""
    return _series_mul(b, _scaled_inverse(a, deg), deg)


def leaf_series_unpacked(leaf, a, q, direction, deg):
    """(coefficients, scale) of the leaf's series, as counting._leaf_series returns them."""
    d = len(leaf.rays)
    exponent = dot(direction, _lowest_lattice_point(leaf, a, q))
    negatives = 0
    denom = [1] + [0] * deg
    for u in leaf.rays:
        e = dot(direction, u)
        if e == 0:
            raise InvariantError("specialization direction is orthogonal to a ray")
        if e < 0:
            negatives += 1
            e = -e
            exponent += e
        denom = _series_mul(denom, [comb(e, k + 1) for k in range(deg + 1)], deg)
    series = series_quotient_by_inverse(_binomial_series(exponent, deg), denom, deg)
    sgn = leaf.sign * (-1 if (negatives + d) % 2 else 1)
    return [sgn * v for v in series], denom[0] ** (deg + 1)


def per_scale_total(sums):
    """[sum of acc[k] / scale over sums' items (scale, acc)], one Fraction per term."""
    n = len(next(iter(sums.values())))
    return [sum(Fraction(acc[k], scale) for scale, acc in sums.items()) for k in range(n)]
