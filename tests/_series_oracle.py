"""Leaf series and final sum of the count before packed ints, kept as a test oracle.

leaf_series_unpacked multiplies a leaf's denominator series one _series_mul
at a time, and per_scale_total adds one Fraction per scale and coefficient.
counting._leaf_series packs the denominator series into ints and
counting._pairwise_total merges scales two at a time; both must return
exactly what these do.
"""

from fractions import Fraction
from math import comb

from hivecount.counting import (
    _binomial_series,
    _lowest_lattice_point,
    _scaled_inverse,
    _series_mul,
)
from hivecount.errors import InvariantError
from hivecount.linalg import dot


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
    series = _series_mul(_binomial_series(exponent, deg), _scaled_inverse(denom, deg), deg)
    sgn = leaf.sign * (-1 if (negatives + d) % 2 else 1)
    return [sgn * v for v in series], denom[0] ** (deg + 1)


def per_scale_total(sums):
    """[sum of acc[k] / scale over sums' items (scale, acc)], one Fraction per term."""
    n = len(next(iter(sums.values())))
    return [sum(Fraction(acc[k], scale) for scale, acc in sums.items()) for k in range(n)]
