"""Exact leaf series and final sum of the count, kept as a test oracle.

leaf_series_unpacked multiplies a leaf's denominator series one _series_mul
at a time, inverts it with _scaled_inverse and multiplies the binomial series
by that inverse, all over the integers, and per_scale_total adds one Fraction
per scale and coefficient.  counting._series_total packs the denominator
series into ints, runs the binomial series and the division mod a modulus M
and adds every leaf into one list mod M; reduced mod M, exact_total must
give what it returns.
"""

from fractions import Fraction
from math import comb

from hivecount.counting import _lowest_lattice_point
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


def _binomial_series(n, deg):
    """Coefficients of (1+s)^n up to degree deg, n any integer.

    Coefficient k is n (n-1) ... (n-k+1) / k!, an int, so k times it is
    coefficient k-1 times n-k+1, and each division is exact.
    """
    out = [1]
    for k in range(1, deg + 1):
        out.append(out[-1] * (n - k + 1) // k)
    return out


def series_quotient_by_inverse(b, a, deg):
    """a[0]^(deg+1) * b / a up to degree deg, as b times the scaled inverse of a."""
    return _series_mul(b, _scaled_inverse(a, deg), deg)


def leaf_series_unpacked(leaf, a, q, direction, deg):
    """(coefficients, scale): the leaf's series is coefficients / scale, over the integers."""
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


def exact_total(vertex_leaves, direction, deg):
    """The leaves' summed series as Fractions, each leaf's added into the sum of its scale."""
    sums = {}
    for ray, leaves in vertex_leaves:
        for leaf in leaves:
            series, scale = leaf_series_unpacked(leaf, ray[:-1], ray[-1], direction, deg)
            acc = sums.setdefault(scale, [0] * (deg + 1))
            for k, c in enumerate(series):
                acc[k] += c
    return per_scale_total(sums)


def reduce_mod(fractions, modulus):
    """Each Fraction mod modulus, whose denominators must be invertible modulo it."""
    return [f.numerator * pow(f.denominator, -1, modulus) % modulus for f in fractions]
