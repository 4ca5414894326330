"""Reference LLL and adjugate that the integer kernels in linalg replaced.

The LLL here rebuilds a Fraction Gram-Schmidt after every step and the
adjugate takes n^2 cofactor determinants; both are slow and obviously right,
and the differential tests require linalg to return exactly what they do.
"""

from __future__ import annotations

from fractions import Fraction

from hivecount.linalg import det, dot


def lll_reduce_fraction(basis, delta=Fraction(3, 4)):
    """LLL of linearly independent integer rows over Fraction, step by step."""
    b = [list(v) for v in basis]
    n = len(b)
    if n <= 1:
        return b

    def gram_schmidt():
        ortho = []
        mu = [[Fraction(0)] * n for _ in range(n)]
        norms = []
        for i in range(n):
            v = [Fraction(x) for x in b[i]]
            for j in range(i):
                if norms[j] == 0:
                    raise ValueError("LLL input rows are dependent")
                mu[i][j] = Fraction(dot(b[i], ortho[j])) / norms[j]
                v = [a - mu[i][j] * c for a, c in zip(v, ortho[j])]
            ortho.append(v)
            norms.append(dot(v, v))
        return ortho, mu, norms

    ortho, mu, norms = gram_schmidt()
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                b[k] = [a - q * c for a, c in zip(b[k], b[j])]
                ortho, mu, norms = gram_schmidt()
        if norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            ortho, mu, norms = gram_schmidt()
            k = max(k - 1, 1)
    return b


def adjugate_cofactor(rows):
    """Adjugate from n^2 cofactor determinants: adj[j][i] = (-1)^(i+j) M_ij."""
    n = len(rows)
    if n == 0:
        return []
    if n == 1:
        return [[1]]
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            sub = [[v for c, v in enumerate(row) if c != j] for r, row in enumerate(rows) if r != i]
            c = det(sub)
            adj[j][i] = c if (i + j) % 2 == 0 else -c
    return adj
