"""Reference LLL, adjugate, determinant and rank for the integer kernels in linalg.

The LLL here rebuilds a Fraction Gram-Schmidt after every step and the
adjugate takes n^2 cofactor determinants; both are slow and obviously right,
and the differential tests require linalg to return exactly what they do.
det and rank are the Bareiss eliminations the package used before every
adjugate came from bordering and rank-one updates, and every rank from
linalg.echelon_pivots; they share no code with either.
"""

from __future__ import annotations

from fractions import Fraction

from hivecount.linalg import dot, vec_gcd


def det(rows) -> int:
    """Determinant of a square integer matrix by fraction-free elimination."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def rank(rows) -> int:
    """Rank of an integer matrix via fraction-free elimination."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    r = 0
    for col in range(n_cols):
        piv = next((i for i in range(r, n_rows) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, n_rows):
            if m[i][col] != 0:
                p, q = m[r][col], m[i][col]
                m[i] = [p * b - q * a for a, b in zip(m[r], m[i])]
                g = vec_gcd(m[i])
                if g > 1:
                    m[i] = [x // g for x in m[i]]
        r += 1
        if r == n_rows:
            break
    return r


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
