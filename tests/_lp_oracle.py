"""The Fraction simplex that polyhedra._standard_simplex replaced, kept as a test oracle.

It pivots a tableau of Fractions with Bland's rule: phase 1 on artificial
variables, a drive-out pivot for each artificial left basic at level zero,
a drop of the rows it cannot drive out, then phase 2 on the cost.  Every
entry update pays for a gcd, so it is slow, and the differential test
requires the fraction-free simplex to return exactly what it does.
"""

from __future__ import annotations

from fractions import Fraction

from hivecount.polyhedra import INFEASIBLE, OPTIMAL, UNBOUNDED


def _pivot(tab, obj, basis, r, c):
    inv = 1 / tab[r][c]
    tab[r] = [v * inv for v in tab[r]]
    row_r = tab[r]
    for i in range(len(tab)):
        if i != r and tab[i][c]:
            f = tab[i][c]
            tab[i] = [v - f * w for v, w in zip(tab[i], row_r)]
    if obj[c]:
        f = obj[c]
        obj[:] = [v - f * w for v, w in zip(obj, row_r)]
    basis[r] = c


def _bland_min(tab, obj, basis, ncols):
    """Run simplex pivots (Bland's rule) until optimal or unbounded."""
    while True:
        enter = next((j for j in range(ncols) if obj[j] < 0), None)
        if enter is None:
            return OPTIMAL
        best = None
        for i in range(len(tab)):
            coef = tab[i][enter]
            if coef > 0:
                key = (tab[i][-1] / coef, basis[i])
                if best is None or key < best[0]:
                    best = (key, i)
        if best is None:
            return UNBOUNDED
        _pivot(tab, obj, basis, best[1], enter)


def fraction_simplex(rows, rhs, cost):
    """Minimize cost . z over {z >= 0 : rows z = rhs}; returns (status, z)."""
    m = len(rows)
    n = len(cost)
    tab = []
    for row, b in zip(rows, rhs):
        if b < 0:
            row, b = [-v for v in row], -b
        tab.append([Fraction(v) for v in row] + [Fraction(0)] * m + [Fraction(b)])
    for i in range(m):
        tab[i][n + i] = Fraction(1)
    basis = list(range(n, n + m))
    obj = [Fraction(1) if j >= n else Fraction(0) for j in range(n + m)] + [Fraction(0)]
    for row in tab:
        obj = [a - b for a, b in zip(obj, row)]
    _bland_min(tab, obj, basis, n + m)
    if -obj[-1] > 0:
        return INFEASIBLE, None
    for r in range(m):
        if basis[r] >= n:
            c = next((j for j in range(n) if tab[r][j] != 0), None)
            if c is not None:
                _pivot(tab, obj, basis, r, c)
    keep = [r for r in range(m) if basis[r] < n]
    tab = [tab[r][:n] + [tab[r][-1]] for r in keep]
    basis = [basis[r] for r in keep]
    obj = [Fraction(c) for c in cost] + [Fraction(0)]
    for r, b in enumerate(basis):
        if obj[b]:
            f = obj[b]
            obj = [v - f * w for v, w in zip(obj, tab[r])]
    status = _bland_min(tab, obj, basis, n)
    if status == UNBOUNDED:
        return UNBOUNDED, None
    z = [Fraction(0)] * n
    for r, b in enumerate(basis):
        z[b] = tab[r][-1]
    return OPTIMAL, z
