"""The subset walk that enumerate_vertices replaced, kept as a test oracle.

It takes every maximal-rank subset of dim rows, solves the pinned equality
system by incremental fraction-free elimination, and keeps the solutions that
satisfy the whole system.  It visits C(len(rows), dim) subsets, so use it on
small systems only.
"""

from fractions import Fraction
from math import lcm

from hivecount.linalg import dot, vec_gcd


def subset_vertices(rows, rhs, dim):
    """All vertices of {x : rows x <= rhs}, sorted, as tuples of Fraction."""
    n = len(rows)
    if dim == 0:
        ok = all(b >= 0 for b in rhs)
        return [()] if ok else []
    verts = {}
    echelon = []  # (pivot column, reduced integer row, reduced rhs)

    def reduce_row(a, b):
        a = list(a)
        for pc, er, eb in echelon:
            if a[pc]:
                p, q = er[pc], a[pc]
                a = [p * x - q * y for x, y in zip(a, er)]
                b = p * b - q * eb
                g = vec_gcd(a + [b])
                if g > 1:
                    a = [x // g for x in a]
                    b = b // g
        return a, b

    def solve_leaf():
        x = [Fraction(0)] * dim
        for pc, er, eb in reversed(echelon):
            acc = Fraction(eb)
            for j in range(dim):
                if j != pc and er[j]:
                    acc -= er[j] * x[j]
            x[pc] = acc / er[pc]
        denom = lcm(*(xi.denominator for xi in x))
        y = [int(xi * denom) for xi in x]
        for a, b in zip(rows, rhs):
            if dot(a, y) > b * denom:
                return
        verts.setdefault(tuple(x), None)

    def dfs(i, need):
        if need == 0:
            solve_leaf()
            return
        if n - i < need:
            return
        a, b = reduce_row(rows[i], rhs[i])
        if any(a):
            pc = next(j for j in range(dim) if a[j])
            echelon.append((pc, a, b))
            dfs(i + 1, need - 1)
            echelon.pop()
        dfs(i + 1, need)

    dfs(0, dim)
    return sorted(verts)
