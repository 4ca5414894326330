"""The subset walks that enumerate_vertices and supporting_cone replaced, kept as test oracles.

subset_vertices takes every maximal-rank subset of dim rows, solves the
pinned equality system by incremental fraction-free elimination, and keeps
the solutions that satisfy the whole system.  It visits C(len(rows), dim)
subsets, so use it on small systems only.  subset_supporting_cone takes every
(dim - 1)-subset of the rows tight at a vertex and keeps the side of its
kernel line that satisfies all of them.
"""

from fractions import Fraction
from itertools import combinations
from math import lcm

from hivecount.linalg import dot, kernel_line, vec_gcd


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


def subset_supporting_cone(rows, rhs, vertex):
    """Sorted primitive extreme rays of the tangent cone at a vertex."""
    dim = len(vertex)
    if dim == 0:
        return ()
    denom = lcm(*(Fraction(v).denominator for v in vertex))
    vy = [int(Fraction(v) * denom) for v in vertex]
    tight = [tuple(a) for a, b in zip(rows, rhs) if dot(a, vy) == b * denom]
    if dim == 1:
        rays = {
            cand
            for cand in ((1,), (-1,))
            if all(dot(a, cand) <= 0 for a in tight)
        }
        return tuple(sorted(rays))
    rays = {}
    for subset in combinations(range(len(tight)), dim - 1):
        sub = [list(tight[i]) for i in subset]
        u = kernel_line(sub)
        if u is None:
            continue
        for cand in (u, tuple(-v for v in u)):
            if all(dot(a, cand) <= 0 for a in tight):
                rays.setdefault(cand, None)
                break
    return tuple(sorted(rays))
