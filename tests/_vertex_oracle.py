"""Replaced vertex and tangent-cone routines, kept as test oracles.

These are the subset walks that enumerate_vertices and supporting_cone
replaced, and the per-vertex facet test that the count's facet mask replaced.

subset_vertices takes every maximal-rank subset of dim rows, solves the
pinned equality system by incremental fraction-free elimination, and keeps
the solutions that satisfy the whole system.  It visits C(len(rows), dim)
subsets, so use it on small systems only.  subset_supporting_cone takes every
(dim - 1)-subset of the rows tight at a vertex and keeps the side of its
kernel line that satisfies all of them.  _polar_generators runs the double
description routine on the rows tight at one vertex and keeps the facets of
its tangent cone.
"""

from fractions import Fraction
from itertools import combinations
from math import lcm

from hivecount.linalg import dot, kernel_line, primitive, vec_gcd
from hivecount.polyhedra import _extreme_rays


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


def _polar_generators(tight, dim):
    """The primitive facet rows among tight, which generate the polar of the tangent cone.

    The tangent cone is {y : a y <= 0 for a in tight}.  At a simple vertex
    (dim tight rows) every row is a facet.  Otherwise a double description
    run gives the tangent cone's rays with their tight masks, and a row is a
    facet unless every ray tight on it is tight on some other row too: the
    face it cuts out then lies in that row's facet.  Redundant rows would
    only add triangulation cells.
    """
    if len(tight) > dim:
        on = [0] * len(tight)
        for i, (_, mask) in enumerate(_extreme_rays(tight, dim)):
            for j in range(len(tight)):
                if mask >> j & 1:
                    on[j] |= 1 << i
        tight = [
            a
            for j, a in enumerate(tight)
            if not any(k != j and on[j] & z == on[j] for k, z in enumerate(on))
        ]
    return [primitive(a) for a in tight]
