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
its tangent cone.  kernel_line, the integer kernel solve that the subset walk
runs per subset, lives here because the package no longer calls it.
"""

from fractions import Fraction
from itertools import combinations
from math import lcm, prod

from hivecount.linalg import dot, primitive, vec_gcd
from hivecount.polyhedra import _extreme_rays


def kernel_line(rows):
    """Primitive integer kernel vector of rows with corank exactly one, else None."""
    dim = len(rows[0])
    m = [list(r) for r in rows]
    pivots = []
    r = 0
    for col in range(dim):
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][col]:
                p, q = m[r][col], m[i][col]
                m[i] = [p * x - q * y for x, y in zip(m[i], m[r])]
                g = vec_gcd(m[i])
                if g > 1:
                    m[i] = [x // g for x in m[i]]
        pivots.append(col)
        r += 1
    if r != dim - 1:
        return None
    free = next(c for c in range(dim) if c not in pivots)
    # m is reduced: row i is zero in every pivot column but its own, so
    # u[col_i] = -m[i][free] / m[i][col_i], scaled by the product of the pivots
    scale = abs(prod(m[row_i][col] for row_i, col in enumerate(pivots)))
    u = [0] * dim
    u[free] = scale
    for row_i, col in enumerate(pivots):
        u[col] = -m[row_i][free] * (scale // m[row_i][col])
    return primitive(u)


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
