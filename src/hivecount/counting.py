"""Exact lattice-point counting, naive and via signed unimodular cones.

The naive counter recurses on coordinate bounds and exists as an oracle.  The
production path follows Barvinok: chart away equalities, enumerate vertices,
decompose the cone at each vertex into signed unimodular cones, and read the
count off the short rational generating functions by specializing along a
direction orthogonal to no ray, set coordinate by coordinate with no seed,
summed modulo a prime above a bound on the count.

A cone can be decomposed on either of two sides.  decompose_cone works on
the primal side: it triangulates the tangent cone's rays and decomposes each
cell into signed unimodular cones, each made half-open along one interior
direction with ties broken lexicographically, so the sum is exact and
deterministic.  The count works on the polar side: it does the same to the
polar of each tangent cone, the cone over the facet rows tight at the vertex,
drops pieces of lower dimension, and polarizes each unimodular piece into a
closed cone.  That sum is exact modulo cones that contain lines, whose
generating functions are zero (Barvinok and Pommersheim 1999; De Loera,
Hemmecke, Tauzer and Yoshida 2004).  Hive polytopes favour the polar: their
rows are short vectors, while the rays of their degenerate tangent cones are
long, so polar cells have far smaller determinants and decompose into fewer
leaves.  At a vertex on at most d + 1 facets the cells of the polar, and
their rays when all are unimodular, are read off the vertex-facet
incidence instead of a triangulation: d + 1 rows in dimension d form a
circuit, which has two triangulations, one per sign class of its linear
dependence (De Loera, Rambau and Santos 2010).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import ceil, comb, floor, prod
from operator import floordiv, neg

from .errors import (
    CapExceededError,
    CountMismatchError,
    InfeasibleLatticeError,
    InvariantError,
    UnboundedError,
)
from .hives import build_hive_polytope
from .linalg import (
    dot,
    echelon_pivots,
    lll_reduce,
    primitive,
    replace_column,
    vec_gcd,
)
# enumerate_vertices and supporting_cone are not called here, but
# perfbench/tracing.py hooks them under this module's name, and a name it
# cannot hook drops per-layer metrics that perfbench/selftest.py requires
from .polyhedra import (
    HRepPolytope,
    LatticeChart,
    VertexCone,
    coordinate_bounds,
    enumerate_vertices,
    homogenized_rays,
    incidence_bitsets,
    interior_point,
    lattice_chart,
    restrict_chart,
    supporting_cone,
)
from .triangulation import placing_triangulation
from .weights import WeightTriple

NAIVE = "naive"
BARVINOK = "barvinok"

NAIVE_DIMENSION_CAP = 12


@dataclass(frozen=True)
class SignedUnimodularCone:
    """Half-open unimodular cone with a sign, one piece of a decomposition.

    open_facets[i] marks the facet spanned by the rays other than i as
    excluded.  decompose_cone sets it by one lexicographically perturbed
    interior direction (see _barvinok_recurse), which makes the signed
    indicator sum exact, not just exact modulo lower-dimensional cones.
    inverse holds the rows of the inverse of the ray matrix, so
    inverse[i] . x is the coordinate of x along rays[i].  The count's closed
    polar leaves record as apex the homogenized int ray (q v, q) of their
    vertex v (see polyhedra.vertex_of).
    """

    sign: int
    apex: tuple
    rays: tuple
    open_facets: tuple
    inverse: tuple


@dataclass(frozen=True)
class CountResult:
    value: int
    method: str


def _chart_rays(rows, rhs, dim):
    """homogenized_rays of {t : rows t <= rhs}, and whether rows have rank below dim.

    Rows of rank below dim leave a line through every point of the
    polyhedron.  The coordinates outside a maximal independent set of
    columns are then pinned to 0: every point moves along such a line to one
    that satisfies the pin, so the pinned polyhedron is pointed, and it is
    empty, or tight on a row everywhere, exactly when the whole one is.
    """
    rays = homogenized_rays(rows, rhs, dim)
    if rays is not None:
        return rays, False
    cols = list(echelon_pivots([[a[j] for a in rows] for j in range(dim)], range(dim)))
    pinned = [[a[i] for i in cols] for a in rows]
    return homogenized_rays(pinned, rhs, len(cols)), True


def _pinned_by_pairs(rows, rhs):
    """(rows, rhs) of the equalities a t = b that opposite rows pin; None without lattice points.

    Rows a t <= b and -a t <= b' hold a t in [-b', b]: empty when b + b' < 0,
    and when b + b' = 0 the pin a t = b, one row per pair, emitted at its
    second row.  Rows are in dedupe_rows' normal form, as every chart's are,
    so a is primitive and the pin has lattice points only when b is an integer.
    """
    bound = {}
    eq_rows, eq_rhs = [], []
    for a, b in zip(rows, rhs):
        b2 = bound.get(tuple([-v for v in a]))
        if b2 is None:
            bound[a] = b
            continue
        width = b + b2
        if width < 0:
            return None
        if width == 0:
            c, rest = divmod(b, 1)
            if rest:
                return None
            eq_rows.append(a)
            eq_rhs.append(c)
    return eq_rows, eq_rhs


def _reduce(poly: HRepPolytope):
    """_reduce_chart of the lattice chart of poly; None when that lattice is empty."""
    try:
        return _reduce_chart(lattice_chart(poly))
    except InfeasibleLatticeError:
        return None


def _reduce_chart(chart: LatticeChart):
    """(full-dimensional chart of chart's polyhedron, its vertices); None without lattice points.

    One loop imposes the equalities it sees with restrict_chart and looks
    again, until none is left.  Opposite rows whose bounds meet, as rhombus
    rows of a flat hive chart do, come first (_pinned_by_pairs); bounds that
    cross, or meet off the integers, leave no lattice point.  Without them,
    one double description pass over the homogenized chart answers what the
    count needs: a ray with t > 0 is a vertex (none: the polyhedron is
    empty), one with t = 0 a recession direction, and rows tight on every
    ray are implicit equalities, imposed next; with none, the pass has read
    the vertices.  A lone ray (a, q) is the point a / q: a 0-dimensional
    chart with origin a when q = 1, no lattice point when q > 1.  Chart rows
    are nonzero, so each restriction drops the dimension and the loop ends.
    Each chart has the one before it as parent: no point is mapped back.
    The vertices come sorted as (ray, tight) pairs: ray the primitive int
    vector (q v, q) of the vertex v in the returned chart's coordinates (see
    vertex_of), bit i of tight set when chart.rows[i] is tight at v.

    Raises UnboundedError when the polyhedron is unbounded and has lattice
    points, InfeasibleLatticeError when a restriction has none.
    """
    while True:
        eqs = _pinned_by_pairs(chart.rows, chart.rhs)
        if eqs is None:
            return None
        if not eqs[0]:
            rays, lines = _chart_rays(chart.rows, chart.rhs, chart.dim)
            if all(ray[-1] == 0 for ray, _ in rays):
                return None
            if len(rays) == 1 and not lines:
                (*a, q), _ = rays[0]
                return None if q > 1 else (LatticeChart(tuple(a), (), (), (), chart), [((1,), 0)])
            implicit = -1
            for _, mask in rays:
                implicit &= mask
            if not implicit:
                break
            idx = [k for k in range(len(chart.rows)) if implicit >> k & 1]
            eqs = [chart.rows[k] for k in idx], [chart.rhs[k] for k in idx]
        chart = restrict_chart(chart, *eqs)
    if lines or any(ray[-1] == 0 for ray, _ in rays):
        raise UnboundedError("the polytope is unbounded; count is infinite")
    return chart, sorted(rays)


def _iter_chart_points(rows, rhs, dim):
    """Integer points of {t : rows t <= rhs} in lexicographic order."""
    if dim == 0:
        if all(b >= 0 for b in rhs):
            yield ()
        return
    bounds = coordinate_bounds(rows, rhs, 0, dim)
    if bounds is None:
        return
    lo, hi = bounds
    sub_rows = [r[1:] for r in rows]
    for v in range(ceil(lo), floor(hi) + 1):
        sub_rhs = [b - r[0] * v for r, b in zip(rows, rhs)]
        for rest in _iter_chart_points(sub_rows, sub_rhs, dim - 1):
            yield (v,) + rest


def _chart_points(poly: HRepPolytope, cap: int):
    """(chart, its integer points) for poly; (None, ()) when it has none.

    Raises CapExceededError when the chart has more than cap dimensions.
    A chart with an interior point keeps its dimension, so one slack LP
    settles the cap for it before the double description pass, whose cost
    grows with the vertex count (27 s on a large-weight rank-7 chart).
    """
    try:
        chart = lattice_chart(poly)
        if chart.dim > cap and interior_point(chart.rows, chart.rhs, chart.dim)[0] > 0:
            raise CapExceededError(f"free dimension {chart.dim} exceeds cap {cap}")
        reduced = _reduce_chart(chart)
    except InfeasibleLatticeError:
        return None, ()
    if reduced is None:
        return None, ()
    chart, _ = reduced
    if chart.dim > cap:
        raise CapExceededError(f"free dimension {chart.dim} exceeds cap {cap}")
    return chart, _iter_chart_points(list(chart.rows), list(chart.rhs), chart.dim)


def iter_lattice_points(poly: HRepPolytope, cap: int = NAIVE_DIMENSION_CAP):
    """Yield the lattice points of poly in ambient coordinates."""
    chart, points = _chart_points(poly, cap)
    for t in points:
        yield chart.to_ambient(t)


def count_naive(poly: HRepPolytope, cap: int = NAIVE_DIMENSION_CAP) -> CountResult:
    _, points = _chart_points(poly, cap)
    return CountResult(sum(1 for _ in points), NAIVE)


def _short_vector(adj, target):
    """Nonzero vector of the lattice L of adj's columns with sup-norm below target = |D| >= 2.

    adj is D times the inverse of the ray matrix, so L holds |D| Z^d with
    index |D|, and some column is nonzero mod |D|; reduced entrywise into
    (-|D|/2, |D|/2] it stays in L and nonzero.  For |D| <= 3, L / |D| Z^d has
    one nonzero class up to sign, so every short vector has that column's
    zero pattern, and the column, of sup-norm 1, is taken.  For |D| > 3 LLL
    usually hands over a shorter vector, and the column is the fallback.
    """
    d = len(adj)
    cols = [[adj[i][j] for i in range(d)] for j in range(d)]
    if target > 3:
        norm, vec = min((max(map(abs, v)), tuple(v)) for v in lll_reduce(cols))
        if norm < target:
            return vec
    half = target // 2
    col = next(c for c in cols if any(v % target for v in c))
    return tuple(r - target if r > half else r for r in (v % target for v in col))


def _barvinok_recurse(sign, rays, adj, D, y, apex, out):
    """Barvinok's signed short-vector decomposition of cone(rays) into out.

    adj and D are the adjugate and determinant of the matrix with columns
    rays; each child's come from its parent's by a rank-one update.  With an
    interior direction y, each unimodular leaf is cone(rays) made half-open
    along y + (e, e^2, ...) for a small e > 0: the facet opposite ray i, with
    inner normal n the i-th row of the inverse, is open when n . y < 0, or
    when n . y = 0 and the first nonzero entry of n is negative.  That one
    perturbed direction lies on no hyperplane, so it decides every piece of
    every cell consistently and the signed indicator sum of the leaves is
    exactly that of cone(rays) (Brion and Vergne 1997; Koeppe and Verdoolaege
    2008).  With y None the rays generate a piece of a polar cone: pieces of
    lower dimension are dropped, and each leaf is the closed polar
    {x : g . x <= 0 for every generator g} of its cone.
    """
    d = len(rays)
    sgn_d = 1 if D > 0 else -1
    if abs(D) == 1:
        if y is None:
            # for G the generators as rows the polar's rays are the columns of
            # -G^-1, the rows of -D * adj, and the inverse of their matrix is -G
            leaf = (
                tuple([tuple([-D * v for v in row]) for row in adj]),
                (False,) * d,
                tuple([tuple([-v for v in g]) for g in rays]),
            )
        else:
            inverse = tuple(tuple(D * v for v in row) for row in adj)
            leaf = (
                tuple(tuple(r) for r in rays),
                tuple(next(c for c in (dot(n, y), *n) if c) < 0 for n in inverse),
                inverse,
            )
        out.append(SignedUnimodularCone(sign, apex, *leaf))
        return
    b = _short_vector(adj, abs(D))
    w = []
    for row in zip(*rays):
        num = dot(row, b)
        if num % D:
            raise InvariantError("short vector left the adjugate lattice")
        w.append(num // D)
    g = vec_gcd(w)
    if g > 1:
        w = [v // g for v in w]
        b = tuple(v // g for v in b)
    if all(v * sgn_d <= 0 for v in b):
        b = tuple(-v for v in b)
        w = [-v for v in w]
    # adj w = b: the child with ray i replaced by w has determinant b[i]
    w = tuple(w)
    for i in range(d):
        if b[i] == 0:
            continue
        child_sign = sign if (b[i] > 0) == (D > 0) else -sign
        child = rays[:i] + (w,) + rays[i + 1 :]
        _barvinok_recurse(child_sign, child, *replace_column(adj, D, i, b), y, apex, out)


def _simplicial_cells(gens):
    """(generators, adjugate, determinant) per cell triangulating a full-dimensional cone(gens)."""
    tri = placing_triangulation(gens)
    return [(tuple(gens[i] for i in c.indices), c.adjugate, c.det) for c in tri.cells]


def decompose_cone(cone: VertexCone, seed: int = 0):
    """Signed half-open unimodular cones whose indicator sum is exactly cone.

    Non-simplicial input is first triangulated by a placing triangulation of
    its rays.  Every piece is made half-open along the sum of the rays, an
    interior direction, with ties on a facet broken lexicographically (see
    _barvinok_recurse); that removes both the triangulation overlaps and the
    decomposition overcounts.  The result is deterministic: seed is accepted
    for compatibility and has no effect.

    Raises ValueError when the rays do not span the ambient space, and
    DegenerateSpanError when the cone contains a line.
    """
    rays = cone.rays
    if not rays:
        return [SignedUnimodularCone(1, cone.apex, (), (), ())]
    if len(echelon_pivots(rays, range(len(rays)))) < len(rays[0]):
        raise ValueError("decompose_cone needs a full-dimensional cone")
    y = tuple(map(sum, zip(*rays)))
    out = []
    for cell in _simplicial_cells(rays):
        _barvinok_recurse(1, *cell, y, cone.apex, out)
    return out


def _facet_mask(on):
    """Bitmask of the facet rows, read off each row's incidence bitset on[j] over the vertices.

    With the polytope bounded and full-dimensional and no two rows parallel,
    as in every chart, row j is a facet unless the vertices tight on it are
    all tight on some other row: a facet is spanned by its vertices, and any
    other face lies in a facet.  So a row tight at no vertex is never a
    facet.  The facets of the tangent cone at a vertex are the facets through it.
    """
    return sum(
        1 << j
        for j, z in enumerate(on)
        if not any(k != j and w & z == z for k, w in enumerate(on))
    )


def _vertex_edges(vertices, i, rows, on, cache):
    """Primitive edge directions at vertex i, on the facet rows rows, keyed by dropped rows.

    Maps (x, y), and (y, x), to the direction from vertex i of the edge on
    every facet in rows but rows[x] and rows[y], x = y for one row, where
    there is one.  The vertices on those facets are the AND of their
    incidence bitsets on, taken from the set of all vertices since d may be
    1: vertex i and the edge's other end.  At a simple vertex (d rows)
    leaving out any one row leaves an edge.  At a vertex on d + 1 rows,
    whose one linear dependence is lambda, leaving out row x does so exactly
    when lambda_x = 0, and leaving out two rows x, y of the support exactly
    when lambda_x and lambda_y have opposite signs.  cache maps each vertex
    pair (i, o), i < o, to the direction from vertex i to vertex o, so both
    ends share it.
    """
    n = len(rows)
    # prefix[x] and suffix[x]: the ANDs over rows[:x] and rows[x:], vertex i cleared
    prefix = [(1 << len(vertices)) - 1 ^ 1 << i]
    for k in rows:
        prefix.append(prefix[-1] & on[k])
    suffix = [prefix[0]] * (n + 1)
    for x in range(n - 1, -1, -1):
        suffix[x] = suffix[x + 1] & on[rows[x]]
    ends = {}
    for x in range(n):
        if shared := prefix[x] & suffix[x + 1]:
            ends[x, x] = shared
    for x, y in combinations([x for x in range(n) if (x, x) not in ends], 2):
        shared = prefix[x] & suffix[y + 1]
        for k in rows[x + 1 : y]:
            shared &= on[k]
        if shared:
            ends[x, y] = shared
    edges = {}
    for (x, y), shared in ends.items():
        if shared & shared - 1:
            raise InvariantError("an edge has more than two vertices")
        o = shared.bit_length() - 1
        key = (i, o) if i < o else (o, i)
        u = cache.get(key)
        if u is None:
            (*a, q), (*b, r) = vertices[key[0]][0], vertices[key[1]][0]
            u = cache[key] = primitive([q * bj - r * aj for bj, aj in zip(b, a)])
        edges[x, y] = edges[y, x] = u if i < o else tuple([-v for v in u])
    return edges


def _edge_leaves(ray, gens, edges):
    """Leaves of cone(gens)'s triangulated polar, read off the edges; None unless all unimodular.

    gens are the n = d or d + 1 facet rows at a vertex and edges its edge
    directions (see _vertex_edges).  The rows x with an edge e_xx off row x
    alone are those with lambda_x = 0 (every row at a simple vertex), and
    e_xx is a ray of every cell.  The other rows, the support of lambda,
    split into two sign classes, and the cells are gens without one row s
    of the class of the last support row, the side that the placing
    triangulation in row order picks.  The polar of the cell without s has
    the rays e_xx, the edge e_sk for each k of the other class, and for each
    j other than s in s's class the difference e_sk - e_jk for the first k
    of the other class, which is tight on every row but s and j.  The cell
    is unimodular exactly when each ray u, scaled to g . u = -1 on its own
    row g, is integral: edges are primitive, so they must have g . e = -1,
    and the difference, made of two edges so scaled, must divide exactly.
    Then the generators G and the rays U have G U = -I, so each leaf is the
    closed cone over U with inverse -G.
    """
    n = len(gens)
    support = [x for x in range(n) if (x, x) not in edges]
    side = [x for x in support if (x, support[-1]) not in edges] or [None]
    other = [x for x in support if (x, support[-1]) in edges]
    if support and not other:
        return None
    inverse = [tuple([-v for v in g]) for g in gens]
    leaves = []
    for s in side:
        rays = []
        for x in range(n):
            if x == s:
                continue
            u = edges.get((x, x)) or edges.get((s, x))
            if u is None:
                diff = [v - w for v, w in zip(edges[s, other[0]], edges[x, other[0]])]
                t = -dot(gens[x], diff)
                if any(v % t for v in diff):
                    return None
                u = tuple([v // t for v in diff])
            elif dot(gens[x], u) != -1:
                return None
            rays.append(u)
        cell = tuple([g for x, g in enumerate(inverse) if x != s])
        leaves.append(SignedUnimodularCone(1, ray, tuple(rays), (False,) * len(rays), cell))
    return leaves


def _vertex_leaves(ray, gens, edges):
    """Closed signed unimodular cones summing to cone(gens)'s polar modulo cones with lines.

    gens are the primitive facet rows through the vertex of the homogenized
    ray (see polyhedra.vertex_of), which each leaf records as its apex, so that polar is
    the tangent cone, and the polar of a full-dimensional cone is pointed.
    At a vertex on at most d + 1 facets edges holds the edge directions read
    off the incidence (see _vertex_edges), and when every cell of the
    polar's triangulation is unimodular its leaves are read off them (see
    _edge_leaves).  Otherwise, and with edges None, gens are triangulated
    and each cell decomposed.
    """
    leaves = _edge_leaves(ray, gens, edges) if edges is not None else None
    if leaves is not None:
        return leaves
    out = []
    for cell in _simplicial_cells(gens):
        _barvinok_recurse(1, *cell, None, ray, out)
    return out


# the Mersenne primes 2^p - 1, in increasing order, that the count takes its modulus from
_PRIMES = tuple((1 << p) - 1 for p in (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253))


def _box_bound(vertices):
    """Integer points of the box around the vertices: an upper bound on the count.

    For the vertex v of each ray (q v, q), coordinate j spans
    floor(max v_j) - ceil(min v_j) + 1 = max floor(v_j) + max floor(-v_j) + 1.
    """
    *cols, q = zip(*[ray for ray, _ in vertices])
    bound = 1
    for col in cols:
        bound *= max(map(floordiv, col, q)) + max(map(floordiv, map(neg, col), q)) + 1
    return bound


def _modulus(bound, emax):
    """The smallest listed prime above bound and emax, else the product of those above emax."""
    primes = [p for p in _PRIMES if p > emax]
    modulus = next((p for p in primes if p > bound), None) or prod(primes)
    if modulus <= bound:
        raise InvariantError(f"the listed primes do not exceed the box bound {bound}")
    return modulus


def _lowest_lattice_point(leaf, a, q):
    """Unique lattice point of the leaf's half-open fundamental cell.

    With the leaf's apex a / q for an int vector a, coordinate i of the point
    along the rays exceeds the apex's by r_i / q, the fractional part of minus
    the apex's coordinate, taken as 1 on an open facet: at an integral apex of
    a closed leaf, the apex itself.
    """
    shifts = []
    for row, is_open in zip(leaf.inverse, leaf.open_facets):
        r = -dot(row, a) % q
        shifts.append(q if is_open and r == 0 else r)
    point = []
    for j, aj in enumerate(a):
        num = aj + sum(u[j] * r for u, r in zip(leaf.rays, shifts))
        if num % q:
            raise InvariantError("lowest point of a unimodular cone is not integral")
        point.append(num // q)
    return tuple(point)


def _series_total(vertex_leaves, direction, e_of, deg, modulus):
    """Coefficients 0..deg, mod modulus, of the leaves' summed series at (1+s)^direction.

    vertex_leaves pairs each vertex's ray (a, q) with its leaves of deg rays,
    e_of maps each ray u to e = direction . u, none zero (the direction is
    orthogonal to no ray by construction), and modulus is prime to every |e|
    and to 1..deg.  With h_e = ((1+s)^e - 1) / s, s^deg times a leaf's term
    is +-(1+s)^n / prod h_|e|, where n is direction . p plus the |e| of each
    negative e, for p the lowest lattice point (a for a closed leaf at an
    integral vertex); coefficient deg of the sum is the count.
    h_of holds h_e packed, coefficient k at bit width * k: a product of m <=
    deg of them is at most (1+s)^E / s^m coefficientwise, E = deg * emax, so
    it packs exactly while C(E, j) < 2^width for j <= 2 deg (Kronecker
    substitution).  The binomial series and the solve of the quotient,
    c[k] = (b[k] - sum_{i>=1} a[i] c[k-i]) / a[0], run mod modulus.
    """
    es = set(map(abs, e_of.values()))
    if 0 in es:
        raise InvariantError("specialization direction is orthogonal to a ray")
    emax = max(es)
    width = max(comb(deg * emax, j) for j in range(2 * deg + 1)).bit_length()
    mask = (1 << width * (deg + 1)) - 1
    low = (1 << width) - 1
    inverses = [pow(k, -1, modulus) for k in range(1, deg + 1)]
    h_of = {e: sum(comb(e, k + 1) << width * k for k in range(deg + 1)) for e in es}
    total = [0] * (deg + 1)
    for ray, leaves in vertex_leaves:
        a, q = ray[:-1], ray[-1]
        apex = dot(direction, a)
        for leaf in leaves:
            if q == 1 and not any(leaf.open_facets):
                n = apex
            else:
                n = dot(direction, _lowest_lattice_point(leaf, a, q))
            sign = -leaf.sign if deg % 2 else leaf.sign
            packed = 1
            for u in leaf.rays:
                e = e_of[u]
                if e < 0:
                    sign = -sign
                    e = -e
                    n += e
                packed = packed * h_of[e] & mask
            denom = [packed >> width * k & low for k in range(deg + 1)]
            lead = pow(denom[0], -1, modulus)
            binomial = sign
            quotient = []
            for k in range(deg + 1):
                if k:
                    binomial = binomial * (n - k + 1) * inverses[k - 1] % modulus
                acc = binomial
                for i in range(k):
                    acc -= denom[k - i] * quotient[i]
                acc = acc * lead % modulus
                quotient.append(acc)
                total[k] += acc
    return [c % modulus for c in total]


def _specialization_direction(all_rays, dim):
    """An int direction v orthogonal to none of the rays, set coordinate by coordinate.

    Once v_0..v_{j-1} are set, each ray whose last nonzero entry is u_j rules
    out at most one value of v_j; v_j is the first of 0, 1, -1, 2, -2, ... that
    none rules out.  So |v_j| is at most half their number, rounded up, and the
    order of the rays does not matter.
    """
    by_last = [[] for _ in range(dim)]
    for u in all_rays:
        by_last[max(j for j, c in enumerate(u) if c)].append(u)
    v = []
    for j, rays in enumerate(by_last):
        ruled_out = {-p // u[j] for u in rays if (p := dot(v, u)) % u[j] == 0}
        x = 0
        while x in ruled_out:
            x = -x if x > 0 else 1 - x
        v.append(x)
    return tuple(v)


def count_barvinok(poly: HRepPolytope, seed: int = 0, threads: int = 1) -> CountResult:
    """Lattice points of a bounded poly via signed unimodular cones.

    The leaves' series are summed mod M > B, the box bound of the vertices,
    with M prime to every denominator, so the sum mod M is the count N in
    [0, B].  Coefficients below degree d must vanish mod M, and N <= B.
    seed and threads are accepted for compatibility and have no effect: the
    specialization direction is deterministic, and pure-Python work does not
    run in parallel under the GIL.
    """
    reduced = _reduce(poly)
    if reduced is None:
        return CountResult(0, BARVINOK)
    chart, vertices = reduced
    d = chart.dim
    if d == 0:
        return CountResult(1, BARVINOK)
    gens = chart.rows
    on = incidence_bitsets([mask for _, mask in vertices], len(gens))
    facets = _facet_mask(on)
    vertex_leaves = []
    cache = {}
    for i, (ray, mask) in enumerate(vertices):
        rows = []
        bits = mask & facets
        while bits:
            low = bits & -bits
            rows.append(low.bit_length() - 1)
            bits ^= low
        edges = _vertex_edges(vertices, i, rows, on, cache) if len(rows) <= d + 1 else None
        vertex_leaves.append((ray, _vertex_leaves(ray, [gens[k] for k in rows], edges)))
    ray_set = {u for _, leaves in vertex_leaves for leaf in leaves for u in leaf.rays}
    direction = _specialization_direction(ray_set, d)
    e_of = {u: dot(direction, u) for u in ray_set}
    bound = _box_bound(vertices)
    modulus = _modulus(bound, max(d, *map(abs, e_of.values())))
    total = _series_total(vertex_leaves, direction, e_of, d, modulus)
    if any(total[:d]):
        raise InvariantError(f"loose Laurent terms in specialization: {total[:d]} mod {modulus}")
    if total[d] > bound:
        raise InvariantError(f"count {total[d]} mod {modulus} exceeds the box bound {bound}")
    return CountResult(total[d], BARVINOK)


def count_dilation(poly: HRepPolytope, n: int, seed: int = 0, threads: int = 1) -> CountResult:
    """Lattice points of the n-th dilation by scaling right-hand sides; seed and threads do nothing."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError("dilation factor must be a positive integer")
    scaled = HRepPolytope(
        rows=poly.rows,
        rhs=tuple(n * b for b in poly.rhs),
        eq_rows=poly.eq_rows,
        eq_rhs=tuple(n * b for b in poly.eq_rhs),
    )
    return count_barvinok(scaled)


def hive_hrep(triple: WeightTriple) -> HRepPolytope:
    """The hive polytope of a triple as an H-representation."""
    system = build_hive_polytope(triple)
    return HRepPolytope(
        rows=system.R,
        rhs=(0,) * len(system.R),
        eq_rows=system.B,
        eq_rhs=system.rhs_b,
    )


def lr_coefficient(
    triple: WeightTriple,
    method: str = BARVINOK,
    seed: int = 0,
    threads: int = 1,
    naive_cap: int = NAIVE_DIMENSION_CAP,
) -> int:
    """Tensor-product multiplicity of the triple by lattice-point counting.

    Size-inconsistent triples have coefficient zero and are answered without
    building a polytope.  seed and threads have no effect, as in count_barvinok.
    """
    a, b, c = triple.sizes
    if c != a + b:
        return 0
    poly = hive_hrep(triple)
    if method == NAIVE:
        return count_naive(poly, cap=naive_cap).value
    if method == BARVINOK:
        return count_barvinok(poly).value
    if method == "both":
        naive = count_naive(poly, cap=naive_cap).value
        barv = count_barvinok(poly).value
        if naive != barv:
            raise CountMismatchError(f"naive={naive} disagrees with barvinok={barv}")
        return barv
    raise ValueError(f"unknown method {method!r}")


def lr_nonzero(triple: WeightTriple) -> bool:
    """Nonvanishing via LP feasibility of the hive system; no counting."""
    a, b, c = triple.sizes
    if c != a + b:
        return False
    try:
        chart = lattice_chart(hive_hrep(triple))
    except InfeasibleLatticeError:
        return False
    tstar, _ = interior_point(chart.rows, chart.rhs, chart.dim)
    return tstar >= 0
