"""Exact lattice-point counting, naive and via signed unimodular cones.

The naive counter recurses on coordinate bounds and exists as an oracle.  The
production path follows Barvinok: chart away equalities, enumerate vertices,
decompose the cone at each vertex into signed unimodular cones, and read the
count off the short rational generating functions by specializing along a
generic direction.

A cone can be decomposed on either of two sides.  decompose_cone works on
the primal side: it triangulates the tangent cone's rays and decomposes each
cell into signed half-open unimodular cones, exactly.  The count works on the
polar side: it does the same to the polar of each tangent cone, the cone over
the facet rows tight at the vertex, drops pieces of lower dimension, and
polarizes each unimodular piece into a closed cone.  That sum is exact modulo
cones that contain lines, whose generating functions are zero (Barvinok and
Pommersheim 1999; De Loera, Hemmecke, Tauzer and Yoshida 2004).  Hive
polytopes favour the polar: their rows are short vectors, while the rays of
their degenerate tangent cones are long, so polar cells have far smaller
determinants and decompose into fewer leaves.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import ceil, comb, floor, lcm

from .errors import (
    CapExceededError,
    CountMismatchError,
    InfeasibleLatticeError,
    InvariantError,
    UnboundedError,
)
from .hives import build_hive_polytope
from .linalg import adjugate, dot, lll_reduce, primitive, rank, vec_gcd
# enumerate_vertices and supporting_cone are not called here, but
# perfbench/tracing.py hooks them under this module's name
from .polyhedra import (
    HRepPolytope,
    VertexCone,
    _extreme_rays,
    coordinate_bounds,
    enumerate_vertices,
    homogenized_rays,
    interior_point,
    lattice_chart,
    restrict_chart,
    supporting_cone,
    vertex_of,
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
    excluded; the convention is fixed by the decomposition's interior
    direction and makes the signed indicator sum exact, not just exact
    modulo lower-dimensional cones.  inverse holds the rows of the inverse
    of the ray matrix, so inverse[i] . x is the coordinate of x along
    rays[i].
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


class _DegenerateDirection(Exception):
    """Internal retry signal: chosen direction hit a facet or ray hyperplane."""


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
    cols = []
    for j in range(dim):
        if rank([[a[i] for i in cols + [j]] for a in rows]) > len(cols):
            cols.append(j)
    pinned = [[a[i] for i in cols] for a in rows]
    return homogenized_rays(pinned, rhs, len(cols)), True


def _reduce(poly: HRepPolytope):
    """(full-dimensional lattice chart of poly, its vertices); None without lattice points.

    One double description pass over the homogenized chart answers what the
    count needs: a ray with t > 0 is a vertex (none: poly is empty), one with
    t = 0 a recession direction, and a row tight on every ray holds with
    equality on all of poly.  Those implicit equalities are imposed with one
    restrict_chart, whose lattice may be empty, and a second pass reads the
    vertices of the restricted chart.  The vertices come sorted as
    (vertex, tight) pairs: the vertex a tuple of Fraction in the coordinates
    of the returned chart, bit i of tight set when chart.rows[i] holds with
    equality there.

    Raises UnboundedError when poly is unbounded and has lattice points.
    """
    try:
        chart = lattice_chart(poly)
        rays, lines = _chart_rays(chart.rows, chart.rhs, chart.dim)
        if all(ray[-1] == 0 for ray, _ in rays):
            return None
        implicit = -1
        for _, mask in rays:
            implicit &= mask
        if implicit:
            idx = [k for k in range(len(chart.rows)) if implicit >> k & 1]
            chart = restrict_chart(
                chart, [chart.rows[k] for k in idx], [chart.rhs[k] for k in idx]
            )
        if lines or any(ray[-1] == 0 for ray, _ in rays):
            raise UnboundedError("the polytope is unbounded; count is infinite")
        if implicit:
            rays = homogenized_rays(chart.rows, chart.rhs, chart.dim)
    except InfeasibleLatticeError:
        return None
    return chart, sorted((vertex_of(ray), mask) for ray, mask in rays)


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
    grows with the vertex count (past 100 s at rank 7).
    """
    try:
        chart = lattice_chart(poly)
    except InfeasibleLatticeError:
        return None, ()
    if chart.dim > cap and interior_point(chart.rows, chart.rhs, chart.dim)[0] > 0:
        raise CapExceededError(f"free dimension {chart.dim} exceeds cap {cap}")
    reduced = _reduce(poly)
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


def _interior_direction(rays, attempt, seed):
    """Positive integer combination of the rays; attempt 0 is the plain sum."""
    dim = len(rays[0])
    if attempt == 0:
        return tuple(sum(r[i] for r in rays) for i in range(dim))
    rng = random.Random((seed + 1) * 1_000_003 + attempt)
    weights = [rng.randint(1, 16 + attempt) for _ in rays]
    return tuple(sum(w * r[i] for w, r in zip(weights, rays)) for i in range(dim))


def _short_vector(adj, target):
    """Nonzero lattice vector of the adjugate-column lattice, sup-norm < target.

    LLL usually hands one over directly; if not, widen over small integer
    combinations of the reduced basis.  Existence below the determinant bound
    is guaranteed, so the widening terminates in practice at tiny radii.
    """
    d = len(adj)
    cols = [[adj[i][j] for i in range(d)] for j in range(d)]
    basis = lll_reduce(cols)
    best = None
    for v in basis:
        vec = tuple(v)
        key = (max(abs(c) for c in vec), vec)
        if best is None or key < best:
            best = key
    if best[0] >= target:
        for radius in (1, 2, 3, 4):
            for combo in product(range(-radius, radius + 1), repeat=d):
                if not any(combo):
                    continue
                vec = tuple(
                    sum(cc * bv[i] for cc, bv in zip(combo, basis)) for i in range(d)
                )
                if not any(vec):
                    continue
                key = (max(abs(c) for c in vec), vec)
                if key < best:
                    best = key
            if best[0] < target:
                break
        else:
            raise InvariantError("short-vector search stalled below the determinant")
    return best[1]


def _barvinok_recurse(sign, rays, y, apex, out):
    """Barvinok's signed short-vector decomposition of cone(rays) into out.

    With an interior direction y, each unimodular leaf is cone(rays) made
    half-open along y, and a direction on a facet or ray hyperplane raises
    _DegenerateDirection.  With y None the rays generate a piece of a polar
    cone: pieces of lower dimension are dropped, and each leaf is the closed
    polar {x : g . x <= 0 for every generator g} of its cone.
    """
    d = len(rays)
    U = [[rays[j][i] for j in range(d)] for i in range(d)]
    adj = adjugate(U)
    D = dot(U[0], [row[0] for row in adj])
    sgn_d = 1 if D > 0 else -1
    if y is not None:
        checks = [sgn_d * dot(row, y) for row in adj]
        if any(c == 0 for c in checks):
            raise _DegenerateDirection
    if abs(D) == 1:
        if y is None:
            # for G the generators as rows the polar's rays are the columns of
            # -G^-1, the rows of -D * adj, and the inverse of their matrix is -G
            leaf = (
                tuple(tuple(-D * v for v in row) for row in adj),
                (False,) * d,
                tuple(tuple(-v for v in g) for g in rays),
            )
        else:
            leaf = (
                tuple(tuple(r) for r in rays),
                tuple(c < 0 for c in checks),
                tuple(tuple(D * v for v in row) for row in adj),
            )
        out.append(SignedUnimodularCone(sign, apex, *leaf))
        return
    b = _short_vector(adj, abs(D))
    w = []
    for i in range(d):
        num = dot(U[i], b)
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
    w = tuple(w)
    for i in range(d):
        if b[i] == 0:
            continue
        child = list(rays)
        child[i] = w
        child_sign = sign if (b[i] > 0) == (D > 0) else -sign
        _barvinok_recurse(child_sign, tuple(child), y, apex, out)


def decompose_cone(cone: VertexCone, seed: int = 0):
    """Signed half-open unimodular cones whose indicator sum is exactly cone.

    Non-simplicial input is first triangulated by a placing triangulation of
    its rays; the half-open convention along an interior direction removes
    both the triangulation overlaps and the decomposition overcounts.
    """
    rays = cone.rays
    if not rays:
        return [SignedUnimodularCone(1, cone.apex, (), (), ())]
    d = len(rays[0])
    if len(rays) == d:
        cells = [rays]
    else:
        tri = placing_triangulation(rays)
        cells = [tuple(rays[i] for i in cell.indices) for cell in tri.cells]
    for attempt in range(64):
        y = _interior_direction(rays, attempt, seed)
        out = []
        try:
            for cell in cells:
                _barvinok_recurse(1, cell, y, cone.apex, out)
            return out
        except _DegenerateDirection:
            # keeping the exception would keep its traceback, whose frames
            # refer back to this one: a cycle only the cyclic collector frees
            pass
    raise InvariantError("no generic interior direction found")


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


def _vertex_leaves(apex, tight):
    """Closed signed unimodular cones summing to the tangent cone at apex modulo cones with lines."""
    gens = _polar_generators(tight, len(apex))
    if len(gens) == len(apex):
        cells = [gens]
    else:
        # the polar of a full-dimensional cone is pointed
        tri = placing_triangulation(gens, pointed=True)
        cells = [[gens[i] for i in cell.indices] for cell in tri.cells]
    out = []
    for cell in cells:
        _barvinok_recurse(1, cell, None, apex, out)
    return out


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
    """Coefficients of (1+s)^n up to degree deg, n any integer."""
    if n >= 0:
        return [comb(n, k) for k in range(deg + 1)]
    return [(-1) ** k * comb(-n + k - 1, k) for k in range(deg + 1)]


def _lowest_lattice_point(leaf):
    """Unique lattice point of the leaf's half-open fundamental cell.

    With apex = a / q for an int vector a, coordinate i of the point along
    the rays exceeds the apex's by r_i / q, the fractional part of minus the
    apex's coordinate, taken as 1 on an open facet.
    """
    apex = [Fraction(c) for c in leaf.apex]
    q = lcm(*(c.denominator for c in apex))
    a = [c.numerator * (q // c.denominator) for c in apex]
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


def _leaf_series(leaf, direction, deg):
    """Signed truncated series of the leaf's generating function at (1+s)^direction.

    Returns (coefficients, scale): the series is coefficients / scale, with
    int coefficients and scale = P^(deg+1) for P the product of the
    |direction . ray| over the leaf's rays.
    """
    d = len(leaf.rays)
    exponent = dot(direction, _lowest_lattice_point(leaf))
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
        h = [comb(e, k + 1) for k in range(deg + 1)]
        denom = _series_mul(denom, h, deg)
    series = _series_mul(_binomial_series(exponent, deg), _scaled_inverse(denom, deg), deg)
    sgn = leaf.sign * (-1 if (negatives + d) % 2 else 1)
    return [sgn * v for v in series], denom[0] ** (deg + 1)


def _specialization_direction(all_rays, dim, seed):
    """An int direction orthogonal to none of the rays.

    Up to 50 seeded draws of growing range come first.  The fallback
    (1, b, b^2, ...) with b above twice every |ray entry| always works: the
    base-b digits of a nonzero ray, each below b/2 in size, cannot cancel.
    """
    for attempt in range(50):
        rng = random.Random(((seed + 1) << 20) ^ attempt)
        bound = 8 + 4 * attempt
        cand = tuple(rng.randint(-bound, bound) for _ in range(dim))
        if all(dot(cand, u) for u in all_rays):
            return cand
    base = 2 * max(abs(c) for u in all_rays for c in u) + 1
    return tuple(base**i for i in range(dim))


def count_barvinok(poly: HRepPolytope, seed: int = 0, threads: int = 1) -> CountResult:
    """Lattice points of a bounded poly via signed unimodular cones.

    seed picks the specialization direction and never changes the count;
    threads is accepted for compatibility and has no effect, since
    pure-Python work does not run in parallel under the GIL.
    """
    reduced = _reduce(poly)
    if reduced is None:
        return CountResult(0, BARVINOK)
    chart, vertices = reduced
    d = chart.dim
    if d == 0:
        return CountResult(1, BARVINOK)
    rows = chart.rows
    leaves = []
    for v, mask in vertices:
        tight = [a for k, a in enumerate(rows) if mask >> k & 1]
        leaves += _vertex_leaves(v, tight)
    ray_set = sorted({u for leaf in leaves for u in leaf.rays})
    direction = _specialization_direction(ray_set, d, seed)
    total = [Fraction(0)] * (d + 1)
    for leaf in leaves:
        series, scale = _leaf_series(leaf, direction, d)
        for k in range(d + 1):
            total[k] += Fraction(series[k], scale)
    if any(total[k] != 0 for k in range(d)):
        raise InvariantError(f"loose Laurent terms in specialization: {total[:d]}")
    value = total[d]
    if value.denominator != 1 or value < 0:
        raise InvariantError(f"count specialized to {value}, not a nonnegative integer")
    return CountResult(int(value), BARVINOK)


def count_dilation(
    poly: HRepPolytope, n: int, seed: int = 0, threads: int = 1
) -> CountResult:
    """Lattice points of the n-th dilation, counted by scaling right-hand sides."""
    if n < 1:
        raise ValueError("dilation factor must be a positive integer")
    scaled = HRepPolytope(
        rows=poly.rows,
        rhs=tuple(n * b for b in poly.rhs),
        eq_rows=poly.eq_rows,
        eq_rhs=tuple(n * b for b in poly.eq_rhs),
    )
    return count_barvinok(scaled, seed=seed, threads=threads)


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
    building a polytope.
    """
    a, b, c = triple.sizes
    if c != a + b:
        return 0
    poly = hive_hrep(triple)
    if method == NAIVE:
        return count_naive(poly, cap=naive_cap).value
    if method == BARVINOK:
        return count_barvinok(poly, seed=seed, threads=threads).value
    if method == "both":
        naive = count_naive(poly, cap=naive_cap).value
        barv = count_barvinok(poly, seed=seed, threads=threads).value
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
