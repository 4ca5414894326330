"""Rational polyhedra: exact LP, lattice charts, vertices, and tangent cones.

All arithmetic is done with Fraction or int; nothing here is approximate.
Inequality systems are stored as (rows, rhs) meaning rows @ x <= rhs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import lcm

from .errors import InfeasibleLatticeError, InvariantError
from .linalg import add_row_column, dot, echelon_pivots, hermite_solve, primitive, vec_gcd

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPResult:
    status: str
    x: tuple | None = None
    value: Fraction | None = None


def _pivot(tab, obj, basis, den, r, c):
    """Fraction-free pivot on tab[r][c]; returns the new common denominator.

    Every entry of tab and obj is an int numerator over den > 0.  Row r stays
    as it is and every other row k becomes (p * k - k[c] * row r) // den, an
    exact division (Edmonds 1967; Bareiss 1968); the new denominator is the
    pivot p.  A negative pivot, which only the drive-out of artificials can
    choose, has its row negated first, so that every row comes out negated
    and the denominator stays positive.
    """
    row_r = tab[r]
    p = row_r[c]
    if p < 0:
        p = -p
        row_r = tab[r] = [-v for v in row_r]
    for i, row in enumerate(tab):
        if i != r:
            tab[i] = _eliminate(row, row_r, p, den, c)
    obj[:] = _eliminate(obj, row_r, p, den, c)
    basis[r] = c
    return p


def _eliminate(row, row_r, p, den, c):
    """The row after a pivot, (p * row - row[c] * row_r) // den, cheaper when row[c] == 0."""
    f = row[c]
    if f:
        return [(p * v - f * w) // den for v, w in zip(row, row_r)]
    if p == den:
        return row
    return [p * v // den for v in row]


def _bland_min(tab, obj, basis, den, ncols):
    """Run simplex pivots (Bland's rule) until optimal or unbounded.

    Returns the status and the common denominator left by the last pivot.  The
    ratio test compares b_i / a_i by cross-multiplying, ties going to the
    smaller basic variable.
    """
    while True:
        enter = next((j for j in range(ncols) if obj[j] < 0), None)
        if enter is None:
            return OPTIMAL, den
        best = None
        for i, row in enumerate(tab):
            a = row[enter]
            if a > 0:
                b = row[-1]
                if best is None or (b * best_a, basis[i]) < (best_b * a, basis[best]):
                    best, best_a, best_b = i, a, b
        if best is None:
            return UNBOUNDED, den
        den = _pivot(tab, obj, basis, den, best, enter)


def _standard_simplex(rows, rhs, cost):
    """Minimize cost . z over {z >= 0 : rows z = rhs}; returns (status, z).

    Two-phase simplex with Bland's rule on a tableau of int numerators over
    one common denominator, which after each pivot is that pivot, i.e. up to
    sign the determinant of the basis.  The tableau starts as the rows scaled
    by the product of their denominators, with one artificial variable per row;
    Fraction costs are scaled by the lcm of their denominators, which keeps
    every sign the pivot rule reads.  Fractions are built only for z.
    """
    m = len(rows)
    n = len(cost)
    den = 1
    for row, b in zip(rows, rhs):
        # star-args from a list, not a generator: a tuple built from a
        # generator is resized, then freed to the free list of its final
        # size, and in a hot loop those free lists fill up
        den *= lcm(b.denominator, *[v.denominator for v in row])
    tab = []
    for i, (row, b) in enumerate(zip(rows, rhs)):
        if b < 0:
            row, b = [-v for v in row], -b
        num = [(v * den).numerator for v in row] + [0] * m + [(b * den).numerator]
        num[n + i] = den
        tab.append(num)
    basis = list(range(n, n + m))
    # phase 1 minimizes the sum of the artificials: reduced costs -sum(rows)
    obj = [-sum(col) for col in zip(*tab)] if tab else [0] * (n + 1)
    obj[n : n + m] = [0] * m
    _, den = _bland_min(tab, obj, basis, den, n + m)
    if obj[-1] < 0:
        return INFEASIBLE, None
    for r in range(m):
        if basis[r] >= n:
            c = next((j for j in range(n) if tab[r][j] != 0), None)
            if c is not None:
                den = _pivot(tab, obj, basis, den, r, c)
    keep = [r for r in range(m) if basis[r] < n]
    tab = [tab[r][:n] + [tab[r][-1]] for r in keep]
    basis = [basis[r] for r in keep]
    scale = lcm(*[c.denominator for c in cost])
    cost = [(c * scale).numerator for c in cost]
    obj = [den * c for c in cost] + [0]
    for r, b in enumerate(basis):
        f = cost[b]
        if f:
            obj = [v - f * w for v, w in zip(obj, tab[r])]
    status, den = _bland_min(tab, obj, basis, den, n)
    if status == UNBOUNDED:
        return UNBOUNDED, None
    z = [Fraction(0)] * n
    for r, b in enumerate(basis):
        z[b] = Fraction(tab[r][-1], den)
    return OPTIMAL, z


def lp_standard(rows, rhs, cost):
    """Minimize cost . z over {z >= 0 : rows z = rhs}.

    Returns an LPResult whose x is the full nonnegative solution vector.
    """
    status, z = _standard_simplex([list(r) for r in rows], list(rhs), list(cost))
    if status != OPTIMAL:
        return LPResult(status)
    value = sum(Fraction(c) * v for c, v in zip(cost, z))
    return LPResult(OPTIMAL, tuple(z), value)


def lp(c, rows, rhs, maximize=True):
    """Exact LP over free variables x: optimize c . x s.t. rows x <= rhs."""
    d = len(c)
    if d == 0:
        ok = all(b >= 0 for b in rhs)
        return LPResult(OPTIMAL, (), Fraction(0)) if ok else LPResult(INFEASIBLE)
    m1 = len(rows)
    sign = -1 if maximize else 1
    cost = [sign * v for v in c] + [-sign * v for v in c] + [0] * m1
    std_rows = []
    for i, a in enumerate(rows):
        slack = [0] * m1
        slack[i] = 1
        std_rows.append(list(a) + [-v for v in a] + slack)
    status, z = _standard_simplex(std_rows, list(rhs), cost)
    if status != OPTIMAL:
        return LPResult(status)
    x = tuple([z[j] - z[d + j] for j in range(d)])
    return LPResult(OPTIMAL, x, sum(v * xi for v, xi in zip(c, x)))


def interior_point(rows, rhs, dim):
    """Maximize the minimum slack of rows x <= rhs.

    Returns (t, x) where t is the best achievable minimum slack (capped at 1)
    and x attains it.  t < 0 means the system is infeasible, t == 0 means it
    is feasible but has empty interior, t > 0 gives a relative interior point
    of a full-dimensional system.
    """
    if not rows:
        return Fraction(1), tuple(Fraction(0) for _ in range(dim))
    aug_rows = [list(a) + [1] for a in rows] + [[0] * dim + [1]]
    aug_rhs = list(rhs) + [1]
    c = [0] * dim + [1]
    res = lp(c, aug_rows, aug_rhs)
    if res.status != OPTIMAL:
        raise InvariantError("slack program cannot be infeasible or unbounded")
    return res.value, res.x[:dim]


def coordinate_bounds(rows, rhs, j, dim):
    """Range of coordinate j over {x : rows x <= rhs}.

    Returns None for an empty polyhedron, otherwise (lower, upper) where a
    None endpoint marks unboundedness on that side.
    """
    c = [0] * dim
    c[j] = 1
    hi = lp(c, rows, rhs, maximize=True)
    if hi.status == INFEASIBLE:
        return None
    lo = lp(c, rows, rhs, maximize=False)
    return (
        None if lo.status == UNBOUNDED else lo.value,
        None if hi.status == UNBOUNDED else hi.value,
    )


@dataclass(frozen=True)
class HRepPolytope:
    """A x <= b together with optional equalities C x = d, all integer data."""

    rows: tuple
    rhs: tuple
    eq_rows: tuple = ()
    eq_rhs: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple([tuple(r) for r in self.rows]))
        object.__setattr__(self, "rhs", tuple(self.rhs))
        object.__setattr__(self, "eq_rows", tuple([tuple(r) for r in self.eq_rows]))
        object.__setattr__(self, "eq_rhs", tuple(self.eq_rhs))

    @property
    def dim(self) -> int:
        if self.rows:
            return len(self.rows[0])
        if self.eq_rows:
            return len(self.eq_rows[0])
        return 0


@dataclass(frozen=True)
class LatticeChart:
    """Bijective affine chart t -> origin + basis t from Z^k onto Z^n cap {eqs}.

    origin and basis are in the coordinates of parent, the chart this one was
    cut from, or ambient when parent is None; only to_ambient follows the
    chain.  rows/rhs carry the inequality system rewritten in chart
    coordinates, in dedupe_rows' normal form: primitive, no two parallel.
    """

    origin: tuple
    basis: tuple
    rows: tuple
    rhs: tuple
    parent: LatticeChart | None = None

    @property
    def dim(self) -> int:
        return len(self.basis)

    def to_ambient(self, t):
        x = tuple(
            o + sum(bv[i] * tv for bv, tv in zip(self.basis, t))
            for i, o in enumerate(self.origin)
        )
        return x if self.parent is None else self.parent.to_ambient(x)


def _rewrite_rows(rows, rhs, origin, basis):
    """Push a x <= b through x = origin + basis t: rows over t, for dedupe_rows to normalize."""
    out_rows = [tuple([dot(a, bv) for bv in basis]) for a in rows]
    return out_rows, [b - dot(a, origin) for a, b in zip(rows, rhs)]


def dedupe_rows(rows, rhs):
    """Chart rows in their one normal form: primitive, one per direction, first seen first.

    a x <= b becomes (a / g) x <= b / g for g = gcd(a), b / g an int when g
    divides b, and each direction keeps its least bound.  A zero row 0 <= b
    is dropped when b >= 0 and raises InfeasibleLatticeError otherwise.
    """
    best = {}
    for a, b in zip(rows, rhs):
        g = vec_gcd(a)
        if g == 0:
            if b >= 0:
                continue
            raise InfeasibleLatticeError(f"inequality reduces to 0 <= {b} on the equality locus")
        if g > 1:
            a = [v // g for v in a]
            b = Fraction(b, g) if b % g else b // g
        key = tuple(a)
        if key not in best or b < best[key]:
            best[key] = b
    return list(best), list(best.values())


def lattice_chart(poly: HRepPolytope) -> LatticeChart:
    """Solve away the equalities of poly over the integers.

    A row with one nonzero entry c (each row fixing a hive's boundary is one)
    fixes its coordinate to b / c by substitution, which gives a chart over
    the free coordinates, in the order hermite_solve's column swaps would
    give them: one-entry rows get hermite_solve's chart exactly, and its
    inequality rows go straight to dedupe_rows.  The other equality rows,
    rewritten over the free coordinates, are imposed on that chart with
    restrict_chart, whose chart comes back with it as parent.

    Raises InfeasibleLatticeError when the equality system has no integral
    solution or an inequality reduces to an impossible constant.
    """
    x0, order, fixed, general = [0] * poly.dim, list(range(poly.dim)), 0, []
    for row, b in zip(poly.eq_rows, poly.eq_rhs):
        support = [j for j, v in enumerate(row) if v]
        if len(support) != 1:
            general.append((row, b))
            continue
        j = support[0]
        value, rest = divmod(b, row[j])
        p = order.index(j)
        if rest or p < fixed and x0[j] != value:
            raise InfeasibleLatticeError(f"no integral x_{j} meets the equality rows")
        if p >= fixed:
            x0[j], order[p], order[fixed] = value, order[fixed], j
            fixed += 1
    free = order[fixed:]
    rhs = [b - dot(a, x0) for a, b in zip(poly.rows, poly.rhs)]
    rows, rhs = dedupe_rows([[a[j] for j in free] for a in poly.rows], rhs)
    basis = tuple(tuple(int(i == j) for i in range(len(x0))) for j in free)
    chart = LatticeChart(tuple(x0), basis, tuple(rows), tuple(rhs))
    if not general:
        return chart
    sub = [[a[j] for j in free] for a, _ in general]
    return restrict_chart(chart, sub, [b - dot(a, x0) for a, b in general])


def restrict_chart(chart: LatticeChart, eq_rows, eq_rhs) -> LatticeChart:
    """Impose further integral equalities (in chart coordinates) on a chart.

    The returned chart has chart as its parent: its origin and basis are
    hermite_solve's solution and kernel, in chart's coordinates.
    """
    t0, kernel = hermite_solve([list(r) for r in eq_rows], list(eq_rhs))
    rows, rhs = dedupe_rows(*_rewrite_rows(chart.rows, chart.rhs, t0, kernel))
    return LatticeChart(tuple(t0), tuple(map(tuple, kernel)), tuple(rows), tuple(rhs), chart)


def incidence_bitsets(masks, nrows):
    """For each of nrows rows, the bitset with bit j set when masks[j] has that row's bit."""
    on = [0] * nrows
    for j, mask in enumerate(masks):
        while mask:
            low = mask & -mask
            on[low.bit_length() - 1] |= 1 << j
            mask ^= low
    return on


def _in_at_least(on, mask, need, universe):
    """The members of the bitset universe in at least need of the bitsets on[k], k a bit of mask.

    A bit-sliced counter: plane b holds bit b of each member's count, and
    each bitset is added with its carries, before the counts are compared
    with need from the top plane down.
    """
    if need <= 0:
        return universe
    planes = []
    while mask:
        low = mask & -mask
        mask ^= low
        x = on[low.bit_length() - 1] & universe
        for b, plane in enumerate(planes):
            planes[b] = plane ^ x
            x &= plane
            if not x:
                break
        else:
            if x:
                planes.append(x)
    if need >> len(planes):
        return 0
    above, equal = 0, universe
    for b in range(len(planes) - 1, -1, -1):
        if need >> b & 1:
            equal &= planes[b]
        else:
            above |= equal & planes[b]
            equal &= ~planes[b]
    return above | equal


# Below this many current rays, scanning every ray's tight rows for a third
# ray is cheaper than building incidence bitsets: the stretch workload's flat
# charts stay below it, and the paper rows' charts soon pass it.
_SCAN_BELOW = 64


def _scan_pairs(masks, pos, neg, n):
    """(sp, p, j, common) for each adjacent pair of a ray (sp, p, tp) in pos and the j-th ray, j in neg.

    common holds the rows both rays are tight on, and every ray's tight rows
    masks[i] are scanned for a third ray tight on all of them.
    """
    for sp, p, tp in pos:
        for j in neg:
            common = tp & masks[j]
            if common.bit_count() >= n - 2:
                # the pair is tight on common; stop at a third ray that is
                third = islice((m for m in masks if m & common == common), 2, None)
                if next(third, None) is None:
                    yield sp, p, j, common


def _bitset_pairs(masks, pos, neg, n):
    """(sp, p, j, common) as _scan_pairs finds them, read off incidence bitsets.

    on[k] has bit j set when the j-th ray is tight on row k.  The negative
    rays sharing n - 2 rows with a positive ray p come from one count over
    the on[k] of p's rows, and the rays tight on every row of a pair's
    common rows are the AND of their on[k], taken from the set of all rays,
    since common may be empty.  Two pairs tight on the same common make that
    AND hold three rays or more, so a common met twice needs no AND.
    """
    # rows every ray is tight on, as in a flat cone, decide nothing, and
    # only the other rows of positive rays are ever read
    flat, live = -1, 0
    for tight in masks:
        flat &= tight
    for _, _, tight in pos:
        live |= tight
    live &= ~flat
    on = incidence_bitsets([tight & live for tight in masks], live.bit_length())
    everyone = (1 << len(masks)) - 1
    negative = sum(1 << j for j in neg)
    need = n - 2 - flat.bit_count()
    seen = set()
    for sp, p, tp in pos:
        partners = _in_at_least(on, tp & live, need, negative)
        while partners:
            low = partners & -partners
            partners ^= low
            j = low.bit_length() - 1
            common = tp & masks[j]
            if common in seen:
                continue
            seen.add(common)
            shared = everyone
            c = common & live
            while c:
                low = c & -c
                shared &= on[low.bit_length() - 1]
                c ^= low
            if shared.bit_count() == 2:
                yield sp, p, j, common


def _extreme_rays(cone_rows, n):
    """Extreme rays of the cone {y in Q^n : h y <= 0 for every row h}.

    The double description method (Motzkin et al. 1953; Fukuda and Prodon,
    "Double description method revisited", 1996).  The rows go in last to
    first: the rays of the simplicial cone cut out by the first n
    independent rows in that order come from one adjugate, and each other
    row is then added in turn, keeping the rays on its side and joining each
    adjacent pair of rays across it.  The extreme rays do not depend on the
    order, but the intermediate ones do: hive charts list their rhombus rows
    from the apex down, and added from the bottom edge up they stay near the
    final count (at most 392 rays on R6's chart and 90 on the small rank-7
    row's, against about 1,500 and 10,000 in row order).  Rays are primitive
    int vectors, each with the bitmask of the rows it is tight on; two rays
    are adjacent when they share at least n - 2 tight rows and no third ray
    is tight on all of those.  Below _SCAN_BELOW rays the pairs are found by
    scanning (_scan_pairs), above it from incidence bitsets (_bitset_pairs),
    which form no pair only to reject it.

    Returns (ray, mask) pairs in no particular order, ray an int tuple and
    bit i of mask set when ray is tight on row i, or None when the rows have
    rank below n, so that the cone contains a line.
    """
    if n == 0:
        return []
    order = range(len(cone_rows) - 1, -1, -1)
    seed = echelon_pivots(cone_rows, order)
    if len(seed) < n:
        return None
    # border the seed rows on their pivots: the echelon rows project one to
    # one onto their pivots, so every leading block is invertible
    square, pivots = [cone_rows[i] for i in seed], list(seed.values())
    adj, d = [], 1
    for k, (h, p) in enumerate(zip(square, pivots)):
        col = [g[p] for g in square[:k]]
        adj, d = add_row_column(adj, d, col, [h[q] for q in pivots[:k]], h[p])
    # square @ adj = d * I with row k of adj at coordinate pivots[k]: column j
    # of -sign(d) * adj, so placed, is a ray tight on every seed row but the j-th
    sign = -1 if d > 0 else 1
    at = sorted(range(n), key=pivots.__getitem__)
    seed_mask = sum(1 << i for i in seed)
    rays = [
        (primitive([sign * adj[k][j] for k in at]), seed_mask & ~(1 << i))
        for j, i in enumerate(seed)
    ]
    for i in order:
        if i in seed:
            continue
        h, bit = cone_rows[i], 1 << i
        pos, neg, side, kept = [], [], [], []
        for j, (ray, tight) in enumerate(rays):
            s = dot(h, ray)
            side.append(s)
            if s > 0:
                pos.append((s, ray, tight))
            elif s < 0:
                neg.append(j)
                kept.append((ray, tight))
            else:
                kept.append((ray, tight | bit))
        if pos and neg:
            pairs = _scan_pairs if len(rays) < _SCAN_BELOW else _bitset_pairs
            for sp, p, j, common in pairs([tight for _, tight in rays], pos, neg, n):
                q = rays[j][0]
                kept.append((primitive([sp * a - side[j] * b for a, b in zip(q, p)]), common | bit))
        rays = kept
    return rays


def _cone_row(row):
    """row scaled by a positive factor to a primitive int vector; zero stays zero."""
    q = lcm(*[v.denominator for v in row])
    row = [int(v * q) for v in row]
    return primitive(row) if any(row) else tuple(row)


def homogenized_rays(rows, rhs, dim):
    """Extreme rays, with their tight-row masks, of the cone over {x : rows x <= rhs}.

    The cone is {(x, t) : a x - b t <= 0, t >= 0}, each row scaled to a
    primitive int vector and t >= 0 last, so mask bit i < len(rows) stands
    for rows[i].  Its rays with t > 0 are the multiples of (v, 1) for the
    vertices v of the polyhedron (see vertex_of), those with t = 0 its
    extreme recession directions.  None when rows have rank below dim: the
    polyhedron is then empty or contains a line.
    """
    cone = [_cone_row(tuple(a) + (-b,)) for a, b in zip(rows, rhs)]
    cone.append((0,) * dim + (-1,))
    return _extreme_rays(cone, dim + 1)


def vertex_of(ray):
    """The vertex v of a homogenized ray (q v, q) with q > 0."""
    return tuple(Fraction(c, ray[-1]) for c in ray[:-1])


def enumerate_vertices(rows, rhs, dim):
    """All vertices of {x : rows x <= rhs}, sorted, as tuples of Fraction.

    The polyhedron need not be bounded; [] when it has no vertex.
    """
    rays = homogenized_rays(rows, rhs, dim) or []
    return sorted(vertex_of(ray) for ray, _ in rays if ray[-1] > 0)


@dataclass(frozen=True)
class VertexCone:
    """Tangent cone of a polytope at a vertex: apex + primitive extreme rays."""

    apex: tuple
    rays: tuple


def supporting_cone(rows, rhs, vertex) -> VertexCone:
    """Tangent cone {y : a y <= 0 for the rows tight at vertex} of {x : rows x <= rhs}.

    Rows may be rational; _cone_row scales each tight one, keeping the cone.
    Raises ValueError when vertex is not a vertex: it violates a row, or the
    rows tight at it have rank below its dimension.
    """
    apex = tuple(Fraction(v) for v in vertex)
    denom = lcm(*[v.denominator for v in apex])
    vy = [int(v * denom) for v in apex]
    tight = []
    for a, b in zip(rows, rhs):
        slack = b * denom - dot(a, vy)
        if slack < 0:
            raise ValueError(f"{vertex} violates the row {tuple(a)} <= {b}")
        if slack == 0:
            tight.append(_cone_row(a))
    rays = _extreme_rays(tight, len(apex))
    if rays is None:
        raise ValueError(f"{vertex} is not a vertex: its tight rows have rank below {len(apex)}")
    return VertexCone(apex, tuple(sorted(ray for ray, _ in rays)))
