"""Rational polyhedra: exact LP, lattice charts, vertices, and tangent cones.

All arithmetic is done with Fraction or int; nothing here is approximate.
Inequality systems are stored as (rows, rhs) meaning rows @ x <= rhs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import InfeasibleLatticeError, InvariantError
from .linalg import adjugate, dot, hermite_solve, primitive, rank, vec_gcd

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


def lp(c, rows, rhs, eq_rows=(), eq_rhs=(), maximize=True):
    """Exact LP over free variables x: optimize c . x s.t. rows x <= rhs, eq_rows x = eq_rhs."""
    d = len(c)
    if d == 0:
        ok = all(b >= 0 for b in rhs) and all(b == 0 for b in eq_rhs)
        return LPResult(OPTIMAL, (), Fraction(0)) if ok else LPResult(INFEASIBLE)
    m1 = len(rows)
    sign = -1 if maximize else 1
    cost = [sign * v for v in c] + [-sign * v for v in c] + [0] * m1
    std_rows = []
    std_rhs = []
    for i, (a, b) in enumerate(zip(rows, rhs)):
        slack = [0] * m1
        slack[i] = 1
        std_rows.append(list(a) + [-v for v in a] + slack)
        std_rhs.append(b)
    for a, b in zip(eq_rows, eq_rhs):
        std_rows.append(list(a) + [-v for v in a] + [0] * m1)
        std_rhs.append(b)
    status, z = _standard_simplex(std_rows, std_rhs, cost)
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

    rows/rhs carry the inequality system rewritten in chart coordinates, with
    constant rows already removed.
    """

    origin: tuple
    basis: tuple
    rows: tuple
    rhs: tuple

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def ambient_dim(self) -> int:
        return len(self.origin)

    def to_ambient(self, t):
        return tuple(
            o + sum(bv[i] * tv for bv, tv in zip(self.basis, t))
            for i, o in enumerate(self.origin)
        )


def _rewrite_rows(rows, rhs, origin, basis):
    """Push a x <= b through x = origin + basis t; drops satisfied constant rows."""
    out_rows = []
    out_rhs = []
    for a, b in zip(rows, rhs):
        new_row = tuple([dot(a, bv) for bv in basis])
        new_rhs = b - dot(a, origin)
        if any(new_row):
            out_rows.append(new_row)
            out_rhs.append(new_rhs)
        elif new_rhs < 0:
            raise InfeasibleLatticeError(
                f"inequality reduces to 0 <= {new_rhs} on the equality locus"
            )
    return out_rows, out_rhs


def dedupe_rows(rows, rhs):
    """Keep only the tightest representative of each parallel inequality class."""
    best = {}
    for a, b in zip(rows, rhs):
        key = primitive(a)
        g = vec_gcd(a)
        cur = best.get(key)
        # b / g < cur_b / cur_g, with both gcds positive
        if cur is None or b * cur[2] < cur[1] * g:
            best[key] = (tuple(a), b, g)
    kept = list(best.values())
    return [a for a, _, _ in kept], [b for _, b, _ in kept]


def lattice_chart(poly: HRepPolytope) -> LatticeChart:
    """Solve away the equalities of poly over the integers.

    Raises InfeasibleLatticeError when the equality system has no integral
    solution or an inequality reduces to an impossible constant.
    """
    n = poly.dim
    if poly.eq_rows:
        x0, kernel = hermite_solve([list(r) for r in poly.eq_rows], list(poly.eq_rhs))
    else:
        x0 = [0] * n
        kernel = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    rows, rhs = _rewrite_rows(poly.rows, poly.rhs, x0, kernel)
    rows, rhs = dedupe_rows(rows, rhs)
    return LatticeChart(tuple(x0), tuple(tuple(k) for k in kernel), tuple(rows), tuple(rhs))


def restrict_chart(chart: LatticeChart, eq_rows, eq_rhs) -> LatticeChart:
    """Impose further integral equalities (in chart coordinates) on a chart."""
    t0, kernel = hermite_solve([list(r) for r in eq_rows], list(eq_rhs))
    origin = chart.to_ambient(t0)
    basis = tuple(
        tuple(sum(bv[i] * kv for bv, kv in zip(chart.basis, k)) for i in range(chart.ambient_dim))
        for k in kernel
    )
    rows, rhs = _rewrite_rows(chart.rows, chart.rhs, t0, kernel)
    rows, rhs = dedupe_rows(rows, rhs)
    return LatticeChart(origin, basis, tuple(rows), tuple(rhs))


def _extreme_rays(cone_rows, n):
    """Extreme rays of the cone {y in Q^n : h y <= 0 for every row h}.

    The double description method (Motzkin et al. 1953; Fukuda and Prodon,
    "Double description method revisited", 1996).  The rays of the simplicial
    cone cut out by the first n independent rows come from one adjugate; the
    other rows are then added one at a time, keeping the rays on their side
    and joining each adjacent pair of rays across them.  Rays are primitive
    int vectors, each with the bitmask of the rows it is tight on; two rays
    are adjacent when they share at least n - 2 tight rows and no third ray
    is tight on all of those.

    Returns (ray, mask) pairs in no particular order, ray an int tuple and
    bit i of mask set when ray is tight on row i, or None when the rows have
    rank below n, so that the cone contains a line.
    """
    if n == 0:
        return []
    seed = []
    for i, h in enumerate(cone_rows):
        if rank([cone_rows[j] for j in seed] + [h]) > len(seed):
            seed.append(i)
            if len(seed) == n:
                break
    else:
        return None
    square = [cone_rows[i] for i in seed]
    adj = adjugate(square)
    # square @ adj = det * I, so the columns of -sign(det) * adj are the rays,
    # column j tight on every seed row but the j-th.
    sign = -1 if dot(square[0], [r[0] for r in adj]) > 0 else 1
    seed_mask = sum(1 << i for i in seed)
    rays = [
        (primitive([sign * r[j] for r in adj]), seed_mask & ~(1 << i))
        for j, i in enumerate(seed)
    ]
    for i, h in enumerate(cone_rows):
        if i in seed:
            continue
        bit = 1 << i
        pos, neg, kept = [], [], []
        for ray, tight in rays:
            s = dot(h, ray)
            if s > 0:
                pos.append((s, ray, tight))
            elif s < 0:
                neg.append((s, ray, tight))
                kept.append((ray, tight))
            else:
                kept.append((ray, tight | bit))
        if pos and neg:
            masks = [tight for _, tight in rays]
            for sp, p, tp in pos:
                for sn, q, tq in neg:
                    common = tp & tq
                    if common.bit_count() < n - 2:
                        continue
                    if sum(m & common == common for m in masks) == 2:
                        ray = primitive([sp * a - sn * b for a, b in zip(q, p)])
                        kept.append((ray, common | bit))
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
            tight.append(tuple(a))
    rays = _extreme_rays(tight, len(apex))
    if rays is None:
        raise ValueError(f"{vertex} is not a vertex: its tight rows have rank below {len(apex)}")
    return VertexCone(apex, tuple(sorted(ray for ray, _ in rays)))
