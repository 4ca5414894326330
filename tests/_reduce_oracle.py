"""The chart reduction that counting._reduce replaced, kept as a test oracle.

hnf_lattice_chart is the lattice chart as polyhedra.lattice_chart built it
before one-entry equality rows were substituted: one hermite_solve over every
equality row, or the identity without any, and a dense rewrite of every
inequality through the kernel basis.

lp_reduce maximizes the minimum slack of the chart's rows; a positive optimum
certifies a full-dimensional chart, a negative one an empty polytope, and a
zero optimum leaves a flat one, whose implicit equalities are read off
nonnegative combinations of tight rows that sum to the zero functional and
imposed with restrict_chart before the next round.  assert_bounded then tests
each +-unit vector for membership in the conic hull of the rows, 2 * dim small
feasibility programs.  Together they cost about seven simplex runs per count.

gcd_keyed_dedupe_rows and gcd_keyed_pinned_by_pairs are dedupe_rows and
counting._pinned_by_pairs as they were before dedupe_rows put chart rows in
primitive form: rows keep their common factors, and both key each row by its
primitive direction and compare bounds b / g through its gcd g.
"""

from hivecount.errors import InfeasibleLatticeError, InvariantError, UnboundedError
from hivecount.linalg import dot, hermite_solve, identity, vec_gcd
from hivecount.polyhedra import (
    OPTIMAL,
    LatticeChart,
    _rewrite_rows,
    dedupe_rows,
    interior_point,
    lp_standard,
    restrict_chart,
)


def hnf_lattice_chart(poly):
    """Solve away the equalities of poly with one Hermite normal form."""
    if poly.eq_rows:
        x0, kernel = hermite_solve([list(r) for r in poly.eq_rows], list(poly.eq_rhs))
    else:
        x0, kernel = [0] * poly.dim, identity(poly.dim)
    rows, rhs = _rewrite_rows(poly.rows, poly.rhs, x0, kernel)
    rows, rhs = dedupe_rows(rows, rhs)
    return LatticeChart(tuple(x0), tuple(tuple(k) for k in kernel), tuple(rows), tuple(rhs))


def _implicit_rows(chart, x):
    """Indices of rows certified implicit, given a max-min-slack optimum x.

    A nonnegative combination of rows tight at x that sums to the zero
    functional forces every row in its support to hold with equality on the
    whole polytope, and flat optimality guarantees such a combination exists.
    Certificates are mined until none touches the remaining pool; rows the
    pool misses get caught on the next outer round.
    """
    d = chart.dim
    tight = [
        k for k, (a, b) in enumerate(zip(chart.rows, chart.rhs)) if dot(a, x) == b
    ]
    implicit = set()
    pool = set(tight)
    while pool:
        rows_std = [[chart.rows[k][j] for k in tight] for j in range(d)]
        rows_std.append([1 if k in pool else 0 for k in tight])
        rhs_std = [0] * d + [1]
        res = lp_standard(rows_std, rhs_std, [0] * len(tight))
        if res.status != OPTIMAL:
            break
        newly = {k for k, v in zip(tight, res.x) if v > 0 and k in pool}
        if not newly:
            break
        implicit |= newly
        pool -= newly
    return sorted(implicit)


def lp_reduce(poly):
    """Full-dimensional lattice chart of poly, or None when no lattice points."""
    try:
        chart = hnf_lattice_chart(poly)
        while chart.dim > 0:
            tstar, x = interior_point(chart.rows, chart.rhs, chart.dim)
            if tstar < 0:
                return None
            if tstar > 0:
                return chart
            idx = _implicit_rows(chart, x)
            if not idx:
                raise InvariantError("flat polytope without an implicit equality")
            chart = restrict_chart(
                chart,
                [list(chart.rows[k]) for k in idx],
                [chart.rhs[k] for k in idx],
            )
        return chart
    except InfeasibleLatticeError:
        return None


def assert_bounded(rows, dim):
    """Raise unless {t : rows t <= rhs} is bounded for every right-hand side."""
    cols = [[a[j] for a in rows] for j in range(dim)]
    for j in range(dim):
        for sign in (1, -1):
            target = [sign if i == j else 0 for i in range(dim)]
            res = lp_standard(cols, target, [0] * len(rows))
            if res.status != OPTIMAL:
                raise UnboundedError(
                    f"chart coordinate {j} is unbounded; count is infinite"
                )


def lp_reduce_bounded(poly):
    """lp_reduce, then assert_bounded on a chart of positive dimension, as the count did."""
    chart = lp_reduce(poly)
    if chart is not None and chart.dim > 0:
        assert_bounded(chart.rows, chart.dim)
    return chart


def gcd_keyed_dedupe_rows(rows, rhs):
    """The tightest original row of each direction, with its original bound."""
    best = {}
    for a, b in zip(rows, rhs):
        row = tuple(a)
        g = vec_gcd(row)
        if g == 0:
            if b >= 0:
                continue
            raise InfeasibleLatticeError(f"inequality reduces to 0 <= {b} on the equality locus")
        key = tuple([v // g for v in row])
        cur = best.get(key)
        # b / g < cur_b / cur_g, with both gcds positive
        if cur is None or b * cur[2] < cur[1] * g:
            best[key] = (row, b, g)
    kept = list(best.values())
    return [a for a, _, _ in kept], [b for _, b, _ in kept]


def gcd_keyed_pinned_by_pairs(rows, rhs):
    """(rows, rhs) of the equalities p t = c that opposite rows of gcd_keyed_dedupe_rows pin."""
    bound = {}
    eq_rows, eq_rhs = [], []
    for a, b in zip(rows, rhs):
        g = vec_gcd(a)
        p = tuple([v // g for v in a])
        opposite = bound.get(tuple([-v for v in p]))
        if opposite is None:
            bound[p] = b, g
            continue
        b2, g2 = opposite
        width = b * g2 + b2 * g  # g g' (b / g + b' / g')
        if width < 0:
            return None
        if width == 0:
            c, rest = divmod(b, g)
            if rest:
                return None
            eq_rows.append(p)
            eq_rhs.append(c)
    return eq_rows, eq_rhs
