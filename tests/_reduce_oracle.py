"""The LP chart reduction that counting._reduce replaced, kept as a test oracle.

lp_reduce maximizes the minimum slack of the chart's rows; a positive optimum
certifies a full-dimensional chart, a negative one an empty polytope, and a
zero optimum leaves a flat one, whose implicit equalities are read off
nonnegative combinations of tight rows that sum to the zero functional and
imposed with restrict_chart before the next round.  assert_bounded then tests
each +-unit vector for membership in the conic hull of the rows, 2 * dim small
feasibility programs.  Together they cost about seven simplex runs per count.
"""

from hivecount.errors import InfeasibleLatticeError, InvariantError, UnboundedError
from hivecount.linalg import dot
from hivecount.polyhedra import (
    OPTIMAL,
    interior_point,
    lattice_chart,
    lp_standard,
    restrict_chart,
)


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
        chart = lattice_chart(poly)
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
