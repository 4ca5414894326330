"""Exact linear algebra over the integers, on plain lists.

Everything here is deterministic and every division is exact: an incremental
integer echelon that picks the independent vectors of a sequence (and so
gives ranks), exact bordering and rank-one updates of an adjugate, which
build every adjugate in the package from the empty matrix along such an
echelon, column-style Hermite reduction for integral solves and kernel
bases, and an integral LLL reduction used by the cone decomposition.
"""

from __future__ import annotations

from math import gcd
from operator import mul

from .errors import InfeasibleLatticeError


def dot(u, v):
    return sum(map(mul, u, v))


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def vec_gcd(v) -> int:
    return gcd(*v)


def primitive(v) -> tuple[int, ...]:
    """Divide a nonzero integer vector by the gcd of its entries."""
    g = vec_gcd(v)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple([x // g for x in v])


def echelon_pivots(vectors, order):
    """{idx: pivot}, in order, for each vectors[idx] outside the span of those before it.

    Each such vector is reduced to a primitive echelon row, zero at every
    earlier pivot, so the rows project one to one onto their pivots.  The
    scan stops once the rows span the whole space.
    """
    echelon = []
    pivot_of = {}
    for idx in order:
        w = list(vectors[idx])
        for p, e in echelon:
            if w[p]:
                w = [e[p] * x - w[p] * y for x, y in zip(w, e)]
        if any(w):
            pivot_of[idx] = p = next(i for i, x in enumerate(w) if x)
            echelon.append((p, primitive(w)))
            if len(echelon) == len(w):
                break
    return pivot_of


def replace_column(adj, d, i, b):
    """(adjugate, determinant) once column i of a matrix with (adj, d != 0) becomes w, b = adj w.

    Row i stays, row k becomes (b_i adj_k - b_k adj_i) / d, an exact division,
    and the determinant is b_i.
    """
    ai, bi = adj[i], b[i]
    return [
        row if k == i else [(bi * x - bk * y) // d for x, y in zip(row, ai)]
        for k, (row, bk) in enumerate(zip(adj, b))
    ], bi


def add_row_column(adj, d, col, row, corner):
    """(adjugate, determinant) of [[A, col], [row, corner]] from those (adj, d != 0) of A.

    With beta = adj col and alpha = row adj, the determinant is d corner - row beta = delta
    and the adjugate [[(delta adj + beta alpha) / d, -beta], [-alpha, d]], divisions exact.
    """
    beta = [dot(r, col) for r in adj]
    alpha = [dot(row, c) for c in zip(*adj)]
    delta = d * corner - dot(row, beta)
    return [
        [(delta * x + bk * ak) // d for x, ak in zip(r, alpha)] + [-bk]
        for r, bk in zip(adj, beta)
    ] + [[-ak for ak in alpha] + [d]], delta


def hermite_solve(rows, b):
    """Integral solution of A x = b: (x0, kernel basis columns).

    Column operations tracked in a unimodular U give A U = H with H in column
    echelon form; back substitution in H either produces an integral solution
    or proves none exists.  The returned kernel vectors form a lattice basis
    of the integral nullspace of A.  Raises InfeasibleLatticeError when the
    system has no integral solution (including rational infeasibility).
    """
    n_rows = len(rows)
    if n_rows == 0:
        raise ValueError("pass explicit ambient dimension via a zero row")
    n_cols = len(rows[0])
    # Work with columns as first-class vectors.
    W = [[rows[i][c] for i in range(n_rows)] for c in range(n_cols)]
    U = [[1 if i == c else 0 for i in range(n_cols)] for c in range(n_cols)]
    col_start = 0
    pivots = []  # (row, column position)
    for row_i in range(n_rows):
        active = [c for c in range(col_start, n_cols) if W[c][row_i] != 0]
        while len(active) > 1:
            active.sort(key=lambda c: abs(W[c][row_i]))
            base = active[0]
            pv = W[base][row_i]
            nxt = []
            for c in active[1:]:
                q = W[c][row_i] // pv
                if q:
                    W[c] = [a - q * bb for a, bb in zip(W[c], W[base])]
                    U[c] = [a - q * bb for a, bb in zip(U[c], U[base])]
                if W[c][row_i] != 0:
                    nxt.append(c)
            active = [base] + nxt
        if not active:
            continue
        c = active[0]
        if W[c][row_i] < 0:
            W[c] = [-v for v in W[c]]
            U[c] = [-v for v in U[c]]
        if c != col_start:
            W[c], W[col_start] = W[col_start], W[c]
            U[c], U[col_start] = U[col_start], U[c]
        pivots.append((row_i, col_start))
        col_start += 1
    # Solve H y = b over the pivot columns.
    y = [0] * n_cols
    pivot_rows = {row_i: cpos for row_i, cpos in pivots}
    for row_i in range(n_rows):
        residual = b[row_i] - sum(W[c][row_i] * y[c] for _, c in pivots if W[c][row_i])
        if row_i in pivot_rows:
            c = pivot_rows[row_i]
            pv = W[c][row_i]
            # W[c][row_i'] = 0 for every earlier pivot or skipped row, so the
            # residual here involves only already-determined y values.
            if residual % pv != 0:
                raise InfeasibleLatticeError(
                    f"row {row_i}: {pv} does not divide residual {residual}"
                )
            y[c] = residual // pv
        elif residual != 0:
            raise InfeasibleLatticeError(f"row {row_i}: inconsistent residual {residual}")
    x0 = [sum(U[c][i] * y[c] for c in range(n_cols) if y[c]) for i in range(n_cols)]
    kernel = [list(U[c]) for c in range(col_start, n_cols)]
    return x0, kernel


def integer_kernel(rows):
    """Lattice basis of the integral nullspace {x : A x = 0}."""
    n_rows = len(rows)
    x0, kernel = hermite_solve(rows, [0] * n_rows)
    return kernel


def lll_reduce(basis):
    """Lenstra-Lenstra-Lovasz reduction of linearly independent integer rows.

    Integral LLL (de Weger 1987; Cohen, "A Course in Computational Algebraic
    Number Theory", Alg. 2.6.7): d[i] is the Gram determinant of the first i
    rows and lam[k][j] = d[j + 1] * mu[k][j] is the integral Gram-Schmidt
    coefficient; both are updated in place by every size reduction and swap,
    with exact divisions only.  At each k the row is size-reduced against
    j = k-1, ..., 0 (mu rounded half to even) before the Lovasz test with
    delta = 3/4, and a failed test swaps rows k-1 and k; this step order
    fixes the output.
    """
    b = [list(v) for v in basis]
    n = len(b)
    if n <= 1:
        return b
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for k in range(n):
        for j in range(k + 1):
            u = dot(b[k], b[j])
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            else:
                d[k + 1] = u
        if d[k + 1] == 0:
            raise ValueError("LLL input rows are dependent")
    k = 1
    while k < n:
        lk = lam[k]
        for j in range(k - 1, -1, -1):
            q, r = divmod(lk[j], d[j + 1])
            if 2 * r > d[j + 1] or (2 * r == d[j + 1] and q & 1):
                q += 1
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                lk[j] -= q * d[j + 1]
                lj = lam[j]
                for i in range(j):
                    lk[i] -= q * lj[i]
        t = lk[k - 1]
        if 4 * (d[k + 1] * d[k - 1] + t * t) >= 3 * d[k] * d[k]:
            k += 1
            continue
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            lk[j], lam[k - 1][j] = lam[k - 1][j], lk[j]
        new_d = (d[k - 1] * d[k + 1] + t * t) // d[k]
        for i in range(k + 1, n):
            li = lam[i]
            old = li[k]
            li[k] = (d[k + 1] * li[k - 1] - t * old) // d[k]
            li[k - 1] = (new_d * old + t * li[k]) // d[k + 1]
        d[k] = new_d
        k = max(k - 1, 1)
    return b
