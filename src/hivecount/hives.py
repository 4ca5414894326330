"""Hive patterns and the linear systems whose lattice points they count.

A rank-r hive is a triangular array h_{ijk} with i + j + k = r, displayed with
the apex h_{00r} on top, i growing down-left and j growing down-right.  Three
families of rhombus inequalities make the array a hive pattern; fixing the
boundary to the partial sums of a weight triple carves out the hive polytope,
whose integral points count the tensor multiplicity of the triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import SizeMismatchError
from .weights import WeightTriple, dilate_triple, partial_sums

Index = tuple[int, int, int]


def hive_indices(rank: int) -> list[Index]:
    """All (i, j, k) with i + j + k = rank, row by row from the apex, left to right."""
    out = []
    for t in range(rank + 1):
        for j in range(t + 1):
            out.append((t - j, j, rank - t))
    return out


@lru_cache(maxsize=None)
def rhombus_constraints(rank: int) -> tuple[tuple[int, ...], ...]:
    """Rows w with w . h <= 0 expressing the three rhombus families.

    The rows depend only on the rank, so they are built once per rank and
    shared, as a tuple that no caller can change.

    For each index with i, j >= 1, taken in variable order, the three rows
    assert, in order:

        h[i,j-1,k+1] + h[i-1,j+1,k]   <= h[i,j,k]     + h[i-1,j,k+1]
        h[i,j,k]     + h[i-1,j-1,k+2] <= h[i,j-1,k+1] + h[i-1,j,k+1]
        h[i+1,j-1,k] + h[i-1,j,k+1]   <= h[i,j,k]     + h[i,j-1,k+1]

    Every row has exactly two +1 and two -1 entries.
    """
    order = hive_indices(rank)
    pos = {idx: c for c, idx in enumerate(order)}
    rows = []

    def row(plus_a, plus_b, minus_a, minus_b):
        r = [0] * len(order)
        r[pos[plus_a]] += 1
        r[pos[plus_b]] += 1
        r[pos[minus_a]] -= 1
        r[pos[minus_b]] -= 1
        return tuple(r)

    for (i, j, k) in order:
        if i < 1 or j < 1:
            continue
        rows.append(row((i, j - 1, k + 1), (i - 1, j + 1, k), (i, j, k), (i - 1, j, k + 1)))
        rows.append(row((i, j, k), (i - 1, j - 1, k + 2), (i, j - 1, k + 1), (i - 1, j, k + 1)))
        rows.append(row((i + 1, j - 1, k), (i - 1, j, k + 1), (i, j, k), (i, j - 1, k + 1)))
    return tuple(rows)


def boundary_constraints(triple: WeightTriple) -> tuple[list[tuple[int, ...]], list[int]]:
    """One-hot rows B and right-hand sides fixing the hive boundary.

    Order: apex (set to 0), then the lambda edge down the right side, then the
    mu edge along the bottom from the right corner, then the nu edge down the
    left side.  The bottom-left corner is fixed twice, once by each of the mu
    and nu edges; consistency of the two rows is exactly |nu| = |lambda| + |mu|.
    """
    a, b, c = triple.sizes
    if c != a + b:
        raise SizeMismatchError(f"|nu| = {c} but |lambda| + |mu| = {a + b}")
    r = triple.rank
    order = hive_indices(r)
    pos = {idx: col for col, idx in enumerate(order)}
    lam_sums = partial_sums(triple.lam)
    mu_sums = partial_sums(triple.mu)
    nu_sums = partial_sums(triple.nu)

    rows: list[tuple[int, ...]] = []
    rhs: list[int] = []

    def fix(idx: Index, value: int):
        row = [0] * len(order)
        row[pos[idx]] = 1
        rows.append(tuple(row))
        rhs.append(value)

    fix((0, 0, r), 0)
    for t in range(1, r + 1):
        fix((0, t, r - t), lam_sums[t - 1])
    base = lam_sums[r - 1]
    for t in range(1, r + 1):
        fix((t, r - t, 0), base + mu_sums[t - 1])
    for t in range(1, r + 1):
        fix((t, 0, r - t), nu_sums[t - 1])
    return rows, rhs


@dataclass(frozen=True)
class HiveConstraintSystem:
    """Equalities B h = rhs_b and inequalities R h <= 0 over the hive entries."""

    rank: int
    variable_order: tuple[Index, ...]
    B: tuple[tuple[int, ...], ...]
    rhs_b: tuple[int, ...]
    R: tuple[tuple[int, ...], ...]


def build_hive_polytope(triple: WeightTriple) -> HiveConstraintSystem:
    B, rhs = boundary_constraints(triple)
    return HiveConstraintSystem(
        rank=triple.rank,
        variable_order=tuple(hive_indices(triple.rank)),
        B=tuple(B),
        rhs_b=tuple(rhs),
        R=rhombus_constraints(triple.rank),
    )


def homogenize(system: HiveConstraintSystem):
    """Slack form M x = b, x >= 0 with M = [[B, 0], [R, I]].

    Hive entries are nonnegative whenever the boundary weights are, and the
    slacks -R h are nonnegative exactly on hive patterns, so the lattice
    points of the hive polytope inject into this standard-form polytope.
    """
    n_hive = len(system.variable_order)
    n_slack = len(system.R)
    rows = []
    for r in system.B:
        rows.append(tuple(r) + (0,) * n_slack)
    for s, r in enumerate(system.R):
        slack = [0] * n_slack
        slack[s] = 1
        rows.append(tuple(r) + tuple(slack))
    rhs = tuple(system.rhs_b) + (0,) * n_slack
    return tuple(rows), rhs


def dilation_rhs_identity(triple: WeightTriple, n: int) -> bool:
    """Check that dilating the triple by n scales the boundary rhs by n.

    The coefficient blocks B and R must come back unchanged; only the
    right-hand side moves, and it moves linearly.
    """
    base = build_hive_polytope(triple)
    scaled = build_hive_polytope(dilate_triple(triple, n))
    return (
        scaled.B == base.B
        and scaled.R == base.R
        and scaled.rhs_b == tuple(n * v for v in base.rhs_b)
    )


@dataclass(frozen=True)
class HivePattern:
    """A complete triangular array of rational values."""

    rank: int
    entries: dict[Index, Fraction]

    def __post_init__(self):
        expected = set(hive_indices(self.rank))
        if set(self.entries) != expected:
            raise ValueError(f"entry set does not cover the rank-{self.rank} triangle")

    @classmethod
    def from_rows(cls, rows) -> "HivePattern":
        rank = len(rows) - 1
        entries = {}
        for t, row in enumerate(rows):
            if len(row) != t + 1:
                raise ValueError(f"display row {t} has {len(row)} entries, expected {t + 1}")
            for j, v in enumerate(row):
                entries[(t - j, j, rank - t)] = Fraction(v)
        return cls(rank, entries)

    def vector(self) -> tuple[Fraction, ...]:
        return tuple(self.entries[idx] for idx in hive_indices(self.rank))


def is_hive_pattern(p: HivePattern) -> bool:
    """True when every rhombus inequality holds."""
    vec = p.vector()
    for row in rhombus_constraints(p.rank):
        if sum(c * v for c, v in zip(row, vec) if c) > 0:
            return False
    return True

