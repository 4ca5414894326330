"""Brute-force type A tensor decomposition, used to cross-check the polytope path.

Everything here enumerates small objects directly: weights of an irreducible
via Gelfand-Tsetlin descent, skew tableaux subject to the lattice word rule,
Kostka numbers by constrained fillings.  Klimyk's formula then assembles the
full decomposition of V_lambda (x) V_mu from the weight system of one factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .counting import lr_coefficient
from .errors import CapExceededError, InvariantError, WeightError
from .weights import (
    kostka_to_lr,
    make_triple,
    nonnegative_parts,
    nonzero_length,
    validate_weight,
    weight_size,
    zero_pad,
)

DIRECT = "direct"
HIVE = "hive"

SIZE_CAP = 30

AmbientWeight = tuple[int, ...]


class _Zero:
    """Sentinel for Weyl-orbit terms killed by a nontrivial stabilizer."""

    __slots__ = ()

    def __repr__(self):
        return "ZERO"


ZERO = _Zero()


@dataclass(frozen=True)
class DecompositionTerm:
    nu: AmbientWeight
    multiplicity: int


def _gt_contents(row):
    """Contents (c_1..c_k) of all SSYT whose Gelfand-Tsetlin top row is `row`.

    Rows interlace independently coordinate by coordinate, so each level is a
    product of integer ranges; the letter-k count is the drop in row sum.
    """
    k = len(row)
    total = sum(row)
    if k == 1:
        yield (total,)
        return
    ranges = [range(row[j + 1], row[j] + 1) for j in range(k - 1)]
    for below in product(*ranges):
        head = total - sum(below)
        for rest in _gt_contents(below):
            yield rest + (head,)


def weight_multiplicities(lam, cap: int = SIZE_CAP) -> dict:
    """All weights of the irreducible with highest weight lam, with multiplicity.

    The ambient dimension is len(lam); non-dominant weights appear in the map
    with the multiplicity of their dominant sorting, because the contents of
    semistandard tableaux of shape lam realize the full Weyl-invariant weight
    system.
    """
    lam = validate_weight(lam)
    if weight_size(lam) > cap:
        raise CapExceededError(
            f"|lambda| = {weight_size(lam)} exceeds the brute-force cap {cap}"
        )
    out = {}
    for content in _gt_contents(lam):
        out[content] = out.get(content, 0) + 1
    return out


def dominant_conjugate(w):
    """Sort w into the dominant chamber, tracking the sign of the sorting.

    Returns (sorted_decreasing, sign) with sign the parity of the minimal
    permutation, or ZERO when a coordinate repeats (nontrivial stabilizer, so
    the signed orbit sum cancels).  Entries may be negative; one that is not
    an integer raises WeightError.
    """
    w = tuple(w)
    for x in w:
        if x != int(x):
            raise WeightError(f"part {x!r} of {w} is not an integer")
    w = tuple(map(int, w))
    if len(set(w)) < len(w):
        return ZERO
    inversions = sum(a < b for a, b in combinations(w, 2))
    dom = tuple(sorted(w, reverse=True))
    return dom, (-1 if inversions % 2 else 1)


def klimyk_decompose(lam, mu, cap: int = SIZE_CAP):
    """Decompose V_lam (x) V_mu into irreducibles by Klimyk's formula.

    For each weight eps of V_lam, the vector eps + mu + delta is either
    stabilized (dropped) or sorted with a sign, contributing sign * K_{lam,eps}
    to the multiplicity of its shifted sorting.  delta is the staircase
    (n-1, ..., 1, 0).  Only the weights of the first factor are enumerated, so
    the cap applies to |lam|.
    """
    lam = validate_weight(lam)
    mu = validate_weight(mu)
    n = max(len(lam), len(mu))
    lam = zero_pad(lam, n)
    mu = zero_pad(mu, n)
    delta = tuple(range(n - 1, -1, -1))
    acc = {}
    for eps, k in weight_multiplicities(lam, cap=cap).items():
        v = tuple(eps[i] + mu[i] + delta[i] for i in range(n))
        res = dominant_conjugate(v)
        if res is ZERO:
            continue
        dom, sign = res
        nu = tuple(dom[i] - delta[i] for i in range(n))
        acc[nu] = acc.get(nu, 0) + sign * k
    terms = []
    for nu in sorted(acc, reverse=True):
        m = acc[nu]
        if m == 0:
            continue
        if m < 0:
            raise InvariantError(f"negative multiplicity {m} at {nu}; signed sum is wrong")
        terms.append(DecompositionTerm(nu, m))
    return terms


def _count_fillings(inner, outer, content, lattice):
    """Semistandard fillings of the skew shape outer/inner with the given content.

    inner and outer have the same length.  Cells are filled in reverse reading
    order (each row right to left, rows top to bottom), so both neighbours
    that bound a cell are placed before it: its value is at most its right
    neighbour's and more than the value above it.  Every placement extends a
    prefix of the reading word; with lattice set, that prefix must stay a
    lattice word, checked incrementally.
    """
    letters = len(content)
    order = [(i, j) for i in range(len(outer)) for j in range(outer[i] - 1, inner[i] - 1, -1)]
    grid = [[0] * row for row in outer]
    counts = [0] * (letters + 1)
    total = 0

    def place(k):
        nonlocal total
        if k == len(order):
            total += 1
            return
        i, j = order[k]
        hi = grid[i][j + 1] if j + 1 < outer[i] else letters
        lo = grid[i - 1][j] + 1 if i > 0 and j >= inner[i - 1] else 1
        for v in range(lo, hi + 1):
            if counts[v] >= content[v - 1]:
                continue
            if lattice and v >= 2 and counts[v - 1] <= counts[v]:
                continue
            counts[v] += 1
            grid[i][j] = v
            place(k + 1)
            counts[v] -= 1

    place(0)
    return total


def lr_tableau_count(lam, mu, nu, cap: int = SIZE_CAP) -> int:
    """Count skew semistandard fillings of nu/lam, content mu, lattice word.

    The cap bounds the number of cells filled, |mu|.
    """
    lam = validate_weight(lam)
    mu = validate_weight(mu)
    nu = validate_weight(nu)
    if weight_size(nu) != weight_size(lam) + weight_size(mu):
        return 0
    n = max(len(lam), len(nu))
    lam = zero_pad(lam, n)
    nu = zero_pad(nu, n)
    if any(lam[i] > nu[i] for i in range(n)):
        return 0
    cells = weight_size(mu)
    if cells > cap:
        raise CapExceededError(f"|mu| = {cells} exceeds the brute-force cap {cap}")
    return _count_fillings(lam, nu, mu[: nonzero_length(mu)], lattice=True)


def kostka(lam, mu, via: str = DIRECT, cap: int = SIZE_CAP) -> int:
    """Kostka number K_{lam,mu}: fillings of shape lam with content mu.

    mu may be any nonnegative content vector.  DIRECT enumerates the fillings;
    HIVE rewrites K_{lam,mu} as the coefficient c_{sigma,lam}^tau with
    (sigma, tau) the suffix sums of mu and counts the hive polytope.
    """
    lam = validate_weight(lam)
    mu = nonnegative_parts(mu)
    if weight_size(lam) != sum(mu):
        return 0
    if via == HIVE:
        sigma, tau = kostka_to_lr(lam, mu)
        return lr_coefficient(make_triple(sigma, lam, tau))
    if via != DIRECT:
        raise ValueError(f"unknown kostka path {via!r}")
    if weight_size(lam) > cap:
        raise CapExceededError(
            f"|lambda| = {weight_size(lam)} exceeds the brute-force cap {cap}"
        )
    return _count_fillings((0,) * len(lam), lam, mu, lattice=False)
