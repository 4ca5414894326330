"""Highest weights for type A: partitions, triples, and the Kostka-to-LR reindexing.

A weight is a weakly decreasing tuple of nonnegative integers.  A triple
(lambda, mu, nu) at rank r is stored with exactly r + 1 parts each; the hive
triangle built from it has side r, so every weight may use at most r nonzero
parts.  Zero padding never changes any coefficient computed downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import WeightError

Weight = tuple[int, ...]


def nonnegative_parts(parts) -> tuple[int, ...]:
    """The parts as ints; raises WeightError naming a part that is not a nonnegative integer."""
    parts = tuple(parts)
    for x in parts:
        if x != int(x) or x < 0:
            raise WeightError(f"part {x!r} of {parts} is not a nonnegative integer")
    return tuple(map(int, parts))


def validate_weight(parts) -> Weight:
    """Check integrality, nonnegativity and weak decrease; return a normalized tuple."""
    w = nonnegative_parts(parts)
    for a, b in zip(w, w[1:]):
        if a < b:
            raise WeightError(f"weight {w} is not weakly decreasing")
    return w


def parse_parts(text: str) -> tuple[int, ...]:
    """Parse a comma-separated list of integers in any order, such as '1,3,0'."""
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError as exc:
        raise WeightError(f"cannot parse weight {text!r}: each field must be an integer") from exc


def parse_weight(text: str) -> Weight:
    """Parse a comma-separated weight such as '9,7,3,0,0'."""
    return validate_weight(parse_parts(text))


def weight_size(w) -> int:
    return sum(w)


def zero_pad(w, length: int) -> Weight:
    w = tuple(w)
    if len(w) > length:
        if any(x != 0 for x in w[length:]):
            raise WeightError(f"weight {w} has more than {length} nonzero parts")
        return w[:length]
    return w + (0,) * (length - len(w))


def nonzero_length(w) -> int:
    n = len(w)
    while n > 0 and w[n - 1] == 0:
        n -= 1
    return n


def dilate(w, n: int) -> Weight:
    if n < 0:
        raise WeightError(f"dilation factor {n} is negative")
    return tuple(n * x for x in w)


def partial_sums(w) -> tuple[int, ...]:
    """Prefix sums (w1, w1+w2, ...), same length as w."""
    out = []
    acc = 0
    for x in w:
        acc += x
        out.append(acc)
    return tuple(out)


@dataclass(frozen=True)
class WeightTriple:
    """Input triple for a rank-r hive: each weight stored with r + 1 parts.

    The last stored part of each weight must be zero; a weight with r + 1
    nonzero parts needs a rank-(r+1) triple instead (pad and re-declare).
    """

    lam: Weight
    mu: Weight
    nu: Weight
    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise WeightError(f"rank {self.rank} must be >= 1")
        for name, w in (("lambda", self.lam), ("mu", self.mu), ("nu", self.nu)):
            validate_weight(w)
            if len(w) != self.rank + 1:
                raise WeightError(
                    f"{name} = {w} has {len(w)} parts, expected rank + 1 = {self.rank + 1}"
                )
            if w[-1] != 0:
                raise WeightError(
                    f"{name} = {w} uses {self.rank + 1} nonzero parts; rank {self.rank} "
                    f"admits at most {self.rank}"
                )

    @property
    def sizes(self) -> tuple[int, int, int]:
        return (weight_size(self.lam), weight_size(self.mu), weight_size(self.nu))


def make_triple(lam, mu, nu, rank: int | None = None) -> WeightTriple:
    """Build a WeightTriple, inferring rank from the most nonzero parts of a weight."""
    lam, mu, nu = validate_weight(lam), validate_weight(mu), validate_weight(nu)
    if rank is None:
        rank = max(nonzero_length(lam), nonzero_length(mu), nonzero_length(nu), 1)
    return WeightTriple(
        zero_pad(lam, rank + 1), zero_pad(mu, rank + 1), zero_pad(nu, rank + 1), rank
    )


def dilate_triple(t: WeightTriple, n: int) -> WeightTriple:
    return WeightTriple(dilate(t.lam, n), dilate(t.mu, n), dilate(t.nu, n), t.rank)


def kostka_to_lr(lam, mu) -> tuple[Weight, Weight]:
    """Rewrite the Kostka number K_{lam,mu} as an LR coefficient c_{sigma,lam}^tau.

    mu is a content vector (any nonnegative integers, order significant);
    tau_i = mu_i + mu_{i+1} + ... and sigma_i = mu_{i+1} + ... are the suffix
    sums, so tau - sigma = mu and both are partitions.  Requires |lam| = |mu|.
    """
    lam = validate_weight(lam)
    mu = nonnegative_parts(mu)
    if weight_size(lam) != weight_size(mu):
        raise WeightError(
            f"|lambda| = {weight_size(lam)} differs from |mu| = {weight_size(mu)}"
        )
    n = max(len(lam), len(mu), 1)
    mu = mu + (0,) * (n - len(mu))
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + mu[i]
    tau = tuple(suffix[:n])
    sigma = tuple(suffix[1:])
    return sigma, tau
