"""The benchmark's workloads: seeded inputs, the timed call, and its checks.

Each workload builds its items from a random.Random seeded by the run, calls
one public hivecount function per item with default arguments, and checks
every output against a reference made apart from the counting code: a
published value, the LR tableau rule, or a property the method must have.
"""

from __future__ import annotations

import json
from itertools import combinations_with_replacement
from pathlib import Path

# Rank-5 rows of the paper's table with their published coefficients; weight
# entries are about 1e1, 1e2, 1e3 and 1e6.  The 1e1 row costs 0.3 s: with it
# the median call is the mean of the 1e2 and 1e6 rows, which lie within a
# noisy machine's run-to-run spread of each other, rather than either one.
# It alone makes the self-test's round.
TINY_PAPER_ROW = ((9, 7, 3, 0, 0), (9, 9, 3, 2, 0), (10, 9, 9, 8, 6), 2)
PAPER_ROWS = (
    TINY_PAPER_ROW,
    ((73, 58, 41, 21, 4), (77, 61, 46, 27, 1), (124, 117, 71, 52, 45), 557744),
    ((935, 639, 283, 75, 48), (921, 683, 386, 136, 21), (1529, 1142, 743, 488, 225),
     1303088213330),
    ((859647, 444276, 283294, 33686, 24714), (482907, 437967, 280801, 79229, 26997),
     (1120207, 699019, 624861, 351784, 157647), 11711220003870071391294871475),
)

STRETCH_POOL = Path(__file__).with_name("stretch_pool.json")


def partitions_in_box(parts, max_entry):
    """All weakly decreasing tuples of the given length with entries <= max_entry."""
    return [
        tuple(reversed(c))
        for c in combinations_with_replacement(range(max_entry + 1), parts)
    ]


def partitions_of(total, parts, largest):
    """Weakly decreasing tuples of the given length, parts <= largest, summing to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(total, largest), -1, -1):
        if first * parts < total:
            break
        for rest in partitions_of(total - first, parts - 1, first):
            yield (first,) + rest


def tensor_support(hc, lam, mu):
    """[(nu, c)] with c = c_{lam,mu}^nu > 0 by the LR tableau rule, len(nu) = len(lam)."""
    out = []
    for nu in partitions_of(sum(lam) + sum(mu), len(lam), lam[0] + mu[0]):
        if all(a <= b for a, b in zip(lam, nu)) and all(a <= b for a, b in zip(mu, nu)):
            c = hc.lr_tableau_count(lam, mu, nu, cap=sum(mu))
            if c:
                out.append((nu, c))
    return out


def tableau_count(hc, triple, n=1):
    """c_{n.lam, n.mu}^{n.nu} by the LR tableau rule, which uses no polyhedra."""
    lam, mu, nu = ([n * x for x in w] for w in (triple.lam, triple.mu, triple.nu))
    return hc.lr_tableau_count(lam, mu, nu, cap=sum(mu))


def describe_triple(t):
    return f"lambda={t.lam} mu={t.mu} nu={t.nu}"


class PaperTable:
    """Rank-5 rows of the paper's table; the seed only orders them."""

    name = "paper_table"

    def __init__(self, size):
        self.rows = PAPER_ROWS if size == "full" else (TINY_PAPER_ROW,)

    def build(self, hc, rng):
        items = [(hc.make_triple(lam, mu, nu), value) for lam, mu, nu, value in self.rows]
        rng.shuffle(items)
        return items

    def call(self, hc, item):
        return hc.lr_coefficient(item[0])

    def reference(self, hc, item):
        return item[1]

    def check(self, hc, item, out, ref):
        if out != ref:
            return f"counted {out}, the paper gives {ref}"
        return None

    def describe(self, item):
        return describe_triple(item[0])


class SaturationBatch:
    """Small triples: half uniform size-consistent draws, half from the tensor support.

    One triple in five has 5 parts, the rest 4: a 5-part chart reduction costs
    about five times a 4-part one, and this mix puts the median call among the
    4-part triples and the 90th percentile well inside the 5-part ones.
    """

    name = "saturation_batch"

    def __init__(self, size):
        self.per_half, self.max_entry = (60, 3) if size == "full" else (3, 2)

    def build(self, hc, rng):
        boxes = {parts: partitions_in_box(parts, self.max_entry) for parts in (4, 5)}
        items = []
        for k in range(self.per_half):
            box = boxes[5 if k % 5 == 4 else 4]
            while True:
                lam, mu, nu = rng.choice(box), rng.choice(box), rng.choice(box)
                if sum(nu) == sum(lam) + sum(mu):
                    break
            items.append(hc.make_triple(lam, mu, nu))
            lam, mu = rng.choice(box), rng.choice(box)
            nu, _ = rng.choice(tensor_support(hc, lam, mu))
            items.append(hc.make_triple(lam, mu, nu))
        rng.shuffle(items)
        return items

    def call(self, hc, item):
        return hc.lr_coefficient(item)

    def reference(self, hc, item):
        return tableau_count(hc, item), hc.lr_nonzero(item)

    def check(self, hc, item, out, ref):
        tableau, nonzero = ref
        if out != tableau:
            return f"counted {out}, the LR tableau rule gives {tableau}"
        if nonzero != (out > 0):
            return f"lr_nonzero says {nonzero} for a count of {out} (saturation)"
        return None

    def describe(self, item):
        return describe_triple(item)


class Stretch:
    """conjecture2_report on 5-part triples with coefficient >= 2, dimension 2..4.

    The triples are the ones in stretch_pool.json (see make_stretch_pool.py);
    the seed only orders them.
    """

    name = "stretch"

    def __init__(self, size):
        self.tiny = size != "full"

    def build(self, hc, rng):
        pool = json.loads(STRETCH_POOL.read_text())
        rows = [row for d in sorted(pool) for row in pool[d]]
        if self.tiny:
            rows = rows[:1]
        items = [hc.make_triple(row["lambda"], row["mu"], row["nu"]) for row in rows]
        rng.shuffle(items)
        return items

    def call(self, hc, item):
        return hc.conjecture2_report(item)

    def reference(self, hc, item):
        degree = hc.stretch.polytope_degree(item)
        # e(n) for every n the report samples (1..degree+3) and one more held out
        return degree, {n: tableau_count(hc, item, n) for n in range(1, degree + 5)}

    def check(self, hc, item, out, ref):
        degree, values = ref
        quasi = out.quasi
        for n, e in out.verified_points:
            if values.get(n) != e:
                return f"e({n}) = {e}, the LR tableau rule gives {values.get(n)}"
        if quasi.period != 1:
            return f"fit has period {quasi.period}, not 1"
        if quasi.degree != degree:
            return f"fit has degree {quasi.degree}, the polytope dimension is {degree}"
        coeffs = quasi.constituents[0]
        if coeffs[0] != 1:
            return f"constant term {coeffs[0]}, Ehrhart-Macdonald requires 1"
        if coeffs[-1] <= 0:
            return f"leading coefficient {coeffs[-1]} is not positive"
        for n, e in values.items():
            if quasi.evaluate(n) != e:
                return f"fit gives e({n}) = {quasi.evaluate(n)}, held-out value is {e}"
        return None

    def describe(self, item):
        return describe_triple(item)


WORKLOADS = {w.name: w for w in (PaperTable, Stretch, SaturationBatch)}
