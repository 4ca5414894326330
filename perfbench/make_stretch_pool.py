"""Regenerate perfbench/stretch_pool.json, the triples of the stretch workload.

Run from the repository root (it takes a few minutes on 2 cores):

    python3 perfbench/make_stretch_pool.py

The search is seeded, so it rewrites the same file every time.  lambda and mu
are uniform 5-part weights with entries at most 5; nu is uniform over the
partitions whose coefficient, by the LR tableau rule, lies in 2..12.  A triple
is kept when its hive polytope has the dimension of a quota not yet full.
The dimension is measured once here, because finding it takes a chart
reduction (about 0.3 s at rank 5) and a stratified draw needs dozens.
Only the first triples found are kept: within one dimension the cost of a
report varies threefold from triple to triple, so drawing anew for each
benchmark seed would spread the timings far wider than any bound.
Dimension 5 is left out: one such report takes 18-28 s, more than the other
six together, and spends half of it enumerating vertices.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import workloads

POOL_FILE = Path(__file__).with_name("stretch_pool.json")
QUOTA = {2: 2, 3: 2, 4: 2}
SEARCH_SEED = 20050113


def search(hc, rng, quota):
    from hivecount.stretch import polytope_degree

    box = workloads.partitions_in_box(5, 5)
    pool = {d: [] for d in quota}
    seen = set()
    while any(len(pool[d]) < n for d, n in quota.items()):
        lam, mu = rng.choice(box), rng.choice(box)
        support = [
            (nu, c) for nu, c in workloads.tensor_support(hc, lam, mu) if 2 <= c <= 12
        ]
        if not support:
            continue
        nu, c = rng.choice(support)
        if (lam, mu, nu) in seen:
            continue
        seen.add((lam, mu, nu))
        d = polytope_degree(hc.make_triple(lam, mu, nu))
        if d in pool and len(pool[d]) < quota[d]:
            pool[d].append({"lambda": lam, "mu": mu, "nu": nu, "coefficient": c})
            print(f"d={d} {lam} {mu} {nu} c={c}", file=sys.stderr)
    return {str(d): pool[d] for d in sorted(pool)}


def main():
    sys.path.insert(0, str(Path.cwd() / "src"))
    import hivecount

    pool = search(hivecount, random.Random(SEARCH_SEED), QUOTA)
    POOL_FILE.write_text(json.dumps(pool, indent=1) + "\n")


if __name__ == "__main__":
    main()
