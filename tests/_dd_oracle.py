"""The double description routine before incidence bitsets, kept as a test oracle.

scan_extreme_rays picks its seed rows with one rank computation per candidate
row, takes their rays from a cofactor adjugate, and decides each adjacency
by scanning the tight-row mask of every current ray for a third ray tight on
all the rows the pair shares.  polyhedra._extreme_rays picks the same seed
rows with one incremental echelon, borders their adjugate up along it, and
answers that question with an AND of per-row incidence bitsets; it must
return the same (ray, mask) pairs, or None where this does.
"""

from itertools import islice

from _lll_oracle import adjugate_cofactor, rank
from hivecount.linalg import dot, primitive


def scan_extreme_rays(cone_rows, n):
    """Extreme rays, with tight-row masks, of {y in Q^n : h y <= 0 for every row h}; None with a line."""
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
    adj = adjugate_cofactor(square)
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
                    # p and q are tight on common; stop at a third ray that is
                    third = islice((m for m in masks if m & common == common), 2, None)
                    if next(third, None) is None:
                        ray = primitive([sp * a - sn * b for a, b in zip(q, p)])
                        kept.append((ray, common | bit))
        rays = kept
    return rays
