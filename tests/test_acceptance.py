"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest -v` (the -rA summary section shows the per-criterion lines)
or `pytest -m acceptance -s` to watch them stream by.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from hivecount import (
    BARVINOK,
    DIRECT,
    HIVE,
    dilation_rhs_identity,
    fit_quasi_polynomial,
    hive_triangulation,
    integral_vertex_witness,
    is_unimodular,
    klimyk_decompose,
    kostka,
    lr_coefficient,
    lr_tableau_count,
)
from hivecount.cli import main
from hivecount.linalg import dot
from hivecount.stretch import VALIDATION_MARGIN, polytope_degree, stretched_counts
from hivecount.triangulation import cell_contains, hive_matrix_rows
from hivecount.weights import zero_pad

from _corpus import LARGE_WEIGHT_ROW, LARGE_WEIGHT_STRETCH, SMALL_WEIGHT_ROWS
from _samplers import random_kostka_pair, random_tensor_triples, random_triple_corpus

pytestmark = pytest.mark.acceptance


def _report(num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    line = f"{verdict} criterion {num} ({name})"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


def _cli_count(capsys, triple, extra=()):
    argv = [
        "count",
        "--lambda", ",".join(map(str, triple[0])),
        "--mu", ",".join(map(str, triple[1])),
        "--nu", ",".join(map(str, triple[2])),
    ] + list(extra)
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, f"cmd_count exited {code}"
    return int(out.strip().splitlines()[-1])


def test_criterion_1_small_weight_regression(capsys):
    worst = 0.0
    for weights, expected in SMALL_WEIGHT_ROWS:
        t0 = time.perf_counter()
        got = _cli_count(capsys, weights)
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)
        assert got == expected, f"{weights}: got {got}, expected {expected}"
        assert elapsed <= 300, f"{weights}: {elapsed:.1f}s exceeds the 5-minute row budget"
    with capsys.disabled():
        _report(1, "small-weight regression", True,
                f"8/8 rows exact, worst row {worst:.1f}s (budget 300s)")


def test_criterion_2_large_weight_row(capsys):
    weights, expected = LARGE_WEIGHT_ROW
    t0 = time.perf_counter()
    got = _cli_count(capsys, weights)
    elapsed = time.perf_counter() - t0
    ok = got == expected and elapsed <= 900
    with capsys.disabled():
        _report(2, "large-weight regression", ok,
                f"value {'exact' if got == expected else 'WRONG'}, {elapsed:.1f}s (budget 900s)")


@pytest.mark.slow
@pytest.mark.parametrize("row", [0, 1], ids=["stretch-row-2", "stretch-row-3"])
def test_criterion_2_stretch_rows(capsys, row):
    weights, expected = LARGE_WEIGHT_STRETCH[row]
    t0 = time.perf_counter()
    got = _cli_count(capsys, weights)
    elapsed = time.perf_counter() - t0
    # exactness is the contract; the runtime is reported, not asserted
    with capsys.disabled():
        _report(2, f"stretch row {row + 2}", got == expected,
                f"value {'exact' if got == expected else 'WRONG'}, {elapsed:.1f}s")


_ORACLE_CACHE = {}


def _oracle_corpus():
    if "corpus" not in _ORACLE_CACHE:
        rng = random.Random(20240817)
        corpus = random_triple_corpus(rng, 100, rank=3, max_entry=6)
        values = []
        for t in corpus:
            values.append(lr_coefficient(t, method=BARVINOK))
        _ORACLE_CACHE["corpus"] = corpus
        _ORACLE_CACHE["barvinok"] = values
    return _ORACLE_CACHE["corpus"], _ORACLE_CACHE["barvinok"]


def test_criterion_3_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    corpus, barvinok_values = _oracle_corpus()
    nonzero = 0
    for t, expected in zip(corpus, barvinok_values):
        lam, mu, nu = t.lam[:3], t.mu[:3], t.nu[:3]
        naive = lr_coefficient(t, method="naive")
        tableau = lr_tableau_count(lam, mu, nu)
        terms = {tm.nu: tm.multiplicity for tm in klimyk_decompose(lam, mu)}
        klimyk = terms.get(tuple(zero_pad(nu, 3)), 0)
        assert expected == naive == tableau == klimyk, (
            f"{lam}*{mu}->{nu}: barvinok={expected} naive={naive} "
            f"tableau={tableau} klimyk={klimyk}"
        )
        nonzero += expected > 0
    elapsed = time.perf_counter() - t0
    ok = elapsed <= 600
    with capsys.disabled():
        _report(3, "four-way oracle equivalence", ok,
                f"100/100 triples agree ({nonzero} nonzero), {elapsed:.1f}s (budget 600s)")


def test_criterion_4_saturation_consistency(capsys):
    corpus, barvinok_values = _oracle_corpus()
    for t, value in zip(corpus, barvinok_values):
        argv = [
            "nonzero",
            "--lambda", ",".join(map(str, t.lam)),
            "--mu", ",".join(map(str, t.mu)),
            "--nu", ",".join(map(str, t.nu)),
        ]
        code = main(argv)
        out = capsys.readouterr().out.strip()
        assert code == 0
        expected = "nonzero" if value > 0 else "zero"
        assert out == expected, f"{t}: cmd_nonzero said {out}, count is {value}"
    with capsys.disabled():
        _report(4, "LP nonvanishing matches counting", True,
                "100/100 triples consistent")


def test_criterion_5_kostka_dual_path(capsys):
    rng = random.Random(51)
    t0 = time.perf_counter()
    checked = 0
    seen = set()
    while checked < 50:
        lam, mu = random_kostka_pair(rng, max_size=14, max_parts=5)
        if (lam, mu) in seen:
            continue
        seen.add((lam, mu))
        direct = kostka(lam, mu, via=DIRECT)
        via_hive = kostka(lam, mu, via=HIVE)
        assert direct == via_hive, f"K_({lam},{mu}): direct={direct} hive={via_hive}"
        checked += 1
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _report(5, "Kostka direct vs hive", True,
                f"50/50 pairs agree, {elapsed:.1f}s")


def test_criterion_6_ehrhart_polynomiality(capsys):
    rng = random.Random(62)
    triples = random_triple_corpus(rng, 10, rank=4, max_entry=5)
    triples += random_tensor_triples(rng, 10, rank=4, max_entry=5)
    t0 = time.perf_counter()
    nonneg = 0
    for t in triples:
        degree = polytope_degree(t)
        need = degree + 1 + VALIDATION_MARGIN
        counts = stretched_counts(t, need + 2)
        fit = fit_quasi_polynomial(counts[:need], degree_bound=degree)
        assert fit.period == 1, f"{t}: fitted period {fit.period}"
        for n, expected in counts[need:]:
            got = fit.evaluate(n)
            assert got == expected, f"{t}: e({n}) = {expected}, fit gives {got}"
        nonneg += all(c >= 0 for c in fit.constituents[0])
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _report(6, "stretched counts fit degree-d polynomials", True,
                f"20/20 fits with period 1, 2 held-out dilations each; "
                f"nonnegative coefficients observed in {nonneg}/20 (recorded, not asserted); "
                f"{elapsed:.1f}s")


def test_criterion_7_dilation_identity(capsys):
    rng = random.Random(73)
    triples = random_triple_corpus(rng, 20, rank=3, max_entry=6)
    for t in triples:
        for n in (2, 3, 5):
            assert dilation_rhs_identity(t, n), f"{t} at n={n}"
    with capsys.disabled():
        _report(7, "dilation scales only the rhs", True, "20 triples x n in {2,3,5}")


def test_criterion_8_triangulation_small_ranks(capsys):
    rng = random.Random(84)
    details = []
    for rank in (2, 3):
        tri = hive_triangulation(rank)
        ok, witness = is_unimodular(tri)
        assert ok, f"rank {rank}: cell {witness} has |det| != 1"
        rows = hive_matrix_rows(rank)
        n = len(rows[0])
        for _ in range(20):
            x = [rng.randint(0, 6) for _ in range(n)]
            b = tuple(dot(r, x) for r in rows)
            w = integral_vertex_witness(b, rank)
            assert w is not None, f"rank {rank}: feasible rhs got no witness"
        details.append(f"r={rank} cells={len(tri.cells)}")
    # coverage invariant: every sampled cone point lies in >= 1 cell, generic
    # points in exactly one
    sampled = 0
    for rank, points in ((2, 500), (3, 520)):
        tri = hive_triangulation(rank)
        pts = tri.coords
        k = tri.span_dim
        n = len(pts)
        for _ in range(points):
            m = rng.randint(1, n)
            idxs = rng.sample(range(n), m)
            target = [Fraction(0)] * k
            for i in idxs:
                w = Fraction(rng.randint(1, 9), rng.randint(1, 5))
                for r in range(k):
                    target[r] += w * pts[i][r]
            inside = strict = 0
            for cell in tri.cells:
                coeffs = cell_contains(cell, target)
                if coeffs is None:
                    continue
                inside += 1
                strict += all(c > 0 for c in coeffs)
            assert inside >= 1, f"rank {rank}: sampled point outside every cell"
            assert strict <= 1, f"rank {rank}: interior point in {strict} cells"
            sampled += 1
    with capsys.disabled():
        _report(8, "unimodular triangulation r=2,3", True,
                f"{'; '.join(details)}; 20 integral vertices each; "
                f"{sampled} coverage samples")


def test_criterion_8_triangulation_rank_4(capsys):
    t0 = time.perf_counter()
    tri = hive_triangulation(4)
    ok, witness = is_unimodular(tri)
    assert ok, f"rank 4: cell {witness} has |det| != 1"
    rng = random.Random(85)
    rows = hive_matrix_rows(4)
    n = len(rows[0])
    for _ in range(20):
        x = [rng.randint(0, 6) for _ in range(n)]
        b = tuple(dot(r, x) for r in rows)
        w = integral_vertex_witness(b, 4)
        assert w is not None
    elapsed = time.perf_counter() - t0
    ok = elapsed <= 3600
    with capsys.disabled():
        _report(8, "unimodular triangulation r=4", ok,
                f"cells={len(tri.cells)} all unit, 20 integral vertices, "
                f"{elapsed:.1f}s (budget 3600s; pinned insertion order)")


def test_criterion_9_determinism(capsys):
    outputs = set()
    for seed, threads in ((0, 1), (31337, 3)):
        lines = []
        for weights, _ in SMALL_WEIGHT_ROWS:
            lines.append(
                _cli_count(
                    capsys, weights,
                    extra=["--method", "barvinok", "--seed", str(seed),
                           "--threads", str(threads)],
                )
            )
        outputs.add(tuple(lines))
    ok = len(outputs) == 1
    with capsys.disabled():
        _report(9, "seed/thread determinism", ok,
                "identical outputs across (seed=0,threads=1) and (seed=31337,threads=3)")
