"""Command-line front end.

Exit codes: 0 success (a coefficient of zero is a success), 2 invalid input,
3 self-check mismatch, fit failure or failed internal invariant, 4
brute-force cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from . import counting, klimyk, stretch, triangulation
from .errors import (
    CapExceededError,
    CountMismatchError,
    InvariantError,
    NoFitError,
    SizeMismatchError,
    WeightError,
)
from .hives import build_hive_polytope, homogenize
from .polyfile import polytope_to_text, write_polytope_file
from .polyhedra import HRepPolytope
from .weights import make_triple, parse_parts, parse_weight

THREADS_HELP = "accepted for compatibility; has no effect"


def _weights_from_args(args):
    if args.lam is None or args.mu is None or args.nu is None:
        raise WeightError("--lambda, --mu, and --nu are all required")
    return parse_weight(args.lam), parse_weight(args.mu), parse_weight(args.nu)


def _triple_from_args(args):
    return make_triple(*_weights_from_args(args))


def _triples_from_file(path):
    triples = []
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise WeightError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        parts = text.split()
        if len(parts) != 3:
            raise WeightError(f"{path}:{lineno}: expected three weights, found {len(parts)}")
        triples.append(make_triple(*map(parse_weight, parts)))
    if not triples:
        raise WeightError(f"{path}: no triples found")
    return triples


def _emit(args, command, method, rank, started, payload, lines):
    """Print the --json envelope around payload, or else the plain lines; exit code 0."""
    if args.json:
        out = {
            "command": command,
            "method": method,
            "rank": rank,
            "timings": {"total_s": round(time.perf_counter() - started, 6)},
        }
        out.update(payload)
        print(json.dumps(out, indent=2))
    else:
        for line in lines:
            print(line)
    return 0


def _batch(args, command, method, answer, key, line):
    """Answer every triple of the command line or batch file; one result each.

    The envelope's rank is the triple's for a single triple and null for a batch.
    """
    triples = _triples_from_file(args.input_file) if args.input_file else [_triple_from_args(args)]
    started = time.perf_counter()
    answers = [answer(t) for t in triples]
    results = [
        {"lambda": list(t.lam), "mu": list(t.mu), "nu": list(t.nu), "rank": t.rank, key: a}
        for t, a in zip(triples, answers)
    ]
    rank = triples[0].rank if len(triples) == 1 else None
    return _emit(args, command, method, rank, started, {"results": results}, map(line, answers))


def _lambda_mu(args, parse_mu):
    if args.lam is None or args.mu is None:
        raise WeightError("--lambda and --mu are required")
    return parse_weight(args.lam), parse_mu(args.mu)


def cmd_count(args):
    def value(t):
        return counting.lr_coefficient(t, method=args.method, naive_cap=args.naive_cap)

    return _batch(args, "count", args.method, value, "value", str)


def cmd_nonzero(args):
    def line(a):
        return "nonzero" if a else "zero"

    return _batch(args, "nonzero", "lp", counting.lr_nonzero, "nonzero", line)


def cmd_kostka(args):
    lam, mu = _lambda_mu(args, parse_parts)
    started = time.perf_counter()
    value = klimyk.kostka(lam, mu, via=args.via, cap=args.cap)
    payload = {"lambda": list(lam), "mu": list(mu), "value": value}
    return _emit(args, "kostka", args.via, max(len(lam), len(mu)), started, payload, [value])


def cmd_klimyk(args):
    lam, mu = _lambda_mu(args, parse_weight)
    started = time.perf_counter()
    terms = klimyk.klimyk_decompose(lam, mu, cap=args.cap)
    payload = {
        "lambda": list(lam),
        "mu": list(mu),
        "terms": [{"nu": list(t.nu), "multiplicity": t.multiplicity} for t in terms],
    }
    lines = [f"{','.join(map(str, t.nu))} {t.multiplicity}" for t in terms]
    return _emit(args, "klimyk", "klimyk", max(len(lam), len(mu)), started, payload, lines)


def cmd_stretch(args):
    triple = _triple_from_args(args)
    started = time.perf_counter()
    report = stretch.conjecture2_report(triple, n_max=args.n_max)
    body = stretch.report_to_json(report)
    return _emit(
        args, "stretch", "barvinok", triple.rank, started, {"report": body},
        [json.dumps(body, indent=2)],
    )


def cmd_triangulate(args):
    started = time.perf_counter()
    if args.order == "random":
        cfg = triangulation.hive_matrix(args.rank)
        order = list(range(len(cfg)))
        random.Random(args.seed).shuffle(order)
        tri = triangulation.placing_triangulation(cfg, order=order)
    elif args.order == "natural":
        tri = triangulation.placing_triangulation(triangulation.hive_matrix(args.rank))
    else:
        tri = triangulation.hive_triangulation(args.rank)
    unimodular, witness = triangulation.is_unimodular(tri)
    out_path = args.out or f"hive_triangulation_r{args.rank}.txt"
    triangulation.write_triangulation(tri, out_path, args.rank)
    cells = len(tri.cells)
    payload = {"unimodular": unimodular, "cells": cells, "file": out_path, "order": args.order}
    line = f"{'PASS' if unimodular else 'FAIL'} rank={args.rank} cells={cells} file={out_path}"
    if witness is not None:
        payload["witness"] = {"indices": list(witness.indices), "det": witness.det}
        line += f" witness_det={witness.det}"
    return _emit(args, "triangulate", "placing", args.rank, started, payload, [line])


def cmd_export(args):
    # The exported system's shape depends on the rank, so the listed length
    # sets it here; no count depends on it.
    weights = _weights_from_args(args)
    triple = make_triple(*weights, rank=max(len(w) for w in weights))
    started = time.perf_counter()
    if args.homogenized:
        rows, rhs = homogenize(build_hive_polytope(triple))
        n = len(rows[0])
        nonneg = tuple(tuple(-1 if j == i else 0 for j in range(n)) for i in range(n))
        poly = HRepPolytope(
            rows=nonneg, rhs=(0,) * n, eq_rows=tuple(rows), eq_rhs=tuple(rhs)
        )
    else:
        poly = counting.hive_hrep(triple)
    if not args.out:
        sys.stdout.write(polytope_to_text(poly))
        return 0
    write_polytope_file(poly, args.out)
    payload = {
        "file": args.out,
        "rows": len(poly.rows) + len(poly.eq_rows),
        "dimension": poly.dim,
        "homogenized": bool(args.homogenized),
    }
    return _emit(args, "export", "hrep", triple.rank, started, payload, [args.out])


def _int_at_least(low):
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _add_weight_flags(p, nu=True):
    p.add_argument("--lambda", dest="lam", help="comma-separated weight, e.g. 9,7,3,0,0")
    p.add_argument("--mu", help="comma-separated weight")
    if nu:
        p.add_argument("--nu", help="comma-separated weight")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hivecount",
        description="Littlewood-Richardson coefficients by exact lattice-point counting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="coefficient of one triple or a batch file")
    _add_weight_flags(p)
    p.add_argument("--input-file", help="batch file, one 'lambda mu nu' triple per line")
    p.add_argument("--method", choices=("naive", "barvinok", "both"), default="barvinok")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    p.add_argument("--naive-cap", type=_int_at_least(0), default=counting.NAIVE_DIMENSION_CAP)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("nonzero", help="decide vanishing by LP feasibility")
    _add_weight_flags(p)
    p.add_argument("--input-file", help="batch file, one 'lambda mu nu' triple per line")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_nonzero)

    p = sub.add_parser("kostka", help="Kostka number by tableaux or via a hive count")
    _add_weight_flags(p, nu=False)
    p.add_argument("--via", choices=(klimyk.DIRECT, klimyk.HIVE), default=klimyk.DIRECT)
    p.add_argument("--cap", type=_int_at_least(0), default=klimyk.SIZE_CAP)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_kostka)

    p = sub.add_parser("klimyk", help="full tensor decomposition by Klimyk's formula")
    _add_weight_flags(p, nu=False)
    p.add_argument("--cap", type=_int_at_least(0), default=klimyk.SIZE_CAP)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_klimyk)

    p = sub.add_parser("stretch", help="fit the stretched-multiplicity polynomial")
    _add_weight_flags(p)
    p.add_argument(
        "--n-max", type=_int_at_least(1), default=None, help="largest dilation sampled"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_stretch)

    p = sub.add_parser("triangulate", help="placing triangulation of the hive matrix")
    p.add_argument("--rank", type=_int_at_least(1), required=True)
    p.add_argument("--order", choices=("default", "natural", "random"), default="default")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="triangulation file path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_triangulate)

    p = sub.add_parser("export", help="write the hive system as a polytope file")
    _add_weight_flags(p)
    p.add_argument("--out", help="output path; stdout when omitted")
    p.add_argument("--homogenized", action="store_true", help="export {x >= 0 : Mx = b}")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_export)

    return parser


# The stderr prefix and exit code of each failure main reports; the first match wins.
_FAILURES = {
    WeightError: ("error", 2),
    SizeMismatchError: ("error", 2),
    OSError: ("error", 2),
    CountMismatchError: ("self-check mismatch", 3),
    NoFitError: ("fit failure", 3),
    InvariantError: ("internal error", 3),
    CapExceededError: ("cap exceeded", 4),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_FAILURES) as exc:
        prefix, code = next(v for kind, v in _FAILURES.items() if isinstance(exc, kind))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
