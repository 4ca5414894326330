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
        triples.append(
            make_triple(parse_weight(parts[0]), parse_weight(parts[1]), parse_weight(parts[2]))
        )
    if not triples:
        raise WeightError(f"{path}: no triples found")
    return triples


def _gather_triples(args):
    if args.input_file:
        return _triples_from_file(args.input_file)
    return [_triple_from_args(args)]


def _triple_json(t):
    return {"lambda": list(t.lam), "mu": list(t.mu), "nu": list(t.nu), "rank": t.rank}


def _envelope(command, method, rank, started, payload):
    out = {
        "command": command,
        "method": method,
        "rank": rank,
        "timings": {"total_s": round(time.perf_counter() - started, 6)},
    }
    out.update(payload)
    return out


def cmd_count(args):
    triples = _gather_triples(args)
    started = time.perf_counter()
    values = [
        counting.lr_coefficient(
            t, method=args.method, seed=args.seed, threads=args.threads, naive_cap=args.naive_cap
        )
        for t in triples
    ]
    if args.json:
        results = [dict(_triple_json(t), value=v) for t, v in zip(triples, values)]
        rank = triples[0].rank if len(triples) == 1 else None
        print(json.dumps(_envelope("count", args.method, rank, started, {"results": results}), indent=2))
    else:
        for v in values:
            print(v)
    return 0


def cmd_nonzero(args):
    triples = _gather_triples(args)
    started = time.perf_counter()
    answers = [counting.lr_nonzero(t) for t in triples]
    if args.json:
        results = [
            dict(_triple_json(t), nonzero=bool(a)) for t, a in zip(triples, answers)
        ]
        rank = triples[0].rank if len(triples) == 1 else None
        print(json.dumps(_envelope("nonzero", "lp", rank, started, {"results": results}), indent=2))
    else:
        for a in answers:
            print("nonzero" if a else "zero")
    return 0


def cmd_kostka(args):
    if args.lam is None or args.mu is None:
        raise WeightError("--lambda and --mu are required")
    lam = parse_weight(args.lam)
    mu = parse_parts(args.mu)
    started = time.perf_counter()
    value = klimyk.kostka(lam, mu, via=args.via, cap=args.cap)
    if args.json:
        payload = {"lambda": list(lam), "mu": list(mu), "value": value}
        rank = max(len(lam), len(mu))
        print(json.dumps(_envelope("kostka", args.via, rank, started, payload), indent=2))
    else:
        print(value)
    return 0


def cmd_klimyk(args):
    if args.lam is None or args.mu is None:
        raise WeightError("--lambda and --mu are required")
    lam = parse_weight(args.lam)
    mu = parse_weight(args.mu)
    started = time.perf_counter()
    terms = klimyk.klimyk_decompose(lam, mu, cap=args.cap)
    if args.json:
        payload = {
            "lambda": list(lam),
            "mu": list(mu),
            "terms": [{"nu": list(t.nu), "multiplicity": t.multiplicity} for t in terms],
        }
        rank = max(len(lam), len(mu))
        print(json.dumps(_envelope("klimyk", "klimyk", rank, started, payload), indent=2))
    else:
        for t in terms:
            print(",".join(str(x) for x in t.nu), t.multiplicity)
    return 0


def cmd_stretch(args):
    triple = _triple_from_args(args)
    started = time.perf_counter()
    report = stretch.conjecture2_report(
        triple, n_max=args.n_max, seed=args.seed, threads=args.threads
    )
    body = stretch.report_to_json(report)
    if args.json:
        print(json.dumps(_envelope("stretch", "barvinok", triple.rank, started, {"report": body}), indent=2))
    else:
        print(json.dumps(body, indent=2))
    return 0


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
    if args.json:
        payload = {
            "unimodular": unimodular,
            "cells": len(tri.cells),
            "file": out_path,
            "order": args.order,
        }
        if witness is not None:
            payload["witness"] = {"indices": list(witness.indices), "det": witness.det}
        print(json.dumps(_envelope("triangulate", "placing", args.rank, started, payload), indent=2))
    else:
        verdict = "PASS" if unimodular else "FAIL"
        line = f"{verdict} rank={args.rank} cells={len(tri.cells)} file={out_path}"
        if witness is not None:
            line += f" witness_det={witness.det}"
        print(line)
    return 0


def cmd_export(args):
    # The exported system's shape depends on the rank, so the listed length
    # sets it here; no count depends on it.
    weights = _weights_from_args(args)
    triple = make_triple(*weights, rank=max(len(w) for w in weights))
    started = time.perf_counter()
    system = build_hive_polytope(triple)
    if args.homogenized:
        rows, rhs = homogenize(system)
        n = len(rows[0])
        nonneg = tuple(tuple(-1 if j == i else 0 for j in range(n)) for i in range(n))
        poly = HRepPolytope(
            rows=nonneg, rhs=(0,) * n, eq_rows=tuple(rows), eq_rhs=tuple(rhs)
        )
    else:
        poly = counting.hive_hrep(triple)
    if args.out:
        write_polytope_file(poly, args.out)
        if args.json:
            payload = {
                "file": args.out,
                "rows": len(poly.rows) + len(poly.eq_rows),
                "dimension": poly.dim,
                "homogenized": bool(args.homogenized),
            }
            print(json.dumps(_envelope("export", "hrep", triple.rank, started, payload), indent=2))
        else:
            print(args.out)
    else:
        sys.stdout.write(polytope_to_text(poly))
    return 0


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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (WeightError, SizeMismatchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CountMismatchError as exc:
        print(f"self-check mismatch: {exc}", file=sys.stderr)
        return 3
    except NoFitError as exc:
        print(f"fit failure: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
