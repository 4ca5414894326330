#!/usr/bin/env python3
"""Recompute the regression tables of Littlewood-Richardson coefficients.

Prints one line per row with the computed value, the reference value, and the
wall time.  The large-weight rows are opt-in because each takes a little while
on a laptop.

Usage:
    python3 scripts/reproduce_tables.py
    python3 scripts/reproduce_tables.py --large --stretch
    python3 scripts/reproduce_tables.py --method both   # cross-check small rows
"""

import argparse
import os
import sys
import time

from hivecount import lr_coefficient, make_triple

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_REPO, "tests"))


def run_rows(rows, method):
    mismatches = 0
    for (lam, mu, nu), reference in rows:
        triple = make_triple(lam, mu, nu)
        t0 = time.perf_counter()
        value = lr_coefficient(triple, method=method)
        elapsed = time.perf_counter() - t0
        mark = "ok" if value == reference else "MISMATCH"
        print(f"{mark:8s} c({lam}, {mu}; {nu}) = {value}  [{elapsed:.2f}s]")
        if value != reference:
            print(f"         reference value is {reference}", file=sys.stderr)
            mismatches += 1
    return mismatches


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--large", action="store_true",
                        help="include the thousand-scale weight row")
    parser.add_argument("--stretch", action="store_true",
                        help="include the two very large rows")
    parser.add_argument("--method", default="barvinok",
                        choices=("barvinok", "naive", "both"))
    args = parser.parse_args()

    from _corpus import LARGE_WEIGHT_ROW, LARGE_WEIGHT_STRETCH, SMALL_WEIGHT_ROWS

    rows = list(SMALL_WEIGHT_ROWS)
    if args.large:
        rows.append(LARGE_WEIGHT_ROW)
    if args.stretch:
        rows += LARGE_WEIGHT_STRETCH

    t0 = time.perf_counter()
    mismatches = run_rows(rows, args.method)
    print(f"\n{len(rows)} rows in {time.perf_counter() - t0:.1f}s, "
          f"{mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
