"""Outside-in benchmark of hivecount: one workload in one process, one JSON line.

Run it from the root of a checkout of the repository:

    python3 perfbench/run.py --workload paper_table --seed 1 --seconds 20 --trace 0

The timed phase repeats whole rounds of the workload's operations, each a call
of hivecount's public API with default arguments, and starts a round only
while it is expected to end within --seconds (the first round always runs).
Outputs are checked after the timed phase against computations made apart
from the counting code.  The last line of standard output is a JSON object
with the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics of one traced round with --trace 1.
Results and span dumps are also written under perfbench/out/.
"""

from __future__ import annotations

import sys

# Every import of hivecount then compiles its sources, whether or not the
# environment writes bytecode, and nothing is written under src/.
sys.dont_write_bytecode = True

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import time
from pathlib import Path

import tracing
import workloads

# Set-up is timed this many times before the timed phase and again after the
# checks, so that its median spans the whole run rather than its first second.
SETUP_REPEATS = (11, 10)
OUT_DIR = Path("perfbench") / "out"


def import_hivecount(src: Path):
    """Import hivecount afresh from src, executing every module again."""
    for name in [m for m in sys.modules if m == "hivecount" or m.startswith("hivecount.")]:
        del sys.modules[name]
    hc = importlib.import_module("hivecount")
    if src.resolve() not in Path(hc.__file__).resolve().parents:
        raise ImportError(f"hivecount came from {hc.__file__}, not from {src}")
    return hc


def set_up(workload, seed, src):
    """Import hivecount afresh and build the inputs: (seconds, hivecount, items).

    Garbage left by earlier repeats is collected first and the collector is
    paused while timing, so that no repeat pays for another's garbage.
    """
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        hc = import_hivecount(src)
        items = workload.build(hc, random.Random(f"{workload.name}:{seed}"))
        return time.perf_counter() - t0, hc, items
    finally:
        gc.enable()


def run_round(workload, hc, items, tracer=None):
    """One call per item; returns (round seconds, outputs, per-call seconds)."""
    outputs, times = [], []
    r0 = time.perf_counter()
    for op, item in enumerate(items):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = workload.call(hc, item)
            else:
                tracer.op = op
                out = tracer.call(tracing.OP, None, workload.call, hc, item)
        except Exception as exc:  # a raising call is a failed operation
            out = exc
        times.append(time.perf_counter() - t0)
        outputs.append(out)
    return time.perf_counter() - r0, outputs, times


def timed_rounds(workload, hc, items, seconds):
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(workload, hc, items))
        if time.perf_counter() - start + rounds[-1][0] > seconds:
            return rounds


def check_rounds(workload, hc, items, rounds):
    """Failed operations over all rounds, with a message for each."""
    references = [workload.reference(hc, item) for item in items]
    problems = []
    for r, (_, outputs, _) in enumerate(rounds):
        for item, out, ref in zip(items, outputs, references):
            if isinstance(out, Exception):
                problem = f"raised {type(out).__name__}: {out}"
            else:
                problem = workload.check(hc, item, out, ref)
            if problem:
                problems.append(f"round {r}, {workload.describe(item)}: {problem}")
    return problems


def end_to_end(setup_times, rounds, peak_rss_kib):
    op_times = [t for _, _, times in rounds for t in times]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(r[0] for r in rounds), "s"),
        "op_s.p50": (statistics.median(op_times), "s"),
        "peak_rss_mib": (peak_rss_kib / 1024, "MiB"),
    }


def traced_round(workload, hc, items):
    """One untraced and one traced round; per-layer metrics of the traced one."""
    plain = run_round(workload, hc, items)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_round(workload, hc, items, tracer)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.spans, tracer.layers)
    metrics["trace.overhead_s"] = (traced[0] - plain[0], "s")
    return [plain, traced], metrics, tracer


def write_out(name, payload):
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / name).write_text(json.dumps(payload) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs for the self-test")
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "hivecount" / "__init__.py").is_file():
        print(f"error: no hivecount package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = workloads.WORKLOADS[args.workload](args.size)

    before, after = (1, 0) if args.trace else SETUP_REPEATS
    setup_times = []
    for _ in range(before):
        setup_s, hc, items = set_up(workload, args.seed, src)
        setup_times.append(setup_s)
    problems = []
    if args.trace:
        rounds, metrics, tracer = traced_round(workload, hc, items)
        problems += tracing.accounting_errors(tracer.spans)
        for name in tracer.absent:
            print(f"note: {name} no longer exists; its layer is reported as absent",
                  file=sys.stderr)
        write_out(f"spans-{args.workload}-seed{args.seed}.json", {
            "workload": args.workload, "seed": args.seed,
            "fields": ["name", "start_ns", "end_ns", "parent", "op", "work"],
            "spans": tracer.spans,
        })
    else:
        rounds = timed_rounds(workload, hc, items, args.seconds)
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failures = check_rounds(workload, hc, items, rounds)
    problems += failures
    if not args.trace:
        setup_times += [set_up(workload, args.seed, src)[0] for _ in range(after)]
        metrics = end_to_end(setup_times, rounds, peak_rss)

    result = {
        "correct": not problems,
        "attempted": len(items) * len(rounds),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    write_out(f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", result)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
