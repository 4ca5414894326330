"""Quick self-test of the benchmark on tiny inputs; finishes in seconds.

Run from the repository root:

    python3 perfbench/selftest.py

It runs every workload untraced and traced, checks the printed result against
BENCHMARK.json, checks that two traced runs give the same counts, that a wrong
output is caught, and that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

import run
import tracing
import workloads

SPEC = json.loads(Path("BENCHMARK.json").read_text())


def run_json(*args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(list(args) + ["--seconds", "0.1", "--size", "tiny"])
    return code, json.loads(buf.getvalue().splitlines()[-1])


def check_result(code, result, expected_metrics):
    assert code == 0, result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    assert set(result["metrics"]) == expected_metrics, sorted(result["metrics"])


def test_workloads():
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        code, result = run_json("--workload", name, "--seed", "3", "--trace", "0")
        check_result(code, result, end_to_end)
        assert all(m["value"] > 0 for m in result["metrics"].values()), result
        traced = [run_json("--workload", name, "--seed", "3", "--trace", "1") for _ in (0, 1)]
        for code, result in traced:
            check_result(code, result, per_layer)
        counts = [
            {k: m["value"] for k, m in r["metrics"].items() if m["unit"] == "count"}
            for _, r in traced
        ]
        assert counts[0] == counts[1], counts
        print(f"ok {name}: {counts[0]}")


def test_checks_catch_wrong_output():
    paper = workloads.PaperTable("tiny")
    assert paper.check(None, None, 3, 2) is not None
    assert paper.check(None, None, 2, 2) is None
    batch = workloads.SaturationBatch("tiny")
    assert batch.check(None, None, 0, (0, True)) is not None
    assert batch.check(None, None, 1, (2, True)) is not None


def test_self_times():
    spans = [
        ["op", 0, 100, -1, 0, None],
        ["a", 10, 40, 0, 0, 3],
        ["b", 20, 30, 1, 0, None],
        ["a", 50, 60, 0, 0, 2],
    ]
    assert tracing.self_times_ns(spans) == [60, 20, 10, 10]
    assert tracing.accounting_errors(spans) == []
    spans.append(["b", 55, 70, 3, 0, None])  # escapes its parent
    assert tracing.self_times_ns(spans)[3] == 5


def test_refuses_without_sources():
    empty = run.OUT_DIR / "no-sources"
    empty.mkdir(parents=True, exist_ok=True)
    here = os.getcwd()
    os.chdir(empty)
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "paper_table", "--seed", "1", "--seconds", "1"])
    finally:
        os.chdir(here)
    assert code == 2


if __name__ == "__main__":
    test_self_times()
    test_checks_catch_wrong_output()
    test_refuses_without_sources()
    test_workloads()
    print("selftest passed")
