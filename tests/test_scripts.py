"""Smoke runs of the scripts under scripts/, from a source checkout with PYTHONPATH=src."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["reproduce_tables.py"],
        ["stretch_experiments.py", "--count", "2", "--rank", "2", "--max-entry", "3"],
        ["triangulation_report.py", "--ranks", "2", "--witnesses", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_script_runs_from_checkout(tmp_path, argv):
    script, *args = argv
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), *args],
        capture_output=True, text=True, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    if script == "reproduce_tables.py":
        assert "0 mismatches" in proc.stdout
