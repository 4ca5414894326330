"""The benchmark's self-test, run against the package as it stands.

perfbench/tracing.py hooks package functions by module and name, such as
hivecount.counting.decompose_cone and the imports counting.py keeps only for
it, so renaming or dropping one fails here and not only in the benchmark.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
    assert "selftest passed" in proc.stdout
