"""Tier-1 smoke run of the benchmark harness.

``perfbench/run.py --smoke`` drives every workload at tiny size through
the public API and the CLI, and checks each metric's name and unit, so
this guards the names and flags the benchmark depends on.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_run_succeeds():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
