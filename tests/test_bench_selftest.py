"""The benchmark's checkers accept this program's reports and reject
corrupted ones (bench/selftest.py), so a report change that the
benchmark would refuse fails the suite too."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    res = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stdout + res.stderr
