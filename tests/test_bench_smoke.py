"""The benchmark's smoke test, run from the tier-1 suite.

The benchmark wraps package functions by name, so renaming or removing one
of them fails here.  It runs in its own process, which keeps the module
reloads of the benchmark out of this test session.
"""

import os
import subprocess
import sys
from pathlib import Path

import wavelifespan

ROOT = Path(wavelifespan.__file__).resolve().parents[2]


def test_bench_smoke_test_passes():
    cmd = [sys.executable, "-m", "pytest", "bench/test_smoke.py", "-q", "-p", "no:cacheprovider"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
