"""The benchmark drives the public correlation and derivative API: one short
spectral-small pass must run with every task correct."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_spectral_small_pass_is_correct():
    run = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "spectral-small",
                          "--seed", "7", "--seconds", "0", "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    last = json.loads(run.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0
