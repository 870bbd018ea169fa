"""The benchmark's own checks run with the tier-1 suite, so that a change
to a name the benchmark's tracer wraps fails here, not in a benchmark
run. Both scripts write only under ``perfbench/out/``."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(*args: str) -> list[str]:
    done = subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return done.stdout.splitlines()


def test_selftest_checks_behave():
    assert run_script("perfbench/selftest.py")[-1] == "all checks behave"


def test_traced_epidemic_run_is_correct():
    last = json.loads(run_script("perfbench/run.py", "--workload", "epidemic", "--seed", "1",
                                 "--seconds", "0", "--trace", "1")[-1])
    assert last["correct"] is True and last["failed"] == 0
    assert last["metrics"]["engine.apply_transition_s.spread"]["value"] > 0
    assert last["metrics"]["parallel.fork_payloads_s"]["value"] > 0
