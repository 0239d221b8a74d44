"""The benchmark's own checks, run as part of the test suite.

bench/tracing.py wraps functions by their names inside ugatlab, and
bench/digests.json pins the bytes each workload produces; a renamed function
or a drifted output then fails here, not only in a benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.bench

ROOT = Path(__file__).resolve().parents[1]


def run_bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=900
    )


def test_bench_selftest_passes():
    proc = run_bench("bench/selftest.py")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


@pytest.mark.parametrize("workload", ["direct_train", "compare_heads", "eval_transfer"])
def test_one_bench_pass_matches_its_pinned_digest(workload):
    proc = run_bench("bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0")
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
