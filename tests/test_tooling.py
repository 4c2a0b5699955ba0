"""The benchmark's own self-test: every output checker still rejects
corrupted outputs and accepts good ones, and one round of a workload
passes those checkers."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SELFTEST = PERFBENCH / "selftest.py"
RUN = PERFBENCH / "run.py"


def test_benchmark_checkers_reject_corrupt_output():
    proc = subprocess.run(
        [sys.executable, str(SELFTEST)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 failure(s)"


@pytest.mark.parametrize(
    "workload",
    ["enumerate-stream", "count-exact", "sample-weighted", "decide-construct", "sample-mr",
     "decide-test", "sample-estimate"],
)
def test_one_benchmark_round_is_correct(workload):
    # One round, each output vetted by the benchmark's own checkers.
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
         "--seconds", "0"],
        capture_output=True, text=True, timeout=300, cwd=RUN.parent.parent,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), proc.stdout


def test_one_traced_round_is_correct():
    # The per-layer wrappers still find every function they look up.
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "sample-mr", "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=300, cwd=RUN.parent.parent,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), proc.stdout


def test_traced_wrappers_reach_imports_made_per_subcommand():
    # The command line imports constrained only under --forbid, inside the
    # call; the traced run must still count the wrapped EG and CG kernels.
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "decide-test", "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=300, cwd=RUN.parent.parent,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), proc.stdout
    metrics = result["metrics"]
    assert metrics["graphicality.eg_calls"]["value"] > 0, proc.stdout
    assert metrics["constrained.cg_calls"]["value"] > 0, proc.stdout


def test_traced_count_round_times_adjacency_sets():
    # A traced count-exact round also times all_adjacency_sets on the
    # sorted inputs through traced.py --adjacency-sets.
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "count-exact", "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=300, cwd=RUN.parent.parent,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), proc.stdout
    assert result["metrics"]["enumeration.adjacency_sets_s"]["value"] > 0, proc.stdout
