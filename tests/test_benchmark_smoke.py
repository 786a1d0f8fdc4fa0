"""The benchmark's workloads run end to end against this tree: each one-second
run of perfbench/run.py passes its own checks, and the traced runs see the
front end through the seams perfbench/layertrace.py patches."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def run_workload(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=300)
    assert done.stdout.strip(), done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["train-vgg", "train-lstm", "train-sincnet", "eval-vgg"])
def test_workload_runs_correct(workload):
    assert run_workload(workload, trace=0)["correct"] is True


@pytest.mark.parametrize("workload", ["train-vgg", "train-lstm"])
def test_traced_run_times_the_front_end(workload):
    metrics = run_workload(workload, trace=1)["metrics"]
    assert metrics["dsp.extract_features_s"]["value"] > 0
    assert metrics["encoders.prepare_input_s"]["value"] > 0
