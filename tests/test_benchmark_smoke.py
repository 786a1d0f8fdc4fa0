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


@pytest.mark.parametrize("workload,conv", [("eval-vgg", "conv2d"), ("train-sincnet", "conv1d")])
def test_traced_run_counts_its_convs(workload, conv):
    """The tracer's seams hold on the evaluation path and the conv1d path:
    a traced run passes its checks and counts its conv calls."""
    result = run_workload(workload, trace=1)
    assert result["correct"] is True
    assert result["metrics"][f"diffcore.{conv}.calls"]["value"] > 0
