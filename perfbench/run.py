#!/usr/bin/env python3
"""Benchmark entry point: runs one workload in this process and prints, as the
last line of standard output, one JSON object with the keys correct,
attempted, failed and metrics.

    python3 perfbench/run.py --workload train-vgg --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 its
per-layer metrics. Run it from the repository root or anywhere else: the
package is imported from the src/ directory beside perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = "1"

# workload -> (encoder kind, what a round does)
WORKLOADS = {
    "train-vgg": ("vgg", "train"),
    "train-lstm": ("lstm", "train"),
    "train-sincnet": ("sincnet", "train"),
    "eval-vgg": ("vgg", "eval"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "protoaudio" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"run.py: needs {SRC / 'protoaudio'} and {ROOT / 'BENCHMARK.json'}", file=sys.stderr)
        return 2
    # OpenBLAS reads its thread count once, when numpy loads. One thread: on
    # the 2-vCPU machine the benchmark was built on, a second one made no GEMM
    # faster and every timing noisier, and results depend on the count.
    threads = os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import workload

    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    print("env " + json.dumps(workload.environment(threads)), flush=True)
    kind, mode = WORKLOADS[args.workload]
    result = workload.run(kind, mode, args.seed, args.seconds, bool(args.trace), per_layer)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
