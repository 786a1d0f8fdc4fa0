#!/usr/bin/env python3
"""Runs the benchmark's workloads one after another, each run in its own
process, over several seeds, and reports every metric's median and quartile
spread. With --trace 0 each end-to-end spread is compared with a third of the
metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py                          # all workloads, seeds 1-10
    python3 perfbench/spread.py --workloads train-lstm --seeds 1-5
    python3 perfbench/spread.py --trace 1 --seeds 1      # per-layer figures

Each run's result line, with its numpy/BLAS line, goes to
perfbench/out/spread-<label>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    env = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), None)
    return {"workload": workload, "seed": seed, "env": env, "result": json.loads(lines[-1])}


def summarize(values: list) -> tuple:
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / abs(median) if median else 0.0


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="a seed or a range such as 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="latest")
    args = parser.parse_args(argv)
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]

    runs, steady = [], True
    for workload in args.workloads.split(","):
        mine = []
        for seed in seed_list(args.seeds):
            mine.append(run_once(bench, workload, seed, args.trace))
            r = mine[-1]["result"]
            print(f"{workload} seed {seed}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']}", flush=True)
        runs += mine
        shares = {r["result"]["failed"] / r["result"]["attempted"] for r in mine}
        print(f"{workload}: failed share {sorted(shares)}")
        for spec in specs:
            values = [r["result"]["metrics"][spec["name"]]["value"] for r in mine]
            median, q1, q3, spread = summarize(values)
            line = (f"  {spec['name']:<32} median {median:12.6g} {spec['unit']:<6} "
                    f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.2%}")
            if "bound" in spec:
                ok = spread <= spec["bound"] / 3
                steady &= ok
                line += f"  bound {spec['bound']:.0%} {'ok' if ok else 'WIDE'}"
            print(line, flush=True)
    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    (out / f"spread-{args.label}.json").write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
