#!/usr/bin/env python3
"""Untrained against trained test accuracy on the benchmark's corpus. The
figures are reported beside the benchmark's, not gated: a change that speeds
training up but alters what it learns shows here.

    python3 perfbench/accuracy.py --kind vgg --seed 1 --episodes 200

Trains through train() at the benchmark's rate for a fixed number of
episodes, with no validation, and evaluates 1000 test episodes before and
after.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--kind", default="vgg", choices=("vgg", "lstm", "sincnet"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--episodes", type=int, default=200)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import BLAS_THREADS
    threads = os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    import workload
    from protoaudio import TrainConfig, evaluate, train

    cfg = TrainConfig(n_shot=workload.SHOT, k_way=workload.WAY, q_query=workload.QUERY,
                      max_episodes=args.episodes, eval_interval=workload.NEVER,
                      lr=workload.LR, test_episodes=workload.EVAL_EPISODES, seed=args.seed)
    (workload.HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="accuracy-", dir=workload.HERE / "out") as tmp:
        manifest = workload.corpus.write_corpus(tmp, args.seed)
        _, s = workload.set_up(manifest, args.kind, args.seed, "test", None)
        untrained = evaluate(s.encoder, s.cache, s.split.test, cfg)
        train(s.encoder, s.split.train, s.split.val, cfg)
        trained = evaluate(s.encoder, s.cache, s.split.test, cfg)
    print(json.dumps({"kind": args.kind, "seed": args.seed, "episodes": args.episodes,
                      "untrained": untrained.to_dict(), "trained": trained.to_dict(),
                      "env": workload.environment(threads)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
