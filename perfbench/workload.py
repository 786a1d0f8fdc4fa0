"""One workload in one process: the program's set-up, a warm-up round, a
timed window of rounds, then the checks on what the program computed.

A round is one training episode (train-*) or one evaluate() call of
EVAL_EPISODES episodes (eval-vgg). Only the package's public entry points
run the work: load_manifest, make_splits, build_encoder, InputCache, train and
evaluate.
"""

from __future__ import annotations

import gc
import platform
import random
import resource
import statistics
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from protoaudio import (EncoderSpec, FrontendConfig, InputCache, TrainConfig, audio_io,
                        build_encoder, evaluate, load_manifest, make_splits, train)

import corpus
import reference
from layertrace import Tracer

HERE = Path(__file__).resolve().parent
SHOT = WAY = QUERY = 5
RATIOS = (0.6, 0.2, 0.2)
MIN_PER_CLASS = 10
LR = 1e-3                  # the rate of configs/desk.cfg
SETUP_REPEATS = 7          # at least, and until SETUP_SECONDS have passed
SETUP_SECONDS = 1.0
MEMORY_ROUNDS = 3          # peak_rss_mb is read after this many timed rounds
EVAL_EPISODES = 1000
HELD_CLASSES = 10          # held episodes draw 5 of these classes, 10 clips each
HELD_EPISODES = 200
NEVER = 10**9              # max_episodes / eval_interval: the window, not train(), ends the run
FORWARD_TOL = 1e-4         # float32 program against the float64 reference, relative to the largest entry
BATCH_TOL = 1e-5
LOSS_TOL = 1e-4


@dataclass
class SetUp:
    split: object
    encoder: object
    cache: InputCache
    clips: list


def set_up(manifest_path, kind: str, seed: int, part: str, tracer) -> tuple:
    """What `protoaudio train` pays before its first episode, with the input
    cache filled for every clip of `part` up front. Returns (seconds, SetUp)."""
    span = tracer.span if tracer else (lambda name: nullcontext())
    loader = (tracer.wrap(audio_io.load_wav, "audio_io.load_wav_s", "audio_io.load_wav_calls")
              if tracer else audio_io.load_wav)
    t0 = time.perf_counter()
    with span("datasetkit.load_manifest_s"):
        manifest = load_manifest(manifest_path)
    with span("datasetkit.make_splits_s"):
        split = make_splits(manifest, RATIOS, MIN_PER_CLASS, seed)
    with span("encoders.build_encoder_s"):
        encoder = build_encoder(EncoderSpec(kind, "desk"), FrontendConfig(), seed)
    if tracer:
        tracer.trace_setup(encoder)
    cache = InputCache(encoder, loader)
    clips = [p for cls in sorted(split.part(part)) for p in split.part(part)[cls]]
    with span("training.cache_fill_s"):
        for path in clips:
            cache.get(path)
    seconds = time.perf_counter() - t0
    if tracer:
        tracer.restore()
        tracer.end_round()
    return seconds, SetUp(split, encoder, cache, clips)


class Recorder:
    """The encoder as train() and evaluate() see it here.

    train() gets the set-up's InputCache.get as its loader, so prepare_input
    only passes the prepared input through. Every embed_batch result is kept
    for the checks.
    """

    def __init__(self, encoder):
        self.encoder = encoder
        self.batches: list = []

    def __getattr__(self, name):
        return getattr(self.encoder, name)

    def prepare_input(self, prepared):
        return prepared

    def embed_batch(self, inputs):
        out = self.encoder.embed_batch(inputs)
        self.batches.append((inputs, out.data))
        return out


class _WindowOver(Exception):
    """Ends a training window from train()'s progress hook, its only
    per-episode callback: train() has no time budget of its own."""


class Checks:
    def __init__(self):
        self.results: list = []

    def add(self, name: str, ok: bool, detail: str) -> None:
        self.results.append((name, bool(ok), detail))
        print(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})", flush=True)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.results)


def _rel_err(got, want) -> float:
    want = np.asarray(want, dtype=np.float64)
    return float(np.max(np.abs(np.asarray(got, dtype=np.float64) - want))
                 / max(1.0, np.max(np.abs(want))))


def check_encoder(kind: str, s: SetUp, checks: Checks) -> None:
    """Reference forward and batch independence on the shortest, a middling
    and the longest clip."""
    by_len = sorted(s.clips, key=lambda p: (len(s.cache.get(p)), p))
    inputs = [s.cache.get(p) for p in (by_len[0], by_len[len(by_len) // 2], by_len[-1])]
    alone = [s.encoder.embed_batch([x]).data[0] for x in inputs]
    forward = max(_rel_err(a, reference.FORWARD[kind](s.encoder, x))
                  for a, x in zip(alone, inputs))
    checks.add("encoder_forward", forward <= FORWARD_TOL,
               f"{kind} max rel err {forward:.2e} vs numpy reference, 3 clips")
    batch = s.encoder.embed_batch(inputs[::-1]).data[::-1]
    independence = max(_rel_err(b, a) for b, a in zip(batch, alone))
    checks.add("batch_independence", independence <= BATCH_TOL,
               f"max rel err {independence:.2e}, lengths {[len(x) for x in inputs]}")


def _held_loss(s: SetUp, held: list) -> float:
    """Mean prototype loss of the held episodes, from one forward pass over
    their clips."""
    paths = sorted({p for support, query in held for block in support + query for p in block})
    embs = s.encoder.embed_batch([s.cache.get(p) for p in paths]).data
    row = dict(zip(paths, embs))
    return float(np.mean([
        reference.prototype_loss(np.stack([row[p] for block in support + query for p in block]),
                                 WAY, SHOT, QUERY)
        for support, query in held]))


class TrainRounds:
    """Rounds of train-*: each is one training episode."""

    episodes_per_round = 1

    def __init__(self, s: SetUp, seed: int):
        self.s = s
        self.recorder = Recorder(s.encoder)
        self.cfg = TrainConfig(n_shot=SHOT, k_way=WAY, q_query=QUERY, max_episodes=NEVER,
                               eval_interval=NEVER, lr=LR, seed=seed)
        self.steps: list = []              # (reported loss, that step's embeddings)
        rng = random.Random(f"{seed}/held")
        pool = {c: rng.sample(list(s.split.train[c]), SHOT + QUERY)
                for c in rng.sample(sorted(s.split.train), HELD_CLASSES)}
        self.held = [reference.sample_episode(pool, SHOT, WAY, QUERY, rng)
                     for _ in range(HELD_EPISODES)]
        self.before = s.encoder.state_dict()
        self.held_before = _held_loss(s, self.held)

    def window(self, seconds: float, on_round, min_rounds: int = 1) -> list:
        """train() until `seconds` have passed and `min_rounds` episodes have
        run; returns the wall time of each episode."""
        times = []
        t_prev = time.perf_counter()
        deadline = t_prev + seconds

        def progress(ep, loss, train_acc, val_acc):
            nonlocal t_prev
            now = time.perf_counter()
            times.append(now - t_prev)
            t_prev = now
            self.steps.append((loss, self.recorder.batches[-1][1]))
            self.recorder.batches.clear()
            on_round()
            if now >= deadline and len(times) >= min_rounds:
                raise _WindowOver

        try:
            train(self.recorder, self.s.split.train, self.s.split.val, self.cfg,
                  loader=self.s.cache.get, progress=progress)
        except _WindowOver:
            pass
        return times

    def check(self, checks: Checks) -> None:
        worst = max(abs(loss - reference.prototype_loss(embs, WAY, SHOT, QUERY)) / (1.0 + abs(loss))
                    for loss, embs in self.steps)
        checks.add("step_loss", worst <= LOSS_TOL,
                   f"{len(self.steps)} steps, max rel err {worst:.2e} vs numpy prototype loss")
        after = self.s.encoder.state_dict()
        finite = all(np.all(np.isfinite(v)) for v in after.values())
        unchanged = sorted(n for n in after if np.array_equal(after[n], self.before[n]))
        checks.add("params_finite_and_moved", finite and not unchanged,
                   f"{len(after)} tensors, finite={finite}, unchanged={unchanged}")
        held_after = _held_loss(self.s, self.held)
        checks.add("held_loss_falls", held_after < self.held_before,
                   f"mean over {HELD_EPISODES} held episodes: {self.held_before:.4f} -> {held_after:.4f}")


class EvalRounds:
    """Rounds of eval-vgg: each is one evaluate() call, which embeds the test
    split forward-only and scores EVAL_EPISODES episodes."""

    episodes_per_round = EVAL_EPISODES

    def __init__(self, s: SetUp, seed: int):
        self.s = s
        self.seed = seed
        self.recorder = Recorder(s.encoder)
        self.cfg = TrainConfig(n_shot=SHOT, k_way=WAY, q_query=QUERY,
                               test_episodes=EVAL_EPISODES, seed=seed)
        self.reports: list = []
        self.table: dict = {}

    def window(self, seconds: float, on_round, min_rounds: int = 1) -> list:
        times = []
        deadline = time.perf_counter() + seconds
        while True:
            t0 = time.perf_counter()
            self.reports.append(evaluate(self.recorder, self.s.cache, self.s.split.test, self.cfg))
            times.append(time.perf_counter() - t0)
            on_round()
            if not self.table:
                path_of = {id(self.s.cache.get(p)): p for p in self.s.clips}
                for inputs, out in self.recorder.batches:
                    for x, row in zip(inputs, out):
                        self.table[path_of[id(x)]] = row.astype(np.float64)
            self.recorder.batches.clear()
            if time.perf_counter() >= deadline and len(times) >= min_rounds:
                return times

    def check(self, checks: Checks) -> None:
        rng = random.Random(f"{self.seed}/eval")
        episodes = [reference.sample_episode(self.s.split.test, SHOT, WAY, QUERY, rng)
                    for _ in range(EVAL_EPISODES)]
        accuracy, near_ties = reference.score_episodes(self.table, episodes)
        reported = self.reports[0].mean_accuracy
        slack = near_ties / (WAY * QUERY * EVAL_EPISODES)
        gap = abs(reported - float(accuracy.mean()))
        checks.add("eval_accuracy", gap <= slack + 1e-12,
                   f"reported {reported:.6f}, numpy {accuracy.mean():.6f}, {near_ties} near ties")
        checks.add("eval_above_chance", reported > 1.0 / WAY,
                   f"{reported:.4f} > {1.0 / WAY:.2f} (untrained encoder)")
        same = all(r == self.reports[0] for r in self.reports)
        checks.add("eval_repeats", same, f"{len(self.reports)} evaluate() calls agree")


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # KiB on Linux


def environment(blas_threads: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads, "machine": platform.machine()}


def run(kind: str, mode: str, seed: int, seconds: float, trace: bool, per_layer: list) -> dict:
    """Runs one workload; returns the result object run.py prints."""
    tracer = Tracer() if trace else None
    part = "train" if mode == "train" else "test"
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"corpus-{seed}-", dir=out) as tmp:
        manifest_path = corpus.write_corpus(tmp, seed)
        setup_times = []
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
            seconds_taken, s = set_up(manifest_path, kind, seed, part, tracer)
            setup_times.append(seconds_taken)
        setup_rounds = tracer.take_rounds() if tracer else []

        checks = Checks()
        check_encoder(kind, s, checks)
        rounds = (TrainRounds if mode == "train" else EvalRounds)(s, seed)
        on_round = tracer.end_round if tracer else (lambda: None)
        warmup = rounds.window(0.0, on_round)
        if tracer:
            untraced = rounds.window(seconds / 2, on_round)
            tracer.take_rounds()
            tracer.trace_loop(s.encoder)
            timed = rounds.window(seconds / 2, on_round)
            tracer.restore()
            loop_rounds = tracer.take_rounds()
        else:
            # Read after a fixed amount of work: the tapes are freed only by
            # the cyclic collector, so over a fixed time a faster program
            # would hold more garbage. Collecting what set-up, checks and
            # warm-up left starts every window from the same collector state.
            memory = []
            gc.collect()

            def on_timed_round():
                if len(memory) < MEMORY_ROUNDS:
                    memory.append(peak_rss_mb())

            untraced, timed = [], rounds.window(seconds, on_timed_round, MEMORY_ROUNDS)
            print(f"timed rounds {len(timed)}: fastest {min(timed):.4f} s, "
                  f"median {_median(timed):.4f} s; {len(setup_times)} set-ups", flush=True)
        rounds.check(checks)

    attempted = (len(untraced) + len(timed)) * rounds.episodes_per_round
    if not trace:
        metrics = {
            "episodes_per_s": {"value": rounds.episodes_per_round / _median(timed), "unit": "1/s"},
            "setup_s": {"value": _median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": memory[-1], "unit": "MB"},
        }
    else:
        fixed = {
            "training.warmup_s": warmup[0],
            "training.step_s": _median(timed),
            "trace.overhead_pct": 100.0 * (_median(timed) / _median(untraced) - 1.0),
        }
        metrics = {}
        for m in per_layer:
            name = m["name"]
            if name in fixed:
                value = fixed[name]
            else:
                source = setup_rounds if any(name in r for r in setup_rounds) else loop_rounds
                values = [r.get(name, 0.0) for r in source]
                value = int(values[0]) if m["unit"] == "count" else _median(values)
            metrics[name] = {"value": value, "unit": m["unit"]}
    return {"correct": checks.passed, "attempted": attempted, "failed": 0, "metrics": metrics}
