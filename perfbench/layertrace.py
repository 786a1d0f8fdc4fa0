"""Outside-in layer trace, used by `run.py --trace 1` only.

The package has no profiler of its own yet, so the tracer wraps, from the
benchmark's side, the public functions of each layer where the calling module
binds them, and the backward rule of every recorded tape node just before
backward() runs. Times and counts are summed per round (one training episode,
or one evaluate() call) under the metric names BENCHMARK.json lists.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

from protoaudio import protonet, training
from protoaudio.encoders import base, lstm, sincnet, vgg

# The diffcore ops the per-layer metrics cover: the conv/pool kernels, the
# LSTM cell's elementwise ops, and the episode loss.
OPS = ("conv2d", "max_pool2d", "matmul", "add", "mul", "sigmoid", "tanh",
       "slice_rows", "concat", "conv1d", "max_pool1d", "sinc_kernel",
       "segment_mean", "squared_euclidean", "cross_entropy")
OP_CALLERS = (vgg, lstm, sincnet, base, protonet, training)


class Tracer:
    def __init__(self):
        self.values = defaultdict(float)
        self.rounds: list = []
        self._patched: list = []

    def wrap(self, fn, time_name: str, count_name: str | None = None):
        values, clock = self.values, time.perf_counter

        def traced(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                values[time_name] += clock() - t0
                if count_name:
                    values[count_name] += 1

        return traced

    @contextmanager
    def span(self, time_name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.values[time_name] += time.perf_counter() - t0

    def patch(self, owner, attr: str, time_name: str, count_name: str | None = None):
        self._patched.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, self.wrap(getattr(owner, attr), time_name, count_name))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    def end_round(self) -> None:
        self.rounds.append(dict(self.values))
        self.values.clear()

    def take_rounds(self) -> list:
        rounds, self.rounds = self.rounds, []
        self.values.clear()
        return rounds

    def trace_setup(self, encoder) -> None:
        """Wraps the front end that filling the input cache runs."""
        for module in (vgg, lstm):
            self.patch(module, "extract_features", "dsp.extract_features_s")
        self.patch(encoder, "prepare_input", "encoders.prepare_input_s")

    def trace_loop(self, encoder) -> None:
        """Wraps what a training episode or an evaluate() call runs."""
        for module in OP_CALLERS:
            for op in OPS:
                if op in module.__dict__:
                    self.patch(module, op, f"diffcore.{op}.fwd_s", f"diffcore.{op}.calls")
        self.patch(encoder, "embed_batch", "encoders.embed_batch_s", "encoders.embed_batch_calls")
        self.patch(training, "sample_episode", "protonet.sample_episode_s")
        self.patch(training, "episode_loss", "protonet.episode_loss_s")
        self.patch(training, "embed_table", "training.embed_table_s")
        self.patch(training, "score_episode", "training.score_s")
        self.patch(training, "adam_step", "diffcore.adam_step_s")
        real_backward = training.backward
        self._patched.append((training, "backward", real_backward))

        def traced_backward(loss):
            nodes = loss.tape.nodes if loss.tape is not None else []
            self.values["diffcore.tape_nodes"] += len(nodes)
            for node in nodes:
                if node.op_name in OPS:
                    node.backward_fn = self.wrap(node.backward_fn, f"diffcore.{node.op_name}.bwd_s")
            with self.span("diffcore.backward_s"):
                return real_backward(loss)

        training.backward = traced_backward
