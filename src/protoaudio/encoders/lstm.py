"""Recurrent encoder: one feature frame per timestep, projected outputs averaged."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..diffcore import Tensor, add, concat, lstm_sequence, matmul, segment_mean
from ..dsp import extract_features
from .base import N_MELS, EncoderSpec, FrameEncoder, kaiming_uniform, scaled_uniform

_GATES = ("i", "f", "g", "o")


class LstmEncoder(FrameEncoder):
    """Single-layer LSTM; the hidden state is projected to the output width at
    every timestep and the per-timestep outputs are averaged over the clip."""

    def __init__(self, spec: EncoderSpec, seed: int):
        self.spec = spec
        hidden, out = spec.dims.lstm_hidden, spec.dims.lstm_out
        rng = np.random.default_rng(seed)
        bound = 1.0 / np.sqrt(hidden)
        self.params = {}
        for gate in _GATES:
            self.params[f"wx_{gate}"] = Tensor(
                scaled_uniform(rng, (N_MELS, hidden), bound), requires_grad=True)
            self.params[f"wh_{gate}"] = Tensor(
                scaled_uniform(rng, (hidden, hidden), bound), requires_grad=True)
            self.params[f"b_{gate}"] = Tensor(np.zeros(hidden, dtype=np.float32),
                                              requires_grad=True)
        self.params["wy"] = Tensor(kaiming_uniform(rng, (hidden, out), hidden),
                                   requires_grad=True)
        self.params["by"] = Tensor(np.zeros(out, dtype=np.float32), requires_grad=True)

    def prepare_input(self, waveform) -> np.ndarray:
        return extract_features(waveform).astype(np.float32)

    def embed_rows(self, rows: Tensor, lengths: Sequence[int]) -> Tensor:
        """(Σ T_b, n_mels) packed frames -> (B, out). The per-gate weights are
        stacked gate-major along the first axis (order i, f, g, o), and
        `lstm_sequence` runs the input projection and the recurrence of all
        clips at once; nothing is padded."""
        p = self.params
        wx, wh, b = (concat([p[f"{w}_{g}"] for g in _GATES]) for w in ("wx", "wh", "b"))
        states = lstm_sequence(rows, wx, b, wh, lengths)                # (N, H)
        return segment_mean(add(matmul(states, p["wy"]), p["by"]), lengths)
