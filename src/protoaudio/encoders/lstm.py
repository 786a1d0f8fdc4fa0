"""Recurrent encoder: one feature frame per timestep, projected outputs averaged."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..diffcore import (
    Tensor,
    add,
    as_tensor,
    concat,
    matmul,
    mul,
    pad_rows,
    reshape,
    sigmoid,
    slice_rows,
    tanh,
)
from ..dsp import FrontendConfig, build_mel_filterbank, extract_features
from ..errors import DimensionMismatchError
from .base import N_MELS, Encoder, EncoderSpec, kaiming_uniform, scaled_uniform

_GATES = ("i", "f", "g", "o")


class LstmEncoder(Encoder):
    """Single-layer LSTM; the hidden state is projected to the output width at
    every timestep and the per-timestep outputs are averaged over the clip."""

    def __init__(self, spec: EncoderSpec, frontend: FrontendConfig, seed: int):
        self.spec = spec
        self.frontend = frontend
        self._filterbank = build_mel_filterbank(frontend)
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
        return extract_features(waveform, self.frontend, self._filterbank).astype(np.float32)

    def embed_batch(self, inputs: Sequence) -> Tensor:
        """B clips of (T_b, n_mels) -> (B, out) in one time-major recurrence:
        clips are zero-padded at their end to the longest, T, and step t runs
        every clip at once. The recurrence is causal, so padding changes no
        state inside a clip; padded steps get weight 0 in the mean."""
        feats = [as_tensor(item) for item in inputs]
        for seq in feats:
            if seq.ndim != 2 or seq.shape[1] != N_MELS:
                raise DimensionMismatchError(
                    f"lstm expects (T, {N_MELS}) features, got {seq.shape}"
                )
        lengths = [seq.shape[0] for seq in feats]
        steps, n = max(lengths), len(feats)
        frames = concat([pad_rows(seq, steps) for seq in feats], axis=1)   # (T, B*n_mels)
        p = self.params
        h = c = Tensor(np.zeros((n, self.spec.dims.lstm_hidden), dtype=np.float32))
        states = []
        for t in range(steps):
            x = reshape(slice_rows(frames, t, t + 1), (n, N_MELS))
            pre = {g: add(add(matmul(x, p[f"wx_{g}"]), matmul(h, p[f"wh_{g}"])), p[f"b_{g}"])
                   for g in _GATES}
            i, f, o = (sigmoid(pre[g]) for g in "ifo")
            c = add(mul(f, c), mul(i, tanh(pre["g"])))
            h = mul(o, tanh(c))
            states.append(h)
        proj = add(matmul(concat(states, axis=0), p["wy"]), p["by"])   # (T*B, out)
        # weights[b, t*B + b] = 1/len_b for t < len_b: the mean over real steps
        weights = np.zeros((n, steps, n), dtype=proj.dtype)
        for b, length in enumerate(lengths):
            weights[b, :length, b] = 1.0 / length
        return matmul(Tensor(weights.reshape(n, steps * n)), proj)
