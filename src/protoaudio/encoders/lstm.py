"""Recurrent encoder: one feature frame per timestep, projected outputs averaged."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..diffcore import (
    Tensor,
    add,
    as_tensor,
    matmul,
    mean_pool,
    mul,
    reshape,
    sigmoid,
    slice_rows,
    tanh,
)
from ..dsp import FrontendConfig, build_mel_filterbank, extract_features
from ..errors import DimensionMismatchError
from .base import N_MELS, Encoder, EncoderSpec, batch_concat, kaiming_uniform, scaled_uniform

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

    def _gate(self, name: str, x: Tensor, h: Tensor) -> Tensor:
        p = self.params
        pre = add(add(matmul(x, p[f"wx_{name}"]), matmul(h, p[f"wh_{name}"])), p[f"b_{name}"])
        return tanh(pre) if name == "g" else sigmoid(pre)

    def _embed_seq(self, feats: Tensor) -> Tensor:
        """(T, n_mels) -> (1, out): unrolled LSTM with per-step projection."""
        if feats.ndim != 2 or feats.shape[1] != N_MELS:
            raise DimensionMismatchError(
                f"lstm expects (T, {N_MELS}) features, got {feats.shape}"
            )
        hidden = self.spec.dims.lstm_hidden
        h = Tensor(np.zeros((1, hidden), dtype=np.float32))
        c = Tensor(np.zeros((1, hidden), dtype=np.float32))
        p = self.params
        outputs = []
        for t in range(feats.shape[0]):
            x = slice_rows(feats, t, t + 1)
            gi = self._gate("i", x, h)
            gf = self._gate("f", x, h)
            gg = self._gate("g", x, h)
            go = self._gate("o", x, h)
            c = add(mul(gf, c), mul(gi, gg))
            h = mul(go, tanh(c))
            outputs.append(add(matmul(h, p["wy"]), p["by"]))
        seq = batch_concat(outputs)                       # (T, out)
        return reshape(mean_pool(seq, 0), (1, self.spec.dims.lstm_out))

    def embed_batch(self, inputs: Sequence) -> Tensor:
        return batch_concat([self._embed_seq(as_tensor(item)) for item in inputs])
