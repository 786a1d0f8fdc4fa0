"""Windowed 2-D CNN encoder over log-mel features.

Features are cut into 96-frame windows offset by 48 frames (shorter inputs are
zero-padded to one window, a trailing partial window is dropped). Each window
runs through an 8-conv/5-pool stack and flattens to the embedding; per-window
embeddings are averaged into the clip embedding.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..diffcore import (
    Tensor,
    as_tensor,
    conv2d,
    max_pool2d,
    pad_rows,
    relu,
    reshape,
    segment_mean,
    slice_rows,
)
from ..dsp import FrontendConfig, build_mel_filterbank, extract_features
from ..errors import DimensionMismatchError
from .base import (
    N_MELS,
    WINDOW_FRAMES,
    WINDOW_HOP,
    Encoder,
    EncoderSpec,
    batch_concat,
    kaiming_uniform,
)

# conv channel index -> pool after it (VGG11 layout: C P C P C C P C C P C C P)
_POOL_AFTER = (0, 1, 3, 5, 7)


def window_count(n_frames: int) -> int:
    """Number of 96-frame windows at hop 48; short inputs still yield one."""
    if n_frames < WINDOW_FRAMES:
        return 1
    return (n_frames - WINDOW_FRAMES) // WINDOW_HOP + 1


class VggEncoder(Encoder):
    def __init__(self, spec: EncoderSpec, frontend: FrontendConfig, seed: int):
        self.spec = spec
        self.frontend = frontend
        self._filterbank = build_mel_filterbank(frontend)
        self.params = {}
        rng = np.random.default_rng(seed)
        in_ch = 1
        for i, out_ch in enumerate(spec.dims.vgg_channels, start=1):
            fan_in = 3 * 3 * in_ch
            self.params[f"conv{i}_w"] = Tensor(
                kaiming_uniform(rng, (3, 3, in_ch, out_ch), fan_in), requires_grad=True
            )
            self.params[f"conv{i}_b"] = Tensor(
                np.zeros(out_ch, dtype=np.float32), requires_grad=True
            )
            in_ch = out_ch

    def prepare_input(self, waveform) -> np.ndarray:
        return extract_features(waveform, self.frontend, self._filterbank).astype(np.float32)

    def _windows(self, feats: Tensor) -> list:
        if feats.ndim != 2 or feats.shape[1] != N_MELS:
            raise DimensionMismatchError(
                f"vgg expects (T, {N_MELS}) features, got {feats.shape}"
            )
        t = feats.shape[0]
        if t < WINDOW_FRAMES:
            feats = pad_rows(feats, WINDOW_FRAMES)
            starts = [0]
        else:
            starts = [WINDOW_HOP * i for i in range(window_count(t))]
        return [
            reshape(slice_rows(feats, s, s + WINDOW_FRAMES), (1, WINDOW_FRAMES, N_MELS, 1))
            for s in starts
        ]

    def _trunk(self, x: Tensor) -> Tensor:
        """(W, 96, 64, 1) window batch -> (W, embed_dim)."""
        p = self.params
        for i in range(8):
            x = relu(conv2d(x, p[f"conv{i + 1}_w"], p[f"conv{i + 1}_b"], padding=1))
            if i in _POOL_AFTER:
                x = max_pool2d(x, 2)
        return reshape(x, (x.shape[0], self.spec.dims.vgg_embed_dim))

    def embed_batch(self, inputs: Sequence) -> Tensor:
        windows, counts = [], []
        for item in inputs:
            ws = self._windows(as_tensor(item))
            windows.extend(ws)
            counts.append(len(ws))
        per_window = self._trunk(batch_concat(windows))
        return segment_mean(per_window, counts)
