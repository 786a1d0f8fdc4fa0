"""Windowed 2-D CNN encoder over log-mel features.

Features are cut into 96-frame windows offset by 48 frames (shorter inputs are
zero-padded to one window, a trailing partial window is dropped). Each window
runs through an 8-conv/5-pool stack and flattens to the embedding; per-window
embeddings are averaged into the clip embedding. The windows of a whole batch
are cut from its packed frames by two row gathers, one per 48-frame half.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..diffcore import Tensor, concat, conv2d, gather_rows, max_pool2d, relu, reshape, segment_mean
from ..dsp import extract_features
from .base import N_MELS, WINDOW_FRAMES, WINDOW_HOP, EncoderSpec, FrameEncoder, kaiming_uniform

# conv channel index -> pool after it (VGG11 layout: C P C P C C P C C P C C P)
_POOL_AFTER = (0, 1, 3, 5, 7)


def window_count(n_frames: int) -> int:
    """Number of 96-frame windows at hop 48; short inputs still yield one."""
    if n_frames < WINDOW_FRAMES:
        return 1
    return (n_frames - WINDOW_FRAMES) // WINDOW_HOP + 1


class VggEncoder(FrameEncoder):
    def __init__(self, spec: EncoderSpec, seed: int):
        self.spec = spec
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
        return extract_features(waveform).astype(np.float32)

    def _trunk(self, x: Tensor) -> Tensor:
        """(W, 96, 64, 1) window batch -> (W, embed_dim).

        Each conv is followed by ReLU; on the five pooled layers the pool
        comes first. Max and ReLU commute, so the results are those of ReLU
        first, bit for bit, while ReLU and its backward pass over a 4x
        smaller map and the tape holds one full-size map less per layer.
        """
        p = self.params
        for i in range(8):
            x = conv2d(x, p[f"conv{i + 1}_w"], p[f"conv{i + 1}_b"], padding=1)
            if i in _POOL_AFTER:
                x = max_pool2d(x, 2)
            x = relu(x)
        return reshape(x, (x.shape[0], self.spec.dims.vgg_embed_dim))

    def embed_rows(self, rows: Tensor, lengths: Sequence[int]) -> Tensor:
        """(Σ T_b, n_mels) packed frames -> (B, embed_dim).

        index[w, j] is the packed row of frame j of window w, or -1 (a zero
        row) past the end of a clip shorter than one window. Windows of one
        clip overlap by one hop, but as WINDOW_FRAMES == 2 * WINDOW_HOP the
        first halves of its windows are disjoint, and so are the second
        halves: each half is one gather that takes no row twice.
        """
        lengths = np.asarray(lengths)
        counts = np.array([window_count(t) for t in lengths])
        clip = np.repeat(np.arange(lengths.size), counts)               # clip of each window
        window = np.arange(clip.size) - (np.cumsum(counts) - counts)[clip]
        offset = WINDOW_HOP * window[:, None] + np.arange(WINDOW_FRAMES)  # frames of its clip
        start = (np.cumsum(lengths) - lengths)[clip, None]
        index = np.where(offset < lengths[clip, None], start + offset, -1)
        windows = concat([reshape(gather_rows(rows, index[:, h:h + WINDOW_HOP].ravel()),
                                  (clip.size, WINDOW_HOP, N_MELS, 1))
                          for h in (0, WINDOW_HOP)], axis=1)   # halves freed here
        return segment_mean(self._trunk(windows), counts)
