"""Raw-waveform encoder built on learnable band-pass sinc kernels.

The first layer convolves the waveform with band-pass FIR kernels whose low
and high cutoffs are the learnable parameters, initialized to mel-spaced bands.
The map then passes through log(|x| + 1e-6) (one op, `log_abs`) ->
max-pool(2) and a small two-layer 1-D conv stack. A batch runs as one pass:
every conv1d and the pool take the whole batch as packed (L, C) rows, the
clips laid end to end. Standalone, the map is time-averaged into the
embedding; composed variants hand the batch's packed maps to the
windowed-CNN or LSTM encoder's embed_rows as if they were packed feature
frames (the stack width is the feature width, N_MELS, at both scales).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..audio_io import SAMPLE_RATE
from ..diffcore import (
    Tensor,
    conv1d,
    gather_rows,
    log_abs,
    max_pool1d,
    relu,
    segment_mean,
    sinc_kernel,
)
from ..diffcore.ops import sinc_cutoffs
from ..dsp import mel_inverse, mel_scale
from ..errors import ConfigError, KernelTooLongError, ShapeMismatchError
from .base import (SINC_FILTERS, SINC_KERNEL_LEN, SINC_STACK_CHANNELS, SINC_STACK_KERNEL,
                   SINC_STRIDE, Encoder, EncoderSpec, kaiming_uniform, raw_samples)
from .lstm import LstmEncoder
from .vgg import VggEncoder

# Strictness floor for f1 < f2; small enough that mel-spaced init bands keep
# their exact shared breakpoints (the narrowest 64-band split is ~29 Hz wide).
MIN_BAND_HZ = 1.0
INIT_LOW_HZ = 30.0
INIT_MARGIN_HZ = 100.0
LOG_EPS = 1e-6


def clamp_cutoffs(theta_low: np.ndarray, theta_band: np.ndarray):
    """The cutoffs (f1, f2), 0 <= f1 < f2 <= Nyquist, in cycles/sample, that
    `sinc_kernel` computes from these parameters, in their dtype."""
    return sinc_cutoffs(theta_low, theta_band, MIN_BAND_HZ / SAMPLE_RATE)[:2]


def sinc_init_mel(n_filters: int):
    """(theta_low, theta_band) in float64 whose cutoffs are consecutive
    mel-spaced breakpoints over (30 Hz, Nyquist-100).

    Adjacent bands share a breakpoint: f2 of band i equals f1 of band i+1.
    """
    if n_filters < 2:
        raise ConfigError(f"n_filters={n_filters} must be >= 2")
    breaks_hz = mel_inverse(np.linspace(
        mel_scale(INIT_LOW_HZ), mel_scale(SAMPLE_RATE / 2.0 - INIT_MARGIN_HZ), n_filters + 1))
    breaks_hz[0] = INIT_LOW_HZ  # exact boundary, no round-trip residue
    f1 = breaks_hz[:-1] / SAMPLE_RATE
    f2 = breaks_hz[1:] / SAMPLE_RATE
    return f1, f2 - f1 - MIN_BAND_HZ / SAMPLE_RATE


class SincNetEncoder(Encoder):
    def __init__(self, spec: EncoderSpec, seed: int):
        self.spec = spec
        theta_low, theta_band = sinc_init_mel(SINC_FILTERS)
        self.kernel_len = SINC_KERNEL_LEN
        self.stride = SINC_STRIDE
        self._window = np.hamming(self.kernel_len).astype(np.float32)
        rng = np.random.default_rng(seed)
        f, k, ch = SINC_FILTERS, SINC_STACK_KERNEL, SINC_STACK_CHANNELS
        self.params = {
            "theta_low": Tensor(theta_low.astype(np.float32), requires_grad=True),
            "theta_band": Tensor(theta_band.astype(np.float32), requires_grad=True),
            "conv1_w": Tensor(
                kaiming_uniform(rng, (k, f, ch), k * f), requires_grad=True),
            "conv1_b": Tensor(np.zeros(ch, dtype=np.float32), requires_grad=True),
            "conv2_w": Tensor(
                kaiming_uniform(rng, (k, ch, ch), k * ch), requires_grad=True),
            "conv2_b": Tensor(np.zeros(ch, dtype=np.float32), requires_grad=True),
        }
        self._pad = k // 2

    def prepare_input(self, waveform) -> np.ndarray:
        return raw_samples(waveform)

    def packed_maps(self, inputs: Sequence):
        """(N_b,) waveforms -> their time-major maps packed one clip after
        another as one (Σ T'_b, channels) Tensor, and the T'_b, in one pass
        over the whole batch.

        The waveforms lie end to end in one buffer, each starting at a
        multiple of 2·stride, so a clip's conv frames are the ones of its own
        conv and the pool's pairs never straddle two clips. For the conv stack
        the clips' pooled rows are laid out with `pad` zero rows between
        clips, re-zeroed between the two convs and finally cut out; one
        gather_rows (index -1 is a zero row) does each of the three.
        """
        K, stride, pad = self.kernel_len, self.stride, self._pad
        waves = [np.asarray(samples, dtype=np.float32) for samples in inputs]
        if not waves:
            raise ShapeMismatchError("sincnet: empty batch")
        for i, x in enumerate(waves):
            if x.shape[0] < K + stride:
                raise KernelTooLongError(
                    f"waveform {i} has {x.shape[0]} samples; one pooled frame of the "
                    f"{K}-tap kernel at stride {stride} needs {K + stride}"
                )
        hop = 2 * stride                                     # samples per pooled frame
        lengths = np.array([x.shape[0] for x in waves])
        frames = ((lengths - K) // stride + 1) // 2          # T'_b
        starts = np.concatenate([[0], np.cumsum(-(-lengths // hop) * hop)[:-1]])
        wave = np.zeros(starts[-1] + lengths[-1], dtype=np.float32)
        for x, start in zip(waves, starts):
            wave[start:start + x.shape[0]] = x

        p = self.params
        w = sinc_kernel(p["theta_low"], p["theta_band"], MIN_BAND_HZ / SAMPLE_RATE,
                        self._window)                                    # (K, 1, F)
        h = conv1d(Tensor(wave[:, None]), w, stride=stride)
        h = max_pool1d(log_abs(h, LOG_EPS), 2)

        within = np.arange(frames.sum()) - np.repeat(np.cumsum(frames) - frames, frames)
        src = np.repeat(starts // hop, frames) + within      # clip rows in the pooled map
        rows = np.repeat(np.cumsum(frames + pad) - frames - pad, frames) + within
        layout = np.full(frames.sum() + pad * (len(waves) - 1), -1)
        layout[rows] = src
        keep = np.full(layout.size, -1)
        keep[rows] = rows
        for i, index in ((1, layout), (2, keep)):
            h = relu(conv1d(gather_rows(h, index), p[f"conv{i}_w"], p[f"conv{i}_b"],
                            padding=pad))
        return gather_rows(h, rows), frames.tolist()

    def embed_batch(self, inputs: Sequence) -> Tensor:
        return segment_mean(*self.packed_maps(inputs))


class ComposedSincEncoder(Encoder):
    """SincNet front end feeding the windowed-CNN or LSTM encoder."""

    def __init__(self, spec: EncoderSpec, seed: int):
        self.spec = spec
        head_kind = spec.kind.split("+")[1]
        self.sinc = SincNetEncoder(spec, seed)
        head_cls = VggEncoder if head_kind == "vgg" else LstmEncoder
        self.head = head_cls(spec, seed + 1)
        # Checkpoint names carry the sub-encoder; the Tensors are shared, so
        # updates through either dict reach both.
        self.params = {f"{prefix}/{name}": p
                       for prefix, sub in (("sinc", self.sinc), (head_kind, self.head))
                       for name, p in sub.params.items()}

    def prepare_input(self, waveform) -> np.ndarray:
        return raw_samples(waveform)

    def embed_batch(self, inputs: Sequence) -> Tensor:
        return self.head.embed_rows(*self.sinc.packed_maps(inputs))
