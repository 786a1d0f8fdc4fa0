"""Raw-waveform encoder built on learnable band-pass sinc kernels.

The first layer convolves the waveform with band-pass FIR kernels whose low
and high cutoffs are the learnable parameters, initialized to mel-spaced bands.
The map then passes through abs -> log(x + 1e-6) -> max-pool(2) and a small
two-layer 1-D conv stack. Standalone, the map is time-averaged into the
embedding; composed variants hand the batch's packed maps to the windowed-CNN
or LSTM encoder's embed_rows as if they were packed feature frames (the stack
width must match the feature width, 64).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..audio_io import SAMPLE_RATE
from ..diffcore import (
    Tensor,
    absval,
    add_scalar,
    conv1d,
    gather_rows,
    log,
    max_pool1d,
    relu,
    reshape,
    segment_mean,
    sinc_kernel,
)
from ..diffcore.ops import sinc_cutoffs
from ..dsp import FrontendConfig, mel_inverse, mel_scale
from ..errors import (
    ConfigError,
    DimensionMismatchError,
    KernelTooLongError,
    ShapeMismatchError,
)
from .base import N_MELS, Encoder, EncoderSpec, kaiming_uniform, raw_samples
from .lstm import LstmEncoder
from .vgg import VggEncoder

# Strictness floor for f1 < f2; small enough that mel-spaced init bands keep
# their exact shared breakpoints (the narrowest 64-band split is ~29 Hz wide).
MIN_BAND_HZ = 1.0
INIT_LOW_HZ = 30.0
INIT_MARGIN_HZ = 100.0
LOG_EPS = 1e-6


@dataclass(frozen=True)
class SincLayerParams:
    """Per-filter cutoff parameters in normalized frequency (cycles/sample)."""

    theta_low: np.ndarray
    theta_band: np.ndarray
    kernel_len: int = 251
    sample_rate_hz: int = SAMPLE_RATE

    def __post_init__(self):
        tl = np.asarray(self.theta_low, dtype=np.float64)
        tb = np.asarray(self.theta_band, dtype=np.float64)
        if tl.ndim != 1 or tl.shape != tb.shape:
            raise ConfigError(f"cutoff arrays disagree: {tl.shape} vs {tb.shape}")
        if self.kernel_len < 3 or self.kernel_len % 2 == 0:
            raise ConfigError(f"kernel_len={self.kernel_len} must be odd and >= 3")
        object.__setattr__(self, "theta_low", tl)
        object.__setattr__(self, "theta_band", tb)

    @property
    def n_filters(self) -> int:
        return self.theta_low.size

    def cutoffs_hz(self):
        """Effective (f1, f2) in Hz, from the clamp the forward pass runs."""
        f1, f2 = clamp_cutoffs(self.theta_low, self.theta_band)
        return f1 * self.sample_rate_hz, f2 * self.sample_rate_hz


def clamp_cutoffs(theta_low: np.ndarray, theta_band: np.ndarray):
    """The cutoffs (f1, f2), 0 <= f1 < f2 <= Nyquist, in cycles/sample, that
    `sinc_kernel` computes from these parameters, in their dtype."""
    return sinc_cutoffs(theta_low, theta_band, MIN_BAND_HZ / SAMPLE_RATE)[:2]


def sinc_init_mel(n_filters: int, sample_rate: int = SAMPLE_RATE,
                  kernel_len: int = 251) -> SincLayerParams:
    """Cutoff pairs at consecutive mel-spaced breakpoints over (30 Hz, Nyquist-100).

    Adjacent bands share a breakpoint: f2 of band i equals f1 of band i+1.
    """
    if n_filters < 2:
        raise ConfigError(f"n_filters={n_filters} must be >= 2")
    nyq = sample_rate / 2.0
    breaks_hz = mel_inverse(
        np.linspace(mel_scale(INIT_LOW_HZ), mel_scale(nyq - INIT_MARGIN_HZ), n_filters + 1)
    )
    breaks_hz[0] = INIT_LOW_HZ  # exact boundary, no round-trip residue
    f1 = breaks_hz[:-1] / sample_rate
    f2 = breaks_hz[1:] / sample_rate
    return SincLayerParams(f1, f2 - f1 - MIN_BAND_HZ / sample_rate,
                           kernel_len=kernel_len, sample_rate_hz=sample_rate)


class SincNetEncoder(Encoder):
    def __init__(self, spec: EncoderSpec, frontend: FrontendConfig, seed: int):
        self.spec = spec
        self.frontend = frontend
        d = spec.dims
        init = sinc_init_mel(d.sinc_filters, kernel_len=d.sinc_kernel_len)
        self.kernel_len = d.sinc_kernel_len
        self.stride = d.sinc_stride
        self.n_filters = d.sinc_filters
        self._window = np.hamming(self.kernel_len).astype(np.float32)
        rng = np.random.default_rng(seed)
        k, ch = d.sinc_stack_kernel, d.sinc_stack_channels
        self.params = {
            "theta_low": Tensor(init.theta_low.astype(np.float32), requires_grad=True),
            "theta_band": Tensor(init.theta_band.astype(np.float32), requires_grad=True),
            "conv1_w": Tensor(
                kaiming_uniform(rng, (k, self.n_filters, ch), k * self.n_filters),
                requires_grad=True),
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
        w = sinc_kernel(p["theta_low"], p["theta_band"], MIN_BAND_HZ / SAMPLE_RATE, K,
                        self._window)                                    # (K, 1, F)
        h = conv1d(Tensor(wave.reshape(1, -1, 1)), w, stride=stride)
        h = max_pool1d(log(add_scalar(absval(h), LOG_EPS)), 2)

        within = np.arange(frames.sum()) - np.repeat(np.cumsum(frames) - frames, frames)
        src = np.repeat(starts // hop, frames) + within      # clip rows in the pooled map
        rows = np.repeat(np.cumsum(frames + pad) - frames - pad, frames) + within
        layout = np.full(frames.sum() + pad * (len(waves) - 1), -1)
        layout[rows] = src
        keep = np.full(layout.size, -1)
        keep[rows] = rows
        for i, index in ((1, layout), (2, keep)):
            h = reshape(gather_rows(reshape(h, h.shape[1:]), index), (1, index.size, h.shape[2]))
            h = relu(conv1d(h, p[f"conv{i}_w"], p[f"conv{i}_b"], padding=pad))
        return gather_rows(reshape(h, h.shape[1:]), rows), frames.tolist()

    def embed_batch(self, inputs: Sequence) -> Tensor:
        return segment_mean(*self.packed_maps(inputs))


class ComposedSincEncoder(Encoder):
    """SincNet front end feeding the windowed-CNN or LSTM encoder."""

    def __init__(self, spec: EncoderSpec, frontend: FrontendConfig, seed: int):
        self.spec = spec
        self.frontend = frontend
        head_kind = spec.kind.split("+")[1]
        self.sinc = SincNetEncoder(spec, frontend, seed)
        if self.sinc.spec.dims.sinc_stack_channels != N_MELS:
            raise DimensionMismatchError(
                f"sinc stack width {self.sinc.spec.dims.sinc_stack_channels} must equal "
                f"downstream feature width {N_MELS}"
            )
        head_cls = VggEncoder if head_kind == "vgg" else LstmEncoder
        self.head = head_cls(spec, frontend, seed + 1)
        # Checkpoint names carry the sub-encoder; the Tensors are shared, so
        # updates through either dict reach both.
        self.params = {f"{prefix}/{name}": p
                       for prefix, sub in (("sinc", self.sinc), (head_kind, self.head))
                       for name, p in sub.params.items()}

    def prepare_input(self, waveform) -> np.ndarray:
        return raw_samples(waveform)

    def embed_batch(self, inputs: Sequence) -> Tensor:
        return self.head.embed_rows(*self.sinc.packed_maps(inputs))
