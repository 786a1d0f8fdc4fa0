"""Encoder architecture descriptions and the shared embedding interface."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..audio_io import Waveform
from ..dsp import FrontendConfig
from ..errors import ConfigError, DimensionMismatchError, ShapeMismatchError
from ..diffcore import Tensor, as_tensor, concat

KINDS = ("vgg", "lstm", "sincnet", "sincnet+vgg", "sincnet+lstm")
SCALES = ("paper", "desk")

WINDOW_FRAMES = 96
WINDOW_HOP = 48
N_MELS = FrontendConfig.n_mels

# SincNet's layer (Ravanelli & Bengio 2018), the same at both scales. The
# stack is as wide as the feature frames, so the composed encoders hand its
# packed maps to a head built for log-mel frames.
SINC_FILTERS = 64
SINC_KERNEL_LEN = 251
SINC_STRIDE = 80
SINC_STACK_KERNEL = 5
SINC_STACK_CHANNELS = N_MELS


@dataclass(frozen=True)
class EncoderDims:
    """The sizes that differ by scale; topology is identical across scales."""

    vgg_channels: tuple
    lstm_hidden: int
    lstm_out: int

    @property
    def vgg_embed_dim(self) -> int:
        # five 2x2 pools shrink the 96x64 window to 3x2 before flattening
        return self.vgg_channels[-1] * (WINDOW_FRAMES // 32) * (N_MELS // 32)


_DIMS = {
    "paper": EncoderDims((64, 128, 256, 256, 512, 512, 512, 512), 4096, 2048),
    "desk": EncoderDims((8, 16, 32, 32, 64, 64, 64, 64), 128, 64),
}


@dataclass(frozen=True)
class EncoderSpec:
    kind: str
    scale: str = "desk"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown encoder kind {self.kind!r}; choose from {KINDS}")
        if self.scale not in SCALES:
            raise ConfigError(f"unknown scale {self.scale!r}; choose from {SCALES}")

    @property
    def dims(self) -> EncoderDims:
        return _DIMS[self.scale]

    @property
    def embed_dim(self) -> int:
        d = self.dims
        if self.kind in ("vgg", "sincnet+vgg"):
            return d.vgg_embed_dim
        if self.kind in ("lstm", "sincnet+lstm"):
            return d.lstm_out
        return SINC_STACK_CHANNELS

    def header(self) -> dict:
        """Checkpoint header used to reject mismatched loads."""
        d = self.dims
        return {
            "kind": self.kind,
            "scale": self.scale,
            "embed_dim": self.embed_dim,
            "dims": {"vgg_channels": list(d.vgg_channels), "lstm_hidden": d.lstm_hidden,
                     "lstm_out": d.lstm_out, "sinc_filters": SINC_FILTERS,
                     "sinc_kernel_len": SINC_KERNEL_LEN, "sinc_stride": SINC_STRIDE,
                     "sinc_stack_channels": SINC_STACK_CHANNELS,
                     "sinc_stack_kernel": SINC_STACK_KERNEL},
        }


def kaiming_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def scaled_uniform(rng: np.random.Generator, shape, scale: float) -> np.ndarray:
    return rng.uniform(-scale, scale, size=shape).astype(np.float32)


class Encoder:
    """Maps clips to fixed-dimensional embeddings; parameters live in .params.

    Subclasses set .spec, .params (dict[str, Tensor]) and implement
    prepare_input() (waveform -> model input array, cacheable) and
    embed_batch() (list of inputs -> (B, embed_dim) Tensor), which
    FrameEncoder implements through embed_rows().
    """

    spec: EncoderSpec
    params: dict

    def prepare_input(self, waveform) -> np.ndarray:
        raise NotImplementedError

    def embed_batch(self, inputs: Sequence) -> Tensor:
        raise NotImplementedError

    @property
    def embed_dim(self) -> int:
        return self.spec.embed_dim

    def state_dict(self) -> dict:
        return {name: p.data.copy() for name, p in self.params.items()}

    def load_state(self, tensors: dict) -> None:
        missing = set(self.params) - set(tensors)
        extra = set(tensors) - set(self.params)
        if missing or extra:
            raise ShapeMismatchError(
                f"parameter names disagree: missing {sorted(missing)}, extra {sorted(extra)}"
            )
        for name, p in self.params.items():
            arr = np.asarray(tensors[name], dtype=p.data.dtype)
            if arr.shape != p.data.shape:
                raise ShapeMismatchError(
                    f"parameter {name!r}: checkpoint {arr.shape} vs model {p.data.shape}"
                )
            p.data = arr.copy()


class FrameEncoder(Encoder):
    """An encoder over (T, 64) feature frames, whose whole model is
    embed_rows(): the frames of B clips packed one clip after another into
    one (Σ T_b, 64) Tensor, plus the T_b. The composed encoders hand the sinc
    front end's packed maps to it in the same format."""

    def embed_rows(self, rows: Tensor, lengths: Sequence[int]) -> Tensor:
        raise NotImplementedError

    def embed_batch(self, inputs: Sequence) -> Tensor:
        clips = [as_tensor(item) for item in inputs]
        if not clips:
            raise ShapeMismatchError(f"{self.spec.kind}: empty batch")
        for i, clip in enumerate(clips):
            if clip.ndim != 2 or clip.shape[0] < 1 or clip.shape[1] != N_MELS:
                raise DimensionMismatchError(
                    f"{self.spec.kind}: clip {i} is {clip.shape}; expects (T, {N_MELS}) "
                    f"features with T >= 1"
                )
        return self.embed_rows(concat(clips), [clip.shape[0] for clip in clips])


def raw_samples(waveform) -> np.ndarray:
    x = waveform.samples if isinstance(waveform, Waveform) else np.asarray(waveform)
    return x.astype(np.float32)
