"""The five clip-embedding architectures behind one interface."""

from ..dsp import FrontendConfig
from .base import Encoder, EncoderDims, EncoderSpec, KINDS, SCALES
from .lstm import LstmEncoder
from .sincnet import (
    ComposedSincEncoder,
    SincNetEncoder,
    clamp_cutoffs,
    sinc_init_mel,
)
from .vgg import VggEncoder, window_count


def build_encoder(spec: EncoderSpec, frontend: FrontendConfig | None = None,
                  seed: int = 0) -> Encoder:
    """Instantiate an encoder with seeded parameter initialization."""
    frontend = frontend or FrontendConfig()
    if spec.kind == "vgg":
        return VggEncoder(spec, frontend, seed)
    if spec.kind == "lstm":
        return LstmEncoder(spec, frontend, seed)
    if spec.kind == "sincnet":
        return SincNetEncoder(spec, frontend, seed)
    return ComposedSincEncoder(spec, frontend, seed)


__all__ = [
    "Encoder", "EncoderDims", "EncoderSpec", "KINDS", "SCALES",
    "LstmEncoder", "SincNetEncoder", "ComposedSincEncoder", "VggEncoder",
    "sinc_init_mel", "clamp_cutoffs", "window_count",
    "build_encoder",
]
