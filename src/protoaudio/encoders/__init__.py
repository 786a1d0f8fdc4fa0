"""The five clip-embedding architectures behind one interface."""

from ..dsp import FrontendConfig
from ..errors import ConfigError
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
    """Instantiate an encoder with seeded parameter initialization. Encoders
    read one fixed front end: frontend may only be None or FrontendConfig()."""
    if frontend not in (None, FrontendConfig()):
        raise ConfigError(
            f"encoders take only the fixed front end FrontendConfig(), not {frontend}")
    if spec.kind == "vgg":
        return VggEncoder(spec, seed)
    if spec.kind == "lstm":
        return LstmEncoder(spec, seed)
    if spec.kind == "sincnet":
        return SincNetEncoder(spec, seed)
    return ComposedSincEncoder(spec, seed)


__all__ = [
    "Encoder", "EncoderDims", "EncoderSpec", "KINDS", "SCALES",
    "LstmEncoder", "SincNetEncoder", "ComposedSincEncoder", "VggEncoder",
    "sinc_init_mel", "clamp_cutoffs", "window_count",
    "build_encoder",
]
