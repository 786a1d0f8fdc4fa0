"""protoaudio: few-shot audio classification with prototype-based episodes.

Library surface: audio loading/synthesis (audio_io), log-mel frontend (dsp),
the autodiff core (diffcore), five clip encoders (encoders), episodic
machinery (protonet), the training/evaluation protocol (training), and corpus
tooling (datasetkit). The CLI lives in protoaudio.cli.
"""

from .audio_io import SAMPLE_RATE, TimbreProfile, Waveform, load_wav, synth_clip, write_wav
from .datasetkit import (
    FewShotSplit,
    Manifest,
    gen_synthetic_corpus,
    load_manifest,
    make_splits,
    select_single_label_subset,
)
from .dsp import FrontendConfig, build_mel_filterbank, extract_features
from .encoders import EncoderSpec, build_encoder
from .protonet import Episode, classify, compute_prototypes, episode_loss, sample_episode
from .training import (
    EvalReport,
    InputCache,
    TrainConfig,
    Trainer,
    evaluate,
    restore_encoder,
    save_encoder_checkpoint,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "SAMPLE_RATE", "TimbreProfile", "Waveform", "load_wav", "synth_clip", "write_wav",
    "FewShotSplit", "Manifest", "gen_synthetic_corpus", "load_manifest",
    "make_splits", "select_single_label_subset",
    "FrontendConfig", "build_mel_filterbank", "extract_features",
    "EncoderSpec", "build_encoder",
    "Episode", "classify", "compute_prototypes", "episode_loss", "sample_episode",
    "EvalReport", "InputCache", "TrainConfig", "Trainer",
    "evaluate", "restore_encoder", "save_encoder_checkpoint", "train",
    "__version__",
]
