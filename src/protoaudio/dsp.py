"""Log-mel feature extraction: framing, mel filterbank, per-frame power spectra.

A clip becomes a T x n_mels matrix: overlapping hamming-windowed frames,
power FFT, triangular mel filters, natural log with an additive floor. The
power spectrum is normalized so its per-frame total equals the windowed-frame
energy (one-sided bins carry the 2/N weight, DC and Nyquist 1/N).
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from .audio_io import SAMPLE_RATE, Waveform
from .diffcore.checkpoint import write_atomic
from .errors import ConfigError, DomainError

FEATURE_MAGIC = b"LMEL"
FEATURE_VERSION = 1


@dataclass(frozen=True)
class FrontendConfig:
    """The one log-mel front end: VGGish's 64 bands of 25-ms frames at a
    10-ms hop over 0-8 kHz. Its sizes are constants, not fields."""

    frame_len_samples: ClassVar[int] = 400    # 25 ms at 16 kHz
    hop_samples: ClassVar[int] = 160          # 10 ms
    fft_size: ClassVar[int] = 512
    n_bins: ClassVar[int] = fft_size // 2 + 1
    n_mels: ClassVar[int] = 64
    fmin_hz: ClassVar[float] = 0.0
    fmax_hz: ClassVar[float] = 8000.0         # Nyquist
    log_floor: ClassVar[float] = 1e-6


def mel_scale(f_hz):
    """Hz -> mel, HTK convention 2595*log10(1 + f/700)."""
    f = np.asarray(f_hz, dtype=np.float64)
    if np.any(f < 0):
        raise DomainError(f"mel_scale needs f >= 0, got {f_hz}")
    out = 2595.0 * np.log10(1.0 + f / 700.0)
    return float(out) if np.ndim(f_hz) == 0 else out


def mel_inverse(mel):
    """mel -> Hz; composes with mel_scale to identity."""
    m = np.asarray(mel, dtype=np.float64)
    if np.any(m < 0):
        raise DomainError(f"mel_inverse needs mel >= 0, got {mel}")
    out = 700.0 * (np.power(10.0, m / 2595.0) - 1.0)
    return float(out) if np.ndim(mel) == 0 else out


def frame_signal(w) -> np.ndarray:
    """Slice a waveform into hamming-windowed frames, shape (T, frame_len).

    Frame i covers samples [i*hop, i*hop + frame_len). Inputs shorter than
    one frame are zero-padded to exactly one.
    """
    x = w.samples if isinstance(w, Waveform) else np.asarray(w)
    x = x.astype(np.float64)
    L, hop = FrontendConfig.frame_len_samples, FrontendConfig.hop_samples
    if x.size < L:
        x = np.concatenate([x, np.zeros(L - x.size)])
    n_frames = (x.size - L) // hop + 1
    idx = hop * np.arange(n_frames)[:, None] + np.arange(L)[None, :]
    return x[idx] * np.hamming(L)[None, :]


def power_spectrum(frames: np.ndarray) -> np.ndarray:
    """One-sided power spectrum whose per-frame sum equals the frame energy."""
    n = FrontendConfig.fft_size
    spec = np.fft.rfft(frames, n=n, axis=-1)
    power = (spec.real**2 + spec.imag**2) / n
    power[..., 1:-1] *= 2.0         # the even-length FFT's Nyquist bin stays 1/N
    return power


@functools.cache
def build_mel_filterbank() -> np.ndarray:
    """Triangular filters, shape (n_mels, fft_size//2 + 1), peak weight 1.

    Filter m is the triangle over mel-equally-spaced breakpoints
    (m, m+1, m+2), sampled at FFT bin center frequencies. Cached, read-only.
    """
    cfg = FrontendConfig
    breaks_mel = np.linspace(mel_scale(cfg.fmin_hz), mel_scale(cfg.fmax_hz), cfg.n_mels + 2)
    breaks_hz = mel_inverse(breaks_mel)
    bin_hz = np.arange(cfg.n_bins) * (SAMPLE_RATE / cfg.fft_size)
    fb = np.zeros((cfg.n_mels, cfg.n_bins))
    for m in range(cfg.n_mels):
        lo, mid, hi = breaks_hz[m], breaks_hz[m + 1], breaks_hz[m + 2]
        rising = (bin_hz - lo) / (mid - lo)
        falling = (hi - bin_hz) / (hi - mid)
        fb[m] = np.maximum(0.0, np.minimum(rising, falling))
    fb.setflags(write=False)
    return fb


def extract_features(w) -> np.ndarray:
    """Waveform -> (T, n_mels) log-mel matrix, float64.

    Every entry is >= log(log_floor); an all-zero input yields exactly that
    constant.
    """
    power = power_spectrum(frame_signal(w))
    return np.log(power @ build_mel_filterbank().T + FrontendConfig.log_floor)


def save_features(path, features: np.ndarray) -> None:
    """Dump a feature matrix: 16-byte header (magic, version, T, n_mels), f32 LE rows."""
    feats = np.ascontiguousarray(features, dtype="<f4")
    if feats.ndim != 2:
        raise ConfigError(f"feature matrix must be 2-D, got shape {feats.shape}")
    header = FEATURE_MAGIC + struct.pack("<III", FEATURE_VERSION, feats.shape[0], feats.shape[1])
    write_atomic(path, header + feats.tobytes())


def load_features(path) -> np.ndarray:
    blob = Path(path).read_bytes()
    if len(blob) < 16 or blob[:4] != FEATURE_MAGIC:
        raise ConfigError(f"{path}: not a feature dump (bad magic)")
    version, t, n_mels = struct.unpack("<III", blob[4:16])
    if version != FEATURE_VERSION:
        raise ConfigError(f"{path}: unsupported feature dump version {version}")
    if len(blob) - 16 != 4 * t * n_mels:
        raise ConfigError(f"{path}: payload of {len(blob) - 16} bytes != {t}x{n_mels} floats")
    return np.frombuffer(blob[16:], dtype="<f4").reshape(t, n_mels).astype(np.float64)
