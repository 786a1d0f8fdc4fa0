"""Loading, validation, and synthesis of mono 16 kHz audio clips.

Everything downstream assumes the canonical rate; files at any other rate are
rejected rather than resampled so corpus preparation errors stay visible.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CorruptContainerError, InvalidProfileError, UnsupportedFormatError

SAMPLE_RATE = 16000

# PCM16 <-> float scaling uses the symmetric-negative convention: sample -32768
# maps to exactly -1.0 and all positives stay strictly below +1.0.
PCM16_SCALE = 32768.0

MIN_DURATION_S = 0.1
MAX_DURATION_S = 30.0
SYNTH_PEAK = 0.9


@dataclass(frozen=True)
class Waveform:
    """A mono clip at the canonical sampling rate, amplitudes in [-1, 1]."""

    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float32)
        if samples.ndim != 1 or samples.size < 1:
            raise UnsupportedFormatError(
                f"waveform must be a non-empty 1-D sequence, got shape {samples.shape}"
            )
        if not np.all(np.isfinite(samples)):
            raise UnsupportedFormatError("waveform contains non-finite samples")
        if np.max(np.abs(samples)) > 1.0:
            raise UnsupportedFormatError("waveform samples exceed [-1.0, 1.0]")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    @property
    def duration_s(self) -> float:
        return self.samples.size / SAMPLE_RATE

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class TimbreProfile:
    """Harmonic recipe for a synthetic clip: fundamental, partial amplitudes, noise."""

    fundamental_hz: float
    harmonic_amps: tuple = field(default=(1.0,))
    noise_floor: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "harmonic_amps", tuple(float(a) for a in self.harmonic_amps))
        f0 = self.fundamental_hz
        amps = self.harmonic_amps
        if not 80.0 <= f0 <= 2000.0:
            raise InvalidProfileError(f"fundamental_hz={f0} outside [80, 2000]")
        if not 1 <= len(amps) <= 8:
            raise InvalidProfileError(f"need 1..8 harmonic amplitudes, got {len(amps)}")
        if any(a < 0 for a in amps):
            raise InvalidProfileError("harmonic amplitudes must be nonnegative")
        if not any(a > 0 for a in amps):
            raise InvalidProfileError("at least one harmonic amplitude must be positive")
        if not 0.0 <= self.noise_floor <= 0.1:
            raise InvalidProfileError(f"noise_floor={self.noise_floor} outside [0, 0.1]")
        top = f0 * len(amps)
        if top >= 8000.0:
            raise InvalidProfileError(
                f"partial {len(amps)} at {top:.1f} Hz reaches Nyquist (8000 Hz)"
            )


def load_wav(path) -> Waveform:
    """Read a RIFF/WAVE file; must be 16-bit PCM, mono, 16 kHz."""
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"no audio file at {p}")
    try:
        with wave.open(str(p), "rb") as wf:
            channels = wf.getnchannels()
            width = wf.getsampwidth()
            rate = wf.getframerate()
            n = wf.getnframes()
            if channels != 1:
                raise UnsupportedFormatError(f"{p}: channels={channels}, need mono")
            if width != 2:
                raise UnsupportedFormatError(f"{p}: bit depth={8 * width}, need 16-bit PCM")
            if rate != SAMPLE_RATE:
                raise UnsupportedFormatError(f"{p}: sample rate={rate}, need {SAMPLE_RATE}")
            if n < 1:
                raise UnsupportedFormatError(f"{p}: empty audio (0 samples)")
            raw = wf.readframes(n)
    except wave.Error as exc:
        raise CorruptContainerError(f"{p}: not a valid WAVE container ({exc})") from exc
    except EOFError as exc:
        raise CorruptContainerError(f"{p}: truncated WAVE container") from exc
    except RuntimeError as exc:     # `wave`'s chunk reader, sent past a chunk's end
        raise CorruptContainerError(f"{p}: bad chunk size in WAVE container") from exc
    if len(raw) < 2 * n:
        raise CorruptContainerError(
            f"{p}: truncated data chunk ({len(raw)} bytes for {n} samples)")
    ints = np.frombuffer(raw, dtype="<i2")
    return Waveform(ints.astype(np.float32) / PCM16_SCALE)


def write_wav(path, waveform: Waveform) -> None:
    """Write a Waveform as 16-bit PCM; inverse of load_wav for PCM-exact data."""
    ints = np.clip(np.rint(waveform.samples * PCM16_SCALE), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(SAMPLE_RATE)
        wf.writeframes(ints.tobytes())


def synth_clip(profile: TimbreProfile, duration_s: float, seed: int) -> Waveform:
    """Render a harmonic tone with uniform noise, peak-normalized to 0.9.

    Deterministic given (profile, duration_s, seed).
    """
    if not MIN_DURATION_S <= duration_s <= MAX_DURATION_S:
        raise InvalidProfileError(
            f"duration_s={duration_s} outside [{MIN_DURATION_S}, {MAX_DURATION_S}]"
        )
    n = int(round(duration_s * SAMPLE_RATE))
    t = np.arange(n, dtype=np.float64) / SAMPLE_RATE
    x = np.zeros(n, dtype=np.float64)
    for i, amp in enumerate(profile.harmonic_amps):
        if amp > 0:
            x += amp * np.sin(2.0 * np.pi * profile.fundamental_hz * (i + 1) * t)
    if profile.noise_floor > 0:
        rng = np.random.default_rng(seed)
        x += profile.noise_floor * rng.uniform(-1.0, 1.0, size=n)
    peak = np.max(np.abs(x))
    if peak > 0:
        x *= SYNTH_PEAK / peak
    return Waveform(x.astype(np.float32))
