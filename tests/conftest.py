"""Shared fixtures. WAV fixtures are written with the stdlib wave module
directly so file-format tests do not depend on the writer under test."""

import errno
import struct
import wave
from pathlib import Path

import numpy as np
import pytest


def write_pcm16(path, ints, rate=16000, channels=1, sampwidth=2):
    """Write raw int16 samples through stdlib wave (independent of audio_io)."""
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(channels)
        wf.setsampwidth(sampwidth)
        wf.setframerate(rate)
        data = b"".join(struct.pack("<h", int(v)) for v in ints) if sampwidth == 2 \
            else bytes(int(v) & 0xFF for v in ints)
        wf.writeframes(data)


@pytest.fixture
def disk_full(monkeypatch):
    """arm(marker): from then on, Path.write_bytes to a file whose name holds
    marker writes the first half of its data and fails as a full disk would."""
    real = Path.write_bytes

    def arm(marker=""):
        def write_half(self, data):
            if marker not in self.name:
                return real(self, data)
            real(self, data[:len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device", str(self))

        monkeypatch.setattr(Path, "write_bytes", write_half)

    return arm


@pytest.fixture
def tone_wav(tmp_path):
    """One second of a 440 Hz tone as a 16 kHz PCM16 mono file."""
    t = np.arange(16000) / 16000.0
    x = 0.5 * np.sin(2 * np.pi * 440.0 * t)
    path = tmp_path / "tone.wav"
    write_pcm16(path, np.rint(x * 32768).astype(int))
    return path
