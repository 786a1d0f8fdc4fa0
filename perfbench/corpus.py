"""Seeded synthetic corpus: one harmonic timbre per class, buried in noise.

The WAVs are written with the standard-library `wave` module, not with the
package's own writer or corpus generator, so the inputs do not change when
the program does. The same seed writes byte-identical files.
"""

from __future__ import annotations

import wave
from pathlib import Path

import numpy as np

SAMPLE_RATE = 16000
N_CLASSES = 25
CLIPS_PER_CLASS = 20
DURATION_S = (0.8, 1.2)
# Harmonic stacks sum to ~0.1 against uniform noise of ~0.09: hard enough
# that an untrained encoder is far from perfect, easy enough to learn.
HARMONIC_TOTAL = (0.09, 0.13)
NOISE = (0.08, 0.10)
TOP_PARTIAL_HZ = 7900.0


def _clip(rng: np.random.Generator, f0: float, amps: np.ndarray, noise: float) -> np.ndarray:
    n = int(round(rng.uniform(*DURATION_S) * SAMPLE_RATE))
    t = np.arange(n) / SAMPLE_RATE
    partials = f0 * np.arange(1, amps.size + 1)
    phases = rng.uniform(0.0, 2.0 * np.pi, amps.size)
    x = amps @ np.sin(2.0 * np.pi * partials[:, None] * t[None, :] + phases[:, None])
    x += noise * rng.uniform(0.8, 1.25) * rng.uniform(-1.0, 1.0, n)
    x *= rng.uniform(0.4, 0.9) / np.max(np.abs(x))
    return np.rint(x * 32767.0).astype("<i2")


def write_corpus(out_dir, seed: int) -> Path:
    """Writes N_CLASSES x CLIPS_PER_CLASS PCM16 clips and manifest.tsv; returns
    the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    lines = []
    for c in range(N_CLASSES):
        f0 = 80.0 + 40.0 * c + rng.uniform(-5.0, 5.0)
        n_partials = min(8, int(TOP_PARTIAL_HZ // f0))
        amps = rng.uniform(0.6, 0.95) ** np.arange(n_partials)
        amps[rng.integers(0, n_partials)] *= rng.uniform(1.2, 1.6)
        amps *= rng.uniform(*HARMONIC_TOTAL) / amps.sum()
        noise = rng.uniform(*NOISE)
        for k in range(CLIPS_PER_CLASS):
            name = f"c{c:02d}_{k:03d}.wav"
            with wave.open(str(out / name), "wb") as wf:
                wf.setnchannels(1)
                wf.setsampwidth(2)
                wf.setframerate(SAMPLE_RATE)
                wf.writeframes(_clip(rng, f0, amps, noise).tobytes())
            lines.append(f"{name}\tc{c:02d}\n")
    manifest = out / "manifest.tsv"
    manifest.write_text("".join(lines), encoding="utf-8")
    return manifest
