"""Corpus manifests, class-disjoint few-shot splits, single-label subset
selection for multi-label corpora, and the synthetic timbre corpus generator.

Manifest format: UTF-8 TSV, one clip per line, "path<TAB>label[,label...]".
Relative clip paths resolve against the manifest's directory.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .audio_io import TimbreProfile, Waveform, synth_clip, write_wav
from .diffcore.checkpoint import write_atomic
from .errors import (
    ConfigError,
    DuplicatePathError,
    EmptyLabelSetError,
    InsufficientExamplesError,
    ManifestError,
    ManifestParseError,
    MissingRunError,
    SplitMismatchError,
    TooFewClassesError,
)


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    labels: frozenset


@dataclass(frozen=True)
class Manifest:
    entries: tuple

    @property
    def classes(self) -> list:
        return sorted({label for e in self.entries for label in e.labels})

    @property
    def is_single_label(self) -> bool:
        return all(len(e.labels) == 1 for e in self.entries)

    def by_class(self) -> dict:
        """Single-label manifests only: class -> ordered clip list."""
        if not self.is_single_label:
            raise ManifestError("manifest has multi-label entries; filter it first")
        out: dict = {}
        for e in self.entries:
            (label,) = e.labels
            out.setdefault(label, []).append(e.path)
        return out

    def __len__(self) -> int:
        return len(self.entries)


def load_manifest(path) -> Manifest:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"no manifest file at {p}")
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ManifestError(f"{p} is not UTF-8 text ({exc})") from exc
    base = p.parent
    entries = []
    seen = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.startswith("#"):
            continue
        if "\t" not in raw:
            raise ManifestParseError(line_no, f"expected 'path<TAB>labels', got {raw!r}")
        clip, _, label_field = raw.partition("\t")
        clip = clip.strip()
        if not clip:
            raise ManifestParseError(line_no, "empty clip path")
        labels = frozenset(s.strip() for s in label_field.split(",") if s.strip())
        if not labels:
            raise EmptyLabelSetError(line_no)
        resolved = clip if Path(clip).is_absolute() else str(base / clip)
        if resolved in seen:
            raise DuplicatePathError(line_no, clip)
        seen.add(resolved)
        entries.append(ManifestEntry(resolved, labels))
    return Manifest(tuple(entries))


def save_manifest(manifest: Manifest, path, relative_to=None) -> None:
    base = Path(relative_to) if relative_to else None
    lines = []
    for e in manifest.entries:
        clip = e.path
        if base is not None:
            try:
                clip = str(Path(clip).relative_to(base))
            except ValueError:
                pass
        lines.append(f"{clip}\t{','.join(sorted(e.labels))}")
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


@dataclass(frozen=True)
class FewShotSplit:
    """Class-disjoint train/val/test partitions with per-class clip lists."""

    train: dict
    val: dict
    test: dict
    dropped_classes: tuple
    seed: int
    ratios: tuple
    min_per_class: int

    def part(self, name: str) -> dict:
        if name not in ("train", "val", "test"):
            raise KeyError(name)
        return getattr(self, name)


def _largest_remainder(count: int, ratios: Sequence[float]) -> list:
    quotas = [count * r / sum(ratios) for r in ratios]
    alloc = [int(q) for q in quotas]
    order = sorted(range(len(ratios)), key=lambda i: (alloc[i] - quotas[i], i))
    for i in range(count - sum(alloc)):
        alloc[order[i]] += 1
    # every split keeps at least one class; steal from the largest
    for i in range(len(alloc)):
        while alloc[i] == 0:
            alloc[int(np.argmax(alloc))] -= 1
            alloc[i] += 1
    return alloc


def make_splits(manifest: Manifest, ratios=(0.6, 0.2, 0.2),
                min_per_class: int = 10, seed: int = 0) -> FewShotSplit:
    """Shuffle qualifying classes by seed, partition by largest-remainder rounding."""
    if len(ratios) != 3 or not all(math.isfinite(r) and r > 0 for r in ratios):
        raise ConfigError(f"split ratios must be 3 numbers, finite and positive, got {ratios}")
    per_class = manifest.by_class()
    qualifying = sorted(c for c, clips in per_class.items() if len(clips) >= min_per_class)
    dropped = tuple(sorted(set(per_class) - set(qualifying)))
    if len(qualifying) < 3:
        raise TooFewClassesError(
            f"{len(qualifying)} classes with >= {min_per_class} clips; "
            f"need at least 3 (one per split)"
        )
    rng = random.Random(seed)
    rng.shuffle(qualifying)
    n_train, n_val, n_test = _largest_remainder(len(qualifying), ratios)
    parts = (qualifying[:n_train],
             qualifying[n_train:n_train + n_val],
             qualifying[n_train + n_val:])
    train, val, test = ({c: tuple(per_class[c]) for c in sorted(block)} for block in parts)
    return FewShotSplit(train, val, test, dropped, seed, tuple(ratios), min_per_class)


def save_split(split: FewShotSplit, out_dir) -> None:
    """One file per part: provenance header plus one class id per line."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    header = (
        f"# seed={split.seed} ratios={','.join(str(r) for r in split.ratios)} "
        f"min_per_class={split.min_per_class}\n"
    )
    for name in ("train", "val", "test"):
        classes = sorted(split.part(name))
        write_atomic(out / f"{name}_classes.txt",
                     (header + "".join(c + "\n" for c in classes)).encode("utf-8"))


def check_saved_split(split: FewShotSplit, split_dir) -> None:
    """Check that each part of `split` has the classes `save_split` wrote to
    split_dir: SplitMismatchError names the first part that differs and how,
    MissingRunError a missing file."""
    for name in ("train", "val", "test"):
        path = Path(split_dir) / f"{name}_classes.txt"
        if not path.is_file():
            raise MissingRunError(f"{path}: no saved {name} split")
        lines = path.read_text(encoding="utf-8", errors="replace").splitlines()
        saved = {line for line in lines if line and not line.startswith("#")}
        now = set(split.part(name))
        if saved != now:
            raise SplitMismatchError(
                f"{name} split: the manifest now gives {sorted(now - saved)} where the "
                f"run's {path} has {sorted(saved - now)}"
            )


# -- single-label subset selection ----------------------------------------------


def single_label_count(manifest: Manifest, chosen: Iterable[str]) -> int:
    """Objective J(S): clips whose label set meets S in exactly one label."""
    s = set(chosen)
    return sum(1 for e in manifest.entries if len(e.labels & s) == 1)


def _swap_gain(hits: np.ndarray, leaving, joining: np.ndarray) -> int:
    """Change of J when the class with clip indices `leaving` (None for a plain
    add) leaves S and the one with `joining` joins it, given `hits` = |labels & S|
    per clip. Reads only those clips, and leaves `hits` as it was."""
    if leaving is None:
        h = hits[joining]
        return int(np.count_nonzero(h == 0) - np.count_nonzero(h == 1))
    h = hits[leaving]
    hits[leaving] -= 1  # so a clip of both classes nets zero
    gain = _swap_gain(hits, None, joining) + np.count_nonzero(h == 2) - np.count_nonzero(h == 1)
    hits[leaving] += 1
    return int(gain)


def select_single_label_subset(manifest: Manifest, m_classes: int,
                               budget: int = 50_000):
    """Greedy construction, first-improvement swap search, budgeted restarts.

    Returns (chosen class tuple, achieved J). Greedy adds the class with the
    best gain (ties to the lowest class id); the swap phase exchanges one
    chosen/unchosen pair whenever that raises J, until no swap improves. The
    remaining budget (counted in objective evaluations) goes to restarts from
    perturbed incumbents, keeping the best set seen. Deterministic: the
    restart stream uses a fixed internal seed.
    """
    if m_classes < 1:
        raise ConfigError(f"subset needs at least 1 class, got {m_classes}")
    if budget < 0:
        raise ConfigError(f"subset budget must be >= 0, got {budget}")
    classes = manifest.classes
    if len(classes) < m_classes:
        raise TooFewClassesError(
            f"manifest has {len(classes)} classes, subset needs {m_classes}"
        )
    clips_with = {c: [] for c in classes}
    for idx, e in enumerate(manifest.entries):
        for label in e.labels:
            clips_with[label].append(idx)
    clips_with = {c: np.array(idxs, dtype=np.intp) for c, idxs in clips_with.items()}
    hits = np.zeros(len(manifest.entries), dtype=np.int64)  # |labels & S| per clip

    def swap(current: set, out_cls, in_cls) -> set:
        hits[clips_with[out_cls]] -= 1
        hits[clips_with[in_cls]] += 1
        return (current - {out_cls}) | {in_cls}

    chosen, j = set(), 0  # J is the sum of the gains of the moves made
    for _ in range(m_classes):
        gains = {c: _swap_gain(hits, None, clips_with[c]) for c in classes if c not in chosen}
        best = max(gains, key=gains.get)  # the first in sorted order: ties to the lowest id
        chosen.add(best)
        hits[clips_with[best]] += 1
        j += gains[best]

    evals = 0

    def local_search(current: set, j: int):
        """First-improvement single swaps until none improves or budget ends."""
        nonlocal evals
        while evals < budget:
            for out_cls, in_cls in ((o, i) for o in sorted(current)
                                    for i in classes if i not in current):
                if evals >= budget:
                    return current, j
                evals += 1
                gain = _swap_gain(hits, clips_with[out_cls], clips_with[in_cls])
                if gain > 0:
                    current, j = swap(current, out_cls, in_cls), j + gain
                    break
            else:
                break  # no swap improves
        return current, j

    current, j = local_search(chosen, j)
    best_set, best_j = current, j
    # budget-bounded restarts from perturbed incumbents; single swaps alone
    # stall below target quality on ~10% of random instances (see ledger)
    rng = random.Random(0x5B5E7)
    n_outside = len(classes) - m_classes
    while evals < budget and n_outside > 0:
        kick = min(max(1, m_classes // 3), n_outside, m_classes)
        perturbed = best_set.difference(rng.sample(sorted(best_set), kick))
        perturbed.update(rng.sample(sorted(set(classes) - perturbed), kick))
        evals += 1
        # hits and J follow the last search's set; swap from it to the perturbed one
        for out_cls, in_cls in zip(current - perturbed, perturbed - current):
            j += _swap_gain(hits, clips_with[out_cls], clips_with[in_cls])
            current = swap(current, out_cls, in_cls)
        current, j = local_search(current, j)
        if j > best_j:
            best_set, best_j = current, j
    return tuple(sorted(best_set)), best_j


def exhaustive_single_label_subset(manifest: Manifest, m_classes: int):
    """Brute-force optimum; test oracle for small instances."""
    best_j, best_s = -1, None
    for combo in combinations(manifest.classes, m_classes):
        j = single_label_count(manifest, combo)
        if j > best_j:
            best_j, best_s = j, combo
    return best_s, best_j


def filter_to_subset(manifest: Manifest, chosen: Iterable[str]) -> Manifest:
    """Keep clips with exactly one label inside the subset, relabeled to it."""
    s = set(chosen)
    entries = []
    for e in manifest.entries:
        inter = e.labels & s
        if len(inter) == 1:
            entries.append(ManifestEntry(e.path, frozenset(inter)))
    return Manifest(tuple(entries))


# -- synthetic corpus --------------------------------------------------------------


def class_profiles(n_classes: int, rng: np.random.Generator) -> list:
    """Distinct fundamentals (>= 40 Hz apart) with distinct harmonic envelopes.

    Harmonic stacks sit close to the noise floor (combined amplitude ~0.1 vs
    noise up to 0.1): calibrated so an untrained encoder scores ~50% 5-way
    while a trained one exceeds 95%, keeping the learning margin measurable.
    """
    profiles = []
    for i in range(n_classes):
        f0 = 80.0 + 40.0 * i
        n_partials = min(8, int(7900.0 // f0))
        decay = rng.uniform(0.6, 0.95)
        amps = np.array([decay**j for j in range(n_partials)])
        amps[int(rng.integers(0, n_partials))] *= rng.uniform(1.2, 1.6)
        amps = amps / amps.sum() * rng.uniform(0.09, 0.13)
        profiles.append(TimbreProfile(f0, tuple(amps.tolist()),
                                      float(rng.uniform(0.08, 0.1))))
    return profiles


def gen_synthetic_corpus(out_dir, n_classes: int, clips_per_class: int, seed: int = 0):
    """Write WAVs plus manifest.tsv; returns (Manifest, manifest path).

    One timbre profile per class; per-clip jitter in duration (0.8 to 1.2 s),
    amplitude, and noise floor. Deterministic given the seed. Raises before
    writing anything unless 2 <= n_classes <= 30 and clips_per_class >= 1.
    """
    if n_classes < 2:
        raise TooFewClassesError(f"n_classes={n_classes} must be >= 2")
    if n_classes > 30:
        raise TooFewClassesError("fundamental spacing supports at most 30 classes")
    if clips_per_class < 1:
        raise InsufficientExamplesError(f"clips_per_class={clips_per_class} must be >= 1")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    profiles = class_profiles(n_classes, rng)
    entries = []
    for ci, profile in enumerate(profiles):
        label = f"class{ci:02d}"
        for k in range(clips_per_class):
            duration = float(rng.uniform(0.8, 1.2))
            noise = float(np.clip(profile.noise_floor * rng.uniform(0.8, 1.25), 0.0, 0.1))
            clip_profile = TimbreProfile(profile.fundamental_hz, profile.harmonic_amps, noise)
            clip_seed = int(rng.integers(0, 2**31 - 1))
            wav = synth_clip(clip_profile, duration, clip_seed)
            scale = float(rng.uniform(0.4, 1.0))
            wav = Waveform(wav.samples * np.float32(scale))
            name = f"{label}_clip{k:03d}.wav"
            write_wav(out / name, wav)
            entries.append(ManifestEntry(str(out / name), frozenset({label})))
    manifest = Manifest(tuple(entries))
    manifest_path = out / "manifest.tsv"
    save_manifest(manifest, manifest_path, relative_to=out)
    return manifest, manifest_path
