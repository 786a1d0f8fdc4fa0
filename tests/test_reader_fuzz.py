"""Seeded mutation tests for every reader of a file format: each mutant of a
valid file either loads or raises a ProtoAudioError with an exit code, so bad
input never ends in a traceback (Miller, Fredriksen & So 1990, "An Empirical
Study of the Reliability of UNIX Utilities").

Mutants are drawn from `random.Random`: a byte flip, a truncation, an
insertion, or a boundary integer (0, 1, 2, 0x7FFFFFFF, 0xFFFFFFFF) written as
a little-endian u32 or as decimal text. Every even-numbered mutant lands in
its format's header, so at least half of them do.
"""

import hashlib
import random
import struct

import numpy as np
import pytest

from protoaudio.audio_io import TimbreProfile, load_wav, synth_clip, write_wav
from protoaudio.datasetkit import load_manifest
from protoaudio.diffcore import load_archive, save_archive
from protoaudio.dsp import extract_features, load_features, save_features
from protoaudio.encoders import EncoderSpec, build_encoder
from protoaudio.errors import ProtoAudioError
from protoaudio.training import MetricRecord, load_history, restore_encoder, save_encoder_checkpoint

MUTANTS = 2000
BOUNDARY_INTS = (0, 1, 2, 0x7FFFFFFF, 0xFFFFFFFF)


def mutate(data: bytes, header_len: int, rng: random.Random, in_header: bool) -> bytes:
    """One seeded mutation of data, at a position inside its first
    header_len bytes when in_header, else anywhere in it."""
    pos = rng.randrange(min(header_len, len(data)) if in_header else len(data))
    kind = rng.randrange(4)
    if kind == 0:
        return data[:pos] + bytes([data[pos] ^ rng.randrange(1, 256)]) + data[pos + 1:]
    if kind == 1:
        return data[:pos]
    if kind == 2:
        return data[:pos] + rng.randbytes(rng.randint(1, 8)) + data[pos:]
    value = rng.choice(BOUNDARY_INTS)
    word = struct.pack("<I", value) if rng.random() < 0.5 else str(value).encode()
    return data[:pos] + word + data[pos + len(word):]


def archive_header_len(data: bytes) -> int:
    """Bytes of an archive up to its first tensor's values: magic, version,
    metadata, tensor count and the first tensor's name, dtype and shape."""
    (meta_len,) = struct.unpack_from("<I", data, 8)
    off = 12 + meta_len + 4
    (name_len,) = struct.unpack_from("<H", data, off)
    off += 2 + name_len
    return off + 2 + 4 * data[off + 1]


def resign(data: bytes) -> bytes:
    """The archive with its SHA-256 trailer recomputed over its body, so a
    mutant reaches the layout checks behind the checksum."""
    body = data[:-32] if len(data) > 32 else data
    return body + hashlib.sha256(body).digest()


def fuzz(tmp_path, name, valid: bytes, header_len: int, read, seed, finish=lambda b: b):
    """Runs read on MUTANTS mutants of valid; returns how many loaded."""
    rng = random.Random(seed)
    path = tmp_path / name
    loaded, escaped = 0, []
    for k in range(MUTANTS):
        path.write_bytes(finish(mutate(valid, header_len, rng, in_header=k % 2 == 0)))
        try:
            read(path)
            loaded += 1
        except ProtoAudioError as exc:
            if exc.exit_code is None:
                escaped.append((k, repr(exc)))
        except Exception as exc:     # anything else would end the CLI in a traceback
            escaped.append((k, repr(exc)))
    assert not escaped, f"{len(escaped)} of {MUTANTS} mutants escaped, e.g. {escaped[:3]}"
    return loaded


def wav_bytes(tmp_path):
    path = tmp_path / "valid.wav"
    write_wav(path, synth_clip(TimbreProfile(440.0, (1.0, 0.5)), 0.1, seed=1))
    return path.read_bytes()


@pytest.mark.parametrize("read", [load_wav, lambda p: extract_features(load_wav(p))],
                         ids=["load_wav", "extract_features"])
def test_wav_mutants_load_or_fail_with_an_exit_code(tmp_path, read):
    valid = wav_bytes(tmp_path)
    loaded = fuzz(tmp_path, "clip.wav", valid, 44, read, seed=1)
    assert 0 < loaded < MUTANTS


def test_feature_dump_mutants_load_or_fail_with_an_exit_code(tmp_path):
    path = tmp_path / "valid.lmel"
    save_features(path, np.random.default_rng(2).uniform(-13.8, 0.0, size=(5, 64)))
    loaded = fuzz(tmp_path, "clip.lmel", path.read_bytes(), 16, load_features, seed=2)
    assert 0 < loaded < MUTANTS


def test_resigned_archive_mutants_load_or_fail_with_an_exit_code(tmp_path):
    path = tmp_path / "valid.ntar"
    rng = np.random.default_rng(3)
    save_archive(path, {"a": rng.standard_normal((3, 4)).astype(np.float32),
                        "b": rng.standard_normal(5), "c": np.arange(6).reshape(2, 3),
                        "d": np.float32(1.5)},
                 {"episode": 7, "note": "fuzz"})
    valid = path.read_bytes()
    loaded = fuzz(tmp_path, "mutant.ntar", valid, archive_header_len(valid), load_archive,
                  seed=3, finish=resign)
    assert 0 < loaded < MUTANTS


def test_resigned_checkpoint_mutants_restore_or_fail_with_an_exit_code(tmp_path):
    spec = EncoderSpec("sincnet", "desk")
    path = tmp_path / "valid.ckpt"
    save_encoder_checkpoint(path, build_encoder(spec, seed=4), extra_meta={"episode": 12})
    valid = path.read_bytes()
    loaded = fuzz(tmp_path, "best.ckpt", valid, archive_header_len(valid),
                  lambda p: restore_encoder(p, spec), seed=4, finish=resign)
    assert 0 < loaded < MUTANTS


def test_manifest_mutants_load_or_fail_with_an_exit_code(tmp_path):
    lines = [f"class{c:02d}/clip{i:03d}.wav\tclass{c:02d}" + (",extra" if i % 3 == 0 else "")
             for c in range(4) for i in range(5)]
    valid = ("\n".join(lines) + "\n").encode()
    loaded = fuzz(tmp_path, "manifest.tsv", valid, valid.index(b"\n") + 1, load_manifest,
                  seed=5)
    assert 0 < loaded < MUTANTS


def test_history_mutants_load_or_fail_with_an_exit_code(tmp_path):
    records = [MetricRecord(1, 1.5, None, "2026-01-01T00:00:00.000+00:00"),
               MetricRecord(2, 1.25, 0.5, "2026-01-01T00:00:01.000+00:00"),
               MetricRecord(3, 0.75, None, "2026-01-01T00:00:02.000+00:00")]
    valid = "".join(r.to_json() + "\n" for r in records).encode()
    loaded = fuzz(tmp_path, "history.jsonl", valid, valid.index(b"\n") + 1, load_history,
                  seed=6)
    assert 0 < loaded < MUTANTS
