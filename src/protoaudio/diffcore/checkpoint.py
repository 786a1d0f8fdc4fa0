"""Named-tensor archive with a JSON metadata block and SHA-256 trailer.

Layout (all integers little-endian):

    magic   b"NTAR"
    u32     format version (1)
    u32     metadata length;  UTF-8 JSON object follows
    u32     tensor count
    per tensor:
        u16   name length; UTF-8 name
        u8    dtype tag (0=float32, 1=float64, 2=int64)
        u8    ndim
        u32*  shape
        raw little-endian buffer, row-major
    32 raw bytes: SHA-256 of everything above

Tensors are written in sorted-name order, so identical content yields
identical bytes, and no name appears twice. The archive, like the run's
other output files, is written through `write_atomic`.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from pathlib import Path
from typing import Mapping

import numpy as np

from ..errors import CorruptCheckpointError

MAGIC = b"NTAR"
VERSION = 1

_TAG_FOR = {np.dtype("<f4"): 0, np.dtype("<f8"): 1, np.dtype("<i8"): 2}
_DTYPE_FOR = {0: np.dtype("<f4"), 1: np.dtype("<f8"), 2: np.dtype("<i8")}


def write_atomic(path, data: bytes) -> None:
    """Replace the file at path with data, or leave it as it was: the bytes go
    to a temp file in the same directory, which os.replace moves over path."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_archive(path, tensors: Mapping[str, np.ndarray], meta: dict | None = None) -> None:
    """Writes what `load_archive` reads back; metadata that is not a dict,
    which it would reject, raises CorruptCheckpointError before any write."""
    meta = {} if meta is None else meta
    if not isinstance(meta, dict):
        raise CorruptCheckpointError(f"metadata is a {type(meta).__name__}, not a dict")
    parts = [MAGIC, struct.pack("<I", VERSION)]
    meta_blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    parts.append(struct.pack("<I", len(meta_blob)))
    parts.append(meta_blob)
    parts.append(struct.pack("<I", len(tensors)))
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name])
        dt = arr.dtype.newbyteorder("<")
        if dt not in _TAG_FOR:
            raise CorruptCheckpointError(f"unsupported dtype {arr.dtype} for tensor {name!r}")
        nb = name.encode("utf-8")
        parts.append(struct.pack("<H", len(nb)))
        parts.append(nb)
        parts.append(struct.pack("<BB", _TAG_FOR[dt], arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(arr.astype(dt, copy=False).tobytes())
    body = b"".join(parts)
    write_atomic(path, body + hashlib.sha256(body).digest())


def load_archive(path):
    """Returns (tensors: dict[str, ndarray], meta: dict); verifies the checksum.

    An archive that breaks the layout, even under a valid checksum, raises
    CorruptCheckpointError: metadata that is not a JSON object, a tensor name
    that is not UTF-8 or that appears twice, a short or long body."""
    blob = Path(path).read_bytes()
    if len(blob) < len(MAGIC) + 4 + 32:
        raise CorruptCheckpointError(f"{path}: truncated archive")
    body, digest = blob[:-32], blob[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise CorruptCheckpointError(f"{path}: checksum mismatch")
    if body[:4] != MAGIC:
        raise CorruptCheckpointError(f"{path}: bad magic {body[:4]!r}")
    off = 4

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(body):
            raise CorruptCheckpointError(f"{path}: truncated archive")
        chunk = body[off:off + n]
        off += n
        return chunk

    (version,) = struct.unpack("<I", take(4))
    if version != VERSION:
        raise CorruptCheckpointError(f"{path}: unsupported version {version}")
    (meta_len,) = struct.unpack("<I", take(4))
    try:
        meta = json.loads(take(meta_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptCheckpointError(f"{path}: bad metadata block ({exc})") from exc
    if not isinstance(meta, dict):
        raise CorruptCheckpointError(f"{path}: metadata is a JSON {type(meta).__name__}, "
                                     "not an object")
    (count,) = struct.unpack("<I", take(4))
    tensors = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptCheckpointError(f"{path}: tensor name is not UTF-8 ({exc})") from exc
        if name in tensors:
            raise CorruptCheckpointError(f"{path}: tensor {name!r} appears twice")
        tag, ndim = struct.unpack("<BB", take(2))
        if tag not in _DTYPE_FOR:
            raise CorruptCheckpointError(f"{path}: unknown dtype tag {tag}")
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
        dt = _DTYPE_FOR[tag]
        n_items = int(np.prod(shape, dtype=np.int64)) if ndim else 1
        buf = take(n_items * dt.itemsize)
        tensors[name] = np.frombuffer(buf, dtype=dt).reshape(shape).copy()
    if off != len(body):
        raise CorruptCheckpointError(f"{path}: {len(body) - off} trailing bytes")
    return tensors, meta
