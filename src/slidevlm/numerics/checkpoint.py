"""Versioned binary checkpoint container.

Layout (all integers little-endian uint32, all floats little-endian
float64):

    magic   b"SVLMCKPT"
    version u32 (currently 1)
    meta    u32 byte length + UTF-8 JSON (sorted keys; seed, stage, ...)
    count   u32 number of tensors
    entry*  name (u32 length + UTF-8), ndim u32, dims u32*, raw float64

Entries are sorted by name, so identical parameters always serialize to
identical bytes.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

__all__ = ["save_checkpoint", "load_checkpoint", "CheckpointError"]

MAGIC = b"SVLMCKPT"
VERSION = 1


class CheckpointError(ValueError):
    """Checkpoint file is malformed or incompatible."""


def save_checkpoint(path, tensors: dict[str, np.ndarray], meta: dict | None = None) -> None:
    meta = dict(meta or {})
    meta.setdefault("format", "slidevlm-checkpoint")
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", VERSION)
    out += struct.pack("<I", len(blob))
    out += blob
    names = sorted(tensors)
    out += struct.pack("<I", len(names))
    for name in names:
        arr = np.ascontiguousarray(np.asarray(tensors[name], dtype=np.float64))
        encoded = name.encode("utf-8")
        out += struct.pack("<I", len(encoded))
        out += encoded
        out += struct.pack("<I", arr.ndim)
        out += struct.pack(f"<{arr.ndim}I", *arr.shape)
        out += arr.tobytes(order="C")
    Path(path).write_bytes(bytes(out))


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    raw = Path(path).read_bytes()
    view = memoryview(raw)
    if raw[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    pos = len(MAGIC)

    def take(fmt: str):
        nonlocal pos
        size = struct.calcsize(fmt)
        values = struct.unpack_from(fmt, view, pos)
        pos += size
        return values

    (version,) = take("<I")
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    (meta_len,) = take("<I")
    meta = json.loads(bytes(view[pos : pos + meta_len]).decode("utf-8"))
    pos += meta_len
    (count,) = take("<I")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = take("<I")
        name = bytes(view[pos : pos + name_len]).decode("utf-8")
        pos += name_len
        (ndim,) = take("<I")
        shape = take(f"<{ndim}I") if ndim else ()
        n_bytes = int(np.prod(shape, dtype=np.int64)) * 8 if shape else 8
        arr = np.frombuffer(view[pos : pos + n_bytes], dtype="<f8").reshape(shape)
        pos += n_bytes
        tensors[name] = arr.copy()
    if pos != len(raw):
        raise CheckpointError(f"{path}: trailing bytes after last tensor")
    return tensors, meta

