"""Versioned binary checkpoint container.

Layout (all integers little-endian uint32, all floats little-endian
float64):

    magic   b"SVLMCKPT"
    version u32 (currently 2)
    meta    u32 byte length + UTF-8 JSON (sorted keys; seed, stage, ...)
    count   u32 number of tensors
    entry*  name (u32 length + UTF-8), ndim u32, dims u32*, raw float64
    sha256  32-byte digest of everything above

Entries are sorted by name, so identical parameters always serialize to
identical bytes. Any other version is rejected.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

__all__ = ["save_checkpoint", "load_checkpoint", "CheckpointError"]

MAGIC = b"SVLMCKPT"
VERSION = 2
_DIGEST_BYTES = 32


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
    out += hashlib.sha256(out).digest()
    Path(path).write_bytes(bytes(out))


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint; a corrupt or truncated file, or a tensor holding
    NaN or inf, raises CheckpointError."""
    raw = Path(path).read_bytes()
    if raw[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    body = memoryview(raw)
    pos = len(MAGIC)

    def take(n_bytes: int) -> memoryview:
        nonlocal pos
        if pos + n_bytes > len(body):
            raise CheckpointError(f"{path}: truncated checkpoint")
        pos += n_bytes
        return body[pos - n_bytes : pos]

    def u32s(count: int) -> tuple[int, ...]:
        return struct.unpack(f"<{count}I", take(4 * count))

    (version,) = u32s(1)
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    body = body[:-_DIGEST_BYTES]
    if len(body) < pos or hashlib.sha256(body).digest() != raw[-_DIGEST_BYTES:]:
        raise CheckpointError(f"{path}: sha256 mismatch, the file is corrupt or truncated")
    tensors: dict[str, np.ndarray] = {}
    try:
        meta = json.loads(bytes(take(*u32s(1))).decode("utf-8"))
        (count,) = u32s(1)
        for _ in range(count):
            name = bytes(take(*u32s(1))).decode("utf-8")
            shape = u32s(*u32s(1))
            arr = np.frombuffer(take(8 * math.prod(shape)), dtype="<f8").reshape(shape)
            if not np.isfinite(arr).all():
                raise CheckpointError(f"{path}: tensor {name!r} holds NaN or inf")
            tensors[name] = arr.copy()
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: malformed checkpoint meta or tensor name: {exc}") from exc
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: checkpoint meta is not a JSON object")
    if pos != len(body):
        raise CheckpointError(f"{path}: trailing bytes after last tensor")
    return tensors, meta
