"""VVQF: bit-exact binary container for precomputed visual features.

Layout (little-endian throughout):
    magic   4 bytes  b"VVQF"
    version u32      currently 1
    rank    u32
    dims    u32 * rank
    payload f32 row-major, prod(dims) elements
    crc     u32      zlib.crc32 of everything before it
"""
from __future__ import annotations

import math
import os
import struct
import zlib

import numpy as np

from .errors import FormatError
from .tensor import Tensor

MAGIC = b"VVQF"
VERSION = 1
_HEADER = struct.Struct("<4sII")     # magic, version, rank


def write_feature_file(path, tensor: Tensor) -> None:
    data = np.ascontiguousarray(tensor.data, dtype="<f4")
    body = _HEADER.pack(MAGIC, VERSION, data.ndim) + struct.pack(f"<{data.ndim}I", *data.shape)
    body += data.tobytes()
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))


def read_feature_file(path) -> Tensor:
    """The file's float32 tensor, a read-only view of its bytes (unbuffered reads to
    end of file), so a caller's cast to another dtype is the payload's only copy."""
    fd = os.open(path, os.O_RDONLY | getattr(os, "O_BINARY", 0))     # untranslated on Windows
    try:
        raw = os.read(fd, os.fstat(fd).st_size + 1)
        while more := os.read(fd, 1 << 16):     # after a short read
            raw += more
    finally:
        os.close(fd)
    if len(raw) < 16:
        raise FormatError(f"{path}: truncated file ({len(raw)} bytes)")
    magic, version, rank = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    offset = _HEADER.size + 4 * rank
    if len(raw) < offset:
        raise FormatError(f"{path}: truncated dimension list")
    dims = struct.unpack_from(f"<{rank}I", raw, _HEADER.size)
    count = math.prod(dims)
    end = offset + 4 * count
    if len(raw) != end + 4:
        raise FormatError(
            f"{path}: payload/checksum size mismatch (have {len(raw)}, want {end + 4})"
        )
    (crc,) = struct.unpack_from("<I", raw, end)
    if crc != (zlib.crc32(memoryview(raw)[:end]) & 0xFFFFFFFF):
        raise FormatError(f"{path}: checksum mismatch")
    return Tensor(np.frombuffer(raw, dtype="<f4", count=count, offset=offset).reshape(dims))
