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
import struct
import zlib

import numpy as np

from .errors import FormatError
from .tensor import Tensor

MAGIC = b"VVQF"
VERSION = 1


def write_feature_file(path, tensor: Tensor) -> None:
    data = np.ascontiguousarray(tensor.data, dtype="<f4")
    header = MAGIC + struct.pack("<II", VERSION, data.ndim)
    header += struct.pack(f"<{data.ndim}I", *data.shape)
    body = header + data.tobytes()
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))


def read_feature_file(path) -> Tensor:
    """The file's float32 tensor, a read-only view of the bytes read, so a
    caller's cast to another dtype is the payload's only copy."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 16:
        raise FormatError(f"{path}: truncated file ({len(raw)} bytes)")
    if raw[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:4]!r}")
    version, rank = struct.unpack_from("<II", raw, 4)
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    offset = 12
    if len(raw) < offset + 4 * rank:
        raise FormatError(f"{path}: truncated dimension list")
    dims = struct.unpack_from(f"<{rank}I", raw, offset)
    offset += 4 * rank
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
