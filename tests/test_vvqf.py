"""Feature-file container tests: byte-level layout oracle, round trips, and
corruption detection."""
import re
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vivqa.errors import FormatError
from vivqa.tensor import Tensor
from vivqa.vvqf import read_feature_file, write_feature_file


def test_byte_layout_hand(tmp_path):
    """Independent byte-by-byte construction of a known file."""
    path = tmp_path / "f.vvqf"
    arr = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
    write_feature_file(path, Tensor(arr))
    raw = path.read_bytes()
    want = b"VVQF" + struct.pack("<II", 1, 2) + struct.pack("<II", 2, 2)
    want += arr.astype("<f4").tobytes()
    want += struct.pack("<I", zlib.crc32(want) & 0xFFFFFFFF)
    assert raw == want


def test_round_trip_preserves_values(tmp_path):
    path = tmp_path / "f.vvqf"
    arr = np.linspace(-5, 5, 24, dtype=np.float32).reshape(2, 3, 4)
    write_feature_file(path, Tensor(arr))
    back = read_feature_file(path)
    assert back.shape == (2, 3, 4)
    np.testing.assert_array_equal(back.data, arr)


def test_write_is_deterministic(tmp_path):
    arr = np.random.default_rng(3).normal(size=(4, 5)).astype(np.float32)
    a, b = tmp_path / "a.vvqf", tmp_path / "b.vvqf"
    write_feature_file(a, Tensor(arr))
    write_feature_file(b, Tensor(arr))
    assert a.read_bytes() == b.read_bytes()


def test_float64_payload_written_as_f32(tmp_path):
    path = tmp_path / "f.vvqf"
    arr = np.array([1.0 + 1e-12])
    write_feature_file(path, Tensor(arr))
    back = read_feature_file(path)
    assert back.data.dtype == np.float32
    assert back.data[0] == np.float32(1.0 + 1e-12)


def test_bad_magic(tmp_path):
    path = tmp_path / "f.vvqf"
    write_feature_file(path, Tensor(np.ones(3, dtype=np.float32)))
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="magic"):
        read_feature_file(path)


def test_bad_version(tmp_path):
    path = tmp_path / "f.vvqf"
    write_feature_file(path, Tensor(np.ones(3, dtype=np.float32)))
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, 4, 9)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="version"):
        read_feature_file(path)


def test_truncation(tmp_path):
    path = tmp_path / "f.vvqf"
    write_feature_file(path, Tensor(np.ones((2, 2), dtype=np.float32)))
    raw = path.read_bytes()
    for cut in (3, 10, len(raw) - 1):
        path.write_bytes(raw[:cut])
        with pytest.raises(FormatError):
            read_feature_file(path)


def test_payload_corruption_fails_checksum(tmp_path):
    path = tmp_path / "f.vvqf"
    write_feature_file(path, Tensor(np.ones((2, 2), dtype=np.float32)))
    raw = bytearray(path.read_bytes())
    raw[-6] ^= 0xFF  # flip a payload byte, keep length
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="checksum"):
        read_feature_file(path)


def test_checksum_corruption(tmp_path):
    path = tmp_path / "f.vvqf"
    write_feature_file(path, Tensor(np.ones(2, dtype=np.float32)))
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="checksum"):
        read_feature_file(path)


def test_missing_path_and_directory_raise_oserror(tmp_path):
    """Not a FormatError: the CLI maps an unreadable path to exit 4, as it
    did when the reader went through open()."""
    for path in (tmp_path / "absent.vvqf", tmp_path):
        with pytest.raises(OSError) as info:
            read_feature_file(path)
        assert not isinstance(info.value, FormatError)


def test_each_cut_or_corruption_is_a_format_error_naming_the_path(tmp_path):
    path = tmp_path / "f.vvqf"
    write_feature_file(path, Tensor(np.arange(12, dtype=np.float32).reshape(3, 4)))
    raw = path.read_bytes()     # header 12 bytes, dims 8, payload 48, crc 4
    flipped = bytearray(raw)
    flipped[-2] ^= 0x10
    cases = {
        "truncated file": raw[:15],
        "truncated dimension list": raw[:16],
        "payload/checksum size mismatch": raw[:40],
        "payload/checksum size mismatch (have 73, want 72)": raw + b"\0",
        "checksum mismatch": bytes(flipped),
    }
    for message, content in cases.items():
        path.write_bytes(content)
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: {re.escape(message)}"):
            read_feature_file(path)


def test_returned_array_is_read_only(tmp_path):
    path = tmp_path / "f.vvqf"
    write_feature_file(path, Tensor(np.ones((2, 2), dtype=np.float32)))
    data = read_feature_file(path).data
    assert not data.flags.writeable
    with pytest.raises(ValueError):
        data[0, 0] = 2.0


@given(st.integers(0, 10_000), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_round_trip_property(seed, rank):
    import tempfile, os
    r = np.random.default_rng(seed)
    shape = tuple(int(v) for v in r.integers(1, 5, size=rank))
    arr = r.normal(size=shape).astype(np.float32)
    fd, path = tempfile.mkstemp(suffix=".vvqf")
    os.close(fd)
    try:
        write_feature_file(path, Tensor(arr))
        np.testing.assert_array_equal(read_feature_file(path).data, arr)
    finally:
        os.unlink(path)
