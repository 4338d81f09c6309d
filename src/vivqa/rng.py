"""Deterministic, splittable random streams.

Built on numpy's counter-based Philox generator so sequences are
platform-independent.  Splitting by label derives an independent child
stream from a hash of (seed, label); the split depends only on those two
values, never on how much of the parent stream has been consumed.
"""
from __future__ import annotations

import hashlib

import numpy as np


class RngStream:
    __slots__ = ("seed", "_generator")

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._generator: np.random.Generator | None = None

    @property
    def _gen(self) -> np.random.Generator:
        # Generator construction is costly relative to sha256 splitting, so
        # streams that are split but never drawn from stay cheap.
        if self._generator is None:
            self._generator = np.random.Generator(np.random.Philox(key=self.seed))
        return self._generator

    def split(self, label: str) -> "RngStream":
        digest = hashlib.sha256(f"{self.seed}/{label}".encode("utf-8")).digest()
        return RngStream(int.from_bytes(digest[:8], "little"))

    def normal(self, shape=(), scale: float = 1.0) -> np.ndarray:
        return self._gen.normal(0.0, scale, size=shape)

    def normal_into(self, out: np.ndarray, scale: float = 1.0) -> None:
        """`out[...] = self.normal(out.shape, scale)` without the temporary:
        the same draws and the same rounding, 0.0 + scale * z."""
        self._gen.standard_normal(out=out)
        out *= scale
        out += 0.0

    def uniform(self, low: float, high: float, shape=()) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape)

    def bernoulli(self, p: float) -> bool:
        return bool(self._gen.random() < p)

    def integers(self, low: int, high: int, shape=()) -> np.ndarray:
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)
