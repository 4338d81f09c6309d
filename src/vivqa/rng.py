"""Deterministic, splittable random streams, and drop path's keep table.

Built on numpy's counter-based Philox generator so sequences are
platform-independent.  Splitting by label derives an independent child
stream from a hash of (seed, label); the split depends only on those two
values, never on how much of the parent stream has been consumed.

`keep_table` is counter-based too (Salmon et al., "Parallel Random Numbers:
As Easy as 1, 2, 3", SC 2011), with SplitMix64's output function (Steele,
Lea & Flood, OOPSLA 2014) as the mix: integer ops on uint64 arrays, which
wrap and never round, so its bits are the same on every CPU code path.
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

    def integers(self, low: int, high: int, shape=()) -> np.ndarray:
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)     # SplitMix64's increment


def mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output function on a uint64 array: a bijection of 64-bit
    words.  Operands stay arrays, because numpy warns when uint64 scalars
    overflow, and overflow is the point."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def keep_table(run_key: int, epoch: int, item_keys, rates) -> np.ndarray:
    """Drop-path multipliers, (B, len(rates)): entry (i, s) is 1/(1 - rates[s])
    if item i keeps site s this epoch, else 0.  Item i's sites read SplitMix64's
    sequence seeded by mix(its key ^ the epoch's key), one output per site,
    and keep when its top 53 bits, as a float in [0, 1), fall below 1 - rate.
    So an entry is a pure function of (run_key, epoch, item key, site), never
    of the batch or the item's position in it."""
    rates = np.asarray(rates, dtype=np.float64)
    if not np.all((rates >= 0.0) & (rates < 1.0)):
        raise ValueError(f"drop path: rates must be in [0, 1), got {rates.tolist()}")
    epoch_key = mix64(np.array([run_key], np.uint64) + np.array([epoch + 1], np.uint64) * _GOLDEN)
    seeds = mix64(np.asarray(item_keys, dtype=np.uint64) ^ epoch_key)
    bits = mix64(seeds[:, None] + np.arange(1, rates.size + 1, dtype=np.uint64) * _GOLDEN)
    return np.where((bits >> np.uint64(11)) * 2.0 ** -53 < 1.0 - rates, 1.0 / (1.0 - rates), 0.0)
