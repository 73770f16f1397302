"""Bloom filter based on double hashing (Kirsch & Mitzenmacher).

The paper's filters (Section 4.4.3) use double hashing: two independent
64-bit hashes ``h1, h2`` derive all ``k`` probe positions as
``h1 + i * h2 (mod m)``, which provides the same asymptotic false-positive
rate as ``k`` independent hash functions at a fraction of the cost.

Sizing follows Section 3.1: the engine tracks the number of keys in each
tree component and sizes the filter for a false-positive rate below 1 %
(about 10 bits per item, ``k = 7``).  Updates are monotonic — bits only
flip from 0 to 1 — and the on-disk trees are append-only, so deletion
support is unnecessary.
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterable

_blake2b = hashlib.blake2b

_MIN_BITS = 64


def optimal_bits(capacity: int, false_positive_rate: float) -> int:
    """Bits needed for ``capacity`` items at the target false-positive rate."""
    if capacity <= 0:
        return _MIN_BITS
    if not 0.0 < false_positive_rate < 1.0:
        raise ValueError(
            f"false_positive_rate must be in (0, 1), got {false_positive_rate}"
        )
    bits = -capacity * math.log(false_positive_rate) / (math.log(2) ** 2)
    return max(_MIN_BITS, int(math.ceil(bits)))


def optimal_hash_count(bits: int, capacity: int) -> int:
    """Number of probes minimizing the false-positive rate."""
    if capacity <= 0:
        return 1
    return max(1, round(bits / capacity * math.log(2)))


class BloomFilter:
    """A fixed-size Bloom filter over byte-string keys."""

    __slots__ = ("_bits", "_nbits", "_nhashes", "_ninserted")

    def __init__(self, nbits: int, nhashes: int) -> None:
        if nbits <= 0 or nhashes <= 0:
            raise ValueError(
                f"nbits and nhashes must be positive, got {nbits}, {nhashes}"
            )
        self._nbits = nbits
        self._nhashes = nhashes
        self._bits = bytearray((nbits + 7) // 8)
        self._ninserted = 0

    @classmethod
    def for_capacity(
        cls, capacity: int, false_positive_rate: float = 0.01
    ) -> "BloomFilter":
        """Size a filter for ``capacity`` keys at the target FPR (<1 % default)."""
        nbits = optimal_bits(capacity, false_positive_rate)
        return cls(nbits, optimal_hash_count(nbits, max(1, capacity)))

    @property
    def nbits(self) -> int:
        return self._nbits

    @property
    def nhashes(self) -> int:
        return self._nhashes

    @property
    def ninserted(self) -> int:
        return self._ninserted

    @property
    def nbytes(self) -> int:
        """Memory footprint of the bit array."""
        return len(self._bits)

    def add(self, key: bytes) -> None:
        """Insert a key.  Monotonic: bits only ever flip from 0 to 1."""
        self.update((key,))

    def update(self, keys: Iterable[bytes]) -> None:
        """Insert every key of ``keys`` (a component builder passes one
        block's keys at a time)."""
        # h1 + i*h2 computed incrementally with locals bound outside the
        # loops: every merged record is inserted, so the k-probe loop is
        # hot.  Bit positions are identical to the closed form
        # (h1 + i*h2 mod m).
        bits = self._bits
        nbits = self._nbits
        probes = range(self._nhashes)
        inserted = 0
        for key in keys:
            digest = _blake2b(key, digest_size=16).digest()
            h1 = int.from_bytes(digest[:8], "little")
            h2 = int.from_bytes(digest[8:], "little") | 1  # odd => full-period
            for _ in probes:
                bit = h1 % nbits
                bits[bit >> 3] |= 1 << (bit & 7)
                h1 += h2
            inserted += 1
        self._ninserted += inserted

    def __contains__(self, key: bytes) -> bool:
        digest = _blake2b(key, digest_size=16).digest()
        h1 = int.from_bytes(digest[:8], "little")
        h2 = int.from_bytes(digest[8:], "little") | 1  # odd => full-period
        bits = self._bits
        nbits = self._nbits
        for _ in range(self._nhashes):
            bit = h1 % nbits
            if not bits[bit >> 3] & (1 << (bit & 7)):
                return False
            h1 += h2
        return True

    def to_bytes(self) -> bytes:
        """The raw bit array, for persistence (Section 4.4.3)."""
        return bytes(self._bits)

    @classmethod
    def from_bytes(
        cls, nbits: int, nhashes: int, data: bytes, ninserted: int = 0
    ) -> "BloomFilter":
        """Reconstruct a filter from persisted bits."""
        bloom = cls(nbits, nhashes)
        if len(data) != len(bloom._bits):
            raise ValueError(
                f"expected {len(bloom._bits)} bytes of bits, got {len(data)}"
            )
        bloom._bits = bytearray(data)
        bloom._ninserted = ninserted
        return bloom

    def expected_false_positive_rate(self) -> float:
        """Predicted FPR given how many keys have actually been inserted."""
        if self._ninserted == 0:
            return 0.0
        fill = 1.0 - math.exp(-self._nhashes * self._ninserted / self._nbits)
        return fill**self._nhashes

    @staticmethod
    def _hash_pair(key: bytes) -> tuple[int, int]:
        digest = hashlib.blake2b(key, digest_size=16).digest()
        h1 = int.from_bytes(digest[:8], "little")
        h2 = int.from_bytes(digest[8:], "little") | 1  # odd => full-period
        return h1, h2

    def __repr__(self) -> str:
        return (
            f"BloomFilter(nbits={self._nbits}, nhashes={self._nhashes}, "
            f"ninserted={self._ninserted})"
        )
