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

A filter is filled when it is first read.  A component builder hands
each block's record tuple to :meth:`BloomFilter.defer` — the tuple it
writes, so the filter holds one list slot per block — and the keys are
hashed the first time :meth:`~BloomFilter.__contains__` or
:meth:`~BloomFilter.to_bytes` needs the bits.  Every merge rewrites its
output, so most components are merged away before any read probes them;
those never hash a key.  :attr:`~BloomFilter.ninserted` counts deferred
keys at once, and every answer and persisted byte equals the eager fill
of :meth:`~BloomFilter.update`.

Each key's 16-byte blake2b digest comes from a copy of one template
state, the hasher ``blake2b(digest_size=16)`` before any input
(``_TEMPLATE``): copying a state costs about half of building a
parameterised hasher, and the digest is the same bytes as
``blake2b(key, digest_size=16)``.
"""

from __future__ import annotations

import hashlib
import math
from itertools import chain
from operator import attrgetter
from typing import Any, Iterable, Sequence

# The empty 16-byte blake2b state every key's digest is copied from.
_TEMPLATE = hashlib.blake2b(digest_size=16)
_from_bytes = int.from_bytes
_KEY = attrgetter("key")
_LOW64 = (1 << 64) - 1

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

    __slots__ = ("_bits", "_nbits", "_nhashes", "_ninserted", "_pending")

    def __init__(self, nbits: int, nhashes: int) -> None:
        if nbits <= 0 or nhashes <= 0:
            raise ValueError(
                f"nbits and nhashes must be positive, got {nbits}, {nhashes}"
            )
        self._nbits = nbits
        self._nhashes = nhashes
        self._bits = bytearray((nbits + 7) // 8)
        self._ninserted = 0
        self._pending: list[Sequence[Any]] = []  # deferred record tuples

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
        """Insert every key of ``keys`` now (``keys`` may be a generator
        whose reads must happen at call time, as in a recovery scan)."""
        self._ninserted += self._fill(keys)

    def defer(self, records: Sequence[Any]) -> None:
        """Insert the keys of ``records`` (objects with a ``key``), hashed
        when the filter is next read.  ``records`` is kept, not copied:
        a builder passes the block tuple it writes, which never changes."""
        self._pending.append(records)
        self._ninserted += len(records)

    def _fill(self, keys: Iterable[bytes]) -> int:
        """Set the ``k`` bits of every key; the number of keys.

        ``h1`` and ``h2`` are taken from the digest as in
        :meth:`__contains__`; the walk ``h1 + i*h2 (mod m)`` is kept
        reduced, which sets the same bits as the closed form.  Every key
        of every probed or persisted component passes through here, so
        the loop is hot and its names are bound outside it.
        """
        bits = self._bits
        nbits = self._nbits
        probes = range(self._nhashes)
        copy = _TEMPLATE.copy
        inserted = 0
        for key in keys:
            state = copy()
            state.update(key)
            h = _from_bytes(state.digest(), "little")
            bit = (h & _LOW64) % nbits
            step = ((h >> 64) | 1) % nbits
            for _ in probes:
                bits[bit >> 3] |= 1 << (bit & 7)
                bit = (bit + step) % nbits
            inserted += 1
        return inserted

    def _fill_pending(self) -> None:
        self._fill(map(_KEY, chain.from_iterable(self._pending)))
        self._pending = []

    def __contains__(self, key: bytes) -> bool:
        if self._pending:
            self._fill_pending()
        state = _TEMPLATE.copy()
        state.update(key)
        h = _from_bytes(state.digest(), "little")
        h1 = h & _LOW64
        h2 = (h >> 64) | 1  # odd => full-period
        bits = self._bits
        nbits = self._nbits
        for _ in range(self._nhashes):
            bit = h1 % nbits
            if not bits[bit >> 3] & (1 << (bit & 7)):
                return False
            h1 += h2
        return True

    def to_bytes(self) -> bytes:
        """The raw bit array, for persistence (Section 4.4.3); deferred
        keys are hashed in first."""
        if self._pending:
            self._fill_pending()
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

    def __repr__(self) -> str:
        return (
            f"BloomFilter(nbits={self._nbits}, nhashes={self._nhashes}, "
            f"ninserted={self._ninserted})"
        )
