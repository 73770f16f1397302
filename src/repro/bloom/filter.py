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

Layout.  In host memory the ``m`` bits are ``m`` bytes, each 0 or 1,
held as ``T = 1 + ceil((k - 1) / 2)`` back-to-back copies ("tiles";
``T = 4`` at ``k = 7``), so that one probe is one C-level slice.  With
``b = h1 mod m`` and ``s = h2 mod m`` the positions are ``b + i*s
(mod m)``.  They are walked the short way round: the step is ``t =
min(s, m - s) <= m / 2``, and when ``s > m / 2`` the walk runs backwards
from ``b``, which is the same set of positions as the forward walk of
step ``t`` from ``c = b - (k - 1)*t (mod m)``.  The last position,
``c + (k - 1)*t``, is then below ``m + (k - 1)*m/2 <= T*m``, so every
probe is ``0 not in tiles[c : c + (k - 1)*t + 1 : t]`` with no ``mod``
inside it; ``t = 0`` (``m`` divides ``h2``) reads the one byte ``c``.
``k`` tiles would need no short-way-round walk but cost ``k*m`` host
bytes; ``T`` tiles hold the walk's reach and little more.  A fill sets
each key's ``k`` bytes with one slice assignment, wherever in the tiles
the walk lands, then ORs the tiles together once and writes the result
back to every tile; every bit is then the same in all of them.

Host bytes and simulated bytes are separate.  :attr:`~BloomFilter.nbytes`
is the packed size, ``ceil(m / 8)`` bytes (about 10 bits per key), which is
the footprint the paper sizes RAM by and what ``memory_footprint()``
reports as ``bloom``; :meth:`~BloomFilter.to_bytes` packs the tiles to
those bytes and :meth:`~BloomFilter.from_bytes` unpacks them.  The
tiles, ``T*m`` host bytes, are allocated at a filter's first probe,
persist, load or eager :meth:`~BloomFilter.update`: a filter built but
never read holds no bit array.
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
# _BIT[r] maps a packed byte to its bit r, as the byte 0 or 1.
_BIT = [bytes((value >> r) & 1 for value in range(256)) for r in range(8)]

_MIN_BITS = 64
_FOLD_BYTES = 1 << 16  # columns of the tiles one fold step ORs


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

    __slots__ = ("_nbits", "_nhashes", "_ninserted", "_pending", "_tiles")

    def __init__(self, nbits: int, nhashes: int) -> None:
        if nbits <= 0 or nhashes <= 0:
            raise ValueError(
                f"nbits and nhashes must be positive, got {nbits}, {nhashes}"
            )
        self._nbits = nbits
        self._nhashes = nhashes
        self._tiles: bytearray | None = None  # allocated at first need
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
        """Memory footprint of the packed bit array, ``ceil(nbits / 8)``."""
        return (self._nbits + 7) >> 3

    def add(self, key: bytes) -> None:
        """Insert a key.  Monotonic: bits only ever flip from 0 to 1."""
        self.update((key,))

    def update(self, keys: Iterable[bytes]) -> None:
        """Insert every key of ``keys`` now (``keys`` may be a generator
        whose reads must happen at call time, as in a recovery scan)."""
        self._ninserted += self._fill(self._settled(), keys)

    def defer(self, records: Sequence[Any]) -> None:
        """Insert the keys of ``records`` (objects with a ``key``), hashed
        when the filter is next read.  ``records`` is kept, not copied:
        a builder passes the block tuple it writes, which never changes."""
        self._pending.append(records)
        self._ninserted += len(records)

    def _settled(self) -> bytearray:
        """The tiles, allocated at first need, with every deferred key set."""
        tiles = self._tiles
        if tiles is None:
            tiles = self._tiles = bytearray(self._nbits * _ntiles(self._nhashes))
        if self._pending:
            pending, self._pending = self._pending, []
            self._fill(tiles, map(_KEY, chain.from_iterable(pending)))
        return tiles

    def _fill(self, tiles: bytearray, keys: Iterable[bytes]) -> int:
        """Set the ``k`` bits of every key; the number of keys.

        Each key's walk is the probe's (see the module docstring) and
        sets its ``k`` bytes in one slice assignment; a key whose step is
        0 sets one byte.  The tiles are then folded once, so every tile
        holds every key's bits.  Every key of every probed or persisted
        component passes through here, so the loop is hot and its names
        are bound outside it.
        """
        nbits = self._nbits
        half = nbits >> 1
        span = self._nhashes - 1
        ones = bytearray(b"\x01" * self._nhashes)  # bytes would be copied per key
        copy = _TEMPLATE.copy
        inserted = 0
        for key in keys:
            state = copy()
            state.update(key)
            h = _from_bytes(state.digest(), "little")
            step = ((h >> 64) | 1) % nbits
            if step > half:
                step = nbits - step
                start = ((h & _LOW64) - span * step) % nbits
            else:
                start = (h & _LOW64) % nbits
            if step:
                tiles[start : start + span * step + 1 : step] = ones
            else:
                tiles[start] = 1
            inserted += 1
        if inserted:
            _fold(tiles, nbits)
        return inserted

    def __contains__(self, key: bytes) -> bool:
        tiles = self._tiles
        if tiles is None or self._pending:
            tiles = self._settled()
        state = _TEMPLATE.copy()
        state.update(key)
        h = _from_bytes(state.digest(), "little")
        nbits = self._nbits
        span = self._nhashes - 1
        step = ((h >> 64) | 1) % nbits  # h2 odd: full period when m = 2^j
        if step > nbits >> 1:  # the short way round: walk back from h1
            step = nbits - step
            start = ((h & _LOW64) - span * step) % nbits
        else:
            start = (h & _LOW64) % nbits
        return 0 not in tiles[start : start + span * step + 1 : step or 1]

    def to_bytes(self) -> bytes:
        """The packed bit array, for persistence (Section 4.4.3): bit
        ``p`` is bit ``p % 8`` of byte ``p // 8``.  Deferred keys are
        hashed in first."""
        nbits = self._nbits
        nbytes = (nbits + 7) >> 3
        row = self._settled()[:nbits]
        row.extend(bytes(8 * nbytes - nbits))
        packed = 0
        for r in range(8):
            packed |= _from_bytes(row[r::8], "little") << r
        return packed.to_bytes(nbytes, "little")

    @classmethod
    def from_bytes(
        cls, nbits: int, nhashes: int, data: bytes, ninserted: int = 0
    ) -> "BloomFilter":
        """Reconstruct a filter from persisted bits."""
        bloom = cls(nbits, nhashes)
        nbytes = bloom.nbytes
        if len(data) != nbytes:
            raise ValueError(f"expected {nbytes} bytes of bits, got {len(data)}")
        row = bytearray(8 * nbytes)
        for r in range(8):
            row[r::8] = data.translate(_BIT[r])
        del row[nbits:]
        bloom._tiles = row * _ntiles(nhashes)
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


def _ntiles(nhashes: int) -> int:
    """T = 1 + ceil((k - 1) / 2): the tiles a ``k``-position walk spans."""
    return 1 + nhashes // 2


def _fold(tiles: bytearray, nbits: int) -> None:
    """OR the ``nbits``-byte tiles of ``tiles`` together, in place.

    The bytes are 0 or 1, so the OR of the tiles read as integers is the
    bytewise OR.  The fold runs ``_FOLD_BYTES`` columns at a time, so it
    holds a few of those, not a tile, however large the filter.
    """
    with memoryview(tiles) as view:
        for column in range(0, nbits, _FOLD_BYTES):
            width = min(_FOLD_BYTES, nbits - column)
            offsets = range(column, len(tiles), nbits)
            row = 0
            for offset in offsets:
                row |= _from_bytes(view[offset : offset + width], "little")
            folded = row.to_bytes(width, "little")
            for offset in offsets:
                view[offset : offset + width] = folded
