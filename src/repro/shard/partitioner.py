"""Key-to-shard placement policies for the sharded engine.

The paper positions bLSM as the storage node of PNUTS-style sharded web
services (Sections 1 and 6): a fleet of independent trees, each owning a
slice of the keyspace.  A :class:`Partitioner` is that slicing policy.
Two concrete policies cover the standard design space (Luo & Carey's
LSM survey, Section "LSM-based distributed storage"):

* :class:`HashPartitioner` — uniform load spreading, no range locality;
* :class:`RangePartitioner` — contiguous key ranges per shard, so range
  scans touch few shards.

A partitioner is immutable and names exactly one owner per key; the
router reads a key only on that owner and scans a shard only inside
:meth:`Partitioner.shard_range`.  The one way a boundary moves is a live
migration (``repro.shard.migration``), which copies the range before its
switch installs a new partitioner and deletes the old copies after it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_right
from typing import Iterable, Sequence

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a_bytes(data: bytes) -> int:
    """64-bit FNV-1a over raw key bytes.

    Python's built-in ``hash`` of bytes is salted per process
    (PYTHONHASHSEED), which would make shard placement — and therefore
    every simulated device access — nondeterministic across runs.  FNV
    keeps routing reproducible, the property the whole virtual-clock
    methodology rests on.
    """
    value = _FNV_OFFSET
    for byte in data:
        value ^= byte
        value = (value * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return value


class Partitioner(ABC):
    """Maps keys to shard indices in ``[0, nshards)``."""

    @property
    @abstractmethod
    def nshards(self) -> int:
        """Number of shards this policy routes across."""

    @abstractmethod
    def shard_for(self, key: bytes) -> int:
        """The shard that currently owns ``key``."""

    def shard_range(self, index: int) -> tuple[bytes, bytes | None]:
        """The key range ``[lo, hi)`` shard ``index`` owns (``hi None``
        = unbounded); a policy that is not by range spans every key."""
        return b"", None

    def describe(self) -> str:
        """Short human-readable policy name for benchmark output."""
        return f"{type(self).__name__}({self.nshards})"


class HashPartitioner(Partitioner):
    """FNV-1a hash placement: uniform spreading, no range locality."""

    def __init__(self, nshards: int) -> None:
        if nshards < 1:
            raise ValueError(f"nshards must be >= 1, got {nshards}")
        self._nshards = nshards

    @property
    def nshards(self) -> int:
        return self._nshards

    def shard_for(self, key: bytes) -> int:
        return fnv1a_bytes(key) % self._nshards

    def describe(self) -> str:
        return f"hash({self._nshards})"


class RangePartitioner(Partitioner):
    """Contiguous key ranges per shard, split at explicit boundaries.

    ``boundaries`` is a sorted sequence of ``nshards - 1`` split keys:
    shard ``i`` owns keys in ``[boundaries[i-1], boundaries[i])`` (the
    first shard owns everything below ``boundaries[0]``, the last
    everything at or above ``boundaries[-1]``).  A partitioner never
    changes: a live migration's switch installs a new one.
    """

    def __init__(self, boundaries: Sequence[bytes]) -> None:
        split = list(boundaries)
        if not split:
            raise ValueError("need at least one boundary (two shards)")
        if split != sorted(split) or len(set(split)) != len(split):
            raise ValueError("boundaries must be strictly increasing")
        self._boundaries = split

    @classmethod
    def from_sample(
        cls, keys: Iterable[bytes], nshards: int
    ) -> "RangePartitioner":
        """Boundaries at the quantiles of a key sample.

        The practical way to get balanced ranges over an arbitrary key
        population (the YCSB generator's hashed ``user...`` keys are
        uniform in hash space but lumpy lexicographically): sort a
        sample, cut it into ``nshards`` equal slices.
        """
        if nshards < 2:
            raise ValueError(f"nshards must be >= 2, got {nshards}")
        ordered = sorted(set(keys))
        if len(ordered) < nshards:
            raise ValueError(
                f"sample of {len(ordered)} distinct keys cannot seed "
                f"{nshards} ranges"
            )
        step = len(ordered) / nshards
        return cls([ordered[int(step * i)] for i in range(1, nshards)])

    @property
    def nshards(self) -> int:
        return len(self._boundaries) + 1

    @property
    def boundaries(self) -> tuple[bytes, ...]:
        return tuple(self._boundaries)

    def shard_for(self, key: bytes) -> int:
        return bisect_right(self._boundaries, key)

    def shard_range(self, index: int) -> tuple[bytes, bytes | None]:
        boundaries = self._boundaries
        lo = b"" if index == 0 else boundaries[index - 1]
        hi = None if index == len(boundaries) else boundaries[index]
        return lo, hi

    def describe(self) -> str:
        return f"range({self.nshards})"


def make_partitioner(
    name: str, nshards: int, sample: Iterable[bytes] | None = None
) -> Partitioner:
    """Build a partitioner by CLI name (``hash`` or ``range``).

    ``range`` needs a key ``sample`` to place balanced boundaries; the
    CLI passes the workload generator's load keys.
    """
    if name == "hash":
        return HashPartitioner(nshards)
    if name == "range":
        if nshards == 1:
            return HashPartitioner(1)  # one shard needs no boundaries
        if sample is None:
            raise ValueError("range partitioner needs a key sample")
        return RangePartitioner.from_sample(sample, nshards)
    raise ValueError(f"unknown partitioner {name!r}; expected hash or range")
