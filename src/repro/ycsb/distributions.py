"""Request distributions, ported from YCSB.

YCSB's Zipfian generator implements the rejection-free algorithm of
Gray et al. ("Quickly generating billion-record synthetic databases"),
with the default skew constant theta = 0.99.  The *scrambled* variant —
YCSB's default for read workloads — hashes the Zipfian rank so the
popular keys are spread across the keyspace instead of clustered at the
low end.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod

ZIPFIAN_CONSTANT = 0.99
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a_64(value: int) -> int:
    """FNV-1a hash of an integer's 8 bytes (YCSB's scrambling hash)."""
    h = _FNV_OFFSET
    # Iterating the little-endian byte string is the same octet sequence
    # as masking/shifting 8 times, with fewer interpreter ops — this runs
    # once per generated key.
    for octet in (value & _MASK64).to_bytes(8, "little"):
        h = ((h ^ octet) * _FNV_PRIME) & _MASK64
    return h


def zeta(n: int, theta: float) -> float:
    """Generalized harmonic number: sum of 1/i**theta for i in 1..n."""
    return sum(1.0 / (i**theta) for i in range(1, n + 1))


class KeyChooser(ABC):
    """Chooses which of ``n`` items a request targets."""

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise ValueError(f"item count must be positive, got {n}")
        self.n = n

    @abstractmethod
    def next(self, rng: random.Random) -> int:
        """Return an item index in ``[0, n)``."""


class UniformChooser(KeyChooser):
    """Every item equally likely."""

    def next(self, rng: random.Random) -> int:
        return rng.randrange(self.n)


class ZipfianChooser(KeyChooser):
    """Zipf-distributed ranks: item 0 is the most popular.

    Implements YCSB's ZipfianGenerator (Gray et al.): closed-form inverse
    transform using precomputed zeta values.
    """

    def __init__(self, n: int, theta: float = ZIPFIAN_CONSTANT) -> None:
        super().__init__(n)
        if not 0.0 < theta < 1.0:
            raise ValueError(f"theta must be in (0, 1), got {theta}")
        self.theta = theta
        self._zetan = zeta(n, theta)
        self._zeta2 = zeta(2, theta)
        self._alpha = 1.0 / (1.0 - theta)
        self._eta = (1.0 - (2.0 / n) ** (1.0 - theta)) / (
            1.0 - self._zeta2 / self._zetan
        )
        # ``uz`` below this (and at least 1) draws rank 1.
        self._rank1_bound = 1.0 + 0.5**theta

    def next(self, rng: random.Random) -> int:
        u = rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < self._rank1_bound:
            return 1
        return int(self.n * (self._eta * u - self._eta + 1.0) ** self._alpha)


class ScrambledZipfianChooser(KeyChooser):
    """Zipfian popularity spread uniformly over the keyspace.

    YCSB's default for skewed request workloads: the hot set is a random
    subset of keys rather than the lexicographically smallest ones, which
    matters for tree locality.
    """

    def __init__(self, n: int, theta: float = ZIPFIAN_CONSTANT) -> None:
        super().__init__(n)
        self._zipfian = ZipfianChooser(n, theta)
        # Zipfian ranks repeat heavily (that is the point of the skew),
        # so memoizing the pure scramble turns the per-request hash into
        # a dict hit.  Bounded by n distinct ranks.
        self._scrambled: dict[int, int] = {}

    def next(self, rng: random.Random) -> int:
        rank = self._zipfian.next(rng)
        index = self._scrambled.get(rank)
        if index is None:
            index = self._scrambled[rank] = fnv1a_64(rank) % self.n
        return index


class LatestChooser(KeyChooser):
    """Skewed towards the most recently inserted items (YCSB workload D)."""

    def __init__(self, n: int, theta: float = ZIPFIAN_CONSTANT) -> None:
        super().__init__(n)
        self._zipfian = ZipfianChooser(n, theta)

    def next(self, rng: random.Random) -> int:
        return self.n - 1 - self._zipfian.next(rng)

    def grow(self, n: int) -> None:
        """Track an expanding keyspace as inserts land."""
        if n > self.n:
            self.n = n
            self._zipfian = ZipfianChooser(n, self._zipfian.theta)


def make_chooser(name: str, n: int) -> KeyChooser:
    """Build a chooser by YCSB distribution name."""
    if name == "uniform":
        return UniformChooser(n)
    if name == "zipfian":
        return ScrambledZipfianChooser(n)
    if name == "zipfian_clustered":
        return ZipfianChooser(n)
    if name == "latest":
        return LatestChooser(n)
    raise ValueError(f"unknown request distribution {name!r}")
