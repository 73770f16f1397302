"""A skip list: the ordered, update-in-place structure backing C0.

The LSM-Tree's in-memory component must support efficient point updates
*and* ordered scans (Section 2.3: "the in-memory tree supports efficient
ordered scans. Therefore, each merge can be performed in a single pass").
A skip list provides expected O(log n) insert/lookup/delete and O(1)
ordered successor steps, and is the structure used by LevelDB's memtable.

The successor step is what a snowshovel drain takes (Section 4.2):
``ceiling`` searches from a *finger* — per level, the rightmost node
before the key the last ``ceiling`` asked for — so an ascending walk of
``ceiling`` and ``remove`` calls costs O(1) expected per record, not a
search from the head each.  ``insert`` and ``remove`` keep the finger on
linked nodes; a ``ceiling`` behind it, or past nodes it has not seen,
searches from the head again.

Randomness is drawn from a per-instance seeded generator so simulations
are reproducible.
"""

from __future__ import annotations

import random
from typing import Any, Iterator

_MAX_LEVEL = 24


class _Node:
    __slots__ = ("key", "value", "forward")

    def __init__(self, key: bytes | None, value: Any, level: int) -> None:
        self.key = key
        self.value = value
        self.forward: list["_Node | None"] = [None] * level


class SkipList:
    """Sorted mapping from byte-string keys to arbitrary values."""

    def __init__(self, seed: int = 0) -> None:
        self._head = _Node(None, None, _MAX_LEVEL)
        self._level = 1
        self._length = 0
        self._random = random.Random(seed)
        # Per level, the rightmost node with key < _finger_key (the head
        # where there is none).
        self._finger = [self._head] * _MAX_LEVEL
        self._finger_key = b""

    def __len__(self) -> int:
        return self._length

    def __contains__(self, key: bytes) -> bool:
        return self.get(key) is not None

    def _random_level(self) -> int:
        # Promote with probability 1/2 per level: one less than the level
        # is the number of trailing one bits of a uniform word, capped.
        bits = self._random.getrandbits(_MAX_LEVEL - 1)
        return (bits ^ (bits + 1)).bit_length()

    def _find_predecessors(self, key: bytes) -> list[_Node]:
        """Per level, the rightmost node with key strictly less than ``key``."""
        update = [self._head] * _MAX_LEVEL
        node = self._head
        for level in range(self._level - 1, -1, -1):
            nxt = node.forward[level]
            while nxt is not None and nxt.key < key:
                node = nxt
                nxt = node.forward[level]
            update[level] = node
        return update

    def insert(self, key: bytes, value: Any) -> Any:
        """Insert or overwrite; return the previous value or ``None``."""
        update = self._find_predecessors(key)
        candidate = update[0].forward[0]
        if candidate is not None and candidate.key == key:
            old = candidate.value
            candidate.value = value
            return old
        level = self._random_level()
        if level > self._level:
            self._level = level
        node = _Node(key, value, level)
        for i in range(level):
            node.forward[i] = update[i].forward[i]
            update[i].forward[i] = node
        if key < self._finger_key:  # landed behind the finger: follow it
            finger = self._finger
            for i in range(level):
                if finger[i] is update[i]:
                    finger[i] = node
        self._length += 1
        return None

    def get(self, key: bytes) -> Any:
        """Return the value for ``key``, or ``None`` if absent."""
        node = self._head
        for level in range(self._level - 1, -1, -1):
            nxt = node.forward[level]
            while nxt is not None and nxt.key < key:
                node = nxt
                nxt = node.forward[level]
        candidate = node.forward[0]
        if candidate is not None and candidate.key == key:
            return candidate.value
        return None

    def remove(self, key: bytes) -> Any:
        """Remove ``key``; return its value, or ``None`` if absent.

        The node right after the finger is unlinked through the finger,
        which stays where it is; any other node is found from the head,
        and a finger entry on it moves to its predecessor.
        """
        finger = self._finger
        candidate = finger[0].forward[0]
        if candidate is not None and candidate.key == key:
            update = finger
        else:
            update = self._find_predecessors(key)
            candidate = update[0].forward[0]
            if candidate is None or candidate.key != key:
                return None
            for i in range(len(candidate.forward)):
                if finger[i] is candidate:
                    finger[i] = update[i]
        for i in range(len(candidate.forward)):
            if update[i].forward[i] is candidate:
                update[i].forward[i] = candidate.forward[i]
        while self._level > 1 and self._head.forward[self._level - 1] is None:
            self._level -= 1
        self._length -= 1
        return candidate.value

    def first(self) -> tuple[bytes, Any] | None:
        """Smallest (key, value) pair, or ``None`` when empty."""
        node = self._head.forward[0]
        if node is None:
            return None
        assert node.key is not None
        return node.key, node.value

    def ceiling(self, key: bytes) -> tuple[bytes, Any] | None:
        """Smallest (key, value) with key >= ``key``, or ``None``.

        Moves the finger to ``key``: O(1) when no node lies between the
        finger and ``key``; a search from the head when ``key`` is
        behind the finger or some node does.
        """
        finger = self._finger
        candidate = finger[0].forward[0]
        if key < self._finger_key or (
            candidate is not None and candidate.key < key
        ):
            self._finger = finger = self._find_predecessors(key)
            candidate = finger[0].forward[0]
        self._finger_key = key
        if candidate is None:
            return None
        return candidate.key, candidate.value

    def __iter__(self) -> Iterator[tuple[bytes, Any]]:
        node = self._head.forward[0]
        while node is not None:
            assert node.key is not None
            yield node.key, node.value
            node = node.forward[0]

    def iter_from(self, key: bytes) -> Iterator[tuple[bytes, Any]]:
        """Iterate (key, value) pairs with key >= ``key``, in order."""
        node = self._head
        for level in range(self._level - 1, -1, -1):
            nxt = node.forward[level]
            while nxt is not None and nxt.key < key:
                node = nxt
                nxt = node.forward[level]
        node = node.forward[0]
        while node is not None:
            assert node.key is not None
            yield node.key, node.value
            node = node.forward[0]
