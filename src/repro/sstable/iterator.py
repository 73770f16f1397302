"""K-way merging of sorted record sources.

Used by scans (resolving versions into current values); merges fold
with :func:`merge_records` (:mod:`repro.core.merge`).  Sources are
ordered by freshness — source 0 is the newest component — which is what
makes early termination and deterministic version ordering possible
(Section 3.1.1: "updates to the same tuple are placed in tree levels
consistent with their ordering").
"""

from __future__ import annotations

import heapq
from typing import Iterator

from repro.records import Record, fold


def kway_merge(
    sources: list[Iterator[Record]],
) -> Iterator[list[Record]]:
    """Merge sorted record streams, grouping versions of each key.

    Args:
        sources: per-component record iterators, **newest component
            first**; each yields records in strictly increasing key order.

    Yields:
        For each distinct key (in key order), the list of versions found,
        newest first.
    """
    heap: list[tuple[bytes, int, Record]] = []
    iterators = [iter(source) for source in sources]
    for priority, iterator in enumerate(iterators):
        record = next(iterator, None)
        if record is not None:
            heap.append((record.key, priority, record))
    heapq.heapify(heap)
    while heap:
        key = heap[0][0]
        group: list[Record] = []
        while heap and heap[0][0] == key:
            _, priority, record = heapq.heappop(heap)
            group.append(record)
            successor = next(iterators[priority], None)
            if successor is not None:
                heapq.heappush(heap, (successor.key, priority, successor))
        yield group


def merge_records(
    group: list[Record], drop_tombstones: bool = False
) -> Record | None:
    """Collapse one key's versions into the single record a merge keeps.

    Args:
        group: versions of one key, newest first.
        drop_tombstones: ``True`` when merging into the largest component
            (C2): a tombstone that survives folding has deleted every
            older version that will ever exist, so it can be discarded.

    Returns:
        The surviving record, or ``None`` if it was a droppable tombstone.
    """
    oldest_first = list(reversed(group))
    merged = oldest_first[0]
    for newer in oldest_first[1:]:
        merged = fold(newer, merged)
    if drop_tombstones and merged.is_tombstone:
        return None
    return merged
