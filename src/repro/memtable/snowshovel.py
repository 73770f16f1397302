"""Snowshoveling: replacement-selection run formation (Section 4.2).

Naive memtable flushing freezes a full C0 into C0' and merges that frozen
snapshot, halving the RAM available for new writes.  Snowshoveling instead
consumes C0 *in place*: the merge repeatedly takes the smallest key at or
after a cursor, so newly arriving keys that sort after the cursor join the
current run.  For random arrivals this doubles run length (each new item
has a 50 % chance of landing after the cursor); for sorted arrivals a
single run can consume the entire input; for reverse-sorted arrivals the
run is exactly one memory-full.  Combined with eliminating the C0/C0'
split, the paper credits snowshoveling with a 4x effective C0 for random
workloads.

Two implementations live here:

* :class:`SnowshovelCursor` — the incremental drain every C0:C1 merge
  runs against the live memtable (:class:`repro.core.merge.MergeProcess`),
  over the whole keyspace or, in a partitioned tree, one partition's
  ``[lo, hi)``.  It is one ascending walk of the memtable's sorted key
  list: each merge step bisects at the cursor, walks the keys from
  there by index and takes what it consumed out of C0 as one slice.
* :func:`replacement_selection_runs` — the classic offline tournament-sort
  formulation over a bounded heap, used by the ablation benchmark to
  measure run lengths under sorted / random / reverse arrival orders.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from typing import Iterable, Iterator, Sequence

from repro.memtable.memtable import MemTable
from repro.records import Record


class SnowshovelCursor:
    """Where one run of a memtable's keys in ``[lo, hi)`` stands
    (``hi=None`` means unbounded).

    The run is the memtable's keys at or after the cursor and below
    ``hi``, in key order, as they are now: records inserted ahead of the
    cursor join the run, and keys that arrived behind it wait for the
    next run, a fresh cursor at ``lo`` (each C0:C1 pass builds one).
    A merge step reads the run off the memtable's sorted key list
    (:meth:`span`) and then reports what it took (:meth:`take`): the
    records leave the memtable in one slice, and the cursor moves past
    the last key the step wrote.  Records outside the range stay in the
    memtable.  (A frozen C0' is walked by a cursor too, and left intact.)
    """

    def __init__(
        self, memtable: MemTable, lo: bytes = b"", hi: bytes | None = None
    ) -> None:
        self.memtable = memtable
        self._keys, self._index = memtable.ordered()
        self._hi = hi
        self._cursor = lo  # the smallest key the run may still emit
        self._start = 0  # where the last span began

    def span(self) -> tuple[list[bytes], dict[bytes, Record], int, int]:
        """The memtable's sorted key list and index, and the run's keys
        as the positions ``[start, end)`` of that list; valid until the
        memtable next changes."""
        keys = self._keys
        start = self._start = bisect_left(keys, self._cursor)
        hi = self._hi
        end = len(keys) if hi is None else bisect_left(keys, hi, start)
        return keys, self._index, start, end

    def take(
        self, stop: int, nbytes: int, last: bytes, into: MemTable | None
    ) -> None:
        """The step took the span's keys up to position ``stop``, which
        hold ``nbytes``, and wrote keys up to ``last``.  The records move
        to the tail of ``into`` in one slice (all its keys are below
        them; no snapshot reads it in place), unless ``into`` is
        ``None``; the cursor moves past ``last``."""
        start = self._start
        if stop > start and into is not None:
            self.memtable.take_slice(start, stop, nbytes, into)
        # The run cursor tracks the *last value written* by the merge
        # (Section 4.2), which may come from the downstream tree rather
        # than C0; keys arriving behind it must wait for the next run or
        # the merge output would go out of order.  It never moves back.
        successor = last + b"\x00"  # strictly-greater successor
        if successor > self._cursor:
            self._cursor = successor


def replacement_selection_runs(
    items: Iterable[bytes], memory_items: int
) -> list[list[bytes]]:
    """Partition ``items`` into sorted runs using a bounded heap.

    The classic tape-era algorithm the paper recounts: fill memory, emit
    the smallest item, refill from the input; items smaller than the last
    emitted key are tagged for the *next* run.

    Args:
        items: arrival-ordered input keys.
        memory_items: how many items fit in memory at once.

    Returns:
        The runs, each internally sorted; ``len(runs)`` and run lengths are
        what the snowshoveling ablation measures.
    """
    if memory_items <= 0:
        raise ValueError(f"memory_items must be positive, got {memory_items}")
    source: Iterator[bytes] = iter(items)
    # Heap entries are (run_index, key) so next-run items sink below
    # current-run items without a separate buffer.
    heap: list[tuple[int, bytes]] = []
    for key in source:
        heap.append((0, key))
        if len(heap) == memory_items:
            break
    heapq.heapify(heap)
    runs: list[list[bytes]] = []
    current_run = 0
    run: list[bytes] = []
    while heap:
        run_index, key = heapq.heappop(heap)
        if run_index != current_run:
            runs.append(run)
            run = []
            current_run = run_index
        run.append(key)
        replacement = next(source, None)
        if replacement is not None:
            next_run = current_run if replacement >= key else current_run + 1
            heapq.heappush(heap, (next_run, replacement))
    if run:
        runs.append(run)
    return runs


def run_length_multiplier(
    arrivals: Sequence[bytes], memory_items: int
) -> float:
    """Average run length as a multiple of memory size.

    Section 4.2 predicts approximately 2.0 for random arrivals, 1.0 for
    reverse-sorted arrivals, and ``len(arrivals) / memory_items`` for
    sorted arrivals.
    """
    runs = replacement_selection_runs(arrivals, memory_items)
    if not runs:
        return 0.0
    average = sum(len(r) for r in runs) / len(runs)
    return average / memory_items
