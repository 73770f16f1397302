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
  runs against the live memtable (``repro.core.merge.SnowshovelSource``),
  over the whole keyspace or, in a partitioned tree, one partition's
  ``[lo, hi)``.  It is one ascending walk of the memtable's skip list:
  ``MemTable.ceiling`` from the skip list's finger, then
  ``MemTable.remove`` of the node right after it, each O(1) expected.
* :func:`replacement_selection_runs` — the classic offline tournament-sort
  formulation over a bounded heap, used by the ablation benchmark to
  measure run lengths under sorted / random / reverse arrival orders.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator, Sequence

from repro.memtable.memtable import MemTable
from repro.records import Record


class SnowshovelCursor:
    """Drains a live memtable's keys in ``[lo, hi)`` in key order, one run
    at a time (``hi=None`` means unbounded).

    ``peek`` is the smallest record at or after the cursor and below
    ``hi``; ``pop`` (or ``next_record``) removes and returns it.  It
    reflects the memtable's current contents, so records inserted ahead
    of the cursor join the current run.  When no such record exists the
    run is exhausted; ``start_new_run`` wraps the cursor back to ``lo``
    so draining can continue with the keys that arrived behind it.
    Records outside the range stay in the memtable.
    """

    def __init__(
        self, memtable: MemTable, lo: bytes = b"", hi: bytes | None = None
    ) -> None:
        self._memtable = memtable
        self._lo = lo
        self._hi = hi
        self._cursor = lo
        self.records_emitted = 0
        self.runs_completed = 0

    @property
    def cursor(self) -> bytes:
        """Smallest key the current run may still emit."""
        return self._cursor

    def peek(self) -> Record | None:
        """The run's next record without consuming it; ``None`` when the
        run is exhausted."""
        record = self._memtable.ceiling(self._cursor)
        if record is None or (self._hi is not None and record.key >= self._hi):
            return None
        return record

    def pop(self) -> Record:
        """Consume and return the run's next record."""
        record = self.peek()
        if record is None:
            raise StopIteration("snowshovel run exhausted")
        self._memtable.remove(record.key)
        self._cursor = record.key + b"\x00"  # strictly-greater successor
        self.records_emitted += 1
        return record

    def next_record(self) -> Record | None:
        """Pop the next record of the current run, or ``None`` if exhausted."""
        return None if self.peek() is None else self.pop()

    def advance_past(self, key: bytes) -> None:
        """Move the cursor past ``key`` without consuming anything.

        The run cursor tracks the *last value written* by the merge
        (Section 4.2), which may come from the downstream tree rather
        than C0; keys arriving behind it must wait for the next run or
        the merge output would go out of order.
        """
        successor = key + b"\x00"
        if successor > self._cursor:
            self._cursor = successor

    def run_exhausted(self) -> bool:
        """True when nothing at or after the cursor remains."""
        return self.peek() is None

    def start_new_run(self) -> None:
        """Wrap the cursor to ``lo`` (the next run)."""
        self._cursor = self._lo
        self.runs_completed += 1


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
