"""In-memory tree component C0 and snowshoveling (Sections 2.3, 4.2)."""

from repro.memtable.memtable import MemTable
from repro.memtable.skiplist import SkipList
from repro.memtable.snowshovel import SnowshovelCursor, replacement_selection_runs

__all__ = [
    "MemTable",
    "SkipList",
    "SnowshovelCursor",
    "replacement_selection_runs",
]
