"""Append-only on-disk tree components (Section 2.3).

Each component is a sorted run of records laid out in one contiguous
extent, with an in-RAM index of first-keys (the paper assumes index nodes
fit in memory; read fanout is computed from leaf-page cache only) and an
optional Bloom filter sized for a sub-1 % false positive rate.
"""

from repro.sstable.builder import SSTableBuilder
from repro.sstable.iterator import merge_records
from repro.sstable.reader import SSTable

__all__ = ["SSTable", "SSTableBuilder", "merge_records"]
