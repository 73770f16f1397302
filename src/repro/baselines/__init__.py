"""Comparison systems from the paper's evaluation (Section 5).

* :class:`BTreeEngine` — an update-in-place B-Tree with a buffer pool;
  the InnoDB stand-in.  One seek per uncached read, two per update
  (Section 2.2), fragmentation that degrades long scans (Section 5.6).
* :class:`BLSMEngine` — adapts :class:`repro.core.BLSM` to the common
  engine interface used by the YCSB runner.
* :class:`CompactionEngine` — the same for a policy tree; the LevelDB
  stand-in is its ``leveldb`` policy (``build_engine("leveldb")``): a
  small memtable, no Bloom filters, file-granularity compaction, so
  O(levels) seeks per read and unbounded write pauses under sustained
  load (Sections 3.2, 5.2).
"""

from repro.baselines.bitcask_engine import BitCaskEngine
from repro.baselines.blsm_engine import BLSMEngine
from repro.baselines.btree_engine import BTreeEngine
from repro.baselines.compaction_engine import CompactionEngine
from repro.baselines.interface import (
    IO_SUMMARY_KEYS,
    KVEngine,
    WriteBatch,
    build_io_summary,
    validate_io_summary,
)
from repro.baselines.partitioned_engine import PartitionedBLSMEngine

__all__ = [
    "BitCaskEngine",
    "BLSMEngine",
    "BTreeEngine",
    "CompactionEngine",
    "IO_SUMMARY_KEYS",
    "KVEngine",
    "PartitionedBLSMEngine",
    "WriteBatch",
    "build_io_summary",
    "validate_io_summary",
]
