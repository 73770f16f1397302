"""bLSM: the paper's primary contribution (Sections 3 and 4).

A three-level LSM-Tree (C0 in memory; C1, C1', C2 on disk) with Bloom
filters on every on-disk component, early-terminating reads, zero-seek
insert-if-not-exists, snowshoveling, and a pluggable merge scheduler
(naive, gear, or spring-and-gear; ``leveldb`` paces the LevelDB
baseline, a policy of :class:`CompactionTree`).
"""

from repro.core.compaction import (
    POLICY_NAMES,
    CompactionPolicy,
    CompactionTree,
    LevelManager,
    MergePlan,
    make_policy,
    make_tree,
)
from repro.core.options import BLSMOptions
from repro.core.partitioned import PartitionedBLSM
from repro.core.scheduler import (
    GearScheduler,
    LevelDBScheduler,
    MergeScheduler,
    NaiveScheduler,
    SpringGearScheduler,
    make_scheduler,
)
from repro.core.tree import BLSM

__all__ = [
    "BLSM",
    "BLSMOptions",
    "CompactionPolicy",
    "CompactionTree",
    "GearScheduler",
    "LevelDBScheduler",
    "LevelManager",
    "MergePlan",
    "MergeScheduler",
    "NaiveScheduler",
    "PartitionedBLSM",
    "POLICY_NAMES",
    "SpringGearScheduler",
    "make_policy",
    "make_scheduler",
    "make_tree",
]
