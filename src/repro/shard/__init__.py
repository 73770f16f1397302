"""Sharded serving: a key router over independent bLSM shards.

The paper's target deployment (Sections 1 and 6) is a PNUTS-style
sharded web service; this package provides the router that turns N
independent single-node trees into one
:class:`~repro.baselines.interface.KVEngine` with batched operations
whose cost is the max — not the sum — of per-shard device time, plus
the crash-safe online migration machinery (``repro.shard.migration``)
that moves shard boundaries live under traffic.
"""

from repro.shard.engine import ShardedEngine
from repro.shard.migration import (
    HotShardDetector,
    MigrationController,
    MigrationPlan,
    MigrationThrottle,
    Rebalancer,
    crash_and_recover,
    open_journal,
    plan_merge,
    plan_split,
)
from repro.shard.partitioner import (
    HashPartitioner,
    Partitioner,
    RangePartitioner,
    fnv1a_bytes,
    make_partitioner,
)

__all__ = [
    "HashPartitioner",
    "HotShardDetector",
    "MigrationController",
    "MigrationPlan",
    "MigrationThrottle",
    "Partitioner",
    "RangePartitioner",
    "Rebalancer",
    "ShardedEngine",
    "crash_and_recover",
    "fnv1a_bytes",
    "make_partitioner",
    "open_journal",
    "plan_merge",
    "plan_split",
]
