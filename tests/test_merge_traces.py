"""Every merge shape keeps its device trace.

The benchmark's workloads build only a snowshovel bLSM tree, write only
puts and run only ASYNC, so a change to the merge loop that alters any
other shape would pass them.  Each case here runs a mixed stream of
puts, deletes and deltas (so merges fold versions and the bottom level
drops tombstones) through one layout and pins a digest of what the
devices saw: both devices' traced accesses, the bytes every merge step
consumed, the clock and the tree's contents.  The digests were taken
from the record-at-a-time merge loop; a CPU-only change to the merge
path must reproduce them unedited.
"""

import hashlib
import random

import pytest

from repro.core import BLSM, BLSMOptions
from repro.core.compaction import CompactionTree
from repro.core.merge import MergeProcess
from repro.core.partitioned import PartitionedBLSM
from repro.engines import LEVELDB_OPTIONS
from repro.storage import DurabilityMode

KIB = 1024

SHAPES = {
    "snowshovel-sync": (BLSM, {"durability": DurabilityMode.SYNC}, {}),
    "snowshovel-async": (BLSM, {}, {}),
    "frozen-sync": (
        BLSM, {"snowshovel": False, "durability": DurabilityMode.SYNC}, {}
    ),
    "frozen-async": (BLSM, {"snowshovel": False}, {}),
    "partitioned": (PartitionedBLSM, {}, {"max_partition_bytes": 96 * KIB}),
    "leveled": (CompactionTree, {"compaction_policy": "leveled"}, {}),
    "tiered": (CompactionTree, {"compaction_policy": "tiered"}, {}),
    "leveldb": (CompactionTree, dict(LEVELDB_OPTIONS), {}),
}

DIGESTS = {
    "snowshovel-sync": "27f51ee030b99b98",
    "snowshovel-async": "a8327a96b8f0d63e",
    "frozen-sync": "f0e2226686c7f759",
    "frozen-async": "f673e2fdf147cb24",
    "partitioned": "5f4174f6f1949e59",
    "leveled": "398550e3e9182905",
    "tiered": "1ae9d3effefe33ea",
    "leveldb": "51a5fea837665752",
}


def shape_digest(monkeypatch, shape, ops=8_000, seed=7):
    """Run ``ops`` mixed writes through ``shape``'s tree; digest both
    devices' traces, every step's consumed bytes, the clock and a scan
    of the contents."""
    cls, overrides, layout = SHAPES[shape]
    options = BLSMOptions(
        c0_bytes=48 * KIB, buffer_pool_pages=16, observability=False,
        **overrides,
    )
    steps = []
    real = MergeProcess.step

    def step(self, budget_bytes):
        worked = real(self, budget_bytes)
        steps.append(worked)
        return worked

    monkeypatch.setattr(MergeProcess, "step", step)
    tree = cls(options, **layout)
    stasis = tree.stasis
    stasis.log_disk.start_trace()
    stasis.data_disk.start_trace()
    rng = random.Random(seed)
    for i in range(ops):
        key = b"key%05d" % rng.randrange(3_000)
        roll = rng.random()
        if roll < 0.70:
            tree.put(key, bytes([i % 251]) * rng.choice((40, 300, 1200)))
        elif roll < 0.85:
            tree.apply_delta(key, b"+%d" % i)
        else:
            tree.delete(key)
    tree.flush_log()
    events = (stasis.log_disk.stop_trace(), stasis.data_disk.stop_trace())
    contents = list(tree.scan(b""))
    return hashlib.sha256(
        repr((stasis.clock.now, steps, events, contents)).encode()
    ).hexdigest()[:16]


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_merge_shape_keeps_its_device_trace(monkeypatch, shape):
    assert shape_digest(monkeypatch, shape) == DIGESTS[shape]
