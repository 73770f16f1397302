"""Configuration for a bLSM tree."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.sim.disk import DiskModel
from repro.storage.buffer import EvictionPolicy
from repro.storage.logical_log import DurabilityMode

MIB = 1024 * 1024


@dataclass
class BLSMOptions:
    """All tunables of a :class:`~repro.core.tree.BLSM` instance.

    Defaults mirror the paper's configuration at a laptop-friendly scale:
    most memory goes to C0 (the paper gives C0 8 GB of a 10 GB budget,
    Section 5.1), pages are 4 KB (Appendix A), Bloom filters target a
    sub-1 % false-positive rate (Section 3.1), snowshoveling is on
    (Section 4.2) and merges are paced by the spring-and-gear scheduler
    (Section 4.3).
    """

    c0_bytes: int = 4 * MIB
    """Capacity of the in-memory component C0."""

    page_size: int = 4096
    """Data page size (Appendix A argues for 4 KB)."""

    buffer_pool_pages: int = 256
    """Page cache size; the paper gives bLSM 2 GB of cache vs 8 GB C0."""

    disk_model: DiskModel = field(default_factory=DiskModel.hdd)
    """Device profile both data and log devices are built from."""

    log_disk_model: DiskModel | None = None
    """Separate device profile for the log device (the paper's dedicated
    log disk, Section 5.1).  ``None`` shares :attr:`disk_model`."""

    data_stripes: int = 1
    """Number of member devices in the data array.  1 uses a single
    :class:`~repro.sim.disk.SimDisk`; >= 2 builds a RAID-0
    :class:`~repro.sim.disk.StripedDisk` (Section 5.1's arrays)."""

    stripe_chunk_bytes: int = 512 * 1024
    """RAID-0 stripe chunk size (the paper's arrays use 512 KB stripes)."""

    background_merges: bool = False
    """Run merge I/O on per-merge background timelines (the paper's merge
    threads, Section 5.1) instead of charging it synchronously to the
    writer.  Foreground writes then feel merges only through device
    queueing and C0-fill backpressure; see docs/concurrency.md."""

    eviction_policy: EvictionPolicy = EvictionPolicy.CLOCK
    """Buffer-pool replacement policy (CLOCK per Section 4.4.2)."""

    durability: DurabilityMode = DurabilityMode.ASYNC
    """Logical-log mode; the paper's benchmarks do not sync at commit."""

    with_bloom_filters: bool = True
    """Protect C1/C1'/C2 with Bloom filters (Section 3.1)."""

    bloom_false_positive_rate: float = 0.01
    """Target FPR; 10 bits/key gives 1 % (Section 3.1)."""

    snowshovel: bool = True
    """Consume C0 via replacement selection instead of freezing C0'."""

    delta_read_repair: bool = False
    """Reads that fold deltas re-insert the merged base record into C0
    (Section 5.6's suggestion), so later reads of the key stop at C0
    instead of re-collecting the delta chain from disk."""

    compression_ratio: float = 1.0
    """On-disk bytes per logical record byte (Rose-style compression,
    Section 6): 1.0 disables compression; 0.5 halves merge bandwidth.
    Reads are unaffected (decompression is CPU, not device time)."""

    persist_bloom_filters: bool = False
    """Write each component's Bloom filter to disk when its merge
    commits.  The paper's prototype does not persist filters
    (Section 4.4.3) and rebuilds them by scanning components at
    recovery; persisting trades a small sequential write per merge
    (~1.25 bytes/key) for a far cheaper recovery."""

    scheduler: str = "spring_gear"
    """Merge scheduler: ``naive``, ``gear``, ``spring_gear`` or
    ``leveldb`` (a fixed share of each write, for a policy tree: it
    never drains C0, so the paper's tree cannot run under it)."""

    extra_components: bool = False
    """The Section 3.2 workaround instead of stalling: when C0 is full
    and the C0:C1 merge cannot proceed, flush C0 to an *extra*
    overlapping component (HBase's disabled compaction, Cassandra 1.0's
    overlapping range partitions).  Writes never block, but every extra
    component adds a seek to scans — the degradation the paper uses to
    argue for level scheduling instead."""

    min_r: float = 2.0
    """Lower clamp on the size ratio R between adjacent levels."""

    max_r: float = 10.0
    """Upper clamp on R."""

    low_water: float = 0.35
    """C0 fill below which downstream merges pause (spring and gear)."""

    high_water: float = 0.90
    """C0 fill above which writes are fully backpressured."""

    max_tick_bytes: int = 512 * 1024
    """Cap on merge work performed inside a single write.

    This is the scheduler's write-latency bound: ~2 ms of device time at
    HDD bandwidth.  Deficits beyond the cap carry over to later writes.
    """

    seed: int = 0
    """The skip list's tower seed (C0 is a skip list)."""

    observability: bool = True
    """Record per-access device metrics and trace events.  ``False``
    skips the per-operation metrics/trace dispatch entirely (the hot
    path's no-op fast path); simulated timing, I/O accounting
    (:class:`~repro.sim.stats.IOStats`) and all answers are identical."""

    fault_plan: FaultPlan | None = None
    """When set, both devices inject faults from this plan (the devices
    become :class:`~repro.faults.disk.FaultyDisk` instances sharing it)."""

    retry: RetryPolicy | None = None
    """Retry/backoff policy for transient device faults.  ``None`` means
    no retries on a healthy substrate; with a ``fault_plan`` set, Stasis
    defaults to ``RetryPolicy()`` unless an explicit policy is given."""

    capacity_bytes: int | None = None
    """Optional data-device capacity; overflowing writes raise
    :class:`~repro.errors.DeviceFullError`."""

    compaction_policy: str = "blsm3"
    """On-disk layout policy (the design-space axis): ``blsm3`` is the
    paper's three-level tree, served by :class:`~repro.core.tree.BLSM`
    unchanged; ``leveled``, ``tiered``, ``lazy-leveled`` and ``leveldb``
    (file granularity) build a
    :class:`~repro.core.compaction.tree.CompactionTree` over the
    generalized :class:`~repro.core.compaction.manager.LevelManager`."""

    level_ratio: float = 4.0
    """Geometric size ratio between adjacent levels of a policy tree:
    ``max_bytes(level) = level_base_bytes * level_ratio^level``.  (The
    ``blsm3`` policy keeps its own adaptive R, clamped by
    :attr:`min_r`/:attr:`max_r`.)"""

    level_base_bytes: int | None = None
    """Level-1 byte budget of a policy tree.  ``None`` derives
    ``level0_trigger * c0_bytes`` — one L0's worth of memtable flushes."""

    level0_trigger: int = 4
    """Level-0 run count that makes the L0 merge due (policy trees; the
    writer stalls at ``CompactionTree.L0_STOP_TRIGGER`` runs)."""

    tier_fanout: int = 4
    """Runs a tiered (or lazy-leveled upper) level stacks before its
    runs merge into one run in the next level."""

    def __post_init__(self) -> None:
        if self.c0_bytes <= 0:
            raise ValueError("c0_bytes must be positive")
        if not 0.0 <= self.low_water < self.high_water <= 1.0:
            raise ValueError(
                "require 0 <= low_water < high_water <= 1, got "
                f"{self.low_water}, {self.high_water}"
            )
        if self.min_r < 1.0 or self.max_r < self.min_r:
            raise ValueError(
                f"require 1 <= min_r <= max_r, got {self.min_r}, {self.max_r}"
            )
        if self.scheduler not in ("naive", "gear", "spring_gear", "leveldb"):
            raise ValueError(f"unknown scheduler {self.scheduler!r}")
        if self.scheduler == "leveldb" and self.compaction_policy == "blsm3":
            raise ValueError("the leveldb scheduler never drains blsm3's C0")
        if not 0.0 < self.compression_ratio <= 1.0:
            raise ValueError(
                f"compression_ratio must be in (0, 1], got {self.compression_ratio}"
            )
        if self.data_stripes < 1:
            raise ValueError(
                f"data_stripes must be >= 1, got {self.data_stripes}"
            )
        if self.stripe_chunk_bytes <= 0:
            raise ValueError(
                f"stripe_chunk_bytes must be positive, got {self.stripe_chunk_bytes}"
            )
        from repro.core.compaction.policy import POLICY_NAMES

        if self.compaction_policy not in POLICY_NAMES:
            raise ValueError(
                f"unknown compaction policy {self.compaction_policy!r}; "
                f"expected one of {POLICY_NAMES}"
            )
        if self.level_ratio <= 1.0:
            raise ValueError(
                f"level_ratio must exceed 1, got {self.level_ratio}"
            )
        if self.level_base_bytes is not None and self.level_base_bytes <= 0:
            raise ValueError(
                f"level_base_bytes must be positive, got {self.level_base_bytes}"
            )
        if self.level0_trigger < 1:
            raise ValueError(
                f"level0_trigger must be >= 1, got {self.level0_trigger}"
            )
        if self.tier_fanout < 2:
            raise ValueError(
                f"tier_fanout must be >= 2, got {self.tier_fanout}"
            )
        if self.data_stripes > 1 and self.fault_plan is not None:
            raise ValueError(
                "fault injection is not supported on a striped data device "
                "(the crash-point harness needs one serial access sequence)"
            )


def derive_shard_options(options: BLSMOptions, index: int) -> BLSMOptions:
    """Per-shard copy of ``options`` for one member of a sharded fleet.

    Each shard is an independent tree over its own device set; the only
    field that must differ is the skip-list ``seed`` (identical seeds
    would make every shard's memtable towers — and hence CPU-side
    behaviour — eerily correlated).  A shared ``fault_plan`` is
    rejected: its access counter assumes one serial device-access
    sequence, which N independent shard device sets do not produce.
    """
    if options.fault_plan is not None:
        raise ValueError(
            "fault injection is not supported on a sharded engine "
            "(the crash-point harness needs one serial access sequence)"
        )
    return replace(options, seed=options.seed + index)
