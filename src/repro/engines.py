"""The single engine registry every entry point builds engines through.

Before this module existed the CLI kept its own ``ENGINES`` tuple and
flag-to-constructor wiring while the crash-point harness kept a parallel
``_ENGINES`` + ``_build_engine`` pair; adding an engine meant editing
both (and missing one silently).  Now an engine registers once here and
appears everywhere: ``repro workload``, ``trace``, ``fuzz``, the
scenario rows and (for the crash-capable trees) ``repro crashtest``.

Two surfaces, one module:

* :func:`build_engine` — name + :class:`EngineConfig` to a ready
  :class:`~repro.baselines.interface.KVEngine`.
* :func:`build_crash_tree` / :func:`recover_crash_tree` — the raw-tree
  builders the ALICE-style crash enumeration drives (only engines whose
  whole device traffic forms one serial access sequence can register
  here, hence no striped or sharded entries).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.baselines import (
    BitCaskEngine,
    BLSMEngine,
    BTreeEngine,
    CompactionEngine,
    KVEngine,
    PartitionedBLSMEngine,
)
from repro.core.compaction import CompactionTree
from repro.core.options import BLSMOptions
from repro.core.partitioned import PartitionedBLSM
from repro.core.tree import BLSM
from repro.faults.plan import FaultPlan
from repro.shard import ShardedEngine, make_partitioner
from repro.sim.disk import DiskModel
from repro.storage.logical_log import DurabilityMode

__all__ = [
    "CRASH_ENGINE_NAMES",
    "DISK_MODELS",
    "ENGINE_NAMES",
    "EngineConfig",
    "EngineSpec",
    "LEVELDB_OPTIONS",
    "blsm_options",
    "build_crash_tree",
    "build_engine",
    "crash_options",
    "engine_spec",
    "recover_crash_tree",
]


#: The device models an entry point can name (``--disk``).
DISK_MODELS: dict[str, Callable[[], DiskModel]] = {
    "hdd": DiskModel.hdd,
    "ssd": DiskModel.ssd,
    "single-hdd": DiskModel.single_hdd,
}


@dataclass(frozen=True)
class EngineConfig:
    """Everything an entry point can vary when building an engine.

    The CLI maps its flags onto one of these; tests construct them
    directly.  Fields irrelevant to a given engine are ignored by its
    builder (a B-Tree has no scheduler), except where ignoring them
    would mislead — fault and device-placement settings raise on
    engines that cannot honour them (see :func:`build_engine`).
    """

    disk: DiskModel = field(default_factory=DiskModel.hdd)
    c0_bytes: int = 512 * 1024
    cache_pages: int = 64
    durability: str = "async"
    compression: float = 1.0
    scheduler: str = "spring_gear"
    fault_plan: FaultPlan | None = None
    log_disk: DiskModel | None = None
    data_stripes: int = 1
    background_merges: bool = False
    shards: int = 4
    partitioner: str = "hash"
    partitioner_sample: tuple[bytes, ...] | None = None
    migration: bool = False
    observability: bool = True


def blsm_options(config: EngineConfig) -> BLSMOptions:
    """The :class:`BLSMOptions` a config describes (bLSM-family only)."""
    return BLSMOptions(
        c0_bytes=config.c0_bytes,
        buffer_pool_pages=config.cache_pages,
        disk_model=config.disk,
        durability=DurabilityMode(config.durability),
        compression_ratio=config.compression,
        scheduler=config.scheduler,
        fault_plan=config.fault_plan,
        log_disk_model=config.log_disk,
        data_stripes=config.data_stripes,
        background_merges=config.background_merges,
        observability=config.observability,
    )


def _build_blsm(config: EngineConfig) -> KVEngine:
    return BLSMEngine(blsm_options(config))


def _build_blsm_part(config: EngineConfig) -> KVEngine:
    return PartitionedBLSMEngine(blsm_options(config))


def _build_sharded(config: EngineConfig) -> KVEngine:
    partitioner = make_partitioner(
        config.partitioner, config.shards, config.partitioner_sample
    )
    engine = ShardedEngine(
        blsm_options(config),
        shards=config.shards,
        partitioner=partitioner,
    )
    if config.migration:
        from repro.shard.migration import attach_migration

        attach_migration(engine)
    return engine


def _build_btree(config: EngineConfig) -> KVEngine:
    return BTreeEngine(
        disk_model=config.disk,
        buffer_pool_pages=max(2, config.cache_pages // 4),  # 16 KB pages
    )


def _build_bitcask(config: EngineConfig) -> KVEngine:
    return BitCaskEngine(disk_model=config.disk)


def _build_policy(config: EngineConfig, policy: str) -> KVEngine:
    return CompactionEngine(
        replace(blsm_options(config), compaction_policy=policy)
    )


#: The options that make a policy tree the paper's LevelDB baseline (as
#: of 2012): file-granularity leveling, ten-fold levels, no Bloom filters
#: and a fixed share of each write for compaction.  Sizes are the caller's.
LEVELDB_OPTIONS: dict[str, Any] = {
    "compaction_policy": "leveldb",
    "scheduler": "leveldb",
    "with_bloom_filters": False,
    "level_ratio": 10.0,
}


def _build_leveldb(config: EngineConfig) -> KVEngine:
    # LevelDB's small write buffer (Section 5.1) over an L1 of 2 x C0.
    engine = CompactionEngine(
        replace(
            blsm_options(config),
            c0_bytes=max(4096, config.c0_bytes // 8),
            level_base_bytes=2 * config.c0_bytes,
            **LEVELDB_OPTIONS,
        )
    )
    engine.name = "LevelDB"
    return engine


@dataclass(frozen=True)
class EngineSpec:
    """One registered engine: its builder and what it can honour."""

    name: str
    build: Callable[[EngineConfig], KVEngine]
    supports_faults: bool = False
    supports_placement: bool = False
    supports_shards: bool = False


_REGISTRY: dict[str, EngineSpec] = {
    spec.name: spec
    for spec in (
        EngineSpec(
            "blsm", _build_blsm,
            supports_faults=True, supports_placement=True,
        ),
        EngineSpec(
            "blsm-part", _build_blsm_part,
            supports_faults=True, supports_placement=True,
        ),
        EngineSpec(
            "sharded", _build_sharded,
            supports_placement=True, supports_shards=True,
        ),
        EngineSpec("btree", _build_btree),
        EngineSpec("leveldb", _build_leveldb, supports_faults=True),
        EngineSpec("bitcask", _build_bitcask),
        # The compaction design-space lab: one engine per policy, all
        # the same CompactionEngine over make_tree (docs/compaction.md).
        EngineSpec(
            "leveled",
            lambda config: _build_policy(config, "leveled"),
            supports_faults=True,
        ),
        EngineSpec(
            "tiered",
            lambda config: _build_policy(config, "tiered"),
            supports_faults=True,
        ),
        EngineSpec(
            "lazy-leveled",
            lambda config: _build_policy(config, "lazy-leveled"),
            supports_faults=True,
        ),
    )
}

#: Every registered engine name, in registration (presentation) order.
ENGINE_NAMES: tuple[str, ...] = tuple(_REGISTRY)


def engine_spec(name: str) -> EngineSpec:
    """The registry entry for ``name``; raises on unknown engines."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}; expected one of {ENGINE_NAMES}"
        ) from None


def build_engine(
    name: str, config: EngineConfig | None = None, **overrides: Any
) -> KVEngine:
    """Build a registered engine from a config (the one entry point).

    Keyword overrides are applied on top of ``config`` (or on the
    defaults when no config is given), so callers can write
    ``build_engine("sharded", shards=8)``.

    Raises:
        ValueError: unknown name, or a config requesting capabilities
            the engine lacks (fault injection on a B-Tree, device
            placement on BitCask) — the silent-ignore alternative would
            produce benchmarks that lie.
    """
    spec = engine_spec(name)
    if config is None:
        config = EngineConfig(**overrides)
    elif overrides:
        config = replace(config, **overrides)
    if config.fault_plan is not None and not spec.supports_faults:
        accepting = ", ".join(
            other.name for other in _REGISTRY.values() if other.supports_faults
        )
        raise ValueError(
            f"fault injection requires one of {accepting}, not {name!r}"
        )
    placement = (
        config.log_disk is not None
        or config.data_stripes != 1
        or config.background_merges
    )
    if placement and not spec.supports_placement:
        raise ValueError(
            "log-device/data-stripes/background-merges require a bLSM "
            f"or sharded engine, not {name!r}"
        )
    return spec.build(config)


# ----------------------------------------------------------------------
# Crash-harness surface (raw trees over one serial access sequence)
# ----------------------------------------------------------------------

#: Engines the crash-point enumeration can drive, as ``name -> (tree
#: class, option overrides, layout keywords)``: every tree builds as
#: ``cls(options, **layout)`` and recovers as ``cls.recover(stasis,
#: options, **layout)``.  Their construction accepts a shared FaultPlan
#: and all device traffic forms one serial access sequence (which is why
#: striped and sharded engines — N independent device sets — cannot
#: appear here).
_CRASH_TREES: dict[str, tuple[Any, dict[str, Any], dict[str, Any]]] = {
    "blsm": (BLSM, {}, {}),
    "partitioned": (PartitionedBLSM, {}, {"max_partition_bytes": 24 * 1024}),
    "leveled": (CompactionTree, {"compaction_policy": "leveled"}, {}),
    "tiered": (CompactionTree, {"compaction_policy": "tiered"}, {}),
    "lazy-leveled": (CompactionTree, {"compaction_policy": "lazy-leveled"}, {}),
    "leveldb": (CompactionTree, LEVELDB_OPTIONS, {}),
}

CRASH_ENGINE_NAMES: tuple[str, ...] = tuple(_CRASH_TREES)


def crash_options(plan: FaultPlan | None) -> BLSMOptions:
    """The deliberately tiny configuration crash enumeration runs.

    Small C0 and pool so a few hundred ops exercise merges, evictions
    and log truncation — the interesting crash surfaces.
    """
    return BLSMOptions(
        c0_bytes=6 * 1024,
        buffer_pool_pages=16,
        durability=DurabilityMode.SYNC,
        fault_plan=plan,
    )


def _crash_tree(name: str) -> tuple[Any, dict[str, Any], dict[str, Any]]:
    try:
        return _CRASH_TREES[name]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}; expected one of {CRASH_ENGINE_NAMES}"
        ) from None


def build_crash_tree(name: str, plan: FaultPlan | None) -> Any:
    """A raw tree wired to ``plan`` for crash-point enumeration."""
    cls, overrides, layout = _crash_tree(name)
    return cls(replace(crash_options(plan), **overrides), **layout)


def recover_crash_tree(name: str, stasis: Any, options: Any) -> Any:
    """Recover the matching tree type from a crashed substrate."""
    cls, _overrides, layout = _crash_tree(name)
    return cls.recover(stasis, options, **layout)
