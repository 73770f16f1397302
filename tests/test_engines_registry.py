"""The engine registry: one place every entry point builds engines.

Covers: every registered name builds a working engine, keyword
overrides and explicit configs compose, capability gates fail loudly
instead of silently ignoring flags, and the crash-harness surface
builds/recovers the raw trees the enumeration drives.
"""

import dataclasses
import inspect

import pytest

from repro import cli
from repro.baselines import (
    BitCaskEngine,
    BLSMEngine,
    BTreeEngine,
    CompactionEngine,
    KVEngine,
    PartitionedBLSMEngine,
)
from repro.core import BLSM, BLSMOptions, CompactionTree, PartitionedBLSM
from repro.engines import (
    CRASH_ENGINE_NAMES,
    ENGINE_NAMES,
    EngineConfig,
    blsm_options,
    build_crash_tree,
    build_engine,
    crash_options,
    engine_spec,
    recover_crash_tree,
)
from repro.faults import FaultPlan
from repro.memtable import MemTable
from repro.shard import RangePartitioner, ShardedEngine
from repro.sim import DiskModel
from repro.storage import DurabilityMode
from repro.testing.differential import default_fuzz_configs


EXPECTED_TYPES = {
    "blsm": BLSMEngine,
    "blsm-part": PartitionedBLSMEngine,
    "sharded": ShardedEngine,
    "btree": BTreeEngine,
    "leveldb": CompactionEngine,
    "bitcask": BitCaskEngine,
    "leveled": CompactionEngine,
    "tiered": CompactionEngine,
    "lazy-leveled": CompactionEngine,
}


def small_config(**overrides):
    defaults = dict(c0_bytes=32 * 1024, cache_pages=16)
    defaults.update(overrides)
    return EngineConfig(**defaults)


@pytest.mark.parametrize("name", ENGINE_NAMES)
def test_every_registered_name_builds_and_serves(name):
    engine = build_engine(name, small_config())
    assert isinstance(engine, KVEngine)
    assert isinstance(engine, EXPECTED_TYPES[name])
    engine.put(b"alpha", b"1")
    engine.put(b"beta", b"2")
    assert engine.get(b"alpha") == b"1"
    assert engine.multi_get([b"beta", b"missing"]) == [b"2", None]
    engine.close()


def test_engine_names_cover_registry_and_cli():
    assert set(ENGINE_NAMES) == set(EXPECTED_TYPES)
    assert "sharded" in ENGINE_NAMES
    # The CLI exposes the registry tuple itself, not a private copy.
    assert cli.ENGINES is ENGINE_NAMES


def test_keyword_overrides_apply_on_top_of_config():
    config = small_config(shards=2)
    engine = build_engine("sharded", config, shards=3)
    assert len(engine.shard_rows()) == 3
    engine.close()
    # The original config is untouched (EngineConfig is frozen).
    assert config.shards == 2


def test_overrides_without_config_use_defaults():
    engine = build_engine("sharded", shards=2, c0_bytes=32 * 1024)
    assert len(engine.shard_rows()) == 2
    engine.close()


def test_blsm_options_mirror_config():
    config = small_config(
        durability="sync", compression=0.5, data_stripes=2, seed=7
    )
    options = blsm_options(config)
    assert options.c0_bytes == 32 * 1024
    assert options.buffer_pool_pages == 16
    assert options.durability is DurabilityMode.SYNC
    assert options.compression_ratio == 0.5
    assert options.data_stripes == 2
    assert options.seed == 7


def test_c0_structure_is_a_constant_in_every_layer():
    # C0 is a skip list; no layer carries a knob that says otherwise.
    # The counts make adding one a deliberate act.
    assert len(dataclasses.fields(BLSMOptions)) == 33
    assert len(dataclasses.fields(EngineConfig)) == 16
    for cls in (BLSMOptions, EngineConfig):
        assert "memtable" not in {f.name for f in dataclasses.fields(cls)}
    params = inspect.signature(MemTable.__init__).parameters
    assert list(params) == ["self", "capacity_bytes", "seed"]
    assert params["seed"].default == 0
    assert "memtable" not in inspect.signature(CompactionEngine.__init__).parameters
    # An unknown override is an error, never swallowed.
    with pytest.raises(TypeError):
        build_engine("blsm", memtable="array")
    with pytest.raises(TypeError):
        build_engine("blsm", small_config(), memtable="array")
    labels = {config.label for config in default_fuzz_configs()}
    assert len(labels) == 13
    assert not any(label.startswith("blsm-mt-") for label in labels)


def test_range_partitioner_from_sample():
    sample = tuple(b"key%03d" % i for i in range(90))
    engine = build_engine(
        "sharded",
        small_config(shards=3, partitioner="range", partitioner_sample=sample),
    )
    for key in sample:
        engine.put(key, b"v")
    rows = engine.shard_rows()
    # Sample-derived boundaries split the keyspace across all shards.
    assert all(row["ops"] > 0 for row in rows)
    engine.close()


def test_unknown_engine_name_raises():
    with pytest.raises(ValueError, match="unknown engine 'rocksdb'"):
        build_engine("rocksdb")
    with pytest.raises(ValueError, match="unknown engine"):
        engine_spec("nope")


def test_fault_plan_gate_rejects_non_blsm_engines():
    plan = FaultPlan(seed=1)
    for name in ("btree", "bitcask", "sharded"):
        with pytest.raises(ValueError, match="fault injection requires"):
            build_engine(name, small_config(fault_plan=plan))


def test_fault_plan_gate_names_the_engines_that_accept_plans():
    with pytest.raises(ValueError) as raised:
        build_engine("btree", small_config(fault_plan=FaultPlan(seed=1)))
    message = str(raised.value)
    accepting = [name for name in ENGINE_NAMES if engine_spec(name).supports_faults]
    assert {"blsm", "blsm-part", "leveldb", "leveled", "tiered"} <= set(accepting)
    for name in accepting:
        assert name in message
    assert "bLSM engine" not in message
    assert message.endswith("not 'btree'")


def test_fault_plan_accepted_by_blsm_family():
    for name in ("blsm", "blsm-part", "leveldb"):
        engine = build_engine(name, small_config(fault_plan=FaultPlan(seed=1)))
        engine.put(b"k", b"v")
        assert engine.get(b"k") == b"v"
        engine.close()


def test_placement_gate_rejects_flat_engines():
    for name in ("btree", "leveldb", "bitcask"):
        with pytest.raises(ValueError, match="require a bLSM"):
            build_engine(name, small_config(data_stripes=4))
        with pytest.raises(ValueError, match="require a bLSM"):
            build_engine(name, small_config(log_disk=DiskModel.ssd()))
        with pytest.raises(ValueError, match="require a bLSM"):
            build_engine(name, small_config(background_merges=True))


def test_placement_accepted_by_sharded_engine():
    engine = build_engine("sharded", small_config(shards=2, data_stripes=2))
    engine.put(b"k", b"v")
    assert engine.get(b"k") == b"v"
    engine.close()


def test_engine_spec_capabilities():
    assert engine_spec("blsm").supports_faults
    assert engine_spec("blsm-part").supports_faults
    assert engine_spec("leveldb").supports_faults
    assert not engine_spec("sharded").supports_faults
    assert engine_spec("sharded").supports_shards
    assert engine_spec("sharded").supports_placement
    assert not engine_spec("btree").supports_placement


def test_explicit_partitioner_object_still_works():
    # The ShardedEngine itself accepts partitioner instances directly;
    # the registry's string names cover the CLI surface.
    engine = ShardedEngine(
        blsm_options(small_config()),
        shards=2,
        partitioner=RangePartitioner([b"m"]),
    )
    engine.put(b"a", b"1")
    engine.put(b"z", b"2")
    assert engine.multi_get([b"a", b"z"]) == [b"1", b"2"]
    engine.close()


# ----------------------------------------------------------------------
# Crash-harness surface
# ----------------------------------------------------------------------


def test_crash_engine_names():
    assert CRASH_ENGINE_NAMES == (
        "blsm",
        "partitioned",
        "leveled",
        "tiered",
        "lazy-leveled",
        "leveldb",
    )


def test_crash_options_are_tiny_and_sync():
    options = crash_options(None, seed=3)
    assert options.c0_bytes == 6 * 1024
    assert options.durability is DurabilityMode.SYNC
    assert options.seed == 3


@pytest.mark.parametrize(
    "name, tree_type",
    [
        ("blsm", BLSM),
        ("partitioned", PartitionedBLSM),
        ("leveled", CompactionTree),
        ("tiered", CompactionTree),
        ("lazy-leveled", CompactionTree),
        ("leveldb", CompactionTree),
    ],
)
def test_build_and_recover_crash_tree(name, tree_type):
    tree = build_crash_tree(name, None, seed=0)
    assert isinstance(tree, tree_type)
    tree.put(b"k", b"v")
    assert tree.get(b"k") == b"v"
    stasis, options = tree.stasis, tree.options
    recovered = recover_crash_tree(name, stasis, options)
    assert isinstance(recovered, tree_type)
    assert recovered.get(b"k") == b"v"
    recovered.close()


def test_crash_tree_unknown_name_raises():
    with pytest.raises(ValueError, match="unknown engine"):
        build_crash_tree("sharded", None, seed=0)
    with pytest.raises(ValueError, match="unknown engine"):
        recover_crash_tree("sharded", None, None)
