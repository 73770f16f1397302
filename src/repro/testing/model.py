"""Structural deep checks of the storage layouts.

:func:`check_blsm_invariants` / :func:`check_partitioned_invariants` /
:func:`check_compaction_invariants` / :func:`check_sharded_invariants`
verify what a dictionary oracle cannot see: sortedness, version
ordering, space accounting, partition tiling, file-level disjointness,
manifest round-trip, router/placement agreement, and that the
installed :class:`~repro.core.versions.Version` snapshots open names
exactly the layout's components.
:func:`repro.testing.run_trace` runs the one that fits an engine's
layout at the end of every trace.
"""

from __future__ import annotations

from repro.core.compaction import CompactionTree, LevelManager
from repro.core.partitioned import PartitionedBLSM
from repro.core.tree import BLSM
from repro.records import RecordKind


def _check_installed_version(tree, ranges) -> None:
    """The version a snapshot would open is the layout's component set:
    ``ranges`` is ``(lo, hi, tables)`` per key range, tables newest first."""
    def shape(rows):
        return [(lo, hi, [id(t) for t in tables]) for lo, hi, tables in rows]

    assert shape(tree.versions.current.ranges) == shape(ranges), (
        "installed version is not the layout's component set"
    )


def check_blsm_invariants(tree: BLSM) -> None:
    """Structural deep check of an unpartitioned tree.

    Verifies per-component sortedness/uniqueness/byte accounting,
    cross-level version ordering (a key's seqnos strictly decrease
    walking C0, C0', the merge overlay, C1, C1', C2), space accounting
    (no orphan extents outside active merges), and tombstone GC at the
    bottom level.
    """
    components = [tree._c1, tree._c1_prime, tree._c2]
    ratio = tree.options.compression_ratio
    for component in components:
        if component is None:
            continue
        records = list(component.iter_records())
        keys = [record.key for record in records]
        assert keys == sorted(keys), "component out of order"
        assert len(keys) == len(set(keys)), "duplicate keys in component"
        assert len(keys) == component.key_count, "key count drift"
        expected_bytes = sum(
            max(8, int(r.nbytes * ratio)) for r in records
        )
        assert expected_bytes == component.nbytes, "byte accounting drift"
    levels = [tree._memtable]  # newest first
    if tree._frozen is not None:
        levels.append(tree._frozen)
    if tree._m01 is not None:
        levels.append(tree._m01.overlay)
    on_disk = [c for c in components if c is not None]
    levels += [c.iter_records() for c in on_disk]
    newer: dict[bytes, int] = {}  # key -> its seqno in the level above
    for level in levels:
        for record in level:
            above = newer.get(record.key)
            assert above is None or record.seqno < above, (
                f"version inversion for {record.key!r}"
            )
            newer[record.key] = record.seqno
    if tree._m01 is None and tree._m12 is None:
        live = set()
        for component in on_disk:
            live.update(component.extents)
            if component.bloom_extent is not None:
                live.add(component.bloom_extent)
        orphans = set(tree.stasis.regions.allocated_extents) - live
        assert not orphans, f"leaked extents: {orphans}"
    if tree._c2 is not None:
        assert all(
            record.kind is not RecordKind.TOMBSTONE
            for record in tree._c2.iter_records()
        ), "tombstone survived to the bottom level"
    _check_installed_version(tree, [(b"", None, on_disk)])


def check_partitioned_invariants(tree: PartitionedBLSM) -> None:
    """Structural deep check of a partitioned tree."""
    ranges = tree.partition_ranges()
    assert ranges[0][0] == b"", "first partition does not start at b''"
    assert ranges[-1][1] is None, "last partition is bounded"
    for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
        assert hi == lo, "partitions do not tile the keyspace"
    _check_installed_version(tree, [
        (p.lo, p.hi, [c for c in (p.c1, p.c2) if c is not None])
        for p in tree._partitions
    ])
    for partition in tree._partitions:
        for component in (partition.c1, partition.c2):
            if component is None:
                continue
            records = list(component.iter_records())
            keys = [record.key for record in records]
            assert keys == sorted(keys), "component out of order"
            assert len(keys) == component.key_count, "key count drift"
            assert all(
                partition.covers(key) for key in keys
            ), "key outside its partition"
        if partition.c1 is not None and partition.c2 is not None:
            older = {r.key: r.seqno for r in partition.c2.iter_records()}
            for record in partition.c1.iter_records():
                if record.key in older:
                    assert (
                        record.seqno > older[record.key]
                    ), f"version inversion for {record.key!r}"


def check_compaction_invariants(tree: CompactionTree) -> None:
    """Structural deep check of a policy tree's levels.

    Every run's keys are strictly ascending and inside its
    ``[min_key, max_key]``; under a file-granularity policy every level
    below 0 is key-disjoint files in key order; and the manifest's
    level descriptors rebuild to the same level view.
    """
    manager = tree.manager
    _check_installed_version(tree, [(b"", None, manager.sources())])
    for level, runs in enumerate(manager.levels):
        for table in runs:
            keys = [record.key for record in table.iter_records()]
            assert all(a < b for a, b in zip(keys, keys[1:])), (
                f"level {level}: run keys not strictly ascending"
            )
            assert not keys or (
                keys[0] == table.min_key and keys[-1] == table.max_key
            ), f"level {level}: run keys outside [min_key, max_key]"
        if manager.file_levels and level > 0:
            assert all(
                a.max_key < b.min_key for a, b in zip(runs, runs[1:])
            ), f"level {level}: files overlap or are out of key order"
    rebuilt = LevelManager.rebuild(
        tree.stasis, manager.describe(), manager.base_bytes, manager.ratio,
        tree.options, manager.file_levels,
    )
    assert rebuilt.level_view() == manager.level_view(), (
        "manifest descriptors rebuild to a different level view"
    )


def check_sharded_invariants(engine) -> None:
    """Structural deep check of a :class:`~repro.shard.ShardedEngine`.

    Verifies the fleet-level invariants on top of the per-tree ones:

    * the partitioner routes across exactly the engine's shard count;
    * no shard's clock is ahead of the router's (a shard working in the
      future would let fan-outs smuggle device time into the past);
    * every bLSM shard passes :func:`check_blsm_invariants`;
    * the ownership rule: every live row on shard *i* is a key *i*
      owns — a row anywhere else is unreachable to reads and proof of
      a routing bug — except, while a migration is in flight, a row of
      its donated ``[lo, hi)`` on its source or target (staged before
      the switch, awaiting retirement after it).  Once the migration
      has finished no exception is allowed;
    * mid-migration coherence: an in-flight migration's plan names
      adjacent, distinct shards and a non-empty donated range, and its
      dirty set stays inside that range.

    The per-shard scans the check performs advance shard clocks; the
    router clock is re-synchronized afterwards so the engine remains
    usable (and the clock invariant re-established) after a check.
    """
    partitioner = engine.partitioner
    assert partitioner.nshards == len(engine.shards), (
        f"partitioner routes {partitioner.nshards} shards, engine has "
        f"{len(engine.shards)}"
    )
    for index, shard in enumerate(engine.shards):
        assert shard.clock.now <= engine.clock.now + 1e-9, (
            f"shard {index} clock ({shard.clock.now}) is ahead of the "
            f"router ({engine.clock.now})"
        )
    controller = getattr(engine, "migration", None)
    plan = None
    if controller is not None and controller.active:
        plan = controller.plan
        assert plan is not None, "active migration without a plan"
        nshards = len(engine.shards)
        assert 0 <= plan.source < nshards and 0 <= plan.target < nshards
        assert abs(plan.source - plan.target) == 1, (
            f"migration {plan.source}->{plan.target} is not between "
            "neighbours"
        )
        assert plan.lo < plan.hi, "empty donated range"
        for key in controller.dirty_keys():
            assert plan.lo <= key < plan.hi, (
                f"dirty key {key!r} outside the donated range "
                f"[{plan.lo!r}, {plan.hi!r})"
            )
    for index, shard in enumerate(engine.shards):
        tree = getattr(shard, "tree", None)
        if isinstance(tree, BLSM):
            check_blsm_invariants(tree)
        for key, _ in shard.scan(b""):
            owner = partitioner.shard_for(key)
            if owner == index:
                continue
            assert (
                plan is not None
                and index in (plan.source, plan.target)
                and plan.lo <= key < plan.hi
            ), (
                f"shard {index} holds {key!r}, which shard {owner} owns "
                f"(in-flight migration: {plan})"
            )
    engine.clock.advance_to(
        max(shard.clock.now for shard in engine.shards)
    )
