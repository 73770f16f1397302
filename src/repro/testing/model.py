"""Model-based testing utilities for storage engines.

The invariants and model-checking drivers the internal test suite uses,
exported for downstream users who build on the engines (or implement
their own against :class:`repro.baselines.KVEngine`):

* :func:`run_model_workload` — drive any engine and a dictionary model
  with the same random operation stream, verifying reads as it goes;
* :func:`check_blsm_invariants` / :func:`check_partitioned_invariants` /
  :func:`check_sharded_invariants` — structural deep checks (sortedness,
  version ordering, space accounting, partition tiling, router/placement
  agreement);
* :func:`crash_recover_check` — crash an engine mid-flight and verify
  recovery against the model.
"""

from __future__ import annotations

import random
from typing import Callable

from repro.baselines.interface import KVEngine
from repro.core.partitioned import PartitionedBLSM
from repro.core.tree import BLSM
from repro.records import RecordKind


def run_model_workload(
    engine: KVEngine,
    operations: int,
    keyspace: int = 1000,
    seed: int = 0,
    key_format: bytes = b"key%06d",
    value_bytes: int = 64,
    delta_fraction: float = 0.1,
    delete_fraction: float = 0.1,
    read_fraction: float = 0.1,
    checkpoint_every: int | None = None,
    on_checkpoint: Callable[[KVEngine, dict], None] | None = None,
) -> dict[bytes, bytes]:
    """Drive an engine and a dict model in lockstep; return the model.

    Reads are verified inline; the caller can add periodic deep checks
    via ``on_checkpoint``.  Raises ``AssertionError`` on any divergence.
    """
    rng = random.Random(seed)
    model: dict[bytes, bytes] = {}
    write_fraction = 1.0 - delta_fraction - delete_fraction - read_fraction
    if write_fraction <= 0:
        raise ValueError("fractions must leave room for writes")
    for i in range(operations):
        key = key_format % rng.randrange(keyspace)
        roll = rng.random()
        if roll < write_fraction:
            value = b"v%08d" % i + bytes(max(0, value_bytes - 9))
            engine.put(key, value)
            model[key] = value
        elif roll < write_fraction + delete_fraction:
            engine.delete(key)
            model.pop(key, None)
        elif roll < write_fraction + delete_fraction + delta_fraction:
            if key in model:
                engine.apply_delta(key, b"+D")
                model[key] += b"+D"
        else:
            got = engine.get(key)
            expected = model.get(key)
            assert got == expected, (
                f"read divergence at op {i}: {key!r} -> {got!r}, "
                f"expected {expected!r}"
            )
        if (
            checkpoint_every
            and on_checkpoint is not None
            and i % checkpoint_every == checkpoint_every - 1
        ):
            on_checkpoint(engine, model)
    return model


def verify_against_model(engine: KVEngine, model: dict[bytes, bytes]) -> None:
    """Every model entry reads back; a full scan matches exactly."""
    for key, value in model.items():
        got = engine.get(key)
        assert got == value, f"{key!r} -> {got!r}, expected {value!r}"
    assert list(engine.scan(b"")) == sorted(model.items())


def check_blsm_invariants(tree: BLSM) -> None:
    """Structural deep check of an unpartitioned tree.

    Verifies per-component sortedness/uniqueness/byte accounting,
    cross-level version ordering (seqnos strictly decrease walking
    down), space accounting (no orphan extents outside active merges),
    and tombstone GC at the bottom level.
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
        assert len(keys) == component.key_count
        expected_bytes = sum(
            max(8, int(r.nbytes * ratio)) for r in records
        )
        assert expected_bytes == component.nbytes, "byte accounting drift"
    levels = [{r.key: r.seqno for r in tree._memtable}]
    if tree._m01 is not None:
        levels.append({r.key: r.seqno for r in tree._m01.overlay.records})
    for extra in tree._extras:
        levels.append({r.key: r.seqno for r in extra.iter_records()})
    for component in components:
        if component is not None:
            levels.append({r.key: r.seqno for r in component.iter_records()})
    for newer, older in zip(levels, levels[1:]):
        for key, seqno in newer.items():
            if key in older:
                assert seqno > older[key], f"version inversion for {key!r}"
    if tree._m01 is None and tree._m12 is None:
        live = set()
        for component in components + tree._extras:
            if component is not None:
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


def check_partitioned_invariants(tree: PartitionedBLSM) -> None:
    """Structural deep check of a partitioned tree."""
    ranges = tree.partition_ranges()
    assert ranges[0][0] == b""
    assert ranges[-1][1] is None
    for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
        assert hi == lo, "partitions do not tile the keyspace"
    for partition in tree._partitions:
        for component in (partition.c1, partition.c2):
            if component is None:
                continue
            records = list(component.iter_records())
            keys = [record.key for record in records]
            assert keys == sorted(keys)
            assert all(key >= partition.lo for key in keys)
            if partition.hi is not None:
                assert all(key < partition.hi for key in keys)
        if partition.c1 is not None and partition.c2 is not None:
            older = {r.key: r.seqno for r in partition.c2.iter_records()}
            for record in partition.c1.iter_records():
                if record.key in older:
                    assert record.seqno > older[record.key]


def check_sharded_invariants(engine) -> None:
    """Structural deep check of a :class:`~repro.shard.ShardedEngine`.

    Verifies the fleet-level invariants on top of the per-tree ones:

    * the partitioner routes across exactly the engine's shard count;
    * no shard's clock is ahead of the router's (a shard working in the
      future would let fan-outs smuggle device time into the past);
    * every bLSM shard passes :func:`check_blsm_invariants`;
    * router/placement agreement: every key physically live on a shard
      names that shard in the partitioner's placement history
      (``owners``) — a key outside its owner set is unreachable to
      reads and proof of a routing bug;
    * mid-migration coherence: an in-flight migration's plan names
      adjacent, distinct shards and a non-empty donated range, its
      dirty set stays inside that range, a switched-but-unretired
      source is epoch-fenced, and staged rows on the migration target
      are confined to the donated range (they are exempt from the
      owner-set rule — the scan mask hides them from readers).

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
    mask = controller.mask_range() if controller is not None else None
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
        if controller.state == "retire":
            assert engine._fence_epochs[plan.source] == engine.epoch, (
                f"switched source {plan.source} is not fenced at the "
                f"current epoch {engine.epoch}"
            )
    for index, shard in enumerate(engine.shards):
        tree = getattr(shard, "tree", None)
        if isinstance(tree, BLSM):
            check_blsm_invariants(tree)
        for key, _ in shard.scan(b""):
            if (
                mask is not None
                and index == mask[0]
                and mask[1] <= key < mask[2]
            ):
                continue  # staged migration rows, hidden by the scan mask
            owners = partitioner.owners(key)
            assert index in owners, (
                f"shard {index} holds {key!r} but the placement history "
                f"names only shards {owners}"
            )
    engine.clock.advance_to(
        max(shard.clock.now for shard in engine.shards)
    )


def crash_recover_check(
    tree: BLSM, model: dict[bytes, bytes]
) -> BLSM:
    """Crash the tree's storage, recover, verify, return the new tree.

    Requires ``DurabilityMode.SYNC`` (otherwise recent writes are
    legitimately lost and the model comparison would be wrong).
    """
    stasis = tree.stasis
    options = tree.options
    stasis.crash()
    recovered = BLSM.recover(stasis, options)
    verify_against_model(_as_engine(recovered), model)
    return recovered


class _as_engine:
    """Duck-type a bare tree as the tiny engine surface we verify."""

    def __init__(self, tree: BLSM) -> None:
        self._tree = tree

    def get(self, key: bytes):
        return self._tree.get(key)

    def scan(self, lo: bytes):
        return self._tree.scan(lo)
