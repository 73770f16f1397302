"""The differential executor: one trace, every engine, one oracle.

The harness's correctness argument is deliberately boring: a plain
Python ``dict`` is the specification of what a KV store *means*, and
every engine configuration — scheduler, compression, partitioning,
sharding, batching, fault plan — must agree with it op by op.  The
executor replays a :class:`~repro.testing.trace.Trace` through an engine
while stepping the dictionary oracle in lockstep; every read (``get``,
``scan``, ``multi_get``) is compared as it happens, and the final state
is compared by full ordered scan.  Engines differ wildly in *when* work
happens (merges, evictions, shard fan-outs) — the oracle pins down the
one thing that must never differ: the answers.

Batched-vs-sequential parity falls out of the same construction: the
executor applies ``batch`` ops through :meth:`KVEngine.apply_batch` and
``multi_get`` ops through :meth:`KVEngine.multi_get` (``batched=True``),
or decomposes them into the one-op-at-a-time path (``batched=False``) —
both against the same oracle, so an engine whose batching override
disagrees with its own sequential path is caught either way.  Likewise
sharded-vs-single-tree equivalence: the sharded config replays the very
same trace as the single trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.baselines.interface import KVEngine, WriteBatch
from repro.core.compaction import CompactionTree
from repro.core.kernel import TreeKernel
from repro.core.partitioned import PartitionedBLSM
from repro.core.tree import BLSM
from repro.shard.engine import ShardedEngine
from repro.testing.model import (
    check_blsm_invariants,
    check_compaction_invariants,
    check_partitioned_invariants,
    check_sharded_invariants,
)
from repro.testing.trace import Trace, TraceOp

__all__ = [
    "Divergence",
    "FuzzConfig",
    "TraceOracle",
    "default_fuzz_configs",
    "run_differential",
    "run_trace",
]


class TraceOracle:
    """The dictionary model a trace's answers are checked against.

    Semantics (the shared contract every engine implements):

    * ``put`` inserts or overwrites; ``delete`` removes (idempotent on
      missing keys); ``delta`` byte-appends to a *live* value and is a
      logical no-op on a missing or deleted key (a dangling delta reads
      as "no value" — see docs/correctness.md, bug 4);
    * ``get`` returns the live value or ``None``; ``scan`` returns the
      sorted live items of ``[lo, hi)`` up to ``limit``; ``multi_get``
      returns values aligned with its keys;
    * ``batch`` applies its mutations in order; ``merge_work`` and
      ``crash`` never change logical state.
    """

    def __init__(self) -> None:
        self.state: dict[bytes, bytes] = {}

    def apply_mutation(
        self, op: str, key: bytes, value: bytes | None
    ) -> None:
        """Apply one mutation (``put``/``delete``/``delta``)."""
        if op == "put":
            assert value is not None
            self.state[key] = value
        elif op == "delete":
            self.state.pop(key, None)
        elif op == "delta":
            assert value is not None
            if key in self.state:
                self.state[key] += value
        else:
            raise ValueError(f"unknown mutation {op!r}")

    def expected(self, op: TraceOp) -> Any:
        """Step the oracle over ``op`` and return the expected result."""
        if op.kind in ("put", "delete", "delta"):
            self.apply_mutation(op.kind, op.key, op.value)
            return None
        if op.kind == "batch":
            for mutation, key, value in op.mutations:
                self.apply_mutation(mutation, key, value)
            return None
        if op.kind == "get":
            return self.state.get(op.key)
        if op.kind == "multi_get":
            return [self.state.get(key) for key in op.keys]
        if op.kind == "scan":
            rows = sorted(
                (key, value)
                for key, value in self.state.items()
                if key >= op.key and (op.hi is None or key < op.hi)
            )
            return rows if op.limit is None else rows[: op.limit]
        return None  # merge_work / crash: no logical effect

    def items(self) -> list[tuple[bytes, bytes]]:
        """The full live state, sorted — the final-scan expectation."""
        return sorted(self.state.items())


@dataclass(frozen=True)
class Divergence:
    """One observed disagreement between an engine and the oracle."""

    config: str
    op_index: int
    op: str
    expected: Any
    actual: Any
    detail: str = ""

    def describe(self) -> str:
        """One human-readable line for reports and CLI output."""
        line = (
            f"[{self.config}] op {self.op_index} ({self.op}): "
            f"expected {self.expected!r}, got {self.actual!r}"
        )
        return f"{line} — {self.detail}" if self.detail else line


def step_merge(tree: Any, budget: int) -> bool:
    """Step ``tree``'s gear-0 merge by ``budget`` bytes; False if it is
    no :class:`~repro.core.kernel.TreeKernel` merge host."""
    if not isinstance(tree, TreeKernel):
        return False
    tree.step_m01(budget)
    return True


def _drive_merge(engine: KVEngine, budget: int) -> None:
    """Honour a ``merge_work`` marker on whatever machinery exists.

    Single bLSM trees step their merge processes by the byte budget (the
    crash-during-merge surface); engines without an explicit merge-step
    API — including the sharded router, whose fan-out must stay the only
    thing advancing shard clocks — get a ``flush`` instead, which is the
    closest state-neutral "push background work" lever they expose.
    """
    if not step_merge(getattr(engine, "tree", None), budget):
        engine.flush()


def _execute(
    engine: KVEngine, op: TraceOp, batched: bool
) -> Any:
    """Run one trace op on an engine; return the observable result."""
    if op.kind == "put":
        engine.put(op.key, op.value)
    elif op.kind == "delete":
        engine.delete(op.key)
    elif op.kind == "delta":
        engine.apply_delta(op.key, op.value)
    elif op.kind == "batch":
        if batched:
            batch = WriteBatch()
            for mutation, key, value in op.mutations:
                if mutation == "put":
                    batch.put(key, value or b"")
                elif mutation == "delete":
                    batch.delete(key)
                else:
                    batch.apply_delta(key, value or b"")
            engine.apply_batch(batch)
        else:
            for mutation, key, value in op.mutations:
                if mutation == "put":
                    engine.put(key, value or b"")
                elif mutation == "delete":
                    engine.delete(key)
                else:
                    engine.apply_delta(key, value or b"")
    elif op.kind == "get":
        return engine.get(op.key)
    elif op.kind == "multi_get":
        if batched:
            return list(engine.multi_get(list(op.keys)))
        return [engine.get(key) for key in op.keys]
    elif op.kind == "scan":
        return list(engine.scan(op.key, op.hi, op.limit))
    elif op.kind == "merge_work":
        _drive_merge(engine, op.budget)
    elif op.kind == "migrate":
        # Only engines with an online-migration surface honour this; on
        # everything else it is a no-op, exactly like the oracle treats
        # it — the op moves data between shards, never changes answers.
        handler = getattr(engine, "handle_migration_op", None)
        if handler is not None:
            handler(op.action, op.key, op.budget)
    # "crash" markers are the fault composer's business; skip here.
    return None


def _leaked_read_views(engine: KVEngine) -> tuple[int, int]:
    """``(live_views, pinned_count)`` summed over the engine's trees.

    Both are refcounts a finished run must have returned to zero: an
    open view keeps a C0 copy (or the registration that would make one)
    alive, a pinned component keeps retired extents from being freed.
    """
    live = pinned = 0
    for part in getattr(engine, "shards", None) or [engine]:
        versions = getattr(getattr(part, "tree", None), "versions", None)
        if versions is not None:
            live += versions.live_views
            pinned += versions.pinned_count
    return live, pinned


def _invariant_check(
    engine: KVEngine,
) -> tuple[Callable[[Any], None], Any] | None:
    """``(checker, target)``: the deep structural check of ``engine``'s
    layout, or ``None`` for an engine that has none."""
    if isinstance(engine, ShardedEngine):
        return check_sharded_invariants, engine
    tree = getattr(engine, "tree", None)
    if isinstance(tree, BLSM):
        return check_blsm_invariants, tree
    if isinstance(tree, PartitionedBLSM):
        return check_partitioned_invariants, tree
    if isinstance(tree, CompactionTree):
        return check_compaction_invariants, tree
    return None


def run_trace(
    engine: KVEngine,
    trace: Trace,
    batched: bool = True,
    config: str = "engine",
    close: bool = True,
) -> Divergence | None:
    """Replay a trace against one engine; return the first divergence.

    Reads are verified op-by-op; after the last op the engine's full
    ordered scan is compared against the oracle, every snapshot the run
    opened must have been released (no live view, no pinned component),
    and a bLSM tree, partitioned tree, policy tree or sharded fleet must
    pass its structural deep check (:mod:`repro.testing.model`); each end-of-run
    failure is a divergence at index ``len(trace)``.
    An exception out of the engine is reported as a divergence too — the
    oracle never raises, so any engine exception is a conformance
    failure in its own right.  Returns ``None`` on full agreement.
    """
    oracle = TraceOracle()
    divergence: Divergence | None = None
    try:
        for index, op in enumerate(trace):
            expected = oracle.expected(op)
            try:
                actual = _execute(engine, op, batched)
            except Exception as error:  # noqa: BLE001 — any raise diverges
                return Divergence(
                    config, index, str(op), expected, None,
                    detail=f"engine raised {type(error).__name__}: {error}",
                )
            if op.kind in ("get", "multi_get", "scan") and actual != expected:
                return Divergence(config, index, str(op), expected, actual)
        expected_state = oracle.items()
        try:
            actual_state = list(engine.scan(b""))
        except Exception as error:  # noqa: BLE001
            return Divergence(
                config, len(trace), "final-state", expected_state, None,
                detail=f"engine raised {type(error).__name__}: {error}",
            )
        leaked = _leaked_read_views(engine)
        if actual_state != expected_state:
            divergence = Divergence(
                config, len(trace), "final-state",
                expected_state, actual_state,
                detail="full ordered scan disagrees with the oracle",
            )
        elif leaked != (0, 0):
            divergence = Divergence(
                config, len(trace), "end-of-run", (0, 0), leaked,
                detail="(live_views, pinned_count) did not return to zero",
            )
        elif (check := _invariant_check(engine)) is not None:
            checker, target = check
            try:
                checker(target)
            except Exception as error:  # noqa: BLE001
                divergence = Divergence(
                    config, len(trace), "invariants", "hold", "violated",
                    detail=f"{checker.__name__}: "
                    f"{type(error).__name__}: {error}",
                )
        return divergence
    finally:
        if close:
            try:
                engine.close()
            except Exception:  # noqa: BLE001 — a close failure after a
                pass  # recorded divergence must not mask the finding


@dataclass(frozen=True)
class FuzzConfig:
    """One engine configuration the differential executor replays.

    ``build`` returns a *fresh* engine (and fresh fault plan — plans are
    stateful) on every call, so one config can be replayed repeatedly
    during minimization.  ``engine`` is the registry name ``label`` was
    derived from, which is what a filed repro needs to rebuild it.
    """

    label: str
    engine: str
    build: Callable[[], KVEngine]
    batched: bool = True


def default_fuzz_configs(
    engines: Sequence[str] | None = None,
    shards: int = 2,
    include_faulted: bool = True,
) -> list[FuzzConfig]:
    """The standard differential matrix: every registry engine, a
    ``>= 2``-shard sharded config, and (optionally) a fault-plan config
    whose transient and latency faults must be semantically invisible.

    Small C0/cache budgets so a few thousand ops exercise merges and
    evictions on every tree.
    """
    from repro.engines import ENGINE_NAMES, EngineConfig, build_engine

    names = list(engines) if engines else list(ENGINE_NAMES)
    base = EngineConfig(c0_bytes=32 * 1024, cache_pages=16)
    configs: list[FuzzConfig] = []

    def builder(name: str, **overrides: Any) -> Callable[[], KVEngine]:
        return lambda: build_engine(name, base, **overrides)

    for name in names:
        if name == "sharded":
            count = max(2, shards)
            configs.append(
                FuzzConfig(
                    f"sharded-{count}", name, builder(name, shards=count)
                )
            )
            # Range-partitioned with a live migration controller: the
            # same trace must stay oracle-correct while ``migrate`` ops
            # split and merge shards underneath it.
            boundaries = tuple(
                b"key%06d" % (200 * index // count)
                for index in range(1, count)
            )

            def build_migrating(
                count: int = count, boundaries: tuple[bytes, ...] = boundaries
            ) -> KVEngine:
                from repro.shard.engine import ShardedEngine
                from repro.shard.migration import attach_migration
                from repro.shard.partitioner import RangePartitioner

                from repro.engines import blsm_options

                engine = ShardedEngine(
                    blsm_options(base),
                    shards=count,
                    partitioner=RangePartitioner(list(boundaries)),
                )
                attach_migration(engine, chunk_keys=16)
                return engine

            configs.append(
                FuzzConfig(f"sharded-range-{count}", name, build_migrating)
            )
        else:
            configs.append(FuzzConfig(name, name, builder(name)))
    if include_faulted and "blsm" in names:

        def build_faulted() -> KVEngine:
            from repro.faults.plan import FaultPlan, FaultRule

            plan = FaultPlan(seed=1)
            plan.add(FaultRule(kind="transient", probability=0.002))
            plan.add(
                FaultRule(
                    kind="latency", extra_seconds=0.002, probability=0.005
                )
            )
            return build_engine("blsm", base, fault_plan=plan)

        configs.append(FuzzConfig("blsm-faulty", "blsm", build_faulted))
    # GROUP durability: every write commits through the leader-based
    # group-commit queue instead of forcing in log(); the same trace
    # must stay oracle-correct with that commit path underneath (one
    # kernel method, on both layouts that can be built with it).
    for name in ("blsm", "blsm-part"):
        if name in names:
            configs.append(
                FuzzConfig(
                    f"{name}-group", name, builder(name, durability="group")
                )
            )
    return configs


def run_differential(
    trace: Trace,
    configs: Sequence[FuzzConfig] | None = None,
    progress: Callable[[str], None] | None = None,
) -> list[Divergence]:
    """Replay one trace through every config; collect all divergences.

    Each config gets a fresh engine and an independent oracle, so a
    divergence in one engine never contaminates another's verdict.
    """
    found: list[Divergence] = []
    for config in configs if configs is not None else default_fuzz_configs():
        divergence = run_trace(
            config.build(), trace, batched=config.batched, config=config.label
        )
        if divergence is not None:
            found.append(divergence)
            if progress is not None:
                progress(f"DIVERGENCE {divergence.describe()}")
        elif progress is not None:
            progress(f"  {config.label}: {len(trace)} ops, no divergence")
    return found
