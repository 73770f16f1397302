"""Crash-safe online shard migration: live split/merge under traffic.

The paper's deployment story (Sections 1 and 6) is a PNUTS-style fleet
of independent trees; PR 4's :class:`~repro.shard.engine.ShardedEngine`
reproduces the fleet but its only elasticity lever was
``RangePartitioner.resize`` — a static, offline remap that strands every
pre-move version on its old owner forever.  This module makes boundary
movement a first-class *online* mechanism: data actually moves, the
ownership switch is atomic and journaled, and a crash at any step
recovers to a consistent ownership map.

The protocol is the classic live-migration state machine, driven one
bounded unit of work at a time so foreground traffic interleaves:

``plan``
    A :class:`MigrationPlan` names a contiguous donated range
    ``[lo, hi)`` moving from ``source`` to an adjacent ``target`` plus
    the post-switch boundary set.  The plan is journaled before any
    data moves.
``copy``
    The target's slice of the moving range is first cleared (a crashed
    earlier attempt may have left stale staged rows), then the source's
    rows are copied over in chunks.  Foreground writes to the moving
    range keep landing on the source; their keys go into an in-memory
    *dirty set* so the copy never chases a moving target.
``catch-up``
    The dirty set is drained (re-read from source, re-staged on target)
    while new foreground puts/deletes *double-write* to both shards, so
    the set only shrinks.  Deltas stay source-only and re-enter the
    dirty set — the target may lack the base version, and a dangling
    delta must never be staged.
``switch``
    The commit point: one journal force containing the new boundaries
    and a bumped cluster epoch.  Only after the record is durable does
    the router's partitioner resize and the source become *fenced* — a
    client still writing through a pre-switch :class:`ShardLease` gets
    :class:`~repro.errors.StaleOwnerError` instead of a misplaced write.
    Crash before the force: recovery restarts the copy (the dirty set
    is volatile, so nothing less is safe).  Crash after: recovery
    resumes at retire.  There is no in-between.
``retire``
    The source's now-stale copies of the moved range are deleted in
    chunks, after which the superseded placement-history entry is
    pruned (:meth:`~repro.shard.partitioner.RangePartitioner.
    prune_history`) — the unbounded-history fix.

Until the switch, readers never observe the target's staged rows: point
reads route to the source (still the owner) and the router's scan masks
the staged range (see ``ShardedEngine.scan``).  After the switch,
readers resolve the target first and the placement history keeps the
un-retired source copies reachable only as (identical) fallbacks.

Migration I/O is throttled against foreground traffic
(:class:`MigrationThrottle` defers steps once migration exceeds its
budgeted share of cluster time while foreground batches are flowing),
and :class:`HotShardDetector` + :class:`Rebalancer` close the loop from
per-shard load metrics to live split/merge plans.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any, Callable, TYPE_CHECKING

from repro.errors import (
    CrashPoint,
    MigrationError,
    StaleOwnerError,
    TransientIOError,
)
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryExecutor, RetryPolicy
from repro.obs.timeline import percentile, windows_over_span
from repro.shard.partitioner import RangePartitioner
from repro.sim.clock import VirtualClock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.shard.engine import ShardedEngine

__all__ = [
    "HotShardDetector",
    "MigrationController",
    "MigrationJournal",
    "MigrationPlan",
    "MigrationThrottle",
    "Rebalancer",
    "ShardLease",
    "attach_migration",
    "crash_and_recover",
    "live_migration_bench",
    "plan_merge",
    "plan_split",
    "shard_range",
]

#: Controller states, in protocol order.
IDLE, COPY, CATCH_UP, RETIRE = "idle", "copy", "catch_up", "retire"


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MigrationPlan:
    """One boundary move: donate ``[lo, hi)`` from source to target.

    Every single-boundary move of a range partitioner is expressible
    this way: a *split* donates half of a hot shard's range to a
    neighbour, a *merge* donates (almost) all of a cold shard's range.
    ``new_boundaries`` is the complete post-switch boundary set — the
    switch installs it verbatim, so the plan record alone is enough to
    recover the ownership map.
    """

    plan_id: int
    kind: str  # "split" or "merge"
    source: int
    target: int
    lo: bytes
    hi: bytes
    new_boundaries: tuple[bytes, ...]


def shard_range(
    partitioner: RangePartitioner, index: int
) -> tuple[bytes, bytes | None]:
    """The key range shard ``index`` currently owns (``hi None`` = +inf)."""
    boundaries = partitioner.boundaries
    lo = b"" if index == 0 else boundaries[index - 1]
    hi = None if index == len(boundaries) else boundaries[index]
    return lo, hi


def _valid_boundaries(
    partitioner: RangePartitioner, candidate: list[bytes]
) -> bool:
    if len(candidate) != len(partitioner.boundaries):
        return False
    try:
        RangePartitioner(candidate)
    except ValueError:
        return False
    return True


def _live_keys(engine: "ShardedEngine", index: int, lo: bytes, hi: bytes | None) -> list[bytes]:
    rows = engine._on_shard(
        index, lambda s: list(s.scan(lo, hi)), "migrate_plan"
    )
    return [key for key, _ in rows]


def plan_split(engine: "ShardedEngine", source: int) -> MigrationPlan | None:
    """Split a hot shard: donate half its live range to a neighbour.

    The split point is the median live key of the source's current
    range.  Interior shards donate their upper half rightward; the last
    shard donates its lower half leftward (a boundary can only move
    between neighbours).  Returns ``None`` when the shard holds too few
    keys to split or the move would produce an invalid boundary set.
    """
    partitioner = engine.partitioner
    if not isinstance(partitioner, RangePartitioner):
        return None
    nshards = partitioner.nshards
    if not 0 <= source < nshards or nshards < 2:
        return None
    lo, hi = shard_range(partitioner, source)
    keys = _live_keys(engine, source, lo, hi)
    if len(keys) < 2:
        return None
    mid = keys[len(keys) // 2]
    boundaries = list(partitioner.boundaries)
    if source < nshards - 1:
        candidate = list(boundaries)
        candidate[source] = mid
        if not _valid_boundaries(partitioner, candidate):
            return None
        assert hi is not None
        return MigrationPlan(
            0, "split", source, source + 1, mid, hi, tuple(candidate)
        )
    candidate = list(boundaries)
    candidate[source - 1] = mid
    if not _valid_boundaries(partitioner, candidate):
        return None
    return MigrationPlan(
        0, "split", source, source - 1, lo, mid, tuple(candidate)
    )


def plan_merge(engine: "ShardedEngine", source: int) -> MigrationPlan | None:
    """Merge a cold shard away: donate (almost) all its range.

    Boundaries must stay strictly increasing, so a shard cannot donate
    its *entire* range; the merge leaves a sliver — interior shards keep
    only keys below ``lo + b"\\x00"``, the last shard keeps only keys
    above its last live one.  Returns ``None`` when the move is
    degenerate (nothing to donate, or an invalid boundary set).
    """
    partitioner = engine.partitioner
    if not isinstance(partitioner, RangePartitioner):
        return None
    nshards = partitioner.nshards
    if not 0 <= source < nshards or nshards < 2:
        return None
    lo, hi = shard_range(partitioner, source)
    boundaries = list(partitioner.boundaries)
    if source < nshards - 1:
        assert hi is not None
        sliver = lo + b"\x00"
        if sliver >= hi:
            return None
        candidate = list(boundaries)
        candidate[source] = sliver
        if not _valid_boundaries(partitioner, candidate):
            return None
        return MigrationPlan(
            0, "merge", source, source + 1, sliver, hi, tuple(candidate)
        )
    keys = _live_keys(engine, source, lo, hi)
    if not keys:
        return None
    cut = keys[-1] + b"\x00"
    candidate = list(boundaries)
    candidate[source - 1] = cut
    if not _valid_boundaries(partitioner, candidate):
        return None
    return MigrationPlan(
        0, "merge", source, source - 1, lo, cut, tuple(candidate)
    )


# ----------------------------------------------------------------------
# The migration journal (the subsystem's WAL)
# ----------------------------------------------------------------------


class MigrationJournal:
    """An append-only, force-on-append journal of migration records.

    The journal is the migration subsystem's write-ahead log: every
    state transition is appended *and forced* before the transition
    takes effect in memory, so replaying the durable prefix always
    reconstructs a consistent ownership map.  Each force charges the
    router clock and (optionally) consults a :class:`FaultPlan` under
    the device name ``migration-journal`` — transient faults are retried
    through a :class:`RetryExecutor` (with a deadline, so a persistent
    fault surfaces typed), ``crash``/``torn`` faults kill the process at
    the force boundary leaving the record volatile, and ``latency``
    faults just cost time.  :meth:`crash` models the process death:
    the un-forced tail is dropped.
    """

    def __init__(
        self,
        clock: VirtualClock | None = None,
        fault_plan: FaultPlan | None = None,
        force_seconds: float = 2e-4,
        retry_policy: RetryPolicy | None = None,
        seed: int = 0,
    ) -> None:
        self.clock = clock if clock is not None else VirtualClock()
        self.fault_plan = fault_plan
        self.force_seconds = force_seconds
        self.retry_policy = retry_policy or RetryPolicy(
            max_attempts=6, deadline_seconds=1.0, jitter=0.25
        )
        self.seed = seed
        self.forces = 0
        self._records: list[dict[str, Any]] = []
        self._durable = 0

    @property
    def records(self) -> list[dict[str, Any]]:
        """The durable record prefix (everything that survived forces)."""
        return list(self._records[: self._durable])

    def append(self, record: dict[str, Any]) -> None:
        """Append one record and force it durable (or die trying)."""
        self._records.append(dict(record))
        self.force()

    def force(self) -> None:
        """Make every appended record durable, charging clock time."""

        def write_once() -> None:
            if self.fault_plan is not None:
                for rule in self.fault_plan.note_access(
                    "migration-journal", "write"
                ):
                    if rule.kind == "transient":
                        self.clock.advance(self.force_seconds)
                        raise TransientIOError(
                            "migration-journal force failed"
                        )
                    if rule.kind in ("crash", "torn"):
                        raise CrashPoint(
                            access_index=self.fault_plan.access_count
                        )
                    if rule.kind == "latency":
                        self.clock.advance(rule.extra_seconds)
            self.clock.advance(self.force_seconds)

        executor = RetryExecutor(self.retry_policy, self.clock, seed=self.seed)
        executor.run(write_once, "migration-journal")
        self._durable = len(self._records)
        self.forces += 1

    def crash(self) -> int:
        """Drop the volatile tail (process death); return records lost."""
        lost = len(self._records) - self._durable
        del self._records[self._durable :]
        return lost


def _replay_journal(
    journal: MigrationJournal,
) -> tuple[
    list[bytes] | None,
    list[bytes] | None,
    int,
    tuple[MigrationPlan, str] | None,
    int,
]:
    """Reconstruct ``(boundaries, pre_switch_boundaries, epoch, pending,
    next_plan_id)`` from the journal's durable records.

    ``pending`` is ``(plan, phase)`` with phase ``"copy"`` (planned but
    not switched — the copy restarts from scratch, the volatile dirty
    set died with the process) or ``"retire"`` (switched but the
    superseded range is not yet fully retired/pruned — retirement is
    idempotent and simply reruns).  ``pre_switch_boundaries`` is set
    only for a pending retire: the recovered partitioner needs that
    history entry so reads still fall back to the un-retired source.
    """
    boundaries: list[bytes] | None = None
    previous: list[bytes] | None = None
    epoch = 0
    pending: tuple[MigrationPlan, str] | None = None
    next_plan_id = 1
    for record in journal.records:
        kind = record["type"]
        if kind == "init":
            boundaries = list(record["boundaries"])
            epoch = int(record["epoch"])
        elif kind == "plan":
            plan = MigrationPlan(
                plan_id=int(record["id"]),
                kind=record["kind"],
                source=int(record["source"]),
                target=int(record["target"]),
                lo=record["lo"],
                hi=record["hi"],
                new_boundaries=tuple(record["new_boundaries"]),
            )
            pending = (plan, "copy")
            next_plan_id = max(next_plan_id, plan.plan_id + 1)
        elif kind == "switch":
            previous = boundaries
            boundaries = list(record["boundaries"])
            epoch = int(record["epoch"])
            if pending is not None:
                pending = (pending[0], "retire")
        elif kind == "prune":
            pending = None
            previous = None
        elif kind == "abort":
            pending = None
    if pending is not None and pending[1] == "copy":
        previous = None
    return boundaries, previous, epoch, pending, next_plan_id


# ----------------------------------------------------------------------
# Throttle, detector, rebalancer
# ----------------------------------------------------------------------


class MigrationThrottle:
    """Bound migration's share of cluster time while traffic flows.

    Tracks the router-clock seconds migration steps consume and defers
    further steps whenever that share of elapsed time exceeds
    ``max_fraction`` *and* foreground batches arrived since the last
    step (an idle cluster migrates at full speed — there is no one to
    protect).  Deferral is self-correcting: migration's share decays as
    foreground time accumulates, so progress is guaranteed.
    """

    def __init__(self, max_fraction: float = 0.5) -> None:
        if not 0.0 < max_fraction <= 1.0:
            raise ValueError(
                f"max_fraction must be in (0, 1], got {max_fraction}"
            )
        self.max_fraction = max_fraction
        self.busy_seconds = 0.0
        self._began: float | None = None
        self._last_foreground: float | None = None

    def begin(self, engine: "ShardedEngine") -> None:
        """Reset accounting at migration start."""
        self.busy_seconds = 0.0
        self._began = engine.clock.now
        self._last_foreground = engine._runtime.metrics.value(
            "shard.foreground_batches"
        )

    def should_defer(self, engine: "ShardedEngine") -> bool:
        """Whether the next step should yield to foreground traffic."""
        current = engine._runtime.metrics.value("shard.foreground_batches")
        foreground_active = (
            self._last_foreground is not None
            and current > self._last_foreground
        )
        self._last_foreground = current
        if not foreground_active or self._began is None:
            return False
        elapsed = engine.clock.now - self._began
        if elapsed <= 0.0:
            return False
        return self.busy_seconds / elapsed > self.max_fraction

    def charge(self, seconds: float) -> None:
        """Account one step's router-clock cost against the budget."""
        self.busy_seconds += max(0.0, seconds)


class HotShardDetector:
    """Per-shard load shares from the router's own op counters.

    Each :meth:`observe` call diffs the per-shard ``shard.{i}.ops``
    counters against the previous observation and returns each shard's
    share of the interval's traffic (empty until at least ``min_ops``
    accumulated — a handful of ops is noise, not a hotspot).
    """

    def __init__(self, engine: "ShardedEngine", min_ops: int = 64) -> None:
        self.engine = engine
        self.min_ops = min_ops
        self._last = self._snapshot()

    def _snapshot(self) -> list[float]:
        metrics = self.engine._runtime.metrics
        return [
            metrics.value(f"shard.{index}.ops")
            for index in range(len(self.engine.shards))
        ]

    def observe(self) -> list[float]:
        """Traffic share per shard since the last observation."""
        current = self._snapshot()
        deltas = [now - then for now, then in zip(current, self._last)]
        total = sum(deltas)
        if total < self.min_ops:
            return []
        self._last = current
        return [delta / total for delta in deltas]


class Rebalancer:
    """Close the loop: per-shard load metrics to live split/merge plans.

    ``maybe_rebalance`` is cheap enough to call between batches: it does
    nothing while a migration is already in flight or traffic is too
    thin to judge, splits the hottest shard once its share exceeds
    ``hot_share``, and merges the coldest shard away once its share
    drops under ``cold_share`` (only with more than two shards — merging
    one of two just moves the hotspot).
    """

    def __init__(
        self,
        engine: "ShardedEngine",
        controller: "MigrationController",
        hot_share: float = 0.6,
        cold_share: float = 0.02,
        detector: HotShardDetector | None = None,
    ) -> None:
        self.engine = engine
        self.controller = controller
        self.hot_share = hot_share
        self.cold_share = cold_share
        self.detector = detector or HotShardDetector(engine)

    def maybe_rebalance(self) -> MigrationPlan | None:
        """Start a split or merge if the load picture warrants one."""
        if self.controller.state != IDLE:
            return None
        shares = self.detector.observe()
        if not shares:
            return None
        hot = max(range(len(shares)), key=shares.__getitem__)
        if shares[hot] >= self.hot_share:
            plan = plan_split(self.engine, hot)
            if plan is not None:
                return self.controller.start(plan)
        cold = min(range(len(shares)), key=shares.__getitem__)
        if len(shares) > 2 and shares[cold] <= self.cold_share:
            plan = plan_merge(self.engine, cold)
            if plan is not None:
                return self.controller.start(plan)
        return None


# ----------------------------------------------------------------------
# Epoch-fenced client leases
# ----------------------------------------------------------------------


class ShardLease:
    """A client's claim that one shard owns a key range, epoch-stamped.

    Real sharded deployments hand clients a routing table; a migration
    switch invalidates cached entries.  A lease captures the cluster
    epoch at creation; writes through it are rejected with
    :class:`~repro.errors.StaleOwnerError` once the leased shard has
    been fenced by a later switch or the key routes elsewhere — the
    stale client re-leases instead of writing through dead routing
    state.
    """

    def __init__(self, engine: "ShardedEngine", shard: int, epoch: int) -> None:
        self.engine = engine
        self.shard = shard
        self.epoch = epoch

    def _check(self, key: bytes) -> None:
        fence = self.engine._fence_epochs[self.shard]
        if fence > self.epoch:
            raise StaleOwnerError(self.shard, self.epoch, self.engine.epoch)
        if self.engine.partitioner.shard_for(key) != self.shard:
            raise StaleOwnerError(self.shard, self.epoch, self.engine.epoch)

    def put(self, key: bytes, value: bytes) -> None:
        self._check(key)
        self.engine.put(key, value)

    def delete(self, key: bytes) -> None:
        self._check(key)
        self.engine.delete(key)

    def __repr__(self) -> str:
        return f"ShardLease(shard={self.shard}, epoch={self.epoch})"


# ----------------------------------------------------------------------
# The controller
# ----------------------------------------------------------------------


class MigrationController:
    """Drives the journaled plan/copy/catch-up/switch/retire machine.

    One controller attaches to one :class:`ShardedEngine` (as
    ``engine.migration``) and advances at most one migration at a time,
    one bounded chunk per :meth:`step` call, so the driver interleaves
    foreground traffic freely.  Every durable transition is journaled
    *before* it takes effect; :func:`crash_and_recover` rebuilds the
    whole fleet — ownership map, epoch, fences and pending migration —
    from the journal plus the shards' own recovery.
    """

    def __init__(
        self,
        engine: "ShardedEngine",
        journal: MigrationJournal | None = None,
        chunk_keys: int = 64,
        throttle: MigrationThrottle | None = None,
    ) -> None:
        if not isinstance(engine.partitioner, RangePartitioner):
            raise MigrationError(
                "online migration requires a RangePartitioner "
                f"(got {engine.partitioner.describe()})"
            )
        if chunk_keys < 1:
            raise ValueError(f"chunk_keys must be >= 1, got {chunk_keys}")
        self.engine = engine
        self.journal = journal if journal is not None else MigrationJournal()
        self.journal.clock = engine.clock
        self.chunk_keys = chunk_keys
        self.throttle = throttle or MigrationThrottle()
        self.state = IDLE
        self.plan: MigrationPlan | None = None
        self.completed = 0
        self.copied_keys = 0
        self.retired_keys = 0
        self._dirty: set[bytes] = set()
        self._clear_done = False
        self._clear_cursor = b""
        self._copy_cursor = b""
        self._retire_cursor = b""
        self._next_plan_id = 1
        metrics = engine._runtime.metrics
        self._ctr_steps = metrics.counter("migration.steps")
        self._ctr_deferred = metrics.counter("migration.deferred_steps")
        self._ctr_copied = metrics.counter("migration.copied_keys")
        self._ctr_retired = metrics.counter("migration.retired_keys")
        self._ctr_switches = metrics.counter("migration.switches")
        engine.migration = self
        if not self.journal.records:
            self.journal.append(
                {
                    "type": "init",
                    "boundaries": list(engine.partitioner.boundaries),
                    "epoch": engine.epoch,
                }
            )

    # -- router hooks --------------------------------------------------

    @property
    def active(self) -> bool:
        """Whether a migration is in flight (any non-idle state)."""
        return self.state != IDLE

    def dirty_keys(self) -> frozenset[bytes]:
        """The keys awaiting catch-up (for invariant checks)."""
        return frozenset(self._dirty)

    def mask_range(self) -> tuple[int, bytes, bytes] | None:
        """The staged range readers must not observe yet, if any.

        During copy and catch-up the target holds staged rows of
        ``[lo, hi)`` that are not yet authoritative (a key deleted on
        the source mid-copy may still have a staged copy); the router's
        scan masks them.  After the switch the target *is* the owner and
        nothing is masked.
        """
        if self.state in (COPY, CATCH_UP) and self.plan is not None:
            return (self.plan.target, self.plan.lo, self.plan.hi)
        return None

    def on_write(self, key: bytes, op: str) -> int | None:
        """Router callback for every foreground mutation.

        Returns the extra shard index the mutation must *also* be
        applied to (the catch-up double-write), or ``None``.  During
        copy every mutation of the moving range just marks its key
        dirty; during catch-up puts and deletes double-write to the
        target (and leave the dirty set), while deltas stay source-only
        and re-enter the dirty set — the target may lack the base
        version and a staged dangling delta would resurrect as garbage.
        """
        plan = self.plan
        if plan is None or self.state not in (COPY, CATCH_UP):
            return None
        if not plan.lo <= key < plan.hi:
            return None
        if self.state == COPY or op == "delta":
            self._dirty.add(key)
            return None
        self._dirty.discard(key)
        return plan.target

    # -- lifecycle -----------------------------------------------------

    def start(self, plan: MigrationPlan) -> MigrationPlan:
        """Journal a plan and enter the copy phase; returns the stamped plan.

        Raises :class:`MigrationError` when a migration is already in
        flight, the plan is malformed, or the partitioner still carries
        placement history that cannot be pruned (a migration over
        untracked strays could clear live fallback versions).
        """
        if self.state != IDLE:
            raise MigrationError(
                f"migration {self.plan.plan_id if self.plan else '?'} is "
                "already in flight"
            )
        partitioner = self.engine.partitioner
        nshards = partitioner.nshards
        if not (0 <= plan.source < nshards and 0 <= plan.target < nshards):
            raise MigrationError(
                f"plan names shards {plan.source}->{plan.target} outside "
                f"the fleet of {nshards}"
            )
        if plan.source == plan.target:
            raise MigrationError("source and target must differ")
        if abs(plan.source - plan.target) != 1:
            raise MigrationError(
                "a boundary move can only donate between neighbours"
            )
        if not plan.lo < plan.hi:
            raise MigrationError(
                f"empty or inverted donated range [{plan.lo!r}, {plan.hi!r})"
            )
        if not _valid_boundaries(partitioner, list(plan.new_boundaries)):
            raise MigrationError(
                f"invalid post-switch boundaries {plan.new_boundaries!r}"
            )
        if partitioner.history_depth:
            self.engine.prune_placement_history()
            if partitioner.history_depth:
                raise MigrationError(
                    "placement history still holds live stranded versions; "
                    "cannot start a migration over them"
                )
        plan = replace(plan, plan_id=self._next_plan_id)
        self._next_plan_id += 1
        self.journal.append(
            {
                "type": "plan",
                "id": plan.plan_id,
                "kind": plan.kind,
                "source": plan.source,
                "target": plan.target,
                "lo": plan.lo,
                "hi": plan.hi,
                "new_boundaries": list(plan.new_boundaries),
            }
        )
        self._enter_copy(plan)
        self.journal.append({"type": "copy_start", "id": plan.plan_id})
        return plan

    def abort(self) -> None:
        """Abandon an un-switched migration (staged rows are cleared).

        Only legal before the ownership switch: afterwards the move is
        committed and must roll *forward* through retirement.
        """
        if self.state == IDLE:
            return
        if self.state == RETIRE:
            raise MigrationError(
                "cannot abort after the ownership switch; the migration "
                "must roll forward through retirement"
            )
        plan = self.plan
        assert plan is not None
        self._clear_range(plan.target, plan.lo, plan.hi)
        self.journal.append({"type": "abort", "id": plan.plan_id})
        self._reset()

    def _enter_copy(self, plan: MigrationPlan) -> None:
        self.plan = plan
        self.state = COPY
        self._dirty.clear()
        self._clear_done = False
        self._clear_cursor = plan.lo
        self._copy_cursor = plan.lo
        self._retire_cursor = plan.lo
        self.throttle.begin(self.engine)

    def _reset(self) -> None:
        self.plan = None
        self.state = IDLE
        self._dirty.clear()

    # -- stepping ------------------------------------------------------

    def step(self) -> str:
        """Perform one bounded unit of migration work; returns a tag.

        Tags: ``idle`` (nothing to do), ``throttled`` (deferred to
        foreground traffic), ``clear``/``copy``/``catch_up``/``retire``
        (one chunk of that phase), ``switch`` (the ownership switch
        happened this step), ``retired`` (the migration completed this
        step).
        """
        if self.state == IDLE:
            return IDLE
        if self.throttle.should_defer(self.engine):
            self._ctr_deferred.inc()
            return "throttled"
        began = self.engine.clock.now
        try:
            return self._step_inner()
        finally:
            self._ctr_steps.inc()
            self.throttle.charge(self.engine.clock.now - began)

    def run_to_completion(self, max_steps: int = 1_000_000) -> int:
        """Step until idle (throttling yields still count); returns steps."""
        steps = 0
        while self.state != IDLE:
            self.step()
            steps += 1
            if steps >= max_steps:
                raise MigrationError(
                    f"migration made no progress after {max_steps} steps"
                )
        return steps

    def _step_inner(self) -> str:
        plan = self.plan
        assert plan is not None
        if self.state == COPY:
            if not self._clear_done:
                return self._step_clear(plan)
            return self._step_copy(plan)
        if self.state == CATCH_UP:
            return self._step_catch_up(plan)
        if self.state == RETIRE:
            return self._step_retire(plan)
        raise AssertionError(f"unreachable state {self.state}")  # pragma: no cover

    def _scan_chunk(
        self, shard: int, lo: bytes, hi: bytes, kind: str
    ) -> list[tuple[bytes, bytes]]:
        return self.engine._on_shard(
            shard, lambda s: list(s.scan(lo, hi, self.chunk_keys)), kind
        )

    def _clear_range(self, shard: int, lo: bytes, hi: bytes) -> int:
        """Delete every live row of ``[lo, hi)`` on one shard (chunked)."""
        from repro.baselines.interface import WriteBatch

        cleared = 0
        cursor = lo
        while True:
            rows = self._scan_chunk(shard, cursor, hi, "migrate_clear")
            if rows:
                batch = WriteBatch()
                for key, _ in rows:
                    batch.delete(key)
                self.engine._on_shard(
                    shard, lambda s: s.apply_batch(batch), "migrate_clear"
                )
                cleared += len(rows)
                cursor = rows[-1][0] + b"\x00"
            if len(rows) < self.chunk_keys:
                return cleared

    def _step_clear(self, plan: MigrationPlan) -> str:
        from repro.baselines.interface import WriteBatch

        rows = self._scan_chunk(
            plan.target, self._clear_cursor, plan.hi, "migrate_clear"
        )
        if rows:
            batch = WriteBatch()
            for key, _ in rows:
                batch.delete(key)
            self.engine._on_shard(
                plan.target, lambda s: s.apply_batch(batch), "migrate_clear"
            )
            self._clear_cursor = rows[-1][0] + b"\x00"
        if len(rows) < self.chunk_keys:
            self._clear_done = True
        return "clear"

    def _step_copy(self, plan: MigrationPlan) -> str:
        from repro.baselines.interface import WriteBatch

        rows = self._scan_chunk(
            plan.source, self._copy_cursor, plan.hi, "migrate_copy"
        )
        if rows:
            batch = WriteBatch()
            for key, value in rows:
                batch.put(key, value)
            self.engine._on_shard(
                plan.target, lambda s: s.apply_batch(batch), "migrate_copy"
            )
            self.copied_keys += len(rows)
            self._ctr_copied.inc(len(rows))
            self._copy_cursor = rows[-1][0] + b"\x00"
        if len(rows) < self.chunk_keys:
            self.state = CATCH_UP
            self.journal.append({"type": "catchup_start", "id": plan.plan_id})
        return "copy"

    def _step_catch_up(self, plan: MigrationPlan) -> str:
        from repro.baselines.interface import WriteBatch

        keys = sorted(self._dirty)[: self.chunk_keys]
        if keys:
            values = self.engine._on_shard(
                plan.source,
                lambda s: [s.get(key) for key in keys],
                "migrate_catchup",
            )
            batch = WriteBatch()
            for key, value in zip(keys, values):
                if value is None:
                    batch.delete(key)
                else:
                    batch.put(key, value)
            self.engine._on_shard(
                plan.target, lambda s: s.apply_batch(batch), "migrate_catchup"
            )
            self._dirty.difference_update(keys)
        if not self._dirty:
            self._switch(plan)
            return "switch"
        return CATCH_UP

    def _switch(self, plan: MigrationPlan) -> None:
        """The atomic ownership switch (one journal force commits it)."""
        new_epoch = self.engine.epoch + 1
        self.journal.append(
            {
                "type": "switch",
                "id": plan.plan_id,
                "source": plan.source,
                "boundaries": list(plan.new_boundaries),
                "epoch": new_epoch,
            }
        )
        # Only reached if the force made the record durable: from here
        # on, recovery rolls this migration forward, never back.
        self.engine.partitioner.resize(list(plan.new_boundaries))
        self.engine.epoch = new_epoch
        self.engine._fence_epochs[plan.source] = new_epoch
        self._ctr_switches.inc()
        self.state = RETIRE
        self._retire_cursor = plan.lo

    def _step_retire(self, plan: MigrationPlan) -> str:
        from repro.baselines.interface import WriteBatch

        rows = self._scan_chunk(
            plan.source, self._retire_cursor, plan.hi, "migrate_retire"
        )
        if rows:
            batch = WriteBatch()
            for key, _ in rows:
                batch.delete(key)
            self.engine._on_shard(
                plan.source, lambda s: s.apply_batch(batch), "migrate_retire"
            )
            self.retired_keys += len(rows)
            self._ctr_retired.inc(len(rows))
            self._retire_cursor = rows[-1][0] + b"\x00"
        if len(rows) < self.chunk_keys:
            self.journal.append({"type": "retire_done", "id": plan.plan_id})
            pruned = self.engine.prune_placement_history()
            self.journal.append(
                {"type": "prune", "id": plan.plan_id, "pruned": pruned}
            )
            self.completed += 1
            self._reset()
            return "retired"
        return RETIRE

    # -- recovery ------------------------------------------------------

    def _resume(self, pending: tuple[MigrationPlan, str] | None) -> None:
        """Restore controller state after a crash (journal already replayed)."""
        if pending is None:
            self._reset()
            return
        plan, phase = pending
        if phase == "copy":
            # The dirty set died with the process; nothing short of a
            # full re-copy (clear first) is safe.
            self._enter_copy(plan)
        else:
            self.plan = plan
            self.state = RETIRE
            self._retire_cursor = plan.lo
            self.throttle.begin(self.engine)


def attach_migration(
    engine: "ShardedEngine",
    journal: MigrationJournal | None = None,
    chunk_keys: int = 64,
    throttle: MigrationThrottle | None = None,
) -> MigrationController:
    """Attach a migration controller to a range-partitioned engine."""
    return MigrationController(
        engine, journal=journal, chunk_keys=chunk_keys, throttle=throttle
    )


def crash_and_recover(engine: "ShardedEngine") -> "ShardedEngine":
    """Simulate a whole-cluster crash and rebuild a consistent fleet.

    Drops every shard's volatile state and the migration journal's
    un-forced tail, recovers each shard's tree from its durable
    substrate, replays the journal into an ownership map (boundaries,
    placement history for any un-retired move, cluster epoch, fences),
    and re-attaches a controller resumed at the recovered migration
    phase: a plan without a durable switch restarts its copy from
    scratch; a switch without a completed retirement rolls forward
    through retirement.  Requires bLSM shards (``SYNC`` durability for
    acked-write guarantees, as everywhere else in the crash harness).
    """
    from repro.baselines.blsm_engine import BLSMEngine
    from repro.core.tree import BLSM
    from repro.shard.engine import ShardedEngine

    controller = engine.migration
    if controller is None:
        raise MigrationError(
            "crash recovery needs an attached MigrationController "
            "(the journal is the recovery source of truth)"
        )
    journal = controller.journal
    if journal.fault_plan is not None:
        journal.fault_plan.disarm()
    journal.crash()
    trees = []
    for shard in engine.shards:
        tree = getattr(shard, "tree", None)
        if not isinstance(tree, BLSM):
            raise MigrationError(
                "crash recovery requires plain bLSM shard engines"
            )
        stasis = tree.stasis
        stasis.crash()
        trees.append(BLSM.recover(stasis, tree.options))
    boundaries, previous, epoch, pending, next_plan_id = _replay_journal(
        journal
    )
    if boundaries is None:
        raise MigrationError("migration journal has no durable init record")
    if previous is not None:
        partitioner = RangePartitioner(previous)
        partitioner.resize(boundaries)
    else:
        partitioner = RangePartitioner(boundaries)
    recovered = ShardedEngine(
        engine.options,
        shards=len(trees),
        partitioner=partitioner,
        engine_factory=lambda index, _options: BLSMEngine.from_tree(
            trees[index]
        ),
    )
    recovered.epoch = epoch
    for record in journal.records:
        if record["type"] == "switch":
            recovered._fence_epochs[int(record["source"])] = int(
                record["epoch"]
            )
    new_controller = MigrationController(
        recovered,
        journal=journal,
        chunk_keys=controller.chunk_keys,
        throttle=MigrationThrottle(controller.throttle.max_fraction),
    )
    new_controller._next_plan_id = max(
        new_controller._next_plan_id, next_plan_id
    )
    new_controller._resume(pending)
    # Self-healing: drop any history entry whose strays are already gone
    # (idempotent; covers a crash between retire_done and prune).
    if new_controller.state == IDLE:
        recovered.prune_placement_history()
    return recovered


# ----------------------------------------------------------------------
# The live-migration benchmark (repro migrate)
# ----------------------------------------------------------------------


def live_migration_bench(
    records: int = 2400,
    batches: int = 160,
    batch: int = 32,
    value_bytes: int = 128,
    shards: int = 4,
    seed: int = 0,
    hot_fraction: float = 0.85,
    windows: int = 12,
    c0_bytes: int = 48 * 1024,
    cache_pages: int = 32,
    chunk_keys: int = 64,
    max_migration_fraction: float = 0.5,
) -> dict[str, Any]:
    """p99 read/write timelines during a live split vs. quiescent baseline.

    Two identical range-partitioned fleets run the same clustered-Zipfian
    workload (a hot prefix concentrated on shard 0 — sequential keys, so
    the hotspot is contiguous in key space).  The *quiescent* run never
    migrates; the *migrating* run hands per-shard load shares to a
    :class:`Rebalancer` that detects the hot shard and performs a live
    split toward its neighbour, stepping the migration between batches
    under the throttle.  Every read is verified against a dict oracle and
    the final states must match it exactly, so the timeline is only
    reported for a run that stayed correct.  The headline number is
    ``p99_ratio`` — migrating p99 over quiescent p99 — which CI bounds
    (``--assert-p99-ratio R``); a run that completes no migration fails.

    ``batches`` batches of ``batch`` keys alternate reads and writes,
    ``hot_fraction`` of the keys drawn from the hot tenth of the key
    space; latencies are cut into ``windows`` timeline windows.  Each
    shard has a ``c0_bytes`` C0 and ``cache_pages`` of buffer pool; the
    migration copies ``chunk_keys`` keys a step and may take at most
    ``max_migration_fraction`` of the device time.  The return value is
    the report's ``metrics`` block.
    """
    from repro.baselines.interface import WriteBatch
    from repro.core.options import BLSMOptions
    from repro.shard.engine import ShardedEngine
    from repro.storage.logical_log import DurabilityMode

    keys = [b"key%08d" % index for index in range(records)]
    hot_span = max(batch, records // 10)

    def build() -> ShardedEngine:
        options = BLSMOptions(
            c0_bytes=c0_bytes,
            buffer_pool_pages=cache_pages,
            durability=DurabilityMode.ASYNC,
            seed=seed,
        )
        partitioner = RangePartitioner.from_sample(keys, shards)
        engine = ShardedEngine(options, shards=shards, partitioner=partitioner)
        for start in range(0, records, 256):
            load = WriteBatch()
            for key in keys[start : start + 256]:
                load.put(key, b"v0" + bytes(max(0, value_bytes - 2)))
            engine.apply_batch(load)
        return engine

    def run(migrate: bool) -> dict[str, Any]:
        engine = build()
        oracle = {key: b"v0" + bytes(max(0, value_bytes - 2)) for key in keys}
        controller: MigrationController | None = None
        rebalancer: Rebalancer | None = None
        if migrate:
            controller = attach_migration(
                engine,
                chunk_keys=chunk_keys,
                throttle=MigrationThrottle(max_migration_fraction),
            )
            rebalancer = Rebalancer(
                engine, controller, hot_share=0.5, cold_share=0.0
            )
        rng = random.Random(seed)
        read_lat: list[tuple[float, float]] = []
        write_lat: list[tuple[float, float]] = []
        events: list[dict[str, Any]] = []
        last_tag = IDLE
        migration_began: float | None = None
        migration_done: float | None = None

        def pick_key() -> bytes:
            if rng.random() < hot_fraction:
                return keys[rng.randrange(hot_span)]
            return keys[rng.randrange(records)]

        for batch_index in range(batches):
            batch_keys = [pick_key() for _ in range(batch)]
            began = engine.clock.now
            if batch_index % 2 == 0:
                values = engine.multi_get(batch_keys)
                for key, value in zip(batch_keys, values):
                    expected = oracle.get(key)
                    if value != expected:
                        raise AssertionError(
                            f"oracle divergence mid-migration: {key!r} -> "
                            f"{value!r}, expected {expected!r}"
                        )
                read_lat.append(
                    (began, (engine.clock.now - began) / max(1, batch))
                )
            else:
                mutation = WriteBatch()
                for position, key in enumerate(batch_keys):
                    value = b"v%07d" % (batch_index * batch + position)
                    value += bytes(max(0, value_bytes - len(value)))
                    mutation.put(key, value)
                    oracle[key] = value
                engine.apply_batch(mutation)
                write_lat.append(
                    (began, (engine.clock.now - began) / max(1, batch))
                )
            if controller is not None:
                if rebalancer is not None:
                    plan = rebalancer.maybe_rebalance()
                    if plan is not None:
                        migration_began = engine.clock.now
                        events.append(
                            {
                                "t": engine.clock.now,
                                "event": "plan",
                                "kind": plan.kind,
                                "source": plan.source,
                                "target": plan.target,
                            }
                        )
                tag = controller.step()
                if tag != last_tag and tag not in (IDLE, "throttled"):
                    events.append({"t": engine.clock.now, "event": tag})
                if tag == "retired":
                    migration_done = engine.clock.now
                last_tag = tag

        if controller is not None and controller.active:
            controller.run_to_completion()
            migration_done = engine.clock.now
        final = list(engine.scan(b""))
        expected_final = sorted(
            (key, value) for key, value in oracle.items()
        )
        if final != expected_final:
            raise AssertionError(
                "final scan diverged from the oracle after migration"
            )

        result: dict[str, Any] = {
            "read_windows": windows_over_span(read_lat, windows),
            "write_windows": windows_over_span(write_lat, windows),
            "read_p50": percentile([v for _, v in read_lat], 50.0),
            "read_p99": percentile([v for _, v in read_lat], 99.0),
            "write_p50": percentile([v for _, v in write_lat], 50.0),
            "write_p99": percentile([v for _, v in write_lat], 99.0),
            "elapsed_seconds": engine.clock.now,
            "verified": True,
        }
        if controller is not None:
            result["events"] = events
            result["migration"] = {
                "completed": controller.completed,
                "copied_keys": controller.copied_keys,
                "retired_keys": controller.retired_keys,
                "steps": int(
                    engine._runtime.metrics.value("migration.steps")
                ),
                "deferred_steps": int(
                    engine._runtime.metrics.value("migration.deferred_steps")
                ),
                "busy_seconds": controller.throttle.busy_seconds,
                "duration_seconds": (
                    (migration_done - migration_began)
                    if migration_began is not None and migration_done is not None
                    else 0.0
                ),
                "epoch": engine.epoch,
                "boundaries_moved": engine.partitioner.describe(),
                "history_depth": engine.partitioner.history_depth,
            }
        engine.close()
        return result

    quiescent = run(migrate=False)
    migrating = run(migrate=True)
    q_p99 = max(quiescent["read_p99"], quiescent["write_p99"])
    m_p99 = max(migrating["read_p99"], migrating["write_p99"])
    return {
        "quiescent": quiescent,
        "migrating": migrating,
        "p99_ratio": (m_p99 / q_p99) if q_p99 > 0 else 0.0,
    }
