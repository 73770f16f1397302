"""Crash-safe online shard migration: live split/merge under traffic.

The paper's deployment story (Sections 1 and 6) is a PNUTS-style fleet
of independent trees, reproduced by
:class:`~repro.shard.engine.ShardedEngine`.  This module is the one way
a range boundary moves: data actually moves, the ownership switch is
atomic and journaled, and a crash at any step recovers to a consistent
ownership map.

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
    the router install a new partitioner.
    Crash before the force: recovery restarts the copy (the dirty set
    is volatile, so nothing less is safe).  Crash after: recovery
    resumes at retire.  There is no in-between.
``retire``
    The source's now-stale copies of the moved range are deleted in
    chunks.

The journal is the tree's own write-ahead log
(:class:`~repro.storage.wal.WriteAheadLog`, Section 4.4.2) on one
router device named ``migration-journal``: a record is appended and
forced behind a durability barrier before its transition takes effect,
and recovery replays the durable prefix (a torn force is a checksummed
straddler the log truncates).

Readers follow ownership alone: a key is read only on its owner, and a
scan reads each shard only inside its owned range.  Before the switch
the source owns the range, so the target's staged rows are never read;
the switch can hand the range to the target because the copy cleared
its slice first, the catch-up emptied the dirty set, and double-writes
kept it current.  After the switch the source's un-retired copies lie
outside its range and are never read either.

Migration I/O is throttled against foreground traffic
(:class:`MigrationThrottle` defers steps once migration exceeds its
budgeted share of cluster time while foreground batches are flowing),
and :class:`HotShardDetector` + :class:`Rebalancer` close the loop from
per-shard load metrics to live split/merge plans.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, TYPE_CHECKING

from repro.baselines.interface import WriteBatch
from repro.errors import MigrationError
from repro.faults.disk import FaultyDisk
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryExecutor, RetryPolicy
from repro.shard.partitioner import RangePartitioner
from repro.sim.disk import SimDisk
from repro.storage.wal import WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.shard.engine import ShardedEngine

__all__ = [
    "HotShardDetector",
    "MigrationController",
    "MigrationPlan",
    "MigrationThrottle",
    "Rebalancer",
    "crash_and_recover",
    "open_journal",
    "plan_merge",
    "plan_split",
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
    lo, hi = partitioner.shard_range(source)
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
    lo, hi = partitioner.shard_range(source)
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
# The migration journal: a write-ahead log on a router device
# ----------------------------------------------------------------------


JOURNAL_DEVICE = "migration-journal"


def _journal_device(
    engine: "ShardedEngine", fault_plan: FaultPlan | None
) -> tuple[SimDisk, RetryExecutor | None]:
    """The journal's device on ``engine``'s clock and runtime, and the
    retry executor a faulted one forces through — the rule
    :class:`~repro.storage.stasis.Stasis` applies to a tree's log."""
    options = engine.options
    model = options.log_disk_model or options.disk_model
    runtime = engine._runtime
    if fault_plan is None:
        disk = SimDisk(model, engine.clock, name=JOURNAL_DEVICE, runtime=runtime)
        return disk, None
    disk = FaultyDisk(
        model, engine.clock, name=JOURNAL_DEVICE, runtime=runtime,
        plan=fault_plan,
    )
    return disk, RetryExecutor(RetryPolicy(), engine.clock, runtime=runtime)


def open_journal(
    engine: "ShardedEngine", fault_plan: FaultPlan | None = None
) -> WriteAheadLog:
    """The migration journal of ``engine``'s router.

    A :class:`~repro.storage.wal.WriteAheadLog` on one device named
    ``migration-journal``, of the router's ``log_disk_model`` (else its
    ``disk_model``), registered with the router's runtime so its forces
    are booked under ``disk.migration-journal.*``.  With a
    ``fault_plan`` the device is a :class:`~repro.faults.disk.FaultyDisk`
    and forces retry under the default :class:`RetryPolicy`.
    """
    return WriteAheadLog(*_journal_device(engine, fault_plan))


def _replay_journal(
    journal: WriteAheadLog,
) -> tuple[list[bytes] | None, int, tuple[MigrationPlan, str] | None, int]:
    """Reconstruct ``(boundaries, epoch, pending, next_plan_id)`` from
    the journal's durable records (a read of the journal device).

    ``pending`` is ``(plan, phase)`` with phase ``"copy"`` (planned but
    not switched — the copy restarts from scratch, the volatile dirty
    set died with the process) or ``"retire"`` (switched but the
    source's copies are not yet all deleted — retirement is idempotent
    and simply reruns).
    """
    boundaries: list[bytes] | None = None
    epoch = 0
    pending: tuple[MigrationPlan, str] | None = None
    next_plan_id = 1
    for record in journal.records():
        kind, payload = record.kind, record.payload
        if kind in ("init", "switch"):  # init is first: nothing pending
            boundaries, epoch = list(payload[0]), payload[1]
            if pending is not None:
                pending = (pending[0], "retire")
        elif kind == "plan":
            pending = (payload, "copy")
            next_plan_id = max(next_plan_id, payload.plan_id + 1)
        else:  # retire_done, abort
            pending = None
    return boundaries, epoch, pending, next_plan_id


# ----------------------------------------------------------------------
# Throttle, detector, rebalancer
# ----------------------------------------------------------------------


class MigrationThrottle:
    """Bound migration's share of cluster time while traffic flows.

    Tracks the router-clock seconds migration steps consume and defers
    further steps whenever the current migration's share of the time
    elapsed since it began exceeds ``max_fraction`` *and* foreground
    batches arrived since the last step (an idle cluster migrates at
    full speed — there is no one to protect).  Deferral is
    self-correcting: migration's share decays as foreground time
    accumulates, so progress is guaranteed.  ``busy_seconds`` is the
    run total over every migration.
    """

    def __init__(self, max_fraction: float = 0.5) -> None:
        if not 0.0 < max_fraction <= 1.0:
            raise ValueError(
                f"max_fraction must be in (0, 1], got {max_fraction}"
            )
        self.max_fraction = max_fraction
        self.busy_seconds = 0.0
        self._migration_busy = 0.0
        self._began: float | None = None
        self._last_foreground: float | None = None

    def begin(self, engine: "ShardedEngine") -> None:
        """Start the share test over at migration start."""
        self._migration_busy = 0.0
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
        return self._migration_busy / elapsed > self.max_fraction

    def charge(self, seconds: float) -> None:
        """Account one step's router-clock cost against the budget."""
        seconds = max(0.0, seconds)
        self.busy_seconds += seconds
        self._migration_busy += seconds


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
# The controller
# ----------------------------------------------------------------------


class MigrationController:
    """Drives the journaled plan/copy/catch-up/switch/retire machine.

    One controller attaches to one :class:`ShardedEngine` (as
    ``engine.migration``) and advances at most one migration at a time,
    one bounded chunk per :meth:`step` call, so the driver interleaves
    foreground traffic freely.  Every durable transition is journaled
    *before* it takes effect; :func:`crash_and_recover` rebuilds the
    whole fleet — ownership map, epoch and pending migration — from the
    journal plus the shards' own recovery.  ``journal`` defaults to
    :func:`open_journal` of the engine.
    """

    def __init__(
        self,
        engine: "ShardedEngine",
        journal: WriteAheadLog | None = None,
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
        self.journal = journal if journal is not None else open_journal(engine)
        self.chunk_keys = chunk_keys
        self.throttle = throttle or MigrationThrottle()
        self.state = IDLE
        self.plan: MigrationPlan | None = None
        self.completed = 0
        self.copied_keys = 0
        self.retired_keys = 0
        self._dirty: set[bytes] = set()
        self._clearing = False
        self._cursor = b""  # where the current phase's next chunk starts
        self._next_plan_id = 1
        metrics = engine._runtime.metrics
        self._ctr_steps = metrics.counter("migration.steps")
        self._ctr_deferred = metrics.counter("migration.deferred_steps")
        self._ctr_copied = metrics.counter("migration.copied_keys")
        self._ctr_retired = metrics.counter("migration.retired_keys")
        self._ctr_switches = metrics.counter("migration.switches")
        engine.migration = self
        if self.journal.durable_lsn == 0:
            boundaries = tuple(engine.partitioner.boundaries)
            self._log("init", (boundaries, engine.epoch))

    def _log(self, kind: str, payload: Any) -> None:
        """Append one record and force it durable (or die trying).

        The force follows a durability barrier, so it pays one head
        positioning, as a synchronous commit of a tree's logical log
        does (``LogicalLog.force(sync=True)``).
        """
        self.journal.append(kind, payload)
        self.journal.disk.sync_barrier()
        self.journal.force()

    # -- router hooks --------------------------------------------------

    @property
    def active(self) -> bool:
        """Whether a migration is in flight (any non-idle state)."""
        return self.state != IDLE

    def dirty_keys(self) -> frozenset[bytes]:
        """The keys awaiting catch-up (for invariant checks)."""
        return frozenset(self._dirty)

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
        flight or the plan is malformed.
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
        plan = replace(plan, plan_id=self._next_plan_id)
        self._next_plan_id += 1
        self._log("plan", plan)
        self._enter_copy(plan)
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
        cursor: bytes | None = plan.lo
        while cursor is not None:
            _, cursor = self._delete_chunk(
                plan.target, cursor, plan.hi, "migrate_clear"
            )
        self._log("abort", plan.plan_id)
        self._reset()

    def _enter_copy(self, plan: MigrationPlan) -> None:
        self.plan = plan
        self.state = COPY
        self._dirty.clear()
        self._clearing = True
        self._cursor = plan.lo
        self.throttle.begin(self.engine)

    def _enter_retire(self, plan: MigrationPlan) -> None:
        self.plan = plan
        self.state = RETIRE
        self._cursor = plan.lo

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
            if self._clearing:
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

    def _delete_chunk(
        self, shard: int, lo: bytes, hi: bytes, kind: str
    ) -> tuple[int, bytes | None]:
        """Delete the next chunk of live rows of ``[lo, hi)`` on one shard.

        Returns the rows deleted and where the next chunk starts, or
        ``None`` once the range holds no more live rows.
        """
        rows = self._scan_chunk(shard, lo, hi, kind)
        if rows:
            batch = WriteBatch()
            for key, _ in rows:
                batch.delete(key)
            self.engine._on_shard(shard, lambda s: s.apply_batch(batch), kind)
        if len(rows) < self.chunk_keys:
            return len(rows), None
        return len(rows), rows[-1][0] + b"\x00"

    def _step_clear(self, plan: MigrationPlan) -> str:
        _, cursor = self._delete_chunk(
            plan.target, self._cursor, plan.hi, "migrate_clear"
        )
        if cursor is None:
            self._clearing = False
            cursor = plan.lo
        self._cursor = cursor
        return "clear"

    def _step_copy(self, plan: MigrationPlan) -> str:
        rows = self._scan_chunk(plan.source, self._cursor, plan.hi, "migrate_copy")
        if rows:
            batch = WriteBatch()
            for key, value in rows:
                batch.put(key, value)
            self.engine._on_shard(
                plan.target, lambda s: s.apply_batch(batch), "migrate_copy"
            )
            self.copied_keys += len(rows)
            self._ctr_copied.inc(len(rows))
            self._cursor = rows[-1][0] + b"\x00"
        if len(rows) < self.chunk_keys:
            self.state = CATCH_UP
        return "copy"

    def _step_catch_up(self, plan: MigrationPlan) -> str:
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
        self._log("switch", (plan.new_boundaries, new_epoch))
        # Only reached if the force made the record durable: from here
        # on, recovery rolls this migration forward, never back.
        self.engine.partitioner = RangePartitioner(plan.new_boundaries)
        self.engine.epoch = new_epoch
        self._ctr_switches.inc()
        self._enter_retire(plan)

    def _step_retire(self, plan: MigrationPlan) -> str:
        retired, cursor = self._delete_chunk(
            plan.source, self._cursor, plan.hi, "migrate_retire"
        )
        self.retired_keys += retired
        self._ctr_retired.inc(retired)
        if cursor is None:
            self._log("retire_done", plan.plan_id)
            self.completed += 1
            self._reset()
            return "retired"
        self._cursor = cursor
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
            self._enter_retire(plan)
            self.throttle.begin(self.engine)


def crash_and_recover(engine: "ShardedEngine") -> "ShardedEngine":
    """Simulate a whole-cluster crash and rebuild a consistent fleet.

    Drops every shard's volatile state and the migration journal's
    un-forced tail, recovers each shard's tree from its durable
    substrate, replays the journal into an ownership map (boundaries and
    cluster epoch), and re-attaches a controller resumed at the
    recovered migration phase: a plan without a durable switch restarts
    its copy from scratch; a switch without a completed retirement rolls
    forward through retirement.  The recovered router starts where the
    crashed one stopped (replay included) and takes the journal's
    durable records over on its own handle of the journal device.
    Requires bLSM shards (``SYNC`` durability for acked-write
    guarantees, as everywhere else in the crash harness).
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
    fault_plan = (
        journal.disk.plan if isinstance(journal.disk, FaultyDisk) else None
    )
    if fault_plan is not None:
        fault_plan.disarm()
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
    boundaries, epoch, pending, next_plan_id = _replay_journal(journal)
    if boundaries is None:
        raise MigrationError("migration journal has no durable init record")
    recovered = ShardedEngine(
        engine.options,
        shards=len(trees),
        partitioner=RangePartitioner(boundaries),
        engine_factory=lambda index, _options: BLSMEngine.from_tree(
            trees[index]
        ),
    )
    recovered.clock.advance_to(engine.clock.now)
    recovered.epoch = epoch
    journal.disk, journal.retry = _journal_device(recovered, fault_plan)
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
    return recovered
