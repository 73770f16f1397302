"""A shard router over independent bLSM trees (Sections 1 and 6).

The paper's deployment target is a PNUTS-style sharded web service: many
independent storage nodes, each running one tree over its own devices.
:class:`ShardedEngine` reproduces that topology inside one process: N
complete shard engines — each with its own Stasis substrate, device set
and virtual clock — behind the one :class:`~repro.baselines.interface.
KVEngine` surface every benchmark already drives.

Concurrency model (the discipline of the log writer's
:class:`~repro.sim.clock.Timeline`, one level up): each shard's clock is
an independent position on the virtual time axis.  A batched operation fans sub-batches out to the shards they
route to; every involved shard first catches up to the router's clock
(an idle server cannot work in the past), then services its sub-batch on
its *own* clock and devices.  The router completes the batch at the
**max** of the shard completion times — not the sum — which is exactly
the near-linear scaling lever sharding exists to buy.  Single-key
operations degenerate to one shard and cost what they always did.

Routing is delegated to a :class:`~repro.shard.partitioner.Partitioner`,
and ownership is the one read rule: a shard is asked about a key only
if it owns that key now, and a scan reads each shard only inside its
owned range.  A live migration (``repro.shard.migration``) is the one
way a boundary moves; its target holds the whole range before the
switch makes it the owner, so no read ever needs a second shard (see
docs/sharding.md).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence, TypeVar

from repro.baselines.blsm_engine import BLSMEngine
from repro.baselines.interface import (
    KVEngine,
    WriteBatch,
    build_io_summary,
)
from repro.core.options import BLSMOptions
from repro.errors import ShardFanoutError
from repro.obs.runtime import EngineRuntime
from repro.shard.partitioner import HashPartitioner, Partitioner
from repro.sim.clock import VirtualClock
from repro.storage.group_commit import CommitTicket

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.shard.migration import MigrationController

T = TypeVar("T")


class ShardedEngine(KVEngine):
    """Hash/range router over N independent shard engines."""

    name = "sharded"

    def __init__(
        self,
        options: BLSMOptions | None = None,
        shards: int = 4,
        partitioner: Partitioner | None = None,
        engine_factory: Callable[[int, BLSMOptions], KVEngine] | None = None,
    ) -> None:
        """Build ``shards`` independent engines and a router over them.

        Args:
            options: per-shard tree configuration; each shard builds
                its own tree, and therefore its own device set, from
                it.  ``fault_plan`` must be unset — a plan's access
                counter assumes one serial device-access sequence,
                which N independent device sets do not produce.
            partitioner: placement policy; defaults to
                :class:`HashPartitioner` over ``shards``.
            engine_factory: ``(shard_index, options) -> KVEngine``
                override for building non-bLSM shards.
        """
        opts = options if options is not None else BLSMOptions()
        if partitioner is None:
            partitioner = HashPartitioner(shards)
        if partitioner.nshards != shards:
            raise ValueError(
                f"partitioner routes {partitioner.nshards} shards, "
                f"engine has {shards}"
            )
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if opts.fault_plan is not None:
            raise ValueError(
                "fault injection is not supported on a sharded engine "
                "(the crash-point harness needs one serial access sequence)"
            )
        self.partitioner = partitioner
        self.options = opts
        if engine_factory is None:
            engine_factory = lambda index, shard_opts: BLSMEngine(shard_opts)
        self.shards: list[KVEngine] = [
            engine_factory(index, opts) for index in range(shards)
        ]
        self._clock = VirtualClock()
        self._runtime = EngineRuntime(clock=self._clock)
        metrics = self._runtime.metrics
        self._ctr_batches = metrics.counter("shard.batches")
        self._ctr_batch_ops = metrics.counter("shard.batch_ops")
        self._hist_batch = metrics.histogram("shard.batch_seconds")
        self._shard_ops = [
            metrics.counter(f"shard.{index}.ops") for index in range(shards)
        ]
        self._shard_busy = [
            metrics.counter(f"shard.{index}.busy_seconds")
            for index in range(shards)
        ]
        self._ctr_fg_batches = metrics.counter("shard.foreground_batches")
        # Online-migration state: the cluster epoch advances at every
        # ownership switch and is journaled (see repro.shard.migration).
        self.epoch = 0
        self.migration: "MigrationController | None" = None
        # Recovered shards (engine_factory wrapping pre-existing trees)
        # may be ahead of a fresh router clock; no shard clock may ever
        # lead the router's, so start the router at the fleet max.
        self._clock.advance_to(max(shard.clock.now for shard in self.shards))
        self._closed = False

    # ------------------------------------------------------------------
    # Routing and overlapped execution
    # ------------------------------------------------------------------

    @property
    def clock(self) -> VirtualClock:
        """The router's clock: the client's view of virtual time."""
        return self._clock

    def _fan_out(
        self,
        groups: dict[int, Callable[[KVEngine], T]],
        kind: str,
        ops: int,
    ) -> dict[int, T]:
        """Run one callable per shard, overlapped on the time axis.

        Every involved shard catches up to the router clock, services
        its work on its own clock/devices, and the router completes at
        the max of the shard completion times.  The invariant that no
        shard clock is ever *ahead* of the router's (re-established at
        the end of every fan-out) is what makes ``max`` the honest
        completion time: no shard smuggles work into the past.
        """
        issue = self._clock.now
        completion = issue
        per_shard: dict[int, float] = {}
        results: dict[int, T] = {}
        for index, fn in sorted(groups.items()):
            shard = self.shards[index]
            shard.clock.advance_to(issue)
            results[index] = fn(shard)
            end = shard.clock.now
            per_shard[index] = end - issue
            self._shard_busy[index].inc(end - issue)
            completion = max(completion, end)
        self._clock.advance_to(completion)
        self._ctr_batches.inc()
        if not kind.startswith("migrate"):
            # Foreground-only counter: the migration throttle uses its
            # growth to tell "traffic is flowing" from "cluster idle".
            self._ctr_fg_batches.inc()
        self._ctr_batch_ops.inc(ops)
        self._hist_batch.observe(completion - issue)
        self._runtime.trace.emit(
            "shard_batch",
            kind=kind,
            ops=ops,
            shards=len(groups),
            seconds=completion - issue,
            per_shard={i: round(s, 9) for i, s in per_shard.items()},
        )
        return results

    def _on_shard(self, index: int, fn: Callable[[KVEngine], T], kind: str) -> T:
        """Single-shard degenerate fan-out (point operations)."""
        self._shard_ops[index].inc()
        return self._fan_out({index: fn}, kind, ops=1)[index]

    # ------------------------------------------------------------------
    # Point operations
    # ------------------------------------------------------------------

    def get(self, key: bytes) -> bytes | None:
        """Point lookup on the shard that owns ``key``."""
        index = self.partitioner.shard_for(key)
        return self._on_shard(index, lambda s: s.get(key), "get")

    def _mutate(
        self, key: bytes, op: str, fn: Callable[[KVEngine], None]
    ) -> None:
        """Apply one mutation on ``key``'s owner.

        While a migration's catch-up phase double-writes its range, the
        controller names the target as a second destination for puts
        and deletes, so the staged copy never falls behind.  Deltas stay
        on the owner: the staged copy may lack the base version, so the
        controller marks the key dirty and catch-up re-reads it.
        """
        groups = {self.partitioner.shard_for(key): fn}
        if self.migration is not None:
            extra = self.migration.on_write(key, op)
            if extra is not None:
                groups[extra] = fn
        for index in groups:
            self._shard_ops[index].inc()
        self._fan_out(groups, op, ops=len(groups))

    def put(self, key: bytes, value: bytes) -> None:
        self._mutate(key, "put", lambda s: s.put(key, value))

    def delete(self, key: bytes) -> None:
        self._mutate(key, "delete", lambda s: s.delete(key))

    def apply_delta(self, key: bytes, delta: bytes) -> None:
        self._mutate(key, "delta", lambda s: s.apply_delta(key, delta))

    def insert_if_not_exists(self, key: bytes, value: bytes) -> bool:
        if self.get(key) is not None:
            return False
        self.put(key, value)
        return True

    # ------------------------------------------------------------------
    # Batched operations — the fan-out that makes sharding pay
    # ------------------------------------------------------------------

    def multi_get(self, keys: Sequence[bytes]) -> list[bytes | None]:
        """Batched lookup: per-shard sub-batches overlap, so the batch
        costs the slowest shard's device time, not the sum."""
        by_shard: dict[int, list[int]] = {}
        for position, key in enumerate(keys):
            index = self.partitioner.shard_for(key)
            by_shard.setdefault(index, []).append(position)

        def lookup(positions: list[int]) -> Callable[[KVEngine], list]:
            return lambda shard: [shard.get(keys[p]) for p in positions]

        groups = {
            index: lookup(positions)
            for index, positions in by_shard.items()
        }
        for index, positions in by_shard.items():
            self._shard_ops[index].inc(len(positions))
        results = self._fan_out(groups, "multi_get", ops=len(keys))
        values: list[bytes | None] = [None] * len(keys)
        for index, positions in by_shard.items():
            for position, value in zip(positions, results[index]):
                values[position] = value
        return values

    def _route_writes(
        self, batch: WriteBatch | Any
    ) -> tuple[dict[int, WriteBatch], int]:
        """Split a write batch into per-shard sub-batches.

        Every operation lands on its key's owner, plus the migration
        target for a catch-up double-write (see :meth:`_mutate`).
        Within each shard the original operation order is preserved, so
        per-key ordering semantics match the sequential default.
        """
        by_shard: dict[int, WriteBatch] = {}
        ops = 0
        migration = self.migration
        for entry in batch:
            ops += 1
            op, key, _ = entry
            destinations = [self.partitioner.shard_for(key)]
            if migration is not None:
                extra = migration.on_write(key, op)
                if extra is not None:
                    destinations.append(extra)
            for index in destinations:
                sub = by_shard.setdefault(index, WriteBatch())
                sub._ops.append(entry)
        return by_shard, ops

    def apply_batch(
        self, batch: WriteBatch | Any
    ) -> None:
        """Apply a write batch with per-shard sub-batches overlapped.

        Routing semantics live in :meth:`_route_writes`; each shard
        services its sub-batch on its own clock and the batch completes
        at the max of the shard completion times.
        """
        by_shard, ops = self._route_writes(batch)
        if not by_shard:
            return

        def apply(sub: WriteBatch) -> Callable[[KVEngine], None]:
            return lambda shard: shard.apply_batch(sub)

        for index, sub in by_shard.items():
            self._shard_ops[index].inc(len(sub))
        self._fan_out(
            {index: apply(sub) for index, sub in by_shard.items()},
            "apply_batch",
            ops=ops,
        )

    def commit_batch(
        self, batch: WriteBatch, session: int = 0, wait: bool = True
    ) -> CommitTicket:
        """Durably commit a batch: per-shard sub-commits, overlapped.

        Each involved shard commits its sub-batch through its own WAL
        (and, under GROUP durability, its own group-commit queue), so
        the commit costs the slowest shard's force, not the sum.  The
        returned ticket aggregates the per-shard receipts: ``durable_at``
        is the max shard durability time — the instant the whole batch
        is durable fleet-wide.  ``wait=False`` is accepted for interface
        compatibility but resolves synchronously: per-shard clocks are
        independent, so the overlap already captures the latency win.
        """
        issue = self._clock.now
        by_shard, ops = self._route_writes(batch)
        if not by_shard:
            return CommitTicket(
                session=session,
                first_seqno=0,
                last_seqno=-1,
                ops=0,
                enqueued_at=issue,
                leader=True,
                group_size=1,
                durable_at=issue,
            )

        def commit(sub: WriteBatch) -> Callable[[KVEngine], CommitTicket]:
            return lambda shard: shard.commit_batch(
                sub, session=session, wait=True
            )

        for index, sub in by_shard.items():
            self._shard_ops[index].inc(len(sub))
        receipts = self._fan_out(
            {index: commit(sub) for index, sub in by_shard.items()},
            "commit_batch",
            ops=ops,
        )
        tickets = list(receipts.values())
        return CommitTicket(
            session=session,
            first_seqno=min(t.first_seqno for t in tickets),
            last_seqno=max(t.last_seqno for t in tickets),
            ops=ops,
            enqueued_at=issue,
            leader=True,
            group_size=max(t.group_size for t in tickets),
            durable_at=max(
                t.durable_at for t in tickets if t.durable_at is not None
            ),
        )

    # ------------------------------------------------------------------
    # Scatter-gather scan
    # ------------------------------------------------------------------

    def scan(
        self, lo: bytes, hi: bytes | None = None, limit: int | None = None
    ) -> Iterator[tuple[bytes, bytes]]:
        """Merged range scan across the shards it crosses (chunked
        cursor merge).

        Each shard is read only inside its owned range, and a shard
        whose range misses ``[lo, hi)`` is not asked at all, so a range
        fleet's scan touches only the shards it crosses (a hash shard
        owns keys everywhere, so every one is asked).  A migration's
        staged rows lie outside their holder's owned range, so neither
        the target's copy before the switch nor the source's after it
        is ever read.

        With a ``limit``, each shard asked initially produces only
        ``ceil(limit / shards) + 1`` rows — not ``limit`` — and the
        merge refills an individual shard's cursor (from just past its
        last delivered key) only when that shard runs dry *before* the
        global limit is met.  Uniformly distributed rows therefore cost
        each shard ~1/N of the limit in device time; the old
        limit-from-every-shard fetch charged N times that and threw
        away the excess.  Skewed distributions degrade gracefully: the
        shard holding the whole prefix pays chunked refills up to
        ``limit`` while the others stop after one empty chunk.  The
        initial chunk fetch overlaps across shards on the time axis;
        refills are sequential (the merge is blocked on that shard).
        """
        # Per shard asked: the end of its window, and where its next
        # chunk starts (just past the last row it has delivered).
        stops: dict[int, bytes | None] = {}
        cursors: dict[int, bytes] = {}
        for index in range(len(self.shards)):
            own_lo, own_hi = self.partitioner.shard_range(index)
            if (own_hi is not None and own_hi <= lo) or (
                hi is not None and hi <= own_lo
            ):
                continue  # the owned range lies wholly outside [lo, hi)
            ends = [end for end in (hi, own_hi) if end is not None]
            stops[index] = min(ends) if ends else None
            cursors[index] = max(lo, own_lo)
        if not stops:
            return
        chunk = (
            None if limit is None else max(1, -(-limit // len(stops)) + 1)
        )

        def fetch(
            index: int, want: int | None
        ) -> Callable[[KVEngine], list[tuple[bytes, bytes]]]:
            start, stop = cursors[index], stops[index]
            return lambda shard: list(shard.scan(start, stop, want))

        results = self._fan_out(
            {index: fetch(index, chunk) for index in stops}, "scan", ops=1
        )
        buffers: dict[int, deque[tuple[bytes, bytes]]] = {}
        # A shard that returned a short chunk has no more rows in range;
        # with no limit the first fetch was already exhaustive.
        exhausted: dict[int, bool] = {}
        for index, rows in results.items():
            buffers[index] = deque(rows)
            if rows:
                cursors[index] = rows[-1][0] + b"\x00"
            exhausted[index] = chunk is None or len(rows) < chunk

        def refill(index: int, emitted: int) -> None:
            assert limit is not None
            want = min(chunk or limit, max(1, limit - emitted))
            rows = self._on_shard(index, fetch(index, want), "scan")
            buffers[index].extend(rows)
            if rows:
                cursors[index] = rows[-1][0] + b"\x00"
            if len(rows) < want:
                exhausted[index] = True

        emitted = 0
        while True:
            # The merge may only emit the global minimum head once every
            # non-exhausted shard has a head to compare (a dry cursor
            # could still be hiding smaller keys behind a refill).
            for index in stops:
                while not buffers[index] and not exhausted[index]:
                    refill(index, emitted)
            heads = [
                (buffers[index][0][0], index)
                for index in stops
                if buffers[index]
            ]
            if not heads:
                return
            yield buffers[min(heads)[1]].popleft()
            emitted += 1
            if limit is not None and emitted >= limit:
                return

    # ------------------------------------------------------------------
    # Online migration surface
    # ------------------------------------------------------------------

    def handle_migration_op(
        self, action: str, key: bytes = b"", budget: int = 1
    ) -> str:
        """Drive the attached migration controller (fuzzer surface).

        ``split``/``merge`` plan a migration of the shard owning ``key``
        when the controller is idle (an unplannable or conflicting
        request is a no-op — the fuzzer explores schedules, it does not
        demand them); any action then steps the controller up to
        ``budget`` times.  Returns the last step tag.
        """
        from repro.errors import MigrationError
        from repro.shard.migration import plan_merge, plan_split

        controller = self.migration
        if controller is None:
            return "no-controller"
        if action in ("split", "merge") and not controller.active:
            planner = plan_split if action == "split" else plan_merge
            plan = planner(self, self.partitioner.shard_for(key))
            if plan is not None:
                try:
                    controller.start(plan)
                except MigrationError:
                    pass
        tag = "idle"
        for _ in range(max(1, budget)):
            if not controller.active:
                break
            tag = controller.step()
        return tag

    # ------------------------------------------------------------------
    # Lifecycle and reporting
    # ------------------------------------------------------------------

    def _fanout_resilient(self, op: str, fn: Callable[[KVEngine], None]) -> None:
        """Run ``fn`` on *every* shard even when some raise.

        A flush/close that stops at the first failing shard would leave
        the healthy remainder un-flushed (durability silently lost) or
        un-closed (resources leaked).  Per-shard failures are collected
        and re-raised together as :class:`ShardFanoutError`; a simulated
        :class:`~repro.errors.CrashPoint` still propagates immediately —
        a dead process visits nothing.
        """
        errors: dict[int, Exception] = {}

        def guarded(index: int) -> Callable[[KVEngine], None]:
            def run(shard: KVEngine) -> None:
                try:
                    fn(shard)
                except Exception as error:
                    errors[index] = error

            return run

        self._fan_out(
            {i: guarded(i) for i in range(len(self.shards))},
            op,
            ops=len(self.shards),
        )
        if errors:
            raise ShardFanoutError(op, errors)

    def flush(self) -> None:
        self._fanout_resilient("flush", lambda s: s.flush())

    def close(self) -> None:
        if self._closed:
            return
        try:
            self._fanout_resilient("close", lambda s: s.close())
        finally:
            self._closed = True

    def metrics(self) -> dict[str, Any]:
        """Aggregate router metrics plus each shard's, prefixed
        ``shard{i}.`` — one flat snapshot covering the whole fleet."""
        snapshot = dict(self._runtime.metrics.snapshot())
        for index, shard in enumerate(self.shards):
            for name, value in shard.metrics().items():
                snapshot[f"shard{index}.{name}"] = value
        return snapshot

    def io_summary(self) -> dict[str, Any]:
        """Sum of the shard device counters, in the shared schema.

        Utilizations are averaged across shards: each shard's devices
        are distinct hardware, so "how busy was the fleet" is the mean,
        not the sum.  Per-shard summaries ride along under
        ``per_shard`` for drill-down.
        """
        per_shard = [shard.io_summary() for shard in self.shards]
        count = max(1, len(per_shard))

        def total(key: str) -> float:
            return sum(summary.get(key, 0) for summary in per_shard)

        return build_io_summary(
            data_seeks=int(total("data_seeks")),
            data_bytes_read=int(total("data_bytes_read")),
            data_bytes_written=int(total("data_bytes_written")),
            log_bytes_written=int(total("log_bytes_written")),
            busy_seconds=total("busy_seconds"),
            fg_busy_seconds=total("fg_busy_seconds"),
            bg_busy_seconds=total("bg_busy_seconds"),
            fg_wait_seconds=total("fg_wait_seconds"),
            data_utilization=total("data_utilization") / count,
            log_utilization=total("log_utilization") / count,
            shards=len(self.shards),
            partitioner=self.partitioner.describe(),
            per_shard=per_shard,
        )

    def shard_rows(self) -> list[dict[str, Any]]:
        """Per-shard attribution rows for ``repro trace`` / ``bench``.

        ``busy_fraction`` is the share of the run each shard spent
        servicing its sub-batches — the load-balance picture;
        ``utilization`` is the shard's own device utilization.
        """
        metrics = self._runtime.metrics
        elapsed = self._clock.now
        rows: list[dict[str, Any]] = []
        for index, shard in enumerate(self.shards):
            summary = shard.io_summary()
            busy = metrics.value(f"shard.{index}.busy_seconds")
            rows.append(
                {
                    "shard": index,
                    "ops": int(metrics.value(f"shard.{index}.ops")),
                    "busy_seconds": busy,
                    "busy_fraction": busy / elapsed if elapsed > 0 else 0.0,
                    "utilization": summary["data_utilization"],
                    "data_seeks": summary["data_seeks"],
                    "data_bytes_read": summary["data_bytes_read"],
                    "data_bytes_written": summary["data_bytes_written"],
                }
            )
        return rows

    def __repr__(self) -> str:
        return (
            f"ShardedEngine(shards={len(self.shards)}, "
            f"partitioner={self.partitioner.describe()}, "
            f"t={self._clock.now:.3f}s)"
        )
