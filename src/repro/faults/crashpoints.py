"""ALICE-style crash-point enumeration for the bLSM engines.

The harness answers the question §4.4.2's recovery design must answer:
*is every acknowledged write recoverable no matter where the process
dies?*  It runs a deterministic workload against a store whose devices
share a :class:`~repro.faults.plan.FaultPlan`, crashing at every Nth
device-access boundary (reads and writes across both the data and log
device, so merge I/O, buffer evictions, WAL forces and logical-log
forces are all crash candidates).  After each simulated crash it drops
volatile state, recovers, and verifies the recovered store.

There is one sweep loop, :func:`sweep_crash_points`, and one report,
:class:`CrashTestReport`.  What varies is the :class:`CrashRun` — the
fresh state, the workload that drives it, and the durability contract
checked after the crash:

* a trace over a raw tree (:mod:`repro.testing.composer`;
  :func:`enumerate_crash_points` is that sweep over a put/delete
  script): every acknowledged ``SYNC`` write reads back exactly, the
  single in-flight operation as either its old or its new value;
* the ``GROUP`` commit path (:func:`enumerate_group_commit_crash_points`):
  the recovered state is a seqno-prefix of the submitted records no
  shorter than what resolved tickets acknowledged;
* an online shard migration (:func:`enumerate_migration_crash_points`):
  acked writes, fleet invariants, and the migration resumes to
  completion — at every journal force and every step boundary.

This package sits *above* the engine layer, so the engine registry and
the trace composer are imported lazily inside functions —
``repro.faults`` itself stays importable from the storage layer below.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.errors import CrashPoint
from repro.faults.plan import FaultPlan

Script = list[tuple[str, bytes, "bytes | None"]]


@dataclass
class CrashOutcome:
    """What happened at one enumerated crash point."""

    access_index: int
    crashed: bool = False
    recovered: bool = False
    failures: list[str] = field(default_factory=list)
    family: str = "access"
    """Which boundary family ``access_index`` counts (a report may sweep
    more than one: migration has journal forces and step boundaries)."""

    @property
    def ok(self) -> bool:
        """Whether the recovery at this point verified cleanly."""
        return not self.failures


@dataclass
class CrashTestReport:
    """Aggregate result of one crash-point enumeration run."""

    engine: str
    ops: int
    every: int
    seed: int
    boundaries: dict[str, int] = field(default_factory=dict)
    """Crash candidates per family, as the report prints them (``{"workload
    device accesses": 120}``)."""
    points_tested: int = 0
    crashes_triggered: int = 0
    recoveries_verified: int = 0
    outcomes: list[CrashOutcome] = field(default_factory=list)

    @property
    def total_accesses(self) -> int:
        return sum(self.boundaries.values())

    @property
    def failures(self) -> list[CrashOutcome]:
        """Every outcome whose recovery verification failed."""
        return [outcome for outcome in self.outcomes if not outcome.ok]

    @property
    def ok(self) -> bool:
        return not self.failures


class CrashRun:
    """One fresh state of a sweep, built around a disarmed ``plan``.

    ``drive`` runs the workload (a :class:`CrashPoint` unwinds out of
    it); ``settle`` then recovers-and-verifies a crashed run (setting
    ``outcome.recovered``) or verifies and closes a completed one.
    """

    plan: FaultPlan

    def drive(self) -> None:
        raise NotImplementedError

    def settle(self, outcome: CrashOutcome) -> None:
        raise NotImplementedError

    def count(self) -> int:
        """Drive to completion, settle; the accesses that took (the crash
        candidates).  For a run whose plan only counts.  A sweep over a
        workload that does not verify *uncrashed* would mean nothing, so
        that raises."""
        outcome = CrashOutcome(0)
        drive_armed(self)
        self.settle(outcome)
        if not outcome.ok:
            raise AssertionError(
                f"the uncrashed run does not verify: {outcome.failures[:3]}"
            )
        return self.plan.access_count


def crash_plan(point: int | None, seed: int) -> FaultPlan:
    """The disarmed plan of one run: kill at armed access ``point``, or
    (``None``) only count accesses."""
    if point is None:
        return FaultPlan(seed=seed, armed=False)
    return FaultPlan.crash_at(point, seed=seed, armed=False)


def drive_armed(run: CrashRun) -> bool:
    """Drive ``run`` with its plan armed; whether it crashed.

    Construction and recovery happen outside, disarmed, so access index
    ``k`` always names the ``k``-th device access *of the workload* —
    the same boundary in every run of the same script.
    """
    run.plan.arm()
    try:
        run.drive()
    except CrashPoint:
        return True
    finally:
        run.plan.disarm()
    return False


def sweep_crash_points(
    report: CrashTestReport,
    points: Iterable[int],
    fresh: Callable[[int], CrashRun],
    family: str = "access",
    progress: Callable[[str], None] | None = None,
) -> CrashTestReport:
    """The crash-sweep loop: one fresh run per point, crash, settle, tally.

    A point past the workload's last access does not crash; ``settle``
    then verifies the completed run instead.
    """
    points = list(points)
    for point in points:
        outcome = CrashOutcome(access_index=point, family=family)
        run = fresh(point)
        outcome.crashed = drive_armed(run)
        run.settle(outcome)
        report.crashes_triggered += outcome.crashed
        report.recoveries_verified += outcome.ok and outcome.recovered
        report.points_tested += 1
        report.outcomes.append(outcome)
        if progress is not None and report.points_tested % 50 == 1:
            progress(
                f"crashtest[{report.engine}]: {family} {point}/{points[-1]}, "
                f"{len(report.failures)} failures"
            )
    return report


def require_positive(**values: int) -> None:
    for name, value in values.items():
        if value <= 0:
            raise ValueError(f"{name} must be positive, got {value}")


def registry() -> Any:
    """:mod:`repro.engines`, imported lazily: it imports the whole engine
    layer above this package."""
    from repro import engines

    return engines


# ---------------------------------------------------------------------------
# Scripted put/delete workload over a raw tree
# ---------------------------------------------------------------------------


def _random_op(
    rng: random.Random, keyspace: int, serial: int
) -> tuple[str, bytes, bytes | None]:
    key = f"key-{rng.randrange(keyspace):06d}".encode()
    if rng.random() < 0.15:
        return ("delete", key, None)
    return ("put", key, f"value-{serial:06d}".encode())


def scripted_workload(
    ops: int, seed: int = 0, keyspace: int | None = None
) -> Script:
    """A deterministic op script: mostly puts, some deletes, reused keys."""
    rng = random.Random(seed)
    if keyspace is None:
        keyspace = max(ops // 2, 16)
    return [_random_op(rng, keyspace, index) for index in range(ops)]


def _script_trace(script: Script) -> Any:
    from repro.testing.trace import Trace, TraceOp

    return Trace(
        [
            TraceOp.put(key, value) if op == "put" else TraceOp.delete(key)
            for op, key, value in script
        ]
    )


def count_workload_accesses(engine: str, script: Script, seed: int = 0) -> int:
    """Device accesses the scripted workload performs (crash candidates)."""
    from repro.testing.composer import trace_access_count

    return trace_access_count(_script_trace(script), engine, seed=seed)


def enumerate_crash_points(
    engine: str = "blsm",
    ops: int = 500,
    every: int = 1,
    seed: int = 0,
    progress: Callable[[str], None] | None = None,
) -> CrashTestReport:
    """Crash at every ``every``-th I/O boundary; recover; verify.

    ``engine`` is a crash-capable tree of the registry
    (``CRASH_ENGINE_NAMES``), swept over :func:`scripted_workload` by the
    trace composer, or one of :data:`PROTOCOL_SWEEPS`.
    """
    require_positive(ops=ops)
    if engine in PROTOCOL_SWEEPS:
        return PROTOCOL_SWEEPS[engine](ops, every, seed, progress)
    from repro.testing.composer import enumerate_trace_crash_points

    return enumerate_trace_crash_points(
        _script_trace(scripted_workload(ops, seed=seed)),
        engine, every, seed, progress,
    )


# ---------------------------------------------------------------------------
# Group-commit crash matrix
# ---------------------------------------------------------------------------


def group_commit_script(
    batches: int, seed: int = 0, sessions: int = 4
) -> list[tuple[int, Script]]:
    """A deterministic multi-session batch script: ``(session, ops)``."""
    rng = random.Random(seed)
    keyspace = max(batches, 16)
    script: list[tuple[int, Script]] = []
    serial = 0
    for _ in range(batches):
        sid = rng.randrange(sessions)
        ops = []
        for _ in range(rng.randrange(1, 4)):
            ops.append(_random_op(rng, keyspace, serial))
            serial += 1
        script.append((sid, ops))
    return script


def _acked_records(script: list[tuple[int, Script]], tickets: list[Any]) -> int:
    """Records covered by resolved tickets (a seqno-prefix: the durable
    LSN is monotone, so a resolved ticket implies every earlier one)."""
    covered = 0
    for index, ticket in enumerate(tickets):
        if ticket.durable_at is None:
            break
        covered = sum(len(ops) for _, ops in script[: index + 1])
    return covered


def _verify_prefix_consistent(
    recovered: Any, applied: Script, min_records: int, outcome: CrashOutcome
) -> None:
    """The recovered store must equal *some* seqno-prefix of the record
    stream no shorter than the acked coverage.

    Group commit's contract in one predicate: every record covered by a
    resolved ticket (leader *and* followers — they inherited the same
    durable LSN) survives, and whatever else survives is a clean prefix
    extension, never a gap — a follower's batch can't be half-applied
    ahead of the leader's force that acked it.
    """
    keys = sorted({key for _, key, _ in applied})
    actual = {key: recovered.get(key) for key in keys}
    state: dict[bytes, bytes | None] = {}
    for op, key, value in applied[:min_records]:
        state[key] = value if op == "put" else None
    for cut in range(min_records, len(applied) + 1):
        if cut > min_records:
            op, key, value = applied[cut - 1]
            state[key] = value if op == "put" else None
        if all(state.get(key) == actual[key] for key in keys):
            return
    outcome.failures.append(
        f"recovered state matches no record prefix >= {min_records} "
        f"(of {len(applied)} records)"
    )


class _GroupCommitRun(CrashRun):
    """A ``GROUP``-durability BLSM tree driven by a multi-session script."""

    def __init__(
        self, script: list[tuple[int, Script]], seed: int, point: int | None
    ) -> None:
        from dataclasses import replace

        from repro.core.tree import BLSM
        from repro.storage.logical_log import DurabilityMode

        self.script = script
        self.plan = crash_plan(point, seed)
        self.tree = BLSM(
            replace(
                registry().crash_options(self.plan, seed),
                durability=DurabilityMode.GROUP,
            )
        )
        # Mutated in place, so the pre-crash truth survives a CrashPoint:
        # the flattened record stream in seqno order, and the receipts.
        self.applied: Script = []
        self.tickets: list[Any] = []

    def drive(self) -> None:
        """Submit every batch with ``wait=False``; wait on every 5th ticket.

        The staggered waits are the point of the matrix: a wait drains
        the queue mid-stream, so a crash during it lands on a force
        covering a *partially drained* commit group — some tickets acked
        by the leader, the rest still queued.
        """
        queue = self.tree.stasis.group_commit
        for index, (sid, ops) in enumerate(self.script):
            ticket = self.tree.write_batch(ops, session=sid, wait=False)
            self.applied.extend(ops)
            self.tickets.append(ticket)
            if index % 5 == 4:
                queue.wait(ticket)
        self.tree.flush_log()

    def settle(self, outcome: CrashOutcome) -> None:
        tree, applied = self.tree, self.applied
        if outcome.crashed:
            acked = _acked_records(self.script, self.tickets)
            tree.stasis.crash()
            recovered = registry().recover_crash_tree(
                "blsm", tree.stasis, tree.options
            )
            outcome.recovered = True
            _verify_prefix_consistent(recovered, applied, acked, outcome)
        else:
            # The completed, fully drained run must equal the full
            # record stream exactly.
            _verify_prefix_consistent(tree, applied, len(applied), outcome)
            tree.close()


def enumerate_group_commit_crash_points(
    batches: int = 60,
    every: int = 1,
    seed: int = 0,
    progress: Callable[[str], None] | None = None,
) -> CrashTestReport:
    """Kill the GROUP-durability commit path at every I/O boundary.

    Crashing a multi-session batch script at every ``every``-th device
    access places kills inside leader forces over partially drained
    groups, memtable-flush merges, and the final drain.  After each,
    recovery must yield a state that is prefix-consistent with the
    submitted record stream and no shorter than what the resolved
    tickets acked (:func:`_verify_prefix_consistent`).
    """
    require_positive(batches=batches, every=every)
    script = group_commit_script(batches, seed=seed)

    def fresh(point: int | None) -> _GroupCommitRun:
        return _GroupCommitRun(script, seed, point)

    total = fresh(None).count()
    report = CrashTestReport(
        "group-commit", batches, every, seed,
        {"workload device accesses": total},
    )
    return sweep_crash_points(
        report, range(1, total + 1, every), fresh, progress=progress
    )


# ---------------------------------------------------------------------------
# Online-migration crash matrix
# ---------------------------------------------------------------------------


def _verify_fleet(
    recovered: Any, model: dict[bytes, bytes | None], outcome: CrashOutcome
) -> None:
    """Acked-write parity plus the fleet's structural invariants."""
    for key, expected in sorted(model.items()):
        actual = recovered.get(key)
        if actual != expected:
            outcome.failures.append(
                f"key {key!r}: got {actual!r}, expected acked {expected!r}"
            )
    from repro.testing.model import check_sharded_invariants

    try:
        check_sharded_invariants(recovered)
    except AssertionError as error:
        outcome.failures.append(f"invariant violated: {error}")


class _MigrationRun(CrashRun):
    """A tiny 2-shard SYNC fleet mid-split/merge, under scripted traffic.

    Faults attach only to the migration journal: each shard's device
    traffic is its own serial sequence (which is why the data-path crash
    harness cannot drive sharded engines), but the journal *is* one
    serial sequence — its force boundaries are exactly the protocol's
    durable transitions.  ``journal_point`` arms the journal's plan (the
    process dies inside that force); ``stop_after_steps`` instead dies
    at that controller-step boundary, with arbitrary amounts of
    cleared/copied/caught-up/retired data on the shards but no journal
    record in flight.
    """

    def __init__(
        self,
        script: Script,
        seed: int,
        journal_point: int | None = None,
        stop_after_steps: int | None = None,
    ) -> None:
        from repro.core.options import BLSMOptions
        from repro.shard.engine import ShardedEngine
        from repro.shard.migration import (
            MigrationJournal,
            MigrationThrottle,
            attach_migration,
        )
        from repro.shard.partitioner import RangePartitioner
        from repro.storage.logical_log import DurabilityMode

        self.script = script
        self.stop_after_steps = stop_after_steps
        self.plan = crash_plan(journal_point, seed)
        self.engine = ShardedEngine(
            BLSMOptions(
                c0_bytes=8 * 1024,
                buffer_pool_pages=16,
                durability=DurabilityMode.SYNC,
                seed=seed,
            ),
            shards=2,
            partitioner=RangePartitioner([b"key-000100"]),
        )
        attach_migration(
            self.engine,
            journal=MigrationJournal(
                fault_plan=self.plan if stop_after_steps is None else None,
                seed=seed,
            ),
            chunk_keys=8,
            # The crash test wants step boundaries, not throttle boundaries:
            # a full budget share means the controller never defers.
            throttle=MigrationThrottle(1.0),
        )
        self.model: dict[bytes, bytes | None] = {}
        self.steps = 0

    def drive(self) -> None:
        """Interleave the scripted workload with migration steps.

        At op 10 a split of shard 0 is planned and started; once it
        retires, a merge of shard 0 follows — so both protocol kinds'
        journal records and step boundaries are enumerated in one
        scenario.  Every workload op while a migration is active is
        followed by one controller step.  ``model`` reflects every op
        acknowledged when a :class:`~repro.errors.CrashPoint` unwinds.
        """
        from repro.shard.migration import plan_merge, plan_split

        engine, controller = self.engine, self.engine.migration
        start_at = min(10, len(self.script) - 1)
        started = 0  # how many of the scenario's two migrations began

        def step() -> None:
            if self.steps == self.stop_after_steps:
                raise CrashPoint()
            controller.step()
            self.steps += 1

        for index, (op, key, value) in enumerate(self.script):
            if op == "put":
                engine.put(key, value)
                self.model[key] = value
            else:
                engine.delete(key)
                self.model[key] = None
            if not controller.active and index >= start_at and started < 2:
                planner = plan_split if started == 0 else plan_merge
                plan = planner(engine, 0)
                started += 1
                if plan is not None:
                    controller.start(plan)
            if controller.active:
                step()
        while controller.active:
            step()
        if self.stop_after_steps is not None:
            raise CrashPoint()  # the boundary after the last step

    def settle(self, outcome: CrashOutcome) -> None:
        """Verify; a crashed fleet must also finish its migration — a
        consistent ownership map is not enough if it can never finish."""
        from repro.shard.migration import crash_and_recover

        if not outcome.crashed:
            _verify_fleet(self.engine, self.model, outcome)
            self.engine.close()
            return
        recovered = crash_and_recover(self.engine)
        outcome.recovered = True
        _verify_fleet(recovered, self.model, outcome)
        controller = recovered.migration
        try:
            if controller is not None and controller.active:
                controller.run_to_completion()
        except Exception as error:  # noqa: BLE001 — a stuck resume fails
            outcome.failures.append(
                f"resume raised {type(error).__name__}: {error}"
            )
            return
        _verify_fleet(recovered, self.model, outcome)
        if recovered.partitioner.history_depth:
            outcome.failures.append(
                f"placement history not pruned after completion "
                f"(depth {recovered.partitioner.history_depth})"
            )
        recovered.close()


def enumerate_migration_crash_points(
    ops: int = 120,
    every: int = 1,
    seed: int = 0,
    progress: Callable[[str], None] | None = None,
) -> CrashTestReport:
    """Crash at every migration step and journal-force boundary; verify.

    Two families of crash points cover the whole protocol surface:
    *journal* boundaries (the process dies inside a migration-journal
    force — plan, copy-start, catch-up-start, switch, retire-done,
    prune) and *step* boundaries (between any two controller steps).  A
    disarmed counting run fixes both counts for the scripted scenario;
    every crash then recovers via
    :func:`~repro.shard.migration.crash_and_recover`, is verified against
    the acked-write model and the sharded invariants, resumes the
    recovered migration to completion, and is verified again.
    """
    require_positive(ops=ops, every=every)
    script = scripted_workload(ops, seed=seed, keyspace=max(ops // 2, 16))
    counting = _MigrationRun(script, seed)
    forces, steps = counting.count(), counting.steps
    report = CrashTestReport(
        "migration", ops, every, seed,
        {
            "journal force boundaries": forces,
            "migration step boundaries": steps + 1,
        },
    )
    sweep_crash_points(
        report,
        range(1, forces + 1, every),
        lambda point: _MigrationRun(script, seed, journal_point=point),
        family="journal force",
        progress=progress,
    )
    return sweep_crash_points(
        report,
        range(0, steps + 1, every),
        lambda point: _MigrationRun(script, seed, stop_after_steps=point),
        family="step boundary",
        progress=progress,
    )


#: ``repro crashtest --engine`` targets that are protocols, not registry
#: trees: ``name -> sweep(ops, every, seed, progress)``.
PROTOCOL_SWEEPS: dict[str, Callable[..., CrashTestReport]] = {
    "group-commit": enumerate_group_commit_crash_points,
    "migration": enumerate_migration_crash_points,
}


def format_report(report: CrashTestReport) -> str:
    """Human-readable summary (the ``repro crashtest`` output)."""
    lines = [
        f"crash-point enumeration: engine={report.engine} ops={report.ops} "
        f"every={report.every} seed={report.seed}"
    ]
    rows = list(report.boundaries.items()) + [
        ("boundaries tested", report.points_tested),
        ("crashes triggered", report.crashes_triggered),
        ("recoveries verified", report.recoveries_verified),
        ("failures", len(report.failures)),
    ]
    lines += [f"  {label:25s}: {count}" for label, count in rows]
    for outcome in report.failures[:10]:
        for failure in outcome.failures[:3]:
            lines.append(
                f"    at {outcome.family} {outcome.access_index}: {failure}"
            )
    lines.append(f"  {'verdict':25s}: {'PASS' if report.ok else 'FAIL'}")
    return "\n".join(lines)
