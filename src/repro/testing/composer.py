"""The fault-schedule composer: overlay crashes onto a trace.

Where the differential executor asks "does every engine agree on the
answers?", the composer asks the recovery question: "does a crash at
*any* point of this trace lose an acknowledged write?"  It drives the
same crash-capable raw trees as the ALICE-style harness in
:mod:`repro.faults.crashpoints` (``build_crash_tree`` /
``recover_crash_tree``, ``SYNC`` durability), but the workload is a
:class:`~repro.testing.trace.Trace` — so the crash surface now includes
deltas, batches, verified reads, explicit ``merge_work`` scheduling
markers (crash *during* a merge step) and explicit ``crash`` markers
(crash exactly here, recover, verify, continue).

Two entry points:

* :func:`run_crash_trace` — execute a trace once, honouring its
  ``crash`` markers and any additional :class:`FaultPlan` overlay; each
  crash recovers and verifies every acknowledged write against the
  model's durable prefix before continuing.
* :func:`enumerate_trace_crash_points` — the exhaustive sweep: crash at
  every ``every``-th device-access boundary of the trace, recover,
  verify.  The single in-flight mutation may surface as either its old
  or its new value (both are durable-by-contract); everything
  acknowledged before it must read back exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import CrashPoint
from repro.faults.plan import FaultPlan
from repro.testing.differential import step_merge
from repro.testing.trace import Trace, TraceOp

__all__ = [
    "CrashTraceOutcome",
    "CrashTraceReport",
    "enumerate_trace_crash_points",
    "run_crash_trace",
    "trace_access_count",
]

#: Acked state: value bytes, or ``None`` for deleted/never-written.
_Model = dict[bytes, "bytes | None"]
#: One in-flight mutation: (kind, key, payload).
_InFlight = "tuple[str, bytes, bytes | None] | None"


@dataclass
class CrashTraceOutcome:
    """What happened at one composed crash point."""

    access_index: int
    crashed: bool = False
    recovered: bool = False
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether the recovery at this point verified cleanly."""
        return not self.failures


@dataclass
class CrashTraceReport:
    """Aggregate result of one trace crash-point enumeration."""

    engine: str
    trace_ops: int
    every: int
    seed: int
    total_accesses: int
    boundaries_tested: int = 0
    crashes_triggered: int = 0
    recoveries_verified: int = 0
    outcomes: list[CrashTraceOutcome] = field(default_factory=list)

    @property
    def failures(self) -> list[CrashTraceOutcome]:
        """Every outcome whose recovery verification failed."""
        return [outcome for outcome in self.outcomes if not outcome.ok]

    @property
    def ok(self) -> bool:
        """Whether every tested boundary recovered cleanly."""
        return not self.failures


def _registry() -> Any:
    # Lazy: the registry imports the whole engine layer above us.
    from repro import engines

    return engines


def _expected_after(
    model: _Model, in_flight: tuple[str, bytes, bytes | None]
) -> bytes | None:
    """The value the in-flight mutation would produce if it persisted."""
    kind, key, payload = in_flight
    if kind == "put":
        return payload
    if kind == "delete":
        return None
    old = model.get(key)
    return old + (payload or b"") if old is not None else None


def _verify_recovered(
    recovered: Any,
    model: _Model,
    in_flight: tuple[str, bytes, bytes | None] | None,
    failures: list[str],
    context: str,
) -> None:
    """Check every acked write (durable prefix) against the recovered tree.

    The in-flight mutation is the one op the crash interrupted: its key
    may legitimately read as the pre-op (acked) or post-op value.
    """
    in_flight_key = in_flight[1] if in_flight is not None else None
    keys = set(model)
    if in_flight_key is not None:
        keys.add(in_flight_key)
    for key in sorted(keys):
        expected = model.get(key)
        actual = recovered.get(key)
        if key == in_flight_key:
            assert in_flight is not None
            new = _expected_after(model, in_flight)
            if actual != expected and actual != new:
                failures.append(
                    f"{context}: key {key!r} -> {actual!r}, expected acked "
                    f"{expected!r} or in-flight {new!r}"
                )
        elif actual != expected:
            failures.append(
                f"{context}: key {key!r} -> {actual!r}, expected acked "
                f"{expected!r}"
            )


def _mutations_of(op: TraceOp):
    """The mutation stream of one trace op (batch ops flatten)."""
    if op.kind in ("put", "delete", "delta"):
        yield (op.kind, op.key, op.value if op.kind != "delete" else None)
    elif op.kind == "batch":
        for kind, key, value in op.mutations:
            yield (kind, key, value)


def _apply_mutation(
    tree: Any, model: _Model, kind: str, key: bytes, payload: bytes | None
) -> None:
    if kind == "put":
        tree.put(key, payload)
        model[key] = payload
    elif kind == "delete":
        tree.delete(key)
        model[key] = None
    else:
        tree.apply_delta(key, payload or b"")
        old = model.get(key)
        if old is not None:
            model[key] = old + (payload or b"")


def trace_access_count(
    trace: Trace, engine: str = "blsm", seed: int = 0
) -> int:
    """Device accesses one full run of the trace performs.

    These are the crash candidates :func:`enumerate_trace_crash_points`
    sweeps; construction, recovery at ``crash`` markers and the final
    close run disarmed so the count is workload-anchored (access ``k``
    names the same boundary in every run).
    """
    registry = _registry()
    plan = FaultPlan(seed=seed, armed=False)
    tree = registry.build_crash_tree(engine, plan, seed)
    failures: list[str] = []
    plan.arm()
    tree = _run(tree, trace, {}, plan, engine, failures, verify_reads=False)
    plan.disarm()
    tree.close()
    return plan.access_count


def _run(
    tree: Any,
    trace: Trace,
    model: _Model,
    plan: FaultPlan,
    engine: str,
    failures: list[str],
    verify_reads: bool = True,
    set_in_flight: Callable[[Any], None] | None = None,
) -> Any:
    """Execute a trace on a raw tree, honouring ``crash`` markers.

    Mutations keep ``model`` as the acked-write record; reads are
    verified against it when ``verify_reads``; ``crash`` markers crash
    the substrate (with the overlay plan disarmed so recovery I/O fires
    nothing), recover, verify the whole acked state and continue on the
    recovered tree, which is returned.
    """
    registry = _registry()
    note = set_in_flight if set_in_flight is not None else (lambda value: None)
    for index, op in enumerate(trace):
        if op.kind == "crash":
            plan.disarm()
            tree.stasis.crash()
            tree = registry.recover_crash_tree(engine, tree.stasis, tree.options)
            _verify_recovered(
                tree, model, None, failures, f"op {index} (crash marker)"
            )
            plan.arm()
            continue
        if op.kind == "merge_work":
            step_merge(tree, op.budget)
            continue
        if op.kind == "get":
            actual = tree.get(op.key)
            if verify_reads and actual != model.get(op.key):
                failures.append(
                    f"op {index}: get {op.key!r} -> {actual!r}, expected "
                    f"{model.get(op.key)!r}"
                )
            continue
        if op.kind == "multi_get":
            for key in op.keys:
                actual = tree.get(key)
                if verify_reads and actual != model.get(key):
                    failures.append(
                        f"op {index}: multi_get {key!r} -> {actual!r}, "
                        f"expected {model.get(key)!r}"
                    )
            continue
        if op.kind == "scan":
            rows = list(tree.scan(op.key, op.hi, op.limit))
            if verify_reads:
                expected = sorted(
                    (key, value)
                    for key, value in model.items()
                    if value is not None
                    and key >= op.key
                    and (op.hi is None or key < op.hi)
                )
                if op.limit is not None:
                    expected = expected[: op.limit]
                if rows != expected:
                    failures.append(
                        f"op {index}: scan diverged "
                        f"({len(rows)} rows vs {len(expected)} expected)"
                    )
            continue
        for kind, key, payload in _mutations_of(op):
            note((kind, key, payload))
            _apply_mutation(tree, model, kind, key, payload)
            note(None)
    return tree


def run_crash_trace(
    trace: Trace,
    engine: str = "blsm",
    seed: int = 0,
    plan: FaultPlan | None = None,
) -> list[str]:
    """Execute a trace on a crash-capable tree; return verification failures.

    ``crash`` markers in the trace crash/recover/verify inline.  An
    optional ``plan`` overlay (built disarmed; armed for the workload)
    composes additional scheduled faults on top; if it kills the process
    (:class:`CrashPoint`), the store is recovered and the acked state
    verified one final time — the trace's remaining ops are dead, as
    they would be on real hardware.
    """
    registry = _registry()
    if plan is None:
        plan = FaultPlan(seed=seed, armed=False)
    tree = registry.build_crash_tree(engine, plan, seed)
    model: _Model = {}
    failures: list[str] = []
    in_flight: list[Any] = [None]

    def note(value: Any) -> None:
        in_flight[0] = value

    plan.arm()
    try:
        tree = _run(
            tree, trace, model, plan, engine, failures, set_in_flight=note
        )
    except CrashPoint:
        plan.disarm()
        tree.stasis.crash()
        recovered = registry.recover_crash_tree(
            engine, tree.stasis, tree.options
        )
        _verify_recovered(
            recovered, model, in_flight[0], failures, "overlay crash"
        )
        recovered.close()
        return failures
    plan.disarm()
    tree.close()
    return failures


def enumerate_trace_crash_points(
    trace: Trace,
    engine: str = "blsm",
    every: int = 1,
    seed: int = 0,
    progress: Callable[[str], None] | None = None,
) -> CrashTraceReport:
    """Crash at every ``every``-th I/O boundary of a trace; recover; verify.

    The trace-driven generalization of
    :func:`repro.faults.crashpoints.enumerate_crash_points`: the same
    disarmed-construction discipline, but the workload may now contain
    deltas, batches, reads and merge markers, so crash points land
    inside every operation family the trace format can express.
    """
    registry = _registry()
    if engine not in registry.CRASH_ENGINE_NAMES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of "
            f"{registry.CRASH_ENGINE_NAMES}"
        )
    if every <= 0:
        raise ValueError(f"every must be positive, got {every}")
    total = trace_access_count(trace, engine, seed=seed)
    report = CrashTraceReport(
        engine=engine,
        trace_ops=len(trace),
        every=every,
        seed=seed,
        total_accesses=total,
    )
    for access in range(1, total + 1, every):
        outcome = CrashTraceOutcome(access_index=access)
        plan = FaultPlan.crash_at(access, seed=seed, armed=False)
        tree = registry.build_crash_tree(engine, plan, seed)
        model: _Model = {}
        in_flight: list[Any] = [None]
        plan.arm()
        try:
            tree = _run(
                tree, trace, model, plan, engine, outcome.failures,
                set_in_flight=lambda value: in_flight.__setitem__(0, value),
            )
        except CrashPoint:
            outcome.crashed = True
        finally:
            plan.disarm()
        if outcome.crashed:
            report.crashes_triggered += 1
            tree.stasis.crash()
            recovered = registry.recover_crash_tree(
                engine, tree.stasis, tree.options
            )
            outcome.recovered = True
            _verify_recovered(
                recovered, model, in_flight[0], outcome.failures,
                f"access {access}",
            )
            recovered.close()
        else:
            _verify_recovered(
                tree, model, None, outcome.failures, f"access {access}"
            )
            tree.close()
        if outcome.ok and outcome.recovered:
            report.recoveries_verified += 1
        report.boundaries_tested += 1
        report.outcomes.append(outcome)
        if progress is not None and access % 50 == 1:
            progress(
                f"crash-compose[{engine}]: boundary {access}/{total}, "
                f"{len(report.failures)} failures"
            )
    return report
