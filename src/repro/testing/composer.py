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

from typing import Any, Callable

from repro.faults.crashpoints import (
    CrashOutcome,
    CrashRun,
    CrashTestReport,
    crash_plan,
    drive_armed,
    registry,
    require_positive,
    sweep_crash_points,
)
from repro.faults.plan import FaultPlan
from repro.testing.differential import step_merge
from repro.testing.trace import Trace, TraceOp

__all__ = [
    "enumerate_trace_crash_points",
    "run_crash_trace",
    "trace_access_count",
]

#: Acked state: value bytes, or ``None`` for deleted/never-written.
_Model = dict[bytes, "bytes | None"]


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


class _TraceRun(CrashRun):
    """A crash-capable raw tree driven by a trace, with its acked model."""

    def __init__(self, trace: Trace, engine: str, plan: FaultPlan) -> None:
        self.trace, self.engine, self.plan = trace, engine, plan
        self.tree = registry().build_crash_tree(engine, plan)
        self.model: _Model = {}
        self.in_flight: tuple[str, bytes, bytes | None] | None = None
        self.failures: list[str] = []

    def _recover(self) -> None:
        self.tree.stasis.crash()
        self.tree = registry().recover_crash_tree(
            self.engine, self.tree.stasis, self.tree.options
        )

    def drive(self) -> None:
        """Execute the trace, honouring ``crash`` markers.

        Mutations keep ``model`` as the acked-write record and reads are
        verified against it; a ``crash`` marker crashes the substrate
        (with the overlay plan disarmed so recovery I/O fires nothing),
        recovers, verifies the whole acked state and continues on the
        recovered tree.
        """
        model, failures = self.model, self.failures
        for index, op in enumerate(self.trace):
            if op.kind == "crash":
                self.plan.disarm()
                self._recover()
                _verify_recovered(
                    self.tree, model, None, failures,
                    f"op {index} (crash marker)",
                )
                self.plan.arm()
            elif op.kind == "merge_work":
                step_merge(self.tree, op.budget)
            elif op.kind in ("get", "multi_get"):
                for key in [op.key] if op.kind == "get" else op.keys:
                    actual = self.tree.get(key)
                    if actual != model.get(key):
                        failures.append(
                            f"op {index}: {op.kind} {key!r} -> {actual!r}, "
                            f"expected {model.get(key)!r}"
                        )
            elif op.kind == "scan":
                rows = list(self.tree.scan(op.key, op.hi, op.limit))
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
            else:
                for mutation in _mutations_of(op):
                    self.in_flight = mutation
                    _apply_mutation(self.tree, model, *mutation)
                    self.in_flight = None

    def settle(self, outcome: CrashOutcome, context: str = "") -> None:
        if outcome.crashed:
            started = self.tree.stasis.clock.now
            self._recover()
            outcome.recovery_vsec = self.tree.stasis.clock.now - started
            outcome.recovered = True
        _verify_recovered(
            self.tree, self.model, self.in_flight, self.failures,
            context or f"access {outcome.access_index}",
        )
        self.tree.close()
        outcome.failures.extend(self.failures)


def trace_access_count(
    trace: Trace, engine: str = "blsm", seed: int = 0
) -> int:
    """Device accesses one full run of the trace performs.

    These are the crash candidates :func:`enumerate_trace_crash_points`
    sweeps; construction, recovery at ``crash`` markers and the final
    close run disarmed so the count is workload-anchored (access ``k``
    names the same boundary in every run).
    """
    return _TraceRun(trace, engine, crash_plan(None, seed)).count()


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
    if plan is None:
        plan = crash_plan(None, seed)
    run = _TraceRun(trace, engine, plan)
    outcome = CrashOutcome(0, crashed=drive_armed(run))
    run.settle(outcome, "overlay crash" if outcome.crashed else "end of trace")
    return outcome.failures


def enumerate_trace_crash_points(
    trace: Trace,
    engine: str = "blsm",
    every: int = 1,
    seed: int = 0,
    progress: Callable[[str], None] | None = None,
) -> CrashTestReport:
    """Crash at every ``every``-th I/O boundary of a trace; recover; verify.

    The workload may contain deltas, batches, reads and merge markers,
    so crash points land inside every operation family the trace format
    can express (:func:`repro.faults.crashpoints.enumerate_crash_points`
    is this sweep over a put/delete script).
    """
    require_positive(every=every)
    total = trace_access_count(trace, engine, seed=seed)
    report = CrashTestReport(
        engine, len(trace), every, seed, {"workload device accesses": total}
    )
    return sweep_crash_points(
        report,
        range(1, total + 1, every),
        lambda point: _TraceRun(trace, engine, crash_plan(point, seed)),
        progress=progress,
    )
