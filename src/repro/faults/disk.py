"""A simulated device that injects faults from a :class:`FaultPlan`.

:class:`FaultyDisk` subclasses :class:`~repro.sim.disk.SimDisk`, so it
conforms to the whole SimDisk surface (read/write, stats, tracing,
capacity, the corruption-query methods) and can be dropped anywhere a
SimDisk is expected — :class:`~repro.storage.stasis.Stasis` builds them
when given a fault plan.

Fault application order within one access:

1. ``latency`` rules — extra virtual service time is charged.
2. ``crash`` rules — :class:`~repro.errors.CrashPoint` with zero bytes
   persisted (the crash-point harness's boundary crash).
3. ``transient`` rules — the access time is charged as wasted device
   time, then :class:`~repro.errors.TransientIOError` is raised.
4. ``torn`` rules (writes only) — a prefix of the bytes is written and
   charged, then :class:`~repro.errors.CrashPoint` is raised with
   ``persisted_bytes`` set; the consumer's checksums find the tear at
   replay.
5. The access itself.
6. ``corrupt`` rules — the accessed range is silently marked corrupt;
   checksummed readers discover it later.

A clean, complete write heals any corruption marks it fully overwrites,
as a real rewrite of a bad sector would.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import CrashPoint, TransientIOError
from repro.faults.plan import FaultPlan, FaultRule
from repro.sim.clock import VirtualClock
from repro.sim.disk import DiskModel, SimDisk

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.runtime import EngineRuntime


class FaultyDisk(SimDisk):
    """A :class:`SimDisk` whose accesses consult a :class:`FaultPlan`."""

    def __init__(
        self,
        model: DiskModel,
        clock: VirtualClock,
        name: str | None = None,
        runtime: "EngineRuntime | None" = None,
        plan: FaultPlan | None = None,
    ) -> None:
        super().__init__(model, clock, name=name, runtime=runtime)
        self.plan = plan if plan is not None else FaultPlan()
        self._corrupt: list[tuple[int, int]] = []  # disjoint [start, end) ranges
        if runtime is not None:
            metrics = runtime.metrics
            self._ctr_transient = metrics.counter("faults.transient_errors")
            self._ctr_torn = metrics.counter("faults.torn_writes")
            self._ctr_crashes = metrics.counter("faults.crash_points")
            self._ctr_corrupt = metrics.counter("faults.corruptions")
            self._ctr_spikes = metrics.counter("faults.latency_spikes")
            self._ctr_spike_seconds = metrics.counter("faults.latency_seconds")

    # -- corruption bookkeeping ---------------------------------------

    def corrupted(self, offset: int, nbytes: int) -> bool:
        end = offset + nbytes
        return any(start < end and offset < stop for start, stop in self._corrupt)

    def mark_corrupt(self, offset: int, nbytes: int) -> None:
        if nbytes > 0:
            self._corrupt.append((offset, offset + nbytes))

    def clear_corruption(self, offset: int, nbytes: int) -> None:
        """Subtract ``[offset, offset + nbytes)`` from the corrupt set."""
        end = offset + nbytes
        healed: list[tuple[int, int]] = []
        for start, stop in self._corrupt:
            if stop <= offset or end <= start:
                healed.append((start, stop))
                continue
            if start < offset:
                healed.append((start, offset))
            if end < stop:
                healed.append((end, stop))
        self._corrupt = healed

    @property
    def corrupt_ranges(self) -> list[tuple[int, int]]:
        """Current corrupt byte ranges (inspection helper)."""
        return sorted(self._corrupt)

    # -- fault-injecting access ---------------------------------------

    def _access(
        self,
        offset: int,
        nbytes: int,
        access_seconds: float,
        bandwidth: float,
        is_write: bool,
    ) -> float:
        if nbytes <= 0:
            # Zero-length accesses touch no device; defer validation to base.
            return super()._access(
                offset, nbytes, access_seconds, bandwidth, is_write
            )
        op = "write" if is_write else "read"
        fired = self.plan.note_access(self.name, op)
        extra = 0.0
        crash: FaultRule | None = None
        transient: FaultRule | None = None
        torn: FaultRule | None = None
        corrupt: FaultRule | None = None
        for rule in fired:
            if rule.kind == "latency":
                extra += rule.extra_seconds
            elif rule.kind == "crash":
                crash = crash or rule
            elif rule.kind == "transient":
                transient = transient or rule
            elif rule.kind == "torn" and is_write:
                torn = torn or rule
            elif rule.kind == "corrupt":
                corrupt = corrupt or rule
        if extra > 0.0:
            self._charge_wasted(extra)
            self._note_fault("latency", op, offset, nbytes, extra=extra)
        if crash is not None:
            self._note_fault("crash", op, offset, nbytes)
            raise CrashPoint(
                persisted_bytes=0, access_index=self.plan.access_count
            )
        if transient is not None:
            # A failed access still spins the device: charge the seek time
            # as wasted busy time before failing.
            self._charge_wasted(access_seconds)
            self._note_fault("transient", op, offset, nbytes)
            raise TransientIOError(
                f"injected transient {op} error on {self.name!r} "
                f"(offset={offset}, nbytes={nbytes})"
            )
        if torn is not None:
            persisted = int(nbytes * torn.torn_fraction)
            persisted = max(0, min(persisted, nbytes - 1))
            if persisted:
                super()._access(
                    offset, persisted, access_seconds, bandwidth, is_write
                )
            self._note_fault("torn", op, offset, nbytes, persisted=persisted)
            raise CrashPoint(
                persisted_bytes=persisted, access_index=self.plan.access_count
            )
        service = super()._access(
            offset, nbytes, access_seconds, bandwidth, is_write
        )
        if is_write:
            # A complete, clean write rewrites the whole range: heal it.
            self.clear_corruption(offset, nbytes)
        if corrupt is not None:
            self.mark_corrupt(offset, nbytes)
            self._note_fault("corrupt", op, offset, nbytes)
        return service

    def _note_fault(
        self, kind: str, op: str, offset: int, nbytes: int, **data: object
    ) -> None:
        if self.runtime is None:
            return
        if kind == "latency":
            self._ctr_spikes.inc()
            self._ctr_spike_seconds.inc(float(data.get("extra", 0.0)))
        elif kind == "crash":
            self._ctr_crashes.inc()
        elif kind == "transient":
            self._ctr_transient.inc()
        elif kind == "torn":
            self._ctr_torn.inc()
        elif kind == "corrupt":
            self._ctr_corrupt.inc()
        self.runtime.trace.emit(
            "io_fault",
            disk=self.name,
            fault=kind,
            op=op,
            offset=offset,
            nbytes=nbytes,
            **data,
        )

    def __repr__(self) -> str:
        return (
            f"FaultyDisk(name={self.name!r}, model={self.model.name!r}, "
            f"plan={self.plan!r})"
        )
