"""Merge schedulers (Sections 3.2, 4.1, 4.3).

A *level scheduler* decides which level's merge runs next and how fast, so
that every tree component finishes merging exactly when the component
upstream of it fills.  The paper contrasts three policies, all implemented
here against the same tree interface:

* :class:`NaiveScheduler` — no pacing.  Merges run only when C0 is full,
  and the application blocks for the entire downstream merge: the
  unbounded write pauses that make base LSM-Trees impractical.

* :class:`GearScheduler` — couples merge progress like clock gears: the
  C0:C1 merge's ``inprogress`` is kept at C0's fill fraction, and the
  C1:C2 merge's ``inprogress`` is kept at the C0:C1 merge's
  ``outprogress``, so every hand "reaches 12" together (Section 4.1).

* :class:`SpringGearScheduler` — replaces the brittle upstream coupling
  with a spring: C0's fill is kept between a low and a high water mark;
  merges pause when C0 empties, and writes feel proportional backpressure
  as C0 fills (Section 4.3).  This composes with snowshoveling, which the
  plain gear scheduler cannot (Section 4.2.2).

:class:`LevelDBScheduler` paces the LevelDB baseline: no level scheduler.

Schedulers run on the write path: ``on_write`` is invoked after each
application write and performs merge work (advancing the shared virtual
clock) plus any deliberate stall.  The latency a write observes is exactly
the clock advance across its call — merge work a scheduler fails to
spread out shows up as a latency spike, just as in the paper's Figure 7.

Schedulers are written against one *merge host*,
:class:`~repro.core.kernel.TreeKernel`: ``c0_fill_fraction``,
``merging``, gear 0's ``m01_inprogress`` and the gear-1 deficit
``m12_deficit``, both gears' input sizes, ``m01_debt_per_byte()``,
``step_m01``/``step_m12`` and ``force_drain``.  Every layout maps its
merges onto the two gears — :class:`repro.core.tree.BLSM` its C0:C1 and
C1':C2 merges, :class:`repro.core.compaction.tree.CompactionTree` its
level-0-sourced and deeper policy merges,
:class:`repro.core.partitioned.PartitionedBLSM` its one merge worker
with no gear 1 — so one scheduler paces every layout and compaction
policy (docs/compaction.md).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.kernel import TreeKernel as MergeHost


HEADROOM = 1.6
"""Spring merge rate at full pressure, as a multiple of break-even.

The spring rests at pressure ``1 / HEADROOM`` (see
:class:`SpringGearScheduler`).
"""


class MergeScheduler(ABC):
    """Base class wiring a scheduler to its merge host."""

    def __init__(self) -> None:
        self._tree: "MergeHost | None" = None

    def attach(self, tree: "MergeHost") -> None:
        self._tree = tree

    @property
    def tree(self) -> "MergeHost":
        if self._tree is None:
            raise RuntimeError("scheduler is not attached to a tree")
        return self._tree

    @property
    def runtime(self):
        """The attached tree's observability runtime."""
        return self.tree.runtime

    @abstractmethod
    def on_write(self, nbytes: int) -> None:
        """Schedule merge work after an application write of ``nbytes``."""


class NaiveScheduler(MergeScheduler):
    """No pacing: block on full C0 until a whole merge pass completes.

    This reproduces the behaviour of the base LSM-Tree algorithm
    (Section 2.3.1): write latency is unbounded because a single write can
    wait for a full rewrite of C1 — and transitively of C2.
    """

    def on_write(self, nbytes: int) -> None:
        tree = self.tree
        if tree.c0_fill_fraction >= 1.0:
            tree.force_drain(target_fill=0.0, chunk=1 << 30)


class GearScheduler(MergeScheduler):
    """Progress-coupled pacing (Section 4.1).

    After each write the scheduler computes each merge's progress deficit
    and performs just enough work to close it, capped per tick so one
    write never absorbs an unbounded amount of merge work (the cap is the
    scheduler's latency bound; deficits carry over to the next write).
    """

    def __init__(self, max_tick_bytes: int = 512 * 1024) -> None:
        super().__init__()
        self.max_tick_bytes = max_tick_bytes
        self._gauges: tuple = ()

    def on_write(self, nbytes: int) -> None:
        tree = self.tree
        budget = self.max_tick_bytes
        if not self._gauges:
            metrics = self.runtime.metrics
            self._gauges = (
                metrics.gauge("scheduler.deficit01"),
                metrics.gauge("scheduler.deficit12"),
            )
        # Gear 1: keep the C0:C1 merge at C0's fill fraction.
        deficit01 = tree.c0_fill_fraction - tree.m01_inprogress
        self._gauges[0].set(max(0.0, deficit01))
        if deficit01 > 0:
            work = min(budget, int(deficit01 * tree.m01_input_bytes) + 1)
            budget -= tree.step_m01(work)
        # Gear 2: keep the C1:C2 merge at the C0:C1 merge's outprogress.
        deficit12 = tree.m12_deficit
        self._gauges[1].set(max(0.0, deficit12))
        if deficit12 > 0 and budget > 0:
            work = min(budget, int(deficit12 * tree.m12_input_bytes) + 1)
            tree.step_m12(work)
        if tree.c0_fill_fraction >= 1.0:
            tree.force_drain(target_fill=0.95, chunk=self.max_tick_bytes)


class SpringGearScheduler(MergeScheduler):
    """Water-mark pacing with proportional backpressure (Section 4.3).

    C0's fill fraction *is* the progress indicator: below the low water
    mark all merges pause (C0 is allowed to refill, absorbing load
    spikes); between the marks, merge work per write scales with how far
    C0 has filled; above the high water mark the write stalls until
    merges bring C0 back down.  The downstream C1:C2 merge keeps the gear
    coupling, paced off the C0:C1 merge's outprogress.

    Units.  ``step_m01`` spends its budget in *input bytes consumed*
    (C0 run plus C1), so the budget is built from the host's
    ``m01_debt_per_byte()``: the input bytes the C0-draining merge must
    consume to remove one byte from C0 — ``(run + |C1|) / run`` for a
    bLSM pass.  A write of ``nbytes`` hands the merge
    ``HEADROOM x pressure x debt x nbytes``; the merge breaks even with
    the writer at ``pressure = 1 / HEADROOM``, which is where C0's fill
    comes to rest: ``low + (high - low) / HEADROOM`` = 0.35 + 0.55 / 1.6
    = 0.69 at the default marks.  C0's fill is a design point, not an
    accident — the I/O of a pass is paid per resident byte of C0
    (Section 4.2), so the spring rests two-thirds of the way up and keeps
    the top third as slack; at high water the merge still runs
    ``HEADROOM`` x break-even, which is what absorbs a C1 waiting on the
    C1':C2 merge before a write stalls.  The C1':C2 merge is not in the
    debt: it has its own gear budget below.  (docs/merge-scheduling.md
    has the measured table behind 1.6.)
    """

    def __init__(
        self,
        low_water: float = 0.35,
        high_water: float = 0.90,
        max_tick_bytes: int = 512 * 1024,
    ) -> None:
        super().__init__()
        if not 0.0 <= low_water < high_water <= 1.0:
            raise ValueError(
                f"require 0 <= low < high <= 1, got {low_water}, {high_water}"
            )
        self.low_water = low_water
        self.high_water = high_water
        self.max_tick_bytes = max_tick_bytes
        self._engaged = False
        self._gauge_pressure = None

    def _set_pressure(self, pressure: float) -> None:
        """Record spring pressure; emit an event on each transition."""
        runtime = self.runtime
        # Bind the gauge once: this runs on every write, and a registry
        # lookup per write is measurable on the hot path.
        gauge = self._gauge_pressure
        if gauge is None:
            gauge = self._gauge_pressure = runtime.metrics.gauge(
                "scheduler.pressure"
            )
        gauge.set(pressure)
        if pressure > 0.0 and not self._engaged:
            self._engaged = True
            runtime.metrics.counter("scheduler.backpressure_engagements").inc()
            runtime.trace.emit("backpressure_engaged", pressure=pressure)
        elif pressure == 0.0 and self._engaged:
            self._engaged = False
            runtime.trace.emit("backpressure_released")

    def on_write(self, nbytes: int) -> None:
        # This runs after every write: the tree is read straight off the
        # instance, and the pressure gauge is set directly unless the
        # spring engages or releases (or the gauge is not bound yet).
        tree = self._tree
        if tree is None:
            raise RuntimeError("scheduler is not attached to a tree")
        low, high = self.low_water, self.high_water
        fill = tree.c0_fill_fraction
        pressure = 0.0 if fill <= low else min(1.0, (fill - low) / (high - low))
        gauge = self._gauge_pressure
        if gauge is None or self._engaged != (pressure > 0.0):
            self._set_pressure(pressure)
        else:
            gauge.set(pressure)
        if fill <= low:
            return  # spring unwound: pause merges, let C0 absorb writes
        # One budget is shared across all steps below: max_tick_bytes is
        # the per-tick latency bound, not a per-step cap.
        max_tick = self.max_tick_bytes
        debt = tree.m01_debt_per_byte()
        budget = min(max_tick, int(HEADROOM * pressure * debt * nbytes) + 1)
        worked = tree.step_m01(budget)
        remaining = max_tick - worked
        deficit12 = tree.m12_deficit
        if deficit12 > 0 and remaining > 0:
            work = min(remaining, int(deficit12 * tree.m12_input_bytes) + 1)
            remaining -= tree.step_m12(work)
        if worked == 0 and fill >= high and remaining > 0:
            # C0:C1 could not run (typically blocked on promotion while
            # the C1:C2 merge finishes); drive the blocker.
            tree.step_m12(remaining)
        if tree.c0_fill_fraction >= 1.0:
            tree.force_drain(target_fill=high, chunk=max_tick)


class LevelDBScheduler(MergeScheduler):
    """LevelDB's pacing: compaction gets a fixed share of the device.

    No water marks: each write hands compaction ``SHARE`` times its
    bytes, driving the compaction in progress (or starting one) a step
    at a time until the share is spent or that compaction completes.
    The only backpressure is the tree's level-0 slowdown and stop
    triggers.  (A spring would owe ``2 (1 + ratio) x depth`` bytes per
    written byte: LevelDB would never stop, and Figure 7 would lose its
    long pauses.)
    """

    SHARE = 4.0

    def on_write(self, nbytes: int) -> None:
        tree = self.tree
        budget = int(self.SHARE * nbytes)
        while budget > 0:
            driving = tree.merging
            worked = tree.step_m01(budget)
            if driving and not tree.merging:
                return  # the compaction this write drove completed
            worked = worked or tree.step_m12(budget)
            if worked == 0 or (driving and not tree.merging):
                return
            budget -= worked


def make_scheduler(name: str) -> MergeScheduler:
    """Build a scheduler by name, at its default constants: ``naive``,
    ``gear``, ``spring_gear`` or ``leveldb``."""
    if name == "naive":
        return NaiveScheduler()
    if name == "leveldb":
        return LevelDBScheduler()
    if name == "gear":
        return GearScheduler()
    if name == "spring_gear":
        return SpringGearScheduler()
    raise ValueError(f"unknown scheduler {name!r}")
