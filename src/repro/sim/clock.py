"""A virtual clock shared by every simulated component.

All device service times, merge work and backpressure stalls advance this
clock; no component ever consults wall-clock time.  This makes every
benchmark in the repository deterministic and independent of host speed.

Concurrency model (docs/concurrency.md): the clock is the *foreground*
timeline — the application's point of view, which merges run on too, as
budgeted steps charged to the write that runs them.  The log device's one
writer (the logical log's group-commit leader forces and ASYNC's
write-behind) runs on a :class:`Timeline`: an independent position on the
same virtual time axis.  While a timeline is installed via
:meth:`VirtualClock.running_on`, device service advances the timeline and
the device's busy horizon instead of the foreground clock, so that I/O is
*overlapped* with application work rather than charged to it.  Foreground
requests still feel it through device queueing: a device whose
``busy_until`` horizon is ahead of the clock delays the next synchronous
request — contention, not charged service.
"""

from __future__ import annotations


class VirtualClock:
    """Monotonically increasing virtual time, in seconds.

    The clock starts at zero.  Components advance it by the service time of
    the work they perform; the benchmark harness reads :attr:`now` to
    compute latencies and throughput windows.  ``now`` is a plain
    attribute, read on every write and merge step; only :meth:`advance`
    and :meth:`advance_to` move it.
    """

    __slots__ = ("now", "_active_timeline")

    def __init__(self) -> None:
        self.now = 0.0
        """Current virtual time in seconds since the simulation started."""
        self._active_timeline: Timeline | None = None

    def advance(self, seconds: float) -> float:
        """Advance the clock by ``seconds`` and return the new time.

        Raises:
            ValueError: if ``seconds`` is negative (time never goes back).
        """
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds!r} seconds")
        self.now += seconds
        return self.now

    def advance_to(self, t: float) -> float:
        """Advance the clock to at least ``t`` and return the new time.

        Waiting for something that already happened is free: a ``t`` in
        the past leaves the clock unchanged (time never goes back).
        """
        if t > self.now:
            self.now = t
        return self.now

    @property
    def active_timeline(self) -> "Timeline | None":
        """The background timeline work is currently charged to, if any."""
        return self._active_timeline

    def running_on(self, timeline: "Timeline") -> "RunningOn":
        """Charge all device service inside the block to ``timeline``.

        Devices consult :attr:`active_timeline` on every access: when one
        is installed, service advances the timeline and the device's busy
        horizon, leaving the foreground clock untouched.  Use as
        ``with clock.running_on(timeline):``; blocks nest, and leaving
        one (normally or by an exception) reinstalls the timeline that
        was active when it was entered.
        """
        return RunningOn(self, timeline)

    def __repr__(self) -> str:
        return f"VirtualClock(now={self.now:.6f})"


class RunningOn:
    """The context :meth:`VirtualClock.running_on` returns.

    A slotted class rather than a generator-based context manager: every
    group-commit force and every ASYNC append enters one, and entering a
    generator costs several times what two attribute swaps do.
    """

    __slots__ = ("_clock", "_timeline", "_previous")

    def __init__(self, clock: VirtualClock, timeline: "Timeline") -> None:
        self._clock = clock
        self._timeline = timeline
        self._previous: Timeline | None = None

    def __enter__(self) -> "Timeline":
        clock = self._clock
        self._previous = clock._active_timeline
        clock._active_timeline = self._timeline
        return self._timeline

    def __exit__(self, *exc_info: object) -> None:
        self._clock._active_timeline = self._previous


class Timeline:
    """An independent position on the shared virtual time axis.

    One :class:`Timeline` models one writer that works behind the
    foreground (the log device's, ``LogicalLog.writer``).  It only ever
    moves forward, and it can run *ahead* of the foreground clock — the
    writer has committed to servicing queued I/O into the future; while
    it does, it is :meth:`busy`, and a caller that needs that work done
    advances the clock to :attr:`now`.
    """

    __slots__ = ("name", "now")

    def __init__(self, name: str) -> None:
        self.name = name
        self.now = 0.0
        """This writer's current position in virtual time."""

    def advance_to(self, t: float) -> float:
        """Move forward to at least ``t`` and return the new position."""
        if t > self.now:
            self.now = t
        return self.now

    def busy(self, clock: VirtualClock) -> bool:
        """Whether this writer is still servicing previously queued work."""
        return self.now > clock.now

    def __repr__(self) -> str:
        return f"Timeline(name={self.name!r}, now={self.now:.6f})"
