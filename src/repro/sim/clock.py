"""A virtual clock shared by every simulated component.

All device service times, merge work and backpressure stalls advance this
clock; no component ever consults wall-clock time.  This makes every
benchmark in the repository deterministic and independent of host speed.

Concurrency model (docs/concurrency.md): the clock is the *foreground*
timeline — the application's point of view.  Background work (the paper's
merge threads, Section 5.1) runs on a :class:`Timeline`: an independent
position on the same virtual time axis.  While a timeline is installed via
:meth:`VirtualClock.running_on`, device service advances the timeline and
the device's busy horizon instead of the foreground clock, so merge I/O is
*overlapped* with application work rather than charged to it.  Foreground
requests still feel the merge through device queueing: a device whose
``busy_until`` horizon is ahead of the clock delays the next synchronous
request — contention, not charged service, exactly the distinction the
paper's dedicated log disk + data array hardware expresses.
"""

from __future__ import annotations


class VirtualClock:
    """Monotonically increasing virtual time, in seconds.

    The clock starts at zero.  Components advance it by the service time of
    the work they perform; the benchmark harness reads :attr:`now` to
    compute latencies and throughput windows.
    """

    __slots__ = ("_now", "_active_timeline")

    def __init__(self) -> None:
        self._now = 0.0
        self._active_timeline: Timeline | None = None

    @property
    def now(self) -> float:
        """Current virtual time in seconds since the simulation started."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Advance the clock by ``seconds`` and return the new time.

        Raises:
            ValueError: if ``seconds`` is negative (time never goes back).
        """
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds!r} seconds")
        self._now += seconds
        return self._now

    def advance_to(self, t: float) -> float:
        """Advance the clock to at least ``t`` and return the new time.

        Waiting for something that already happened is free: a ``t`` in
        the past leaves the clock unchanged (time never goes back).
        """
        if t > self._now:
            self._now = t
        return self._now

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
        return f"VirtualClock(now={self._now:.6f})"


class RunningOn:
    """The context :meth:`VirtualClock.running_on` returns.

    A slotted class rather than a generator-based context manager: every
    background merge step and every group-commit force enters one, and
    entering a generator costs several times what two attribute swaps do.
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

    One :class:`Timeline` models one background worker (the paper's merge
    threads).  It only ever moves forward, and it can run *ahead* of the
    foreground clock — the worker has committed to servicing queued I/O
    into the future.  The gap, :meth:`lag`, is how long the worker stays
    busy from the foreground's point of view; dispatchers use
    :meth:`busy` to avoid handing a worker more work than real time
    allows, which is what converts "bytes dispatched" into a rate bounded
    by device speed.
    """

    __slots__ = ("name", "_now")

    def __init__(self, name: str = "background", start: float = 0.0) -> None:
        self.name = name
        self._now = start

    @property
    def now(self) -> float:
        """This worker's current position in virtual time."""
        return self._now

    def advance_to(self, t: float) -> float:
        """Move forward to at least ``t`` and return the new position."""
        if t > self._now:
            self._now = t
        return self._now

    def catch_up(self, clock: VirtualClock) -> float:
        """Sync with the foreground clock before dispatching new work.

        An idle worker cannot perform work in the past: work dispatched
        at foreground time *t* starts no earlier than *t*.
        """
        return self.advance_to(clock.now)

    def lag(self, clock: VirtualClock) -> float:
        """Seconds of queued work ahead of the foreground clock (>= 0)."""
        return max(0.0, self._now - clock.now)

    def busy(self, clock: VirtualClock) -> bool:
        """Whether this worker is still servicing previously queued work."""
        return self._now > clock.now

    def __repr__(self) -> str:
        return f"Timeline(name={self.name!r}, now={self._now:.6f})"
