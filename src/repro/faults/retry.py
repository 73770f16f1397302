"""Bounded retry with exponential backoff, charged to the virtual clock.

Real LSM deployments survive transient device errors by retrying with
backoff; the cost is *time*, which this simulation charges to the shared
virtual clock so degraded-I/O runs show up as latency — the trade-off
"On Performance Stability in LSM-based Storage Systems" (Luo & Carey)
measures.  A :class:`RetryPolicy` is pure configuration; a
:class:`RetryExecutor` binds it to one engine's clock and metrics and is
threaded through the page file, WAL force, and logical-log force paths
by :class:`~repro.storage.stasis.Stasis` (the buffer manager and merge
I/O ride on the page file).

Only :class:`~repro.errors.TransientIOError` is retried.  Exhausting the
attempt budget raises a typed :class:`~repro.errors.IOFaultError` —
never silent data loss and never an unbounded retry loop.  A :class:`~repro.errors.CrashPoint` is a
``BaseException`` and always propagates: a dead process cannot retry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, TypeVar

from repro.errors import IOFaultError, TransientIOError
from repro.sim.clock import VirtualClock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.runtime import EngineRuntime

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """How often and how patiently failed I/O is retried.

    Attributes:
        max_attempts: total tries per access, including the first.
        base_backoff_seconds: sleep before the first retry.
        multiplier: backoff growth factor per further retry.
    """

    max_attempts: int = 4
    base_backoff_seconds: float = 1e-3
    multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_backoff_seconds < 0.0:
            raise ValueError(
                "base_backoff_seconds must be non-negative, got "
                f"{self.base_backoff_seconds}"
            )
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")

    def backoff_seconds(self, retry_index: int) -> float:
        """Backoff before the ``retry_index``-th retry (0-based)."""
        return self.base_backoff_seconds * self.multiplier**retry_index


class RetryExecutor:
    """Runs I/O thunks under a :class:`RetryPolicy` on one virtual clock."""

    def __init__(
        self,
        policy: RetryPolicy,
        clock: VirtualClock,
        runtime: "EngineRuntime | None" = None,
    ) -> None:
        self.policy = policy
        self.clock = clock
        self.runtime = runtime
        if runtime is not None:
            metrics = runtime.metrics
            self._ctr_retries = metrics.counter("retry.retries")
            self._ctr_backoff = metrics.counter("retry.backoff_seconds")
            self._ctr_exhausted = metrics.counter("retry.exhausted")

    def run(self, op: Callable[[], T], what: str = "io") -> T:
        """Invoke ``op``, retrying transient faults with backoff.

        Raises:
            IOFaultError: when ``op`` still fails after the last attempt.
        """
        for attempt in range(1, self.policy.max_attempts + 1):
            try:
                return op()
            except TransientIOError as error:
                if attempt == self.policy.max_attempts:
                    if self.runtime is not None:
                        self._ctr_exhausted.inc()
                        self.runtime.trace.emit(
                            "io_retry_exhausted", what=what, attempts=attempt
                        )
                    raise IOFaultError(
                        f"{what}: transient fault persisted through "
                        f"{attempt} attempts"
                    ) from error
                backoff = self.policy.backoff_seconds(attempt - 1)
                # The requester waits out the backoff: the log writer's
                # timeline if it issued the access.
                timeline = self.clock.active_timeline
                if timeline is not None:
                    timeline.advance_to(timeline.now + backoff)
                else:
                    self.clock.advance(backoff)
                if self.runtime is not None:
                    self._ctr_retries.inc()
                    self._ctr_backoff.inc(backoff)
                    self.runtime.trace.emit(
                        "io_retry", what=what, attempt=attempt, backoff=backoff
                    )
        raise AssertionError("unreachable")  # pragma: no cover
