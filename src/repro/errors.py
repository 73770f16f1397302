"""Exception hierarchy for the bLSM reproduction library.

Every error raised by this package derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class StorageError(ReproError):
    """Raised when the storage substrate is used incorrectly."""


class PageNotFoundError(StorageError):
    """Raised when a page id does not exist on the simulated device."""

    def __init__(self, page_id: int) -> None:
        super().__init__(f"page {page_id} does not exist on this device")
        self.page_id = page_id


class RegionError(StorageError):
    """Raised on invalid region (extent) allocation or deallocation."""


class LogError(StorageError):
    """Raised when a log is used incorrectly (bad LSN, closed log, ...)."""


class RecoveryError(StorageError):
    """Raised when crash recovery cannot reconstruct a consistent state."""


class DeviceFullError(StorageError):
    """Raised when a write would exceed a device's configured capacity."""

    def __init__(self, offset: int, nbytes: int, capacity_bytes: int) -> None:
        super().__init__(
            f"write of {nbytes} bytes at offset {offset} exceeds device "
            f"capacity of {capacity_bytes} bytes"
        )
        self.offset = offset
        self.nbytes = nbytes
        self.capacity_bytes = capacity_bytes


class IOFaultError(StorageError):
    """Raised when device I/O fails and cannot (or can no longer) be retried.

    This is what callers see when a :class:`TransientIOError` survives a
    :class:`~repro.faults.retry.RetryExecutor`'s full retry budget — the
    failure is surfaced as a hard, typed error instead of silent data loss.
    """


class TransientIOError(IOFaultError):
    """A retryable device fault (injected by a faulty device).

    An immediate retry of the same access may succeed; a
    :class:`~repro.faults.retry.RetryExecutor` converts repeated failures
    into an :class:`IOFaultError`.
    """


class RetryDeadlineError(IOFaultError):
    """Raised when retries exhaust a policy's virtual-clock deadline.

    Distinct from the attempt-count exhaustion path so callers can tell
    "the device answered N times with errors" apart from "we ran out of
    time budget while backing off" — a persistent fault under an
    unbounded attempt budget surfaces here instead of retrying forever.
    """

    def __init__(self, what: str, deadline_seconds: float, attempts: int) -> None:
        super().__init__(
            f"{what}: retry deadline of {deadline_seconds}s exceeded "
            f"after {attempts} attempt(s)"
        )
        self.what = what
        self.deadline_seconds = deadline_seconds
        self.attempts = attempts


class CorruptionError(StorageError):
    """Raised when a checksum mismatch reveals corrupted durable data."""


class CrashPoint(BaseException):
    """A simulated whole-process crash raised from inside a device access.

    Derives from :class:`BaseException` (like ``KeyboardInterrupt``) so
    that ordinary ``except Exception`` error handling — including retry
    loops — can never swallow a simulated process death.  ``persisted_bytes``
    reports how much of the interrupted write reached the platter before
    the crash (0 for a crash before any transfer); log implementations use
    it to mark records as durable, torn, or lost.
    """

    def __init__(self, persisted_bytes: int = 0, access_index: int = -1) -> None:
        super().__init__(
            f"simulated crash ({persisted_bytes} bytes persisted"
            + (f", access #{access_index}" if access_index >= 0 else "")
            + ")"
        )
        self.persisted_bytes = persisted_bytes
        self.access_index = access_index


class EngineError(ReproError):
    """Raised when a key-value engine is driven incorrectly."""


class EngineClosedError(EngineError):
    """Raised when an operation is attempted on a closed engine."""

    def __init__(self) -> None:
        super().__init__("engine has been closed")


class DuplicateKeyError(EngineError):
    """Raised by ``insert_unique`` when the key already exists."""

    def __init__(self, key: bytes) -> None:
        super().__init__(f"key already exists: {key!r}")
        self.key = key


class ShardFanoutError(EngineError):
    """One or more shards failed during a fleet-wide fan-out.

    ``flush``/``close`` on a sharded engine must visit *every* shard even
    when an early one raises (abandoning the rest would leave durable
    state behind on healthy shards); the per-shard failures are collected
    here so none is silently swallowed.
    """

    def __init__(self, op: str, errors: dict[int, Exception]) -> None:
        detail = "; ".join(
            f"shard {index}: {type(error).__name__}: {error}"
            for index, error in sorted(errors.items())
        )
        super().__init__(f"{op} failed on {len(errors)} shard(s): {detail}")
        self.op = op
        self.errors = dict(errors)


class MigrationError(EngineError):
    """Raised when a shard migration is planned or driven incorrectly."""


class StaleOwnerError(MigrationError):
    """A write through a lease whose shard lost ownership (epoch fence).

    After a migration's ownership switch the cluster epoch advances and
    the source shard is fenced; a client still holding a pre-switch lease
    gets this instead of a silently misplaced write.
    """

    def __init__(self, shard: int, lease_epoch: int, current_epoch: int) -> None:
        super().__init__(
            f"shard {shard} lease at epoch {lease_epoch} is fenced "
            f"(cluster epoch is now {current_epoch})"
        )
        self.shard = shard
        self.lease_epoch = lease_epoch
        self.current_epoch = current_epoch


class WorkloadError(ReproError):
    """Raised when a YCSB workload specification is invalid."""


class UsageError(ReproError, ValueError):
    """A parameter combination an entry point rejects: ``repro`` prints it
    and exits instead of tracing back, so raise it only where a flag is
    validated, never for a fault inside a run."""
