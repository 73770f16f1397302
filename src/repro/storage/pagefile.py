"""Fixed-size page store over a simulated device.

Pages hold immutable Python payloads (tuples of records, index entries,
metadata dictionaries) rather than serialized bytes: functional behaviour
is real, while I/O cost is charged from page geometry.  A page read or
write transfers exactly ``page_size`` bytes at the page's byte address, so
sequential page runs inside one extent are charged bandwidth only and
scattered accesses pay a seek — matching the paper's cost model.

The payload dictionary is the *durable* state: anything written here
survives a simulated crash, anything held only by the buffer manager does
not.

The paper argues (Appendix A) that 4 KB data pages are the right choice on
modern hardware; that is the default here and the page size is a knob so
the InnoDB stand-in can use the 16 KB pages the paper calls out.

Hardening (fault-injection layer): every page carries a checksum stored
at write time and verified on every charged read — a read of a page whose
byte range the device corrupted, or whose write was torn mid-page, raises
:class:`~repro.errors.CorruptionError` instead of returning silently
wrong data.  A write run torn by a :class:`~repro.errors.CrashPoint`
keeps the fully-persisted prefix of pages durable and leaves the
straddling page corrupt-marked.  An optional
:class:`~repro.faults.retry.RetryExecutor` absorbs transient device
errors with backoff; all buffer-manager and merge I/O rides on this
class, so hardening here hardens those paths too.
"""

from __future__ import annotations

from collections import deque
from itertools import repeat
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import CorruptionError, CrashPoint, PageNotFoundError
from repro.sim.disk import SimDisk
from repro.storage.checksum import CORRUPTION_MASK, payload_checksum

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.retry import RetryExecutor

DEFAULT_PAGE_SIZE = 4096


class PageFile:
    """Durable page payloads addressed by page id.

    Page id ``p`` lives at byte offset ``p * page_size`` on the underlying
    device, so adjacent page ids are physically adjacent — the property the
    region allocator exists to provide.
    """

    def __init__(
        self,
        disk: SimDisk,
        page_size: int = DEFAULT_PAGE_SIZE,
        retry: "RetryExecutor | None" = None,
    ) -> None:
        if page_size <= 0:
            raise ValueError(f"page_size must be positive, got {page_size}")
        self.disk = disk
        self.page_size = page_size
        self.retry = retry
        self._pages: dict[int, Any] = {}
        self._sums: dict[int, int] = {}  # page id -> stored checksum
        self.corrupt_reads = 0
        # Checksums exist to detect device damage, and a device that
        # never corrupts (plain SimDisk: ``corrupted`` is constant-False
        # and ``mark_corrupt`` a no-op) can never fail verification —
        # so computing a checksum per page write and recomputing it per
        # page read would be pure hot-path overhead.  Only fault-capable
        # devices (FaultyDisk overrides ``corrupted``) pay for it.
        self._checksummed = type(disk).corrupted is not SimDisk.corrupted

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._pages

    def __len__(self) -> int:
        return len(self._pages)

    def _io(self, op: Callable[[], float], what: str) -> float:
        if self.retry is not None:
            return self.retry.run(op, what=what)
        return op()

    def read_page(self, page_id: int) -> Any:
        """Read a page payload, charging one page of device read I/O.

        Every point read that misses the pool comes through here, so
        without a retry executor the device is called directly.

        Raises:
            CorruptionError: the page's stored checksum no longer matches
                what the device returns (silent decay or a torn write).
            IOFaultError: a transient device fault outlasted the retry
                policy (the message names the page).
        """
        try:
            payload = self._pages[page_id]
        except KeyError:
            raise PageNotFoundError(page_id) from None
        offset = page_id * self.page_size
        if self.retry is None:
            self.disk.read(offset, self.page_size)
        else:
            self.retry.run(
                lambda: self.disk.read(offset, self.page_size),
                what=f"pagefile.read of page {page_id}",
            )
        if self._checksummed:
            self._verify(page_id, payload)
        return payload

    def write_page(self, page_id: int, payload: Any) -> None:
        """Write a page payload, charging one page of device write I/O.

        A :class:`~repro.errors.CrashPoint` mid-write leaves the page
        torn: its payload is on disk but corrupt-marked, so a later read
        fails its checksum instead of returning a half-written page.
        """
        if page_id < 0:
            raise ValueError(f"page_id must be non-negative, got {page_id}")
        offset = page_id * self.page_size
        try:
            self._io(
                lambda: self.disk.write(offset, self.page_size),
                what="pagefile.write",
            )
        except CrashPoint as crash:
            if crash.persisted_bytes > 0:
                self._pages[page_id] = payload
                self._sums[page_id] = payload_checksum(page_id, payload)
                self.disk.mark_corrupt(offset, self.page_size)
            raise
        self._pages[page_id] = payload
        if self._checksummed:
            self._sums[page_id] = payload_checksum(page_id, payload)

    def read_run(self, first_page_id: int, count: int) -> list[Any]:
        """Read ``count`` consecutive pages as one contiguous transfer.

        Merges batch their I/O (the paper's arrays use 512 KB stripes), so
        a run of pages costs at most one seek plus bandwidth.  Every page
        in the run is checksum-verified on a device that can corrupt.
        Every scan stream comes through here, so without a retry
        executor the device is called directly, as in :meth:`read_page`.
        """
        if count <= 0:
            return []
        payloads = []
        for page_id in range(first_page_id, first_page_id + count):
            try:
                payloads.append(self._pages[page_id])
            except KeyError:
                raise PageNotFoundError(page_id) from None
        offset = first_page_id * self.page_size
        nbytes = count * self.page_size
        if self.retry is None:
            self.disk.read(offset, nbytes)
        else:
            self.retry.run(
                lambda: self.disk.read(offset, nbytes),
                what="pagefile.read_run",
            )
        if self._checksummed:
            for i, payload in enumerate(payloads):
                self._verify(first_page_id + i, payload)
        return payloads

    def write_run(self, first_page_id: int, payloads: list[Any]) -> None:
        """Write consecutive pages as one contiguous transfer.

        A :class:`~repro.errors.CrashPoint` mid-run keeps the pages whose
        bytes fully reached the device durable; the page straddling the
        tear is stored corrupt-marked (its checksum will fail on read);
        later pages never reach the device.
        """
        if not payloads:
            return
        if first_page_id < 0:
            raise ValueError(
                f"first_page_id must be non-negative, got {first_page_id}"
            )
        offset = first_page_id * self.page_size
        try:
            self._io(
                lambda: self.disk.write(offset, len(payloads) * self.page_size),
                what="pagefile.write_run",
            )
        except CrashPoint as crash:
            whole = crash.persisted_bytes // self.page_size
            for i, payload in enumerate(payloads[:whole]):
                self._pages[first_page_id + i] = payload
                self._sums[first_page_id + i] = payload_checksum(
                    first_page_id + i, payload
                )
            if crash.persisted_bytes % self.page_size and whole < len(payloads):
                torn_id = first_page_id + whole
                self._pages[torn_id] = payloads[whole]
                self._sums[torn_id] = payload_checksum(torn_id, payloads[whole])
                self.disk.mark_corrupt(
                    torn_id * self.page_size, self.page_size
                )
            raise
        if self._checksummed:
            for i, payload in enumerate(payloads):
                self._pages[first_page_id + i] = payload
                self._sums[first_page_id + i] = payload_checksum(
                    first_page_id + i, payload
                )
        else:
            for i, payload in enumerate(payloads):
                self._pages[first_page_id + i] = payload

    def _verify(self, page_id: int, payload: Any) -> None:
        """Raise if a read page fails its checksum (callers check
        ``_checksummed`` first)."""
        stored = self._sums.get(page_id)
        if stored is None:
            # Pre-checksum page (or direct dict poke in a test): trust it.
            return
        actual = payload_checksum(page_id, payload)
        if self.disk.corrupted(page_id * self.page_size, self.page_size):
            actual ^= CORRUPTION_MASK
        if actual != stored:
            self.corrupt_reads += 1
            runtime = self.disk.runtime
            if runtime is not None:
                runtime.metrics.counter("pagefile.corrupt_reads").inc()
                runtime.trace.emit("page_corrupt", page_id=page_id)
            raise CorruptionError(
                f"page {page_id} failed checksum verification"
            )

    def free_run(self, first_page_id: int, count: int) -> None:
        """Drop the durable payloads of ``count`` pages from
        ``first_page_id``, written or not (no I/O charged, like TRIM)."""
        span = range(first_page_id, first_page_id + count)
        for table in (self._pages, self._sums):
            if table:  # one pass in C: pop every page id of the span
                deque(map(table.pop, span, repeat(None)), maxlen=0)

    def peek(self, page_id: int) -> Any:
        """Read a payload without charging I/O (test/recovery helper)."""
        try:
            return self._pages[page_id]
        except KeyError:
            raise PageNotFoundError(page_id) from None
