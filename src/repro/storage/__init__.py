"""Transactional storage substrate (the paper's Stasis, Section 4.4.2).

bLSM is built on Stasis, a general-purpose transactional storage system
providing a region allocator (contiguous extents, no filesystem
fragmentation), a carefully tuned buffer manager with CLOCK eviction, a
physical write-ahead log for metadata, and a separate logical log for
individual writes.  This package re-implements each of those pieces over a
:class:`~repro.sim.SimDisk`; both logs are one log-file type
(:class:`LogFile`) under their own record semantics.
"""

from repro.storage.buffer import BufferManager, EvictionPolicy
from repro.storage.checksum import CORRUPTION_MASK, payload_checksum
from repro.storage.group_commit import CommitTicket, GroupCommitQueue
from repro.storage.logfile import LogFile
from repro.storage.logical_log import DurabilityMode, LogicalLog, LogicalRecord
from repro.storage.pagefile import DEFAULT_PAGE_SIZE, PageFile
from repro.storage.region import Extent, RegionAllocator
from repro.storage.stasis import Stasis
from repro.storage.wal import WALRecord, WriteAheadLog

__all__ = [
    "BufferManager",
    "CORRUPTION_MASK",
    "CommitTicket",
    "DEFAULT_PAGE_SIZE",
    "DurabilityMode",
    "EvictionPolicy",
    "Extent",
    "GroupCommitQueue",
    "LogFile",
    "LogicalLog",
    "LogicalRecord",
    "PageFile",
    "RegionAllocator",
    "Stasis",
    "WALRecord",
    "WriteAheadLog",
    "payload_checksum",
]
