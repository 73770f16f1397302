"""Persisting Bloom filters alongside their components (Section 4.4.3).

The paper's prototype keeps filters in memory only: "they are too large
to allow us to block writers as they are synchronously written to disk",
so the authors overlap filter writeback with the next merge and defer
the merge transaction's commit until the filter is durable.  On the
virtual clock there is no separate thread to overlap with, so the write
is simply charged (sequentially) before the merge's manifest commit —
the same total I/O, the same durability point.

Persisted filters make recovery read ~1.25 bytes per key instead of
rescanning whole components (~1 KB per key): the recovery-cost ablation
measures the difference.
"""

from __future__ import annotations

import math
from typing import Any

from repro.bloom import BloomFilter
from repro.sstable.reader import SSTable
from repro.storage.region import Extent
from repro.storage.stasis import Stasis


def persist_bloom(stasis: Stasis, table: SSTable) -> None:
    """Write a component's filter to its own extent, sequentially."""
    if table.bloom is None or table.bloom_extent is not None:
        return
    data = table.bloom.to_bytes()
    page_size = stasis.page_size
    npages = max(1, math.ceil(len(data) / page_size))
    extent = stasis.regions.allocate(npages)
    payloads: list[Any] = [
        data[offset : offset + page_size]
        for offset in range(0, npages * page_size, page_size)
    ]
    stasis.await_commit(extent.start, npages)
    stasis.pagefile.write_run(extent.start, payloads)
    table.bloom_extent = extent
    table.descriptor = None  # its manifest entry now names the filter


def bloom_descriptor(table: SSTable) -> dict[str, Any] | None:
    """Manifest entry for a persisted filter (``None`` if not persisted)."""
    if table.bloom is None or table.bloom_extent is None:
        return None
    return {
        "extent": table.bloom_extent,
        "nbits": table.bloom.nbits,
        "nhashes": table.bloom.nhashes,
        "ninserted": table.bloom.ninserted,
        "nbytes": table.bloom.nbytes,
    }


def load_bloom(stasis: Stasis, desc: dict[str, Any]) -> BloomFilter:
    """Read a persisted filter back, charging its sequential read."""
    extent: Extent = desc["extent"]
    payloads = stasis.pagefile.read_run(extent.start, extent.length)
    data = b"".join(payloads)[: desc["nbytes"]]
    return BloomFilter.from_bytes(
        desc["nbits"], desc["nhashes"], data, desc["ninserted"]
    )
