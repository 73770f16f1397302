"""Manifest descriptors for on-disk components.

The manifest (committed through the physical WAL, Section 4.4.2) stores
one descriptor per live component: its blocks, extents, counters and —
when filter persistence is enabled — where its Bloom filter lives.  The
``tree_id`` entry is what the WAL's version edits name a component by.
Recovery turns descriptors back into :class:`SSTable` objects, loading
the persisted filter or rebuilding it with a full component scan (the
paper's prototype behaviour, Section 4.4.3).
"""

from __future__ import annotations

from typing import Any

from repro.bloom import BloomFilter
from repro.core.options import BLSMOptions
from repro.sstable.bloom_store import bloom_descriptor, load_bloom
from repro.sstable.builder import BLOOM_FALSE_POSITIVE_RATE
from repro.sstable.reader import SSTable
from repro.storage.region import Extent
from repro.storage.stasis import ManifestEntry, Stasis


def describe_component(table: SSTable | None) -> dict[str, Any] | None:
    """The manifest entry for one component (``None`` for an empty slot).

    Memoised on the table, so the manifest log finds an unchanged entry
    by identity and renders it once (:class:`ManifestEntry`);
    :func:`~repro.sstable.bloom_store.persist_bloom`, the one thing that
    changes an entry, drops the memo.
    """
    if table is None:
        return None
    desc = table.descriptor
    if desc is None:
        desc = table.descriptor = ManifestEntry(
            tree_id=table.tree_id,
            blocks=tuple(table.blocks),
            extents=tuple(table.extents),
            key_count=table.key_count,
            nbytes=table.nbytes,
            max_key=table.max_key,
            bloom=bloom_descriptor(table),
        )
    return desc


def component_row(table: SSTable) -> dict[str, Any]:
    """One component's row in an engine's ``level_view()``."""
    return {
        "nbytes": table.nbytes,
        "key_count": table.key_count,
        "page_fill": table.page_fill,
    }


def rebuild_component(
    stasis: Stasis, desc: dict[str, Any] | None, options: BLSMOptions
) -> SSTable | None:
    """Reconstruct a component (and its filter) from a descriptor."""
    if desc is None:
        return None
    table = SSTable(
        stasis,
        blocks=list(desc["blocks"]),
        extents=list(desc["extents"]),
        key_count=desc["key_count"],
        nbytes=desc["nbytes"],
        bloom=None,
        tree_id=desc["tree_id"],
        max_key=desc["max_key"],
    )
    bloom_desc = desc.get("bloom")
    if bloom_desc is not None:
        # Persisted filter: one small sequential read.
        table.bloom = load_bloom(stasis, bloom_desc)
        table.bloom_extent = bloom_desc["extent"]
    elif options.with_bloom_filters and desc["key_count"] > 0:
        # Prototype behaviour: rebuild by scanning the whole component.
        bloom = BloomFilter.for_capacity(
            desc["key_count"], BLOOM_FALSE_POSITIVE_RATE
        )
        bloom.update(record.key for record in table.iter_records())
        table.bloom = bloom
    return table


def component_extents(desc: dict[str, Any] | None) -> set[Extent]:
    """Every extent a descriptor pins (data plus persisted filter)."""
    if desc is None:
        return set()
    live = set(desc["extents"])
    bloom_desc = desc.get("bloom")
    if bloom_desc is not None:
        live.add(bloom_desc["extent"])
    return live
