"""Collapsing one key's versions into the record a merge keeps.

Merges fold with :func:`merge_records` (:mod:`repro.core.merge`); scans
resolve versions into current values in
:func:`repro.core.versions.scan_view`.  A group is ordered by
freshness — newest version first — which is what makes early
termination and deterministic version ordering possible (Section 3.1.1:
"updates to the same tuple are placed in tree levels consistent with
their ordering").
"""

from __future__ import annotations

from repro.records import Record, fold


def merge_records(
    group: list[Record], drop_tombstones: bool = False
) -> Record | None:
    """Collapse one key's versions into the single record a merge keeps.

    Args:
        group: versions of one key, newest first.
        drop_tombstones: ``True`` when merging into the largest component
            (C2): a tombstone that survives folding has deleted every
            older version that will ever exist, so it can be discarded.

    Returns:
        The surviving record, or ``None`` if it was a droppable tombstone.
    """
    oldest_first = list(reversed(group))
    merged = oldest_first[0]
    for newer in oldest_first[1:]:
        merged = fold(newer, merged)
    if drop_tombstones and merged.is_tombstone:
        return None
    return merged
