"""Unit tests for merging sources in a scan and collapsing records.

The merge of a scan's sources is :func:`repro.core.versions.scan_view`;
these drive it through :meth:`TreeSnapshot.scan` over hand-built
:class:`MemTable` sources and check it against a newest-wins dict.
"""

from repro.core.versions import Prefix, TreeSnapshot, VersionSet
from repro.memtable.memtable import MemTable
from repro.records import Record
from repro.sstable import merge_records


def recs(*pairs):
    return [Record.base(k, v, s) for k, v, s in pairs]


def memtable_of(records):
    table = MemTable(1 << 20)
    for record in records:
        table.put(record)
    return table


def scan_runs(*runs, lo=b"", hi=None, limit=None):
    """Rows a snapshot whose sources behind an empty C0 are ``runs``
    (newest first) returns for ``scan(lo, hi, limit)``."""
    older_ram = ([Prefix(memtable_of(run)) for run in runs],)
    with TreeSnapshot(VersionSet(), MemTable(1 << 20), older_ram) as snap:
        return list(snap.scan(lo, hi, limit))


def newest_wins(*runs):
    """The oracle: each key's value in the newest run holding it."""
    rows = {}
    for run in reversed(runs):  # oldest first; newer runs overwrite
        for record in run:
            rows[record.key] = record.value
    return sorted(rows.items())


def test_merge_disjoint_sources():
    a = recs((b"a", b"1", 10), (b"c", b"3", 11))
    b = recs((b"b", b"2", 1), (b"d", b"4", 2))
    rows = scan_runs(a, b)
    assert [key for key, _ in rows] == [b"a", b"b", b"c", b"d"]
    assert rows == newest_wins(a, b)


def test_merge_groups_versions_newest_first():
    newer = recs((b"k", b"new", 10))
    older = recs((b"k", b"old", 1))
    assert scan_runs(newer, older) == [(b"k", b"new")]
    assert scan_runs(newer, older) == newest_wins(newer, older)


def test_merge_three_sources():
    s0 = recs((b"a", b"0", 30))
    s1 = recs((b"a", b"1", 20), (b"b", b"1", 21))
    s2 = recs((b"a", b"2", 10), (b"c", b"2", 11))
    rows = scan_runs(s0, s1, s2)
    assert rows == [(b"a", b"0"), (b"b", b"1"), (b"c", b"2")]
    assert rows == newest_wins(s0, s1, s2)
    assert scan_runs(s0, s1, s2, lo=b"b", limit=1) == [(b"b", b"1")]


def test_merge_empty_sources():
    assert scan_runs() == []
    assert scan_runs([], []) == []


def test_merge_records_keeps_newest_base():
    group = recs((b"k", b"new", 10)) + recs((b"k", b"old", 1))
    merged = merge_records(group)
    assert merged.value == b"new"


def test_merge_records_folds_delta_chain():
    group = [
        Record.delta(b"k", b"+2", 3),
        Record.delta(b"k", b"+1", 2),
        Record.base(b"k", b"v", 1),
    ]
    merged = merge_records(group)
    assert merged.is_base
    assert merged.value == b"v+1+2"


def test_merge_records_tombstone_kept_mid_tree():
    group = [Record.tombstone(b"k", 2), Record.base(b"k", b"v", 1)]
    merged = merge_records(group, drop_tombstones=False)
    assert merged is not None and merged.is_tombstone


def test_merge_records_tombstone_dropped_at_bottom():
    group = [Record.tombstone(b"k", 2), Record.base(b"k", b"v", 1)]
    assert merge_records(group, drop_tombstones=True) is None


def test_merge_records_delta_over_tombstone_collapses_to_tombstone():
    group = [
        Record.delta(b"k", b"+1", 3),
        Record.tombstone(b"k", 2),
        Record.base(b"k", b"v", 1),
    ]
    merged = merge_records(group, drop_tombstones=False)
    assert merged is not None and merged.is_tombstone
    # At the bottom level the tombstone (and everything under it) drops.
    assert merge_records(group, drop_tombstones=True) is None


def test_merge_records_delta_after_tombstone_does_not_resurrect():
    # Mid-tree: the folded record must keep shadowing a deeper base.
    group = [Record.delta(b"k", b"+1", 3), Record.tombstone(b"k", 2)]
    merged = merge_records(group, drop_tombstones=False)
    assert merged is not None and merged.is_tombstone
