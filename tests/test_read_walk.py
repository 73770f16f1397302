"""One newest-first version walk serves every tree and every snapshot.

``records.lookup`` walks C0 and then each source below it, stops at the
first base record or tombstone, answers it directly when no delta sits
above it and folds a delta chain with ``records.resolve`` otherwise.
Each case below is a version stack of one key — a record in an on-disk
component with at most one record in C0 above it — built in ``blsm``,
``blsm-part``, ``leveled`` and a snapshot of each; every read must equal
``resolve`` over the stack's full newest-first list.
"""

import pytest

from repro.core import BLSM, BLSMOptions, CompactionTree, PartitionedBLSM
from repro.records import Record, lookup, resolve

base = Record.base
delta = Record.delta
tombstone = Record.tombstone

#: name -> (the record in C0 or None, the record one component down or
#: None), for the key of the same name.
STACKS = {
    "a base in C0": (base(b"a base in C0", b"v", 7), None),
    "a base one down": (None, base(b"a base one down", b"v", 4)),
    "a delta over a base one down": (
        delta(b"a delta over a base one down", b"+d", 7),
        base(b"a delta over a base one down", b"v", 4),
    ),
    "a delta over a tombstone": (
        delta(b"a delta over a tombstone", b"+d", 7),
        tombstone(b"a delta over a tombstone", 4),
    ),
    "a tombstone newest": (
        tombstone(b"a tombstone newest", 7),
        base(b"a tombstone newest", b"v", 4),
    ),
    "a replayed duplicate delta": (
        delta(b"a replayed duplicate delta", b"+d", 5),
        base(b"a replayed duplicate delta", b"v+d", 7),
    ),
    "a replayed delta at the base's seqno": (
        delta(b"a replayed delta at the base's seqno", b"+d", 7),
        base(b"a replayed delta at the base's seqno", b"v+d", 7),
    ),
    "a dangling delta": (delta(b"a dangling delta", b"+d", 7), None),
    "absent": (None, None),
}

OPTIONS = dict(c0_bytes=64 * 1024, buffer_pool_pages=16)
TREES = {
    "blsm": lambda: BLSM(BLSMOptions(**OPTIONS)),
    "blsm-part": lambda: PartitionedBLSM(BLSMOptions(**OPTIONS)),
    "leveled": lambda: CompactionTree(
        BLSMOptions(compaction_policy="leveled", **OPTIONS)
    ),
}


def expected(name):
    return resolve([r for r in STACKS[name] if r is not None])


def stacked(make):
    """A tree holding every case: the lower records drained into a
    component, then the upper ones in C0."""
    tree = make()
    # Filler in a component below every case, so no stack sits in the
    # bottom component, where a merge drops tombstones.
    for i in range(50):
        tree.put(b"filler%03d" % i, b"f")
    getattr(tree, "compact", tree.drain)()
    for _upper, lower in STACKS.values():
        if lower is not None:
            tree._memtable.put(lower)
    tree.drain()
    for upper, _lower in STACKS.values():
        if upper is not None:
            tree._memtable.put(upper)
    return tree


@pytest.mark.parametrize("engine", list(TREES))
def test_every_stack_reads_as_resolve_over_it(engine):
    tree = stacked(TREES[engine])
    with tree.snapshot() as snap:
        tables = snap._tables
        for name, (upper, lower) in STACKS.items():
            key = name.encode()
            # The stack is in place: the lower record sits on disk.
            below = [t.get(key) for t in tables]
            assert [r for r in below if r is not None] == (
                [] if lower is None else [lower]
            ), name
            assert tree._memtable.get(key) == upper, name
            assert tree.get(key) == expected(name), name
            assert snap.get(key) == expected(name), name
    tree.close()


class Source:
    """One component: a dict of records."""

    def __init__(self, *records):
        self.records = {r.key: r for r in records}

    def get(self, key):
        return self.records.get(key)


@pytest.mark.parametrize("name", list(STACKS))
def test_lookup_over_plain_sources(name):
    key = name.encode()
    upper, lower = STACKS[name]
    sources = [
        Source(*[r for r in (upper,) if r is not None]),
        None,  # an absent component (no C1' yet, say) is skipped
        Source(*[r for r in (lower,) if r is not None]),
    ]
    assert lookup(key, sources) == expected(name)
