"""Unit tests for the record model and version resolution."""

import pytest

from repro.records import (
    RECORD_HEADER_BYTES,
    Record,
    RecordKind,
    apply_delta,
    fold,
    resolve,
)


def test_constructors_and_kinds():
    base = Record.base(b"k", b"v", 1)
    delta = Record.delta(b"k", b"d", 2)
    tomb = Record.tombstone(b"k", 3)
    assert base.is_base and not base.is_delta
    assert delta.is_delta
    assert tomb.is_tombstone and tomb.value == b""


def test_nbytes_includes_header():
    record = Record.base(b"abc", b"xyzw", 0)
    assert record.nbytes == RECORD_HEADER_BYTES + 3 + 4


def test_apply_delta_appends():
    assert apply_delta(b"base", b"+d") == b"base+d"


def test_resolve_single_base():
    assert resolve([Record.base(b"k", b"v", 1)]) == b"v"


def test_resolve_tombstone_is_none():
    assert resolve([Record.tombstone(b"k", 5)]) is None


def test_resolve_deltas_fold_onto_base_in_order():
    versions = [
        Record.delta(b"k", b"+2", 3),  # newest first
        Record.delta(b"k", b"+1", 2),
        Record.base(b"k", b"v", 1),
    ]
    assert resolve(versions) == b"v+1+2"


def test_resolve_stops_at_tombstone_under_deltas():
    versions = [
        Record.delta(b"k", b"+1", 3),
        Record.tombstone(b"k", 2),
        Record.base(b"k", b"v", 1),
    ]
    assert resolve(versions) is None


def test_resolve_dangling_delta_is_none():
    assert resolve([Record.delta(b"k", b"+1", 1)]) is None


def test_resolve_empty_is_none():
    assert resolve([]) is None


def test_fold_base_supersedes():
    newer = Record.base(b"k", b"new", 2)
    older = Record.base(b"k", b"old", 1)
    assert fold(newer, older) == newer


def test_fold_tombstone_supersedes():
    newer = Record.tombstone(b"k", 2)
    older = Record.base(b"k", b"old", 1)
    assert fold(newer, older).is_tombstone


def test_fold_delta_onto_base_gives_base():
    folded = fold(Record.delta(b"k", b"+d", 2), Record.base(b"k", b"v", 1))
    assert folded.is_base
    assert folded.value == b"v+d"
    assert folded.seqno == 2


def test_fold_delta_onto_delta_stays_delta():
    folded = fold(Record.delta(b"k", b"+2", 3), Record.delta(b"k", b"+1", 2))
    assert folded.is_delta
    assert folded.value == b"+1+2"


def test_fold_delta_onto_tombstone_stays_tombstone():
    # The deletion must keep shadowing older versions in deeper
    # components; a fold that kept only the delta would let reads walk
    # past it and resurrect an older base.
    folded = fold(Record.delta(b"k", b"+d", 2), Record.tombstone(b"k", 1))
    assert folded.is_tombstone
    assert folded.seqno == 2


def test_fold_tracks_coverage():
    base = Record.base(b"k", b"v", 5)
    assert base.coverage_start == 5
    folded = fold(Record.delta(b"k", b"+1", 6), base)
    assert folded.coverage_start == 5
    folded = fold(Record.delta(b"k", b"+2", 9), folded)
    assert folded.coverage_start == 5
    assert folded.seqno == 9
    # A superseding base resets coverage to itself.
    newer = fold(Record.base(b"k", b"fresh", 12), folded)
    assert newer.coverage_start == 12


def test_fold_replay_duplicate_is_noop():
    older = Record.base(b"k", b"v+d", 7, first_seqno=5)
    duplicate = Record.delta(b"k", b"+d", 7)
    assert fold(duplicate, older) is older


def test_resolve_skips_deltas_already_in_base():
    # A replayed delta with seqno <= the base's is already incorporated.
    versions = [
        Record.delta(b"k", b"+d", 7),
        Record.base(b"k", b"v+d", 7, first_seqno=5),
    ]
    assert resolve(versions) == b"v+d"


def test_resolve_dedupes_equal_seqno_deltas():
    versions = [
        Record.delta(b"k", b"+D", 7),
        Record.delta(b"k", b"+D", 7),  # replay duplicate
        Record.base(b"k", b"v", 3),
    ]
    assert resolve(versions) == b"v+D"


def test_fold_mismatched_keys_rejected():
    with pytest.raises(ValueError):
        fold(Record.base(b"a", b"", 2), Record.base(b"b", b"", 1))


def test_fold_then_resolve_matches_resolve_of_chain():
    # Folding during merges must not change what reads resolve.
    chain = [
        Record.delta(b"k", b"+3", 4),
        Record.delta(b"k", b"+2", 3),
        Record.base(b"k", b"v", 2),
        Record.base(b"k", b" old", 1),
    ]
    folded = chain[-1]
    for newer in reversed(chain[:-1]):
        folded = fold(newer, folded)
    assert resolve([folded]) == resolve(chain)


def test_record_kind_values_stable():
    # The manifest persists records; enum values are a durability format.
    assert RecordKind.BASE == 0
    assert RecordKind.DELTA == 1
    assert RecordKind.TOMBSTONE == 2
