"""Unit tests for the skip list."""

import random

from hypothesis import given, settings, strategies as st

from repro.memtable import SkipList
from repro.memtable.skiplist import _MAX_LEVEL


def test_insert_and_get():
    sl = SkipList()
    assert sl.insert(b"b", 2) is None
    assert sl.get(b"b") == 2
    assert sl.get(b"a") is None


def test_overwrite_returns_old_value():
    sl = SkipList()
    sl.insert(b"k", 1)
    assert sl.insert(b"k", 2) == 1
    assert sl.get(b"k") == 2
    assert len(sl) == 1


def test_iteration_is_sorted():
    sl = SkipList(seed=3)
    keys = [b"%04d" % i for i in random.Random(0).sample(range(1000), 200)]
    for key in keys:
        sl.insert(key, key)
    assert [k for k, _ in sl] == sorted(keys)


def test_remove():
    sl = SkipList()
    sl.insert(b"a", 1)
    sl.insert(b"b", 2)
    assert sl.remove(b"a") == 1
    assert sl.get(b"a") is None
    assert len(sl) == 1
    assert sl.remove(b"missing") is None


def test_remove_all_then_reuse():
    sl = SkipList()
    for i in range(50):
        sl.insert(b"%02d" % i, i)
    for i in range(50):
        assert sl.remove(b"%02d" % i) == i
    assert len(sl) == 0
    sl.insert(b"new", 99)
    assert sl.get(b"new") == 99


def test_first():
    sl = SkipList()
    assert sl.first() is None
    sl.insert(b"m", 1)
    sl.insert(b"a", 2)
    assert sl.first() == (b"a", 2)


def test_ceiling():
    sl = SkipList()
    for key in (b"b", b"d", b"f"):
        sl.insert(key, key)
    assert sl.ceiling(b"a") == (b"b", b"b")
    assert sl.ceiling(b"d") == (b"d", b"d")
    assert sl.ceiling(b"e") == (b"f", b"f")
    assert sl.ceiling(b"g") is None


def test_iter_from():
    sl = SkipList()
    for i in range(10):
        sl.insert(b"%02d" % i, i)
    assert [v for _, v in sl.iter_from(b"05")] == [5, 6, 7, 8, 9]
    assert list(sl.iter_from(b"99")) == []


def test_contains():
    sl = SkipList()
    sl.insert(b"x", 1)
    assert b"x" in sl
    assert b"y" not in sl


def test_deterministic_given_seed():
    a, b = SkipList(seed=5), SkipList(seed=5)
    for i in range(100):
        a.insert(b"%03d" % i, i)
        b.insert(b"%03d" % i, i)
    assert list(a) == list(b)


def test_large_random_workload_against_dict():
    sl = SkipList(seed=1)
    rng = random.Random(42)
    model = {}
    for _ in range(5000):
        key = b"%03d" % rng.randrange(300)
        action = rng.random()
        if action < 0.6:
            value = rng.randrange(10**6)
            sl.insert(key, value)
            model[key] = value
        elif action < 0.9:
            assert sl.get(key) == model.get(key)
        else:
            assert sl.remove(key) == model.pop(key, None)
    assert [k for k, _ in sl] == sorted(model)
    assert len(sl) == len(model)


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.binary(min_size=1, max_size=8),
            st.integers(0, 2),
            st.binary(max_size=24),
        ),
        max_size=120,
    ),
    probe=st.binary(min_size=1, max_size=8),
)
def test_matches_dict_model(ops, probe):
    sl = SkipList(seed=7)
    model = {}
    for key, op, value in ops:
        if op == 0:
            assert sl.insert(key, value) == model.get(key)
            model[key] = value
        elif op == 1:
            assert sl.get(key) == model.get(key)
        else:
            assert sl.remove(key) == model.pop(key, None)
    assert len(sl) == len(model)
    # Sorted iteration and ordered successor steps are what a merge's
    # single pass and the snowshovel drain depend on.
    ordered = [(key, model[key]) for key in sorted(model)]
    assert list(sl) == ordered
    assert sl.first() == (ordered[0] if ordered else None)
    tail = [pair for pair in ordered if pair[0] >= probe]
    assert sl.ceiling(probe) == (tail[0] if tail else None)
    assert list(sl.iter_from(probe)) == tail


# ---------------------------------------------------------------------------
# The finger: ceiling() searches from where the last one stopped
# ---------------------------------------------------------------------------


def assert_finger_linked(sl):
    """The finger's invariant, checked by walking every level from the
    head: each entry is a node still linked at its level, and the
    rightmost node there whose key is below the finger's key."""
    head = sl._head
    for level in range(_MAX_LEVEL):
        entry = sl._finger[level]
        node = head
        while node is not None and node is not entry:
            node = node.forward[level]
        assert node is entry, f"finger holds an unlinked node at {level}"
        assert entry is head or entry.key < sl._finger_key
        after = entry.forward[level]
        assert after is None or after.key >= sl._finger_key


@settings(max_examples=150, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 63), st.integers(1, 6)),
        max_size=160,
    ),
    seed=st.integers(0, 3),
)
def test_the_finger_stays_on_linked_nodes_through_any_interleaving(ops, seed):
    """A snowshovel-style drain (ceiling at a cursor, remove what it
    found) interleaved with inserts ahead of and behind the cursor,
    overwrites, new runs, removals that do not go through the finger and
    drains to empty, against a dict; after every step the two agree and
    the finger holds only linked nodes."""
    sl = SkipList(seed=seed)
    model = {}
    cursor = b""
    for op, k, n in ops:
        key = b"%02d" % k
        if op == 0:  # insert: ahead of or behind the cursor
            assert sl.insert(key, k) == model.get(key)
            model[key] = k
        elif op == 1 and model:  # overwrite a resident key
            resident = sorted(model)[k % len(model)]
            assert sl.insert(resident, -k) == model[resident]
            model[resident] = -k
        elif op in (2, 3):  # drain n records, or the whole run
            for _ in range(n if op == 2 else len(model) + 1):
                found = sl.ceiling(cursor)
                tail = [x for x in sorted(model) if x >= cursor]
                assert found == ((tail[0], model[tail[0]]) if tail else None)
                if found is None:
                    break
                assert sl.remove(found[0]) == model.pop(found[0])
                cursor = found[0] + b"\x00"
        elif op == 4:  # a new run starts at the bottom of the keyspace
            cursor = b""
        elif op == 5 and model:  # a removal that does not use the finger
            resident = sorted(model)[k % len(model)]
            assert sl.remove(resident) == model.pop(resident)
        elif op == 6 and key > cursor:  # the merge's output moved past key
            cursor = key + b"\x00"
        assert list(sl) == sorted(model.items())
        assert len(sl) == len(model)
        assert_finger_linked(sl)


def test_the_top_level_emptying_under_the_finger():
    sl = SkipList(seed=11)
    for i in range(300):
        sl.insert(b"%03d" % i, i)
    dropped = 0
    while len(sl):
        top = sl._level - 1
        tallest = sl._head.forward[top]
        sl.ceiling(tallest.key + b"\x00")  # the finger rests on it
        assert sl._finger[top] is tallest
        level = sl._level
        assert sl.remove(tallest.key) == int(tallest.key)
        dropped += sl._level < level
        assert_finger_linked(sl)
    assert dropped > 3 and sl._level == 1
    sl.insert(b"new", 1)
    assert sl.ceiling(b"") == (b"new", 1)


def test_an_ascending_drain_searches_from_the_head_once():
    sl = SkipList(seed=2)
    for i in range(500):
        sl.insert(b"%03d" % i, i)
    searches = 0
    find = sl._find_predecessors

    def counting(key):
        nonlocal searches
        searches += 1
        return find(key)

    sl._find_predecessors = counting
    cursor = b"100"
    while (found := sl.ceiling(cursor)) is not None:
        sl.remove(found[0])
        cursor = found[0] + b"\x00"
    assert len(sl) == 100 and searches == 1


def test_random_levels_are_geometric():
    sl = SkipList(seed=0)
    levels = [sl._random_level() for _ in range(40_000)]
    assert min(levels) == 1 and max(levels) <= _MAX_LEVEL
    for k in range(1, 8):  # P(level > k) = 2**-k
        share = sum(level > k for level in levels) / len(levels)
        assert abs(share - 2.0**-k) < 4 * (2.0**-k / len(levels)) ** 0.5
