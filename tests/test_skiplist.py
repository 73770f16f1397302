"""Unit tests for the skip list."""

import random

from hypothesis import given, settings, strategies as st

from repro.memtable import SkipList


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
