"""Unit tests for the Bloom filter."""

import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.bloom import BloomFilter
from repro.bloom.filter import optimal_bits, optimal_hash_count
from repro.records import Record
from tests.test_bloom_deferred import closed_form_bits


def test_no_false_negatives():
    bloom = BloomFilter.for_capacity(1000)
    keys = [b"key%d" % i for i in range(1000)]
    for key in keys:
        bloom.add(key)
    assert all(key in bloom for key in keys)


def test_false_positive_rate_below_target():
    # Section 3.1: sizing for 1% false positives.
    bloom = BloomFilter.for_capacity(5000, false_positive_rate=0.01)
    for i in range(5000):
        bloom.add(b"member%d" % i)
    trials = 20000
    rng = random.Random(7)
    hits = sum(
        1
        for _ in range(trials)
        if b"absent%d" % rng.randrange(10**9) in bloom
    )
    assert hits / trials < 0.02  # target 1%, allow slack


def test_empty_filter_rejects_everything():
    bloom = BloomFilter.for_capacity(100)
    assert b"anything" not in bloom
    assert bloom.expected_false_positive_rate() == 0.0


def test_sizing_is_about_ten_bits_per_key():
    bloom = BloomFilter.for_capacity(10000, false_positive_rate=0.01)
    bits_per_key = bloom.nbits / 10000
    assert 9.0 < bits_per_key < 10.5
    assert bloom.nhashes == 7


def test_memory_footprint_tracks_bits():
    # The packed footprint, ceil(nbits / 8), whatever the host holds.
    bloom = BloomFilter(800, 7)
    assert bloom.nbytes == 100
    assert BloomFilter(801, 7).nbytes == 101
    bloom = BloomFilter.for_capacity(10000)
    assert 9.0 < 8 * bloom.nbytes / 10000 < 10.5


def test_expected_fpr_grows_with_load():
    bloom = BloomFilter.for_capacity(100)
    for i in range(50):
        bloom.add(b"k%d" % i)
    half = bloom.expected_false_positive_rate()
    for i in range(50, 200):
        bloom.add(b"k%d" % i)
    overloaded = bloom.expected_false_positive_rate()
    assert overloaded > half


def test_double_hashing_determinism():
    a = BloomFilter(1024, 5)
    b = BloomFilter(1024, 5)
    a.add(b"key")
    b.add(b"key")
    assert (b"key" in a) == (b"key" in b)
    assert a.to_bytes() == b.to_bytes()


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        BloomFilter(0, 1)
    with pytest.raises(ValueError):
        BloomFilter(10, 0)
    with pytest.raises(ValueError):
        optimal_bits(100, 1.5)


def test_optimal_bits_monotone_in_capacity():
    assert optimal_bits(1000, 0.01) < optimal_bits(10000, 0.01)


def test_optimal_hash_count_bounds():
    assert optimal_hash_count(100, 0) == 1
    assert optimal_hash_count(960, 100) == 7


def test_counts_insertions():
    bloom = BloomFilter.for_capacity(10)
    bloom.add(b"a")
    bloom.add(b"a")
    assert bloom.ninserted == 2


def tiles_per_filter(nhashes):
    """T = 1 + ceil((k - 1) / 2): the host copies of a filter's bits."""
    return 1 + math.ceil((nhashes - 1) / 2)


def closed_form_answer(key, bits, nbits, nhashes):
    """``key in`` a filter whose packed bits are ``bits``, by the closed form."""
    mask = closed_form_bits([key], nbits, nhashes)
    return all(have & need == need for have, need in zip(bits, mask))


# nbits = 1 makes every step 0; an even nbits reaches the step m / 2,
# the edge of the short way round; 4099 is the digest test's prime.
NBITS = st.one_of(
    st.sampled_from([1, 2, 3, 64, 65, 4099]),
    st.integers(1, 5000),
    st.integers(1, 500).map(lambda n: BloomFilter.for_capacity(n).nbits),
)


@settings(max_examples=300)
@given(
    NBITS,
    st.integers(1, 12),
    st.lists(st.binary(max_size=12), max_size=60, unique=True),
    st.lists(st.binary(max_size=12), max_size=30),
)
@example(1, 7, [b"a"], [b"b"])
@example(2, 7, [b"a", b"b"], [b"c"])
@example(4, 3, [b"a", b"b", b"c"], [b"d", b"e"])
def test_answers_and_bytes_equal_the_closed_form(nbits, nhashes, members, others):
    bloom = BloomFilter(nbits, nhashes)
    bloom.update(members)
    expected = closed_form_bits(members, nbits, nhashes)
    assert bloom.to_bytes() == expected
    loaded = BloomFilter.from_bytes(nbits, nhashes, bloom.to_bytes())
    assert loaded.to_bytes() == expected
    for key in members + others:
        answer = closed_form_answer(key, expected, nbits, nhashes)
        assert (key in bloom) == (key in loaded) == answer
    assert all(key in bloom for key in members)


def test_a_filter_holds_its_host_bits_only_once_read():
    """Simulated bytes are packed; host bytes are T tiles of a byte per
    bit, allocated at the first probe or persist and never before."""
    for nhashes in range(1, 13):
        probed = BloomFilter(1000, nhashes)
        probed.add(b"k")
        persisted = BloomFilter(1000, nhashes)
        persisted.defer([Record.base(b"k", b"v", 0)])
        idle = BloomFilter(1000, nhashes)
        idle.defer([Record.base(b"k", b"v", 0)])
        assert idle._tiles is None and persisted._tiles is None
        assert b"k" in probed
        persisted.to_bytes()
        tiles = tiles_per_filter(nhashes)
        for bloom in (probed, persisted):
            assert len(bloom._tiles) == tiles * 1000
            assert bloom.nbytes == 125
        assert idle._tiles is None and idle.nbytes == 125

