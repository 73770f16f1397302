"""Unit tests for the Bloom filter."""

import random

import pytest

from repro.bloom import BloomFilter
from repro.bloom.filter import optimal_bits, optimal_hash_count


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
    bloom = BloomFilter(800, 7)
    assert bloom.nbytes == 100


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
