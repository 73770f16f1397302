"""Tests for the memory-bounded geometric-bucket histogram
(:class:`repro.obs.metrics.Histogram`)."""

import random

import pytest

from repro.obs.metrics import Histogram
from repro.ycsb import LatencyStats


def test_empty():
    hist = Histogram("lat")
    assert hist.count == 0
    assert hist.mean == 0.0
    assert hist.percentile(99) == 0.0


def test_basic_stats():
    hist = Histogram("lat")
    for value in (0.001, 0.002, 0.003):
        hist.observe(value)
    assert hist.count == 3
    assert hist.mean == pytest.approx(0.002)
    assert hist.max == 0.003


def test_percentiles_track_exact_within_bucket_error():
    hist = Histogram("lat", buckets_per_decade=40)
    exact = LatencyStats()
    rng = random.Random(3)
    for _ in range(20000):
        value = rng.lognormvariate(-7.0, 1.5)  # latency-shaped
        hist.observe(value)
        exact.record(value)
    ratio = 10 ** (1 / 40)
    for p in (50, 90, 99, 99.9):
        estimate = hist.percentile(p)
        truth = exact.percentile(p)
        assert truth / ratio <= estimate <= truth * ratio * 1.01, p


def test_memory_is_bounded():
    hist = Histogram("lat")
    buckets_before = len(hist._counts)
    for i in range(50000):
        hist.observe((i % 1000 + 1) * 1e-6)
    assert len(hist._counts) == buckets_before


def test_out_of_range_values_clamp():
    hist = Histogram("lat", min_value=1e-6, max_value=1.0)
    hist.observe(1e-12)  # below range
    hist.observe(100.0)  # above range: the overflow bucket
    assert hist.count == 2
    assert hist.percentile(0) <= 1e-6
    assert hist.percentile(100) == 100.0  # capped at observed max


def test_invalid_construction():
    with pytest.raises(ValueError):
        Histogram("lat", min_value=0)
    with pytest.raises(ValueError):
        Histogram("lat", min_value=1.0, max_value=1.0)
    with pytest.raises(ValueError):
        Histogram("lat", buckets_per_decade=0)


def test_invalid_percentile():
    with pytest.raises(ValueError):
        Histogram("lat").percentile(-1)
    with pytest.raises(ValueError):
        Histogram("lat").percentile(100.5)
