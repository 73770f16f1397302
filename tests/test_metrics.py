"""Unit tests for latency statistics and timeseries."""

import pytest

from repro.ycsb import LatencyStats, Timeseries


class TestLatencyStats:
    def test_empty(self):
        stats = LatencyStats()
        assert stats.count == 0
        assert stats.mean == 0.0
        assert stats.max == 0.0
        assert stats.percentile(99) == 0.0

    def test_mean_and_max(self):
        stats = LatencyStats()
        for value in (1.0, 2.0, 3.0):
            stats.record(value)
        assert stats.mean == pytest.approx(2.0)
        assert stats.max == 3.0

    def test_mean_does_not_depend_on_sample_order(self):
        # percentile() sorts the samples in place; a plain sum() then
        # rounds differently, so reading p99 first moved the mean.
        import random

        rng = random.Random(0)
        samples = [rng.expovariate(1000.0) for _ in range(2000)]
        stats, shuffled = LatencyStats(), LatencyStats()
        for value in samples:
            stats.record(value)
        for value in rng.sample(samples, len(samples)):
            shuffled.record(value)
        before = stats.mean
        stats.percentile(99)
        assert stats.mean == before == shuffled.mean

    def test_percentiles_nearest_rank(self):
        stats = LatencyStats()
        for value in range(1, 101):
            stats.record(float(value))
        assert stats.percentile(50) == 50.0
        assert stats.percentile(99) == 99.0
        assert stats.percentile(100) == 100.0
        assert stats.percentile(0) == 1.0

    def test_recording_after_percentile_query(self):
        stats = LatencyStats()
        stats.record(5.0)
        assert stats.percentile(50) == 5.0
        stats.record(1.0)
        assert stats.percentile(0) == 1.0

    def test_invalid_percentile(self):
        with pytest.raises(ValueError):
            LatencyStats().percentile(101)

    def test_summary_keys(self):
        stats = LatencyStats()
        stats.record(1.0)
        summary = stats.summary()
        for key in ("count", "mean", "p50", "p95", "p99", "max"):
            assert key in summary

    def test_running_max_tracks_every_record(self):
        stats = LatencyStats()
        for value in (3.0, 7.0, 2.0, 5.0):
            stats.record(value)
            assert stats.max == max(stats._samples)
        # max survives the lazy sort percentile() performs
        stats.percentile(50)
        assert stats.max == 7.0

    def test_merge_preserves_samples_and_max(self):
        a, b = LatencyStats(), LatencyStats()
        for value in (1.0, 9.0):
            a.record(value)
        for value in (4.0, 2.0):
            b.record(value)
        a.merge(b)
        assert a.count == 4
        assert a.max == 9.0
        assert a.percentile(100) == 9.0
        b2 = LatencyStats()
        b2.record(20.0)
        a.merge(b2)
        assert a.max == 20.0


class TestTimeseries:
    def test_windows_partition_time(self):
        series = Timeseries(window_seconds=1.0)
        series.record(0.5, 0.01)
        series.record(1.5, 0.02)
        series.record(1.9, 0.04)
        assert len(series.windows) == 2
        assert series.throughputs() == [1.0, 2.0]

    def test_gap_windows_are_empty(self):
        series = Timeseries(window_seconds=1.0)
        series.record(0.0, 0.01)
        series.record(3.5, 0.01)
        assert len(series.windows) == 4
        assert series.throughputs()[1] == 0.0

    def test_latency_aggregation(self):
        series = Timeseries(window_seconds=1.0)
        series.record(0.1, 0.010)
        series.record(0.2, 0.030)
        window = series.windows[0]
        assert window.mean_latency == pytest.approx(0.020)
        assert window.latency_max == pytest.approx(0.030)
        assert series.max_latencies() == [pytest.approx(0.030)]

    def test_rows_shape(self):
        series = Timeseries(window_seconds=0.5)
        series.record(0.1, 0.01)
        rows = series.rows()
        assert rows[0][0] == 0.0
        assert rows[0][1] == pytest.approx(2.0)


class TestPartialFinalWindow:
    """Regression: the final partial window must not show a spurious
    throughput dip from dividing by the full window length."""

    def test_partial_window_is_scaled(self):
        series = Timeseries(window_seconds=1.0)
        # Steady 4 ops/sec for 1.25 seconds of observation.
        for i in range(5):
            series.record(i * 0.25, 0.01)
        series.end_time = 1.25
        throughputs = series.throughputs()
        assert throughputs[0] == pytest.approx(4.0)
        # Final window observed one op in 0.25s: 4 ops/sec, not 1.
        assert throughputs[-1] == pytest.approx(4.0)
        assert series.rows()[-1][1] == pytest.approx(4.0)

    def test_without_end_time_windows_are_full(self):
        series = Timeseries(window_seconds=1.0)
        series.record(0.5, 0.01)
        assert series.throughputs() == [1.0]

    def test_end_time_on_window_boundary_changes_nothing(self):
        series = Timeseries(window_seconds=1.0)
        series.record(0.5, 0.01)
        series.record(1.5, 0.01)
        series.end_time = 2.0
        assert series.throughputs() == [1.0, 1.0]

    def test_full_windows_unaffected_by_end_time(self):
        series = Timeseries(window_seconds=1.0)
        for t in (0.1, 0.9, 1.1, 2.05):
            series.record(t, 0.01)
        series.end_time = 2.1
        throughputs = series.throughputs()
        assert throughputs[0] == pytest.approx(2.0)
        assert throughputs[1] == pytest.approx(1.0)
        assert throughputs[2] == pytest.approx(10.0)

    def test_window_duration_clamps_to_positive(self):
        series = Timeseries(window_seconds=1.0)
        series.record(0.5, 0.01)
        # A bogus end_time at/before the window start falls back to the
        # full window rather than dividing by zero.
        series.end_time = 0.0
        assert series.throughputs() == [1.0]
