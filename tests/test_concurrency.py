"""Tests for the deterministic multi-device concurrency layer.

Covers the ``busy_until`` queueing semantics on :class:`SimDisk`, the
:class:`Timeline` a writer behind the foreground runs on (the log
device's), RAID-0 striping via :class:`StripedDisk`, and the engine-level
criterion: a seeded write-heavy run over a dedicated log device, whose
ASYNC appends run behind on the log writer, is deterministic and reports
where the devices' time went.
"""

import random

import pytest

from repro.core import BLSM, BLSMOptions
from repro.errors import DeviceFullError
from repro.faults import FaultPlan, FaultRule
from repro.obs import EngineRuntime
from repro.sim import DiskModel, SimDisk, StripedDisk, Timeline, VirtualClock
from repro.storage import DurabilityMode

MIB = 1024 * 1024


class TestBusyHorizon:
    def test_foreground_access_on_idle_device_has_no_wait(self):
        clock = VirtualClock()
        disk = SimDisk(DiskModel.hdd(), clock)
        latency = disk.write(0, 1 * MIB)
        expected = DiskModel.hdd().write_access_seconds + (
            1 * MIB / DiskModel.hdd().seq_write_bandwidth
        )
        assert latency == pytest.approx(expected)
        assert clock.now == pytest.approx(expected)
        assert disk.stats.queue_wait_seconds == 0.0
        assert disk.busy_until == pytest.approx(clock.now)

    def test_background_access_leaves_clock_untouched(self):
        clock = VirtualClock()
        disk = SimDisk(DiskModel.hdd(), clock, name="hdd-log")
        worker = Timeline("log-writer")
        with clock.running_on(worker):
            latency = disk.write(0, 4 * MIB)
        assert clock.now == 0.0
        assert worker.now == pytest.approx(latency)
        assert disk.busy_until == pytest.approx(latency)
        assert disk.stats.bg_busy_seconds == pytest.approx(latency)

    def test_foreground_queues_behind_background_horizon(self):
        clock = VirtualClock()
        disk = SimDisk(DiskModel.hdd(), clock, name="hdd-log")
        worker = Timeline("log-writer")
        with clock.running_on(worker):
            disk.write(0, 4 * MIB)
        horizon = disk.busy_until
        assert horizon > 0.0
        # The next synchronous request, issued at clock time 0, starts
        # only when the device drains: latency = queue wait + service.
        latency = disk.read(8 * MIB, 4096)
        service = DiskModel.hdd().read_access_seconds + (
            4096 / DiskModel.hdd().seq_read_bandwidth
        )
        assert latency == pytest.approx(horizon + service)
        assert clock.now == pytest.approx(horizon + service)
        assert disk.stats.queue_wait_seconds == pytest.approx(horizon)

    def test_wait_and_busy_split_by_requester(self):
        runtime = EngineRuntime()
        disk = SimDisk(
            DiskModel.hdd(), runtime.clock, name="hdd-log", runtime=runtime
        )
        worker = Timeline("log-writer")
        with runtime.clock.running_on(worker):
            disk.write(0, 2 * MIB)
        disk.read(4 * MIB, 4096)
        metrics = runtime.metrics
        bg = metrics.value(f"disk.{disk.name}.bg_busy_seconds")
        fg = metrics.value(f"disk.{disk.name}.fg_busy_seconds")
        wait = metrics.value(f"disk.{disk.name}.fg_wait_seconds")
        assert bg > 0.0 and fg > 0.0
        assert bg + fg == pytest.approx(
            metrics.value(f"disk.{disk.name}.busy_seconds")
        )
        assert wait == pytest.approx(bg)  # queued behind the whole append

    def test_device_summary_reports_utilization_and_backlog(self):
        runtime = EngineRuntime()
        disk = SimDisk(
            DiskModel.hdd(), runtime.clock, name="hdd-log", runtime=runtime
        )
        worker = Timeline("log-writer")
        with runtime.clock.running_on(worker):
            disk.write(0, 2 * MIB)
        rows = runtime.device_summary()
        assert len(rows) == 1
        row = rows[0]
        # Clock never moved, so the window is the device horizon and the
        # device was busy for all of it (minus nothing — one access).
        assert row["utilization"] == pytest.approx(1.0)
        assert row["backlog_seconds"] == pytest.approx(disk.busy_until)
        assert row["bg_busy_seconds"] > 0.0
        assert row["fg_busy_seconds"] == pytest.approx(0.0)


class TestTimeline:
    def test_monotone_advance(self):
        timeline = Timeline("w")
        assert timeline.advance_to(2.0) == 2.0
        assert timeline.advance_to(1.0) == 2.0  # never moves back
        assert timeline.now == 2.0

    def test_catch_up_and_busy(self):
        clock = VirtualClock()
        timeline = Timeline("w")
        clock.advance(5.0)
        assert not timeline.busy(clock)
        assert timeline.advance_to(clock.now) == 5.0
        assert not timeline.busy(clock)
        timeline.advance_to(7.5)
        assert timeline.busy(clock)
        clock.advance_to(8.0)
        assert not timeline.busy(clock)

    def test_running_on_nests_and_restores(self):
        clock = VirtualClock()
        outer, inner = Timeline("outer"), Timeline("inner")
        assert clock.active_timeline is None
        with clock.running_on(outer):
            assert clock.active_timeline is outer
            with clock.running_on(inner):
                assert clock.active_timeline is inner
            assert clock.active_timeline is outer
        assert clock.active_timeline is None

    def test_running_on_restores_when_the_block_raises(self):
        clock = VirtualClock()
        outer, inner = Timeline("outer"), Timeline("inner")
        with clock.running_on(outer):
            with pytest.raises(KeyError):
                with clock.running_on(inner) as active:
                    assert active is inner
                    raise KeyError("propagates")
            assert clock.active_timeline is outer
        assert clock.active_timeline is None


class TestStripedDisk:
    def test_validation(self):
        clock = VirtualClock()
        with pytest.raises(ValueError):
            StripedDisk(DiskModel.hdd_member(), clock, stripes=1)
        with pytest.raises(ValueError):
            StripedDisk(DiskModel.hdd_member(), clock, stripes=2, chunk_bytes=0)

    def test_split_round_robin(self):
        clock = VirtualClock()
        disk = StripedDisk(
            DiskModel.hdd_member(), clock, stripes=2, chunk_bytes=4096
        )
        # Four logical chunks deal 0,1,0,1 across the two members, each
        # landing at the member offset of its stripe row.
        runs = disk._split(0, 16384)
        assert runs == [
            (0, 0, 4096),
            (1, 0, 4096),
            (0, 4096, 4096),
            (1, 4096, 4096),
        ]
        # A misaligned access touches only the chunks it covers.
        assert disk._split(6144, 4096) == [(1, 2048, 2048), (0, 4096, 2048)]

    def test_sequential_bandwidth_scales_with_stripes(self):
        model = DiskModel.hdd_member()
        clock_one = VirtualClock()
        single = SimDisk(model, clock_one)
        clock_two = VirtualClock()
        striped = StripedDisk(model, clock_two, stripes=2, chunk_bytes=512 * 1024)
        single_latency = single.write(0, 8 * MIB)
        striped_latency = striped.write(0, 8 * MIB)
        # Both members stream half the bytes in parallel.
        assert striped_latency < 0.6 * single_latency

    def test_completion_is_slowest_member(self):
        clock = VirtualClock()
        disk = StripedDisk(
            DiskModel.hdd_member(), clock, stripes=3, chunk_bytes=4096
        )
        disk.write(0, 10 * 4096)
        assert disk.busy_until == pytest.approx(
            max(member.busy_until for member in disk.members)
        )
        assert clock.now == pytest.approx(disk.busy_until)

    def test_members_not_double_registered(self):
        runtime = EngineRuntime()
        disk = StripedDisk(
            DiskModel.hdd_member(),
            runtime.clock,
            stripes=2,
            runtime=runtime,
            name="data",
        )
        assert runtime.disks == [disk]
        assert [m.name for m in disk.members] == ["data.m0", "data.m1"]

    def test_capacity_enforced_on_logical_space(self):
        clock = VirtualClock()
        disk = StripedDisk(
            DiskModel.hdd_member(),
            clock,
            stripes=2,
            chunk_bytes=4096,
            capacity_bytes=64 * 1024,
        )
        disk.write(0, 64 * 1024)
        with pytest.raises(DeviceFullError):
            disk.write(64 * 1024, 1)

    def test_byte_totals_match_logical_access(self):
        clock = VirtualClock()
        disk = StripedDisk(
            DiskModel.hdd_member(), clock, stripes=2, chunk_bytes=4096
        )
        disk.write(1024, 3 * 4096)
        assert disk.stats.bytes_written == 3 * 4096
        assert (
            sum(m.stats.bytes_written for m in disk.members) == 3 * 4096
        )


def _write_heavy_run(options, n_ops=4000, seed=11):
    """Seeded write-heavy workload; per-op latency is the clock delta."""
    tree = BLSM(options)
    clock = tree.stasis.clock
    rng = random.Random(seed)
    latencies = []
    for i in range(n_ops):
        key = ("user%07d" % rng.randrange(2500)).encode()
        value = bytes(rng.randrange(256, 512))
        before = clock.now
        tree.put(key, value)
        latencies.append(clock.now - before)
    elapsed = clock.now
    summary = tree.stasis.io_summary()
    tree.close()
    return latencies, elapsed, summary


class TestBackgroundMergeAcceptance:
    """A dedicated log device under ASYNC: the log writer's appends run
    behind the foreground (the one background requester; merges are
    budgeted steps on the caller's clock), reproducibly."""

    OVERLAPPED = dict(
        c0_bytes=64 * 1024,
        scheduler="spring_gear",
        durability=DurabilityMode.ASYNC,
        log_disk_model=DiskModel.hdd(),
    )

    def test_same_seed_runs_are_identical(self):
        first = _write_heavy_run(BLSMOptions(**self.OVERLAPPED))
        second = _write_heavy_run(BLSMOptions(**self.OVERLAPPED))
        assert first[0] == second[0]  # every single latency
        assert first[1] == second[1]
        assert first[2] == second[2]

    def test_io_summary_reports_attribution(self):
        _, _, summary = _write_heavy_run(
            BLSMOptions(**self.OVERLAPPED), n_ops=1500
        )
        for key in (
            "fg_busy_seconds",
            "bg_busy_seconds",
            "fg_wait_seconds",
            "data_utilization",
            "log_utilization",
        ):
            assert key in summary
        assert 0.0 <= summary["data_utilization"] <= 1.0
        assert 0.0 <= summary["log_utilization"] <= 1.0
        # Only the log writer's appends ran behind the foreground.
        assert summary["bg_busy_seconds"] > 0.0


class TestEngineIntegration:
    def test_striped_data_device_runs_and_helps_merges(self):
        base = BLSMOptions(c0_bytes=128 * 1024)
        striped = BLSMOptions(c0_bytes=128 * 1024, data_stripes=2)
        _, base_elapsed, _ = _write_heavy_run(base, n_ops=2000)
        _, striped_elapsed, _ = _write_heavy_run(striped, n_ops=2000)
        # Merge I/O streams from both members in parallel.
        assert striped_elapsed < base_elapsed

    def test_fault_injection_rejected_on_striped_data(self):
        plan = FaultPlan(
            [FaultRule(kind="transient", probability=0.5)], seed=3
        )
        with pytest.raises(ValueError, match="striped data device"):
            BLSM(BLSMOptions(data_stripes=2, fault_plan=plan))
