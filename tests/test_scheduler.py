"""Unit and behavioural tests for the merge schedulers."""

import random

import pytest

from repro.core import BLSM, BLSMOptions
from repro.core.partitioned import PartitionedBLSM
from repro.core.scheduler import (
    HEADROOM,
    GearScheduler,
    NaiveScheduler,
    SpringGearScheduler,
    make_scheduler,
)
from repro.obs.runtime import EngineRuntime
from repro.sim import DiskModel
from repro.ycsb.generator import make_key


def test_factory_names():
    assert isinstance(make_scheduler("naive"), NaiveScheduler)
    assert isinstance(make_scheduler("gear"), GearScheduler)
    assert isinstance(make_scheduler("spring_gear"), SpringGearScheduler)
    with pytest.raises(ValueError):
        make_scheduler("bogus")


def test_unattached_scheduler_rejects_use():
    scheduler = make_scheduler("naive")
    with pytest.raises(RuntimeError):
        scheduler.on_write(100)


def test_spring_gear_water_marks_validated():
    with pytest.raises(ValueError):
        SpringGearScheduler(low_water=0.9, high_water=0.5)


def insert_latencies(scheduler, snowshovel, n=8000, c0_bytes=128 * 1024):
    options = BLSMOptions(
        c0_bytes=c0_bytes, scheduler=scheduler, snowshovel=snowshovel
    )
    tree = BLSM(options)
    rng = random.Random(5)
    latencies = []
    for _ in range(n):
        key = b"user%09d" % rng.randrange(10**9)
        before = tree.stasis.clock.now
        tree.put(key, bytes(64))
        latencies.append(tree.stasis.clock.now - before)
    return tree, latencies


def test_spring_gear_keeps_c0_between_watermarks():
    tree, _ = insert_latencies("spring_gear", snowshovel=True)
    # Under steady uniform load C0 must settle inside the banded region.
    assert tree.c0_fill_fraction <= 1.0


def test_spring_gear_bounds_worst_case_stall():
    _, spring = insert_latencies("spring_gear", snowshovel=True)
    _, naive = insert_latencies("naive", snowshovel=False)
    # The headline claim (Table 1): the level scheduler bounds insert
    # latency; the naive scheduler's worst case is far larger.
    assert max(spring) < max(naive)


def test_naive_scheduler_stalls_are_pass_sized():
    tree, latencies = insert_latencies("naive", snowshovel=False)
    # The worst write waited for (at least) an entire C0:C1 pass.
    assert max(latencies) > 20 * (sum(latencies) / len(latencies))


def test_gear_scheduler_paces_merges_without_c0_overflow():
    tree, latencies = insert_latencies("gear", snowshovel=False)
    sizes = tree.component_sizes()
    assert sizes["c1"] > 0  # merges actually ran
    assert max(latencies) < 1.0  # no unbounded stall


def test_spring_gear_pauses_merges_below_low_water():
    options = BLSMOptions(
        c0_bytes=1 << 20, scheduler="spring_gear", low_water=0.5
    )
    tree = BLSM(options)
    for i in range(10):
        tree.put(b"k%02d" % i, bytes(64))
    # Fill is tiny, far below the low water mark: no merge should run.
    assert tree.component_sizes()["c1"] == 0
    assert tree._m01 is None


def test_schedulers_produce_identical_contents():
    results = {}
    for name, snow in (("naive", False), ("gear", False), ("spring_gear", True)):
        options = BLSMOptions(
            c0_bytes=64 * 1024, scheduler=name, snowshovel=snow
        )
        tree = BLSM(options)
        rng = random.Random(77)
        for i in range(3000):
            tree.put(b"key%05d" % rng.randrange(1500), b"v%d" % i)
        tree.drain()
        results[name] = sorted(tree.scan(b""))
    assert results["naive"] == results["gear"] == results["spring_gear"]


class TestPerTickLatencyBound:
    """The scheduler's documented contract: one on_write never performs
    more than ``max_tick_bytes`` of merge work while C0 is below the
    forced-drain threshold.  SpringGearScheduler used to cap its m01
    budget, deficit12 step and blocked-promotion step *independently*,
    spending up to ~2x the cap in one tick."""

    @pytest.mark.parametrize("scheduler", ["gear", "spring_gear"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_on_write_merge_work_bounded(self, scheduler, seed):
        # Large values against a small cap saturate the m01 budget while
        # an m12 deficit is open — the exact state where the pre-fix
        # spring gear double-spent (it reached ~2.6x max_tick here).
        max_tick = 16 * 1024
        value_max = 4096
        options = BLSMOptions(
            c0_bytes=64 * 1024,
            scheduler=scheduler,
            max_tick_bytes=max_tick,
        )
        tree = BLSM(options)
        metrics = tree.runtime.metrics

        def merge_bytes():
            return metrics.value("merge.c0c1.bytes") + metrics.value(
                "merge.c1c2.bytes"
            )

        def full_events():
            return metrics.value("memtable.full_events")

        rng = random.Random(seed)
        # Each of the (at most two) merge steps a tick dispatches may
        # overshoot its budget by the final record it emits, so the
        # documented bound is max_tick plus two worst-case records.
        slack = 2 * (value_max + 64)
        violations = []
        for i in range(4000):
            key = ("k%08d" % rng.randrange(2000)).encode()
            before_bytes = merge_bytes()
            before_full = full_events()
            tree.put(key, bytes(rng.randrange(1024, value_max)))
            worked = merge_bytes() - before_bytes
            if full_events() != before_full:
                continue  # forced drain: the bound deliberately yields
            if worked > max_tick + slack:
                violations.append((i, worked))
        assert not violations, (
            f"{scheduler} exceeded max_tick_bytes={max_tick} "
            f"on {len(violations)} writes, worst={max(v for _, v in violations)}"
        )
        tree.close()


# ----------------------------------------------------------------------
# The spring's budget is in step_m01's unit, and C0 rests where that puts it
# ----------------------------------------------------------------------


class FakeHost:
    """The merge-host surface, recording what the scheduler asks of it."""

    def __init__(self, fill, debt):
        self.c0_fill_fraction = fill
        self.debt = debt
        self.m01_outprogress = 0.0
        self.m12_inprogress = 1.0  # no C1':C2 deficit
        self.m12_input_bytes = 1
        self.budgets = []
        self.runtime = EngineRuntime()

    def m01_debt_per_byte(self):
        return self.debt

    def step_m01(self, budget):
        self.budgets.append(budget)
        return budget

    def step_m12(self, budget):
        raise AssertionError("no C1':C2 work is due")


@pytest.mark.parametrize("fill", [0.36, 0.5, 0.6875, 0.9, 0.97])
def test_spring_budget_is_headroom_times_pressure_times_debt(fill):
    scheduler = SpringGearScheduler()
    host = FakeHost(fill, debt=3.4)
    scheduler.attach(host)
    scheduler.on_write(1000)
    pressure = min(1.0, (fill - 0.35) / (0.90 - 0.35))
    assert host.budgets == [int(HEADROOM * pressure * 3.4 * 1000) + 1]


def test_spring_budget_is_capped_and_idle_at_low_water():
    scheduler = SpringGearScheduler(max_tick_bytes=4096)
    host = FakeHost(0.9, debt=3.4)
    scheduler.attach(host)
    scheduler.on_write(100_000)
    assert host.budgets == [4096]
    for fill in (0.0, 0.2, 0.35):
        idle = FakeHost(fill, debt=3.4)
        scheduler.attach(idle)
        scheduler.on_write(1000)
        assert idle.budgets == []


def test_spring_rests_at_one_over_headroom():
    # Break-even pressure is 1 / HEADROOM: the fill the docs quote.
    rest = 0.35 + (0.90 - 0.35) / HEADROOM
    assert rest == pytest.approx(0.69, abs=0.005)


@pytest.mark.parametrize("snowshovel", [True, False])
def test_blsm_debt_is_pass_input_per_c0_byte_drained(snowshovel):
    tree = BLSM(BLSMOptions(c0_bytes=256 * 1024, snowshovel=snowshovel))
    keys = [make_key(i, False) for i in range(1500)]
    for key in keys:
        tree.put(key, bytes(1000))
    c1 = tree.component_sizes()["c1"]
    assert c1 > 0
    if snowshovel:
        run = 2 * tree._memtable.nbytes
    else:
        while tree._frozen is None:  # land between a freeze and its pass
            tree.put(keys.pop(), bytes(1000))
        run = tree._frozen.nbytes
        c1 = tree.component_sizes()["c1"]
    assert tree.m01_debt_per_byte() == pytest.approx((run + c1) / run)
    assert not hasattr(tree, "write_amplification_estimate")


def shuffled_load(tree, c0_bytes, value_bytes):
    """12 x C0 of shuffled inserts; C0's fill after each one."""
    keys = [make_key(i, False) for i in range(12 * c0_bytes // value_bytes)]
    random.Random(3).shuffle(keys)
    fills = []
    for key in keys:
        tree.put(key, bytes(value_bytes))
        fills.append(tree.c0_fill_fraction)
    return fills


REST_CELLS = [
    (c0_kib, disk, 1000)
    for c0_kib in (256, 1024, 2048)
    for disk in ("hdd", "ssd")
] + [(256, "hdd", 100)]


@pytest.mark.parametrize("c0_kib,disk,value_bytes", REST_CELLS)
def test_c0_rests_two_thirds_of_the_way_up(c0_kib, disk, value_bytes):
    """C0's fill is a design point: 0.35 + 0.55 / HEADROOM = 0.69.

    With the budget in the wrong unit (merge I/O handed to a step that
    spends input bytes) the spring broke even at pressure 0.12 and C0
    sat at 0.40-0.42 on every one of these cells.
    """
    c0_bytes = c0_kib * 1024
    model = DiskModel.hdd() if disk == "hdd" else DiskModel.ssd()
    tree = BLSM(BLSMOptions(c0_bytes=c0_bytes, disk_model=model))
    fills = shuffled_load(tree, c0_bytes, value_bytes)
    settled = fills[len(fills) // 2:]
    assert 0.62 <= sum(settled) / len(settled) <= 0.78
    one_record = (value_bytes + 64) / c0_bytes
    assert max(fills) <= tree.options.high_water + one_record
    assert tree.runtime.metrics.value("writes.stalls", 0.0) == 0


def test_partitioned_spring_spends_the_same_unit(monkeypatch):
    """``merge_step`` gets HEADROOM x pressure x debt x nbytes too.

    The partitioned tree has one merge worker, and a C1p:C2p merge
    drains nothing from C0, so its fill swings around a mean instead of
    resting: the mean rises (0.46 at the doubled budget), fill never
    passes capacity, and a write stalls at most once per C1p:C2p merge.
    """
    c0_bytes = 1 << 20
    tree = PartitionedBLSM(BLSMOptions(c0_bytes=c0_bytes))
    first = []
    merge_step = tree.merge_step

    def recording_step(budget):
        if not first:
            first.append(
                (budget, tree.c0_fill_fraction, tree._merge_debt_per_byte())
            )
        return merge_step(budget)

    monkeypatch.setattr(tree, "merge_step", recording_step)
    fills = shuffled_load(tree, c0_bytes, 1000)
    budget, fill, debt = first[0]
    nbytes = tree._memtable.nbytes // len(tree._memtable)  # uniform records
    pressure = (fill - 0.35) / (0.90 - 0.35)
    assert budget == int(HEADROOM * pressure * debt * nbytes) + 1
    settled = fills[len(fills) // 2:]
    assert 0.50 <= sum(settled) / len(settled) <= 0.78
    assert max(fills) <= 1.0 + 1064 / c0_bytes
    metrics = tree.runtime.metrics
    assert metrics.value("writes.stalls", 0.0) <= metrics.value(
        "merge.c1c2.passes"
    )


def test_spring_gear_is_the_fastest_scheduler_with_the_lowest_tail():
    """The scheduler ablation's order, at a size a unit test can run.

    "Bounds write latency without impacting throughput": on the same
    uniform load spring+gear finishes no later than the naive scheduler
    and its worst write is no worse.
    """
    rows = {}
    for name, snowshovel in (("naive", False), ("spring_gear", True)):
        tree = BLSM(
            BLSMOptions(
                c0_bytes=512 * 1024, scheduler=name, snowshovel=snowshovel
            )
        )
        keys = [make_key(i, False) for i in range(6000)]
        random.Random(21).shuffle(keys)
        worst = 0.0
        for key in keys:
            before = tree.stasis.clock.now
            tree.put(key, bytes(1000))
            worst = max(worst, tree.stasis.clock.now - before)
        rows[name] = (len(keys) / tree.stasis.clock.now, worst)
    assert rows["spring_gear"][0] >= rows["naive"][0]
    assert rows["spring_gear"][1] <= rows["naive"][1]
