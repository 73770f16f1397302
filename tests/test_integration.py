"""Integration tests: whole-system scenarios across modules."""

import random

from repro.baselines import BLSMEngine, BTreeEngine, CompactionEngine
from repro.core import BLSM, BLSMOptions
from repro.engines import LEVELDB_OPTIONS
from repro.sim import DiskModel
from repro.ycsb import (
    OpKind,
    WorkloadSpec,
    load_phase,
    run_workload,
    standard_workload,
)


def small_blsm(**overrides):
    defaults = dict(c0_bytes=64 * 1024, buffer_pool_pages=64)
    defaults.update(overrides)
    return BLSMEngine(BLSMOptions(**defaults))


def all_engines():
    return [
        small_blsm(),
        BTreeEngine(buffer_pool_pages=32, page_size=4096),
        CompactionEngine(
            BLSMOptions(
                c0_bytes=16 * 1024,
                level_base_bytes=64 * 1024,
                buffer_pool_pages=32,
                **LEVELDB_OPTIONS,
            )
        ),
    ]


def test_all_engines_agree_on_workload_contents():
    final_states = []
    for engine in all_engines():
        spec = WorkloadSpec(
            record_count=400,
            operation_count=800,
            read_proportion=0.4,
            blind_write_proportion=0.4,
            insert_proportion=0.1,
            delete_proportion=0.1,
            value_bytes=64,
        )
        load_phase(engine, spec, seed=17)
        run_workload(engine, spec, seed=17)
        final_states.append(list(engine.scan(b"")))
    assert final_states[0] == final_states[1] == final_states[2]


def test_standard_workloads_run_on_blsm():
    for name in "abcdef":
        engine = small_blsm()
        spec = standard_workload(
            name, record_count=200, operation_count=300, value_bytes=64
        )
        load_phase(engine, spec)
        result = run_workload(engine, spec)
        assert result.operations == 300


def test_blsm_insert_heavy_has_no_read_io():
    # The load phase is blind inserts: an LSM must not read the disk.
    engine = small_blsm(c0_bytes=32 * 1024)
    spec = WorkloadSpec(record_count=2000, operation_count=0, value_bytes=100)
    load_phase(engine, spec)
    assert engine.io_summary()["data_seeks"] < 50  # only merge chunk seeks


def test_btree_load_is_seek_bound():
    engine = BTreeEngine(buffer_pool_pages=4)
    spec = WorkloadSpec(record_count=1500, operation_count=0, value_bytes=100)
    load_phase(engine, spec)
    engine.flush()
    # Random-order inserts on a tiny pool: seeks scale with inserts
    # (early inserts hit the few-leaf cache, so somewhat under 2x).
    assert engine.seeks() > 1000


def test_ssd_is_faster_than_hdd_for_reads():
    results = {}
    for model in (DiskModel.hdd(), DiskModel.ssd()):
        engine = small_blsm(disk_model=model, c0_bytes=16 * 1024,
                            buffer_pool_pages=4)
        spec = WorkloadSpec(
            record_count=1000, operation_count=500,
            read_proportion=1.0, value_bytes=100,
        )
        load_phase(engine, spec)
        engine.tree.compact()
        results[model.name] = run_workload(engine, spec).throughput
    assert results["ssd"] > 10 * results["hdd"]


def test_workload_shift_recovers_throughput():
    # Figure 9 in miniature: saturating uniform writes, then a Zipfian
    # read-heavy phase; the read phase must stabilize.
    engine = small_blsm(c0_bytes=32 * 1024)
    write_spec = WorkloadSpec(
        record_count=1500, operation_count=0, value_bytes=100
    )
    load_phase(engine, write_spec)
    serve_spec = WorkloadSpec(
        record_count=1500,
        operation_count=1000,
        read_proportion=0.8,
        blind_write_proportion=0.2,
        request_distribution="zipfian",
        value_bytes=100,
    )
    result = run_workload(engine, serve_spec, timeseries_window=0.05)
    throughputs = [t for t in result.timeseries.throughputs() if t > 0]
    assert len(throughputs) >= 2
    assert max(result.latencies[OpKind.READ]._samples) < 1.0


def test_mixed_engine_scan_heavy_workload():
    for engine in all_engines():
        spec = standard_workload(
            "e", record_count=300, operation_count=200, value_bytes=64
        )
        load_phase(engine, spec)
        result = run_workload(engine, spec)
        assert result.operations == 200


def test_full_lifecycle_load_serve_crash_recover_serve():
    from repro.storage import DurabilityMode

    options = BLSMOptions(
        c0_bytes=32 * 1024,
        buffer_pool_pages=32,
        durability=DurabilityMode.SYNC,
    )
    engine = BLSMEngine(options)
    rng = random.Random(1)
    model = {}
    for i in range(2500):
        key = b"user%06d" % rng.randrange(1200)
        value = b"v%06d" % i
        engine.put(key, value)
        model[key] = value
    stasis = engine.tree.stasis
    stasis.crash()
    recovered = BLSM.recover(stasis, options)
    assert all(recovered.get(k) == v for k, v in model.items())
    for i in range(500):
        key = b"user%06d" % rng.randrange(1200)
        recovered.put(key, b"post-crash")
        model[key] = b"post-crash"
    assert all(recovered.get(k) == v for k, v in model.items())
