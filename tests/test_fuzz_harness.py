"""Tests of the conformance harness itself: trace format, differential
executor, fault composer, minimizer, and the fuzz loop end-to-end.

The keystone is the honesty test: a deliberately broken engine
(:class:`~repro.testing.BrokenEngine`) must be *caught* by the
differential executor and *shrunk* by the minimizer to a tiny corpus
repro that still fails after a save/load roundtrip.  A harness that
cannot demonstrate that proves nothing by passing.
"""

import random

import pytest

from repro.engines import EngineConfig, build_engine
from repro.testing import (
    BrokenEngine,
    Divergence,
    FuzzConfig,
    Trace,
    TraceOp,
    TraceOracle,
    default_fuzz_configs,
    enumerate_trace_crash_points,
    fuzz,
    format_fuzz_report,
    generate_trace,
    minimize_trace,
    replay_corpus,
    replay_corpus_file,
    run_crash_trace,
    run_differential,
    run_trace,
    trace_access_count,
    write_corpus_file,
)

CONFIG = EngineConfig(c0_bytes=32 * 1024, cache_pages=16)


# ----------------------------------------------------------------------
# Trace format
# ----------------------------------------------------------------------

ALL_KINDS_OPS = [
    TraceOp.put(b"k\x00\xffbin", b"v\x01\xfe"),
    TraceOp.delete(b"gone"),
    TraceOp.delta(b"k\x00\xffbin", b"+d"),
    TraceOp.get(b"k\x00\xffbin"),
    TraceOp.scan(b"a", b"z", 5),
    TraceOp.scan(b""),
    TraceOp.multi_get([b"k\x00\xffbin", b"gone"]),
    TraceOp.batch([
        ("put", b"bk", b"bv"),
        ("delete", b"gone", None),
        ("delta", b"bk", b"+x"),
    ]),
    TraceOp.merge_work(12 * 1024),
    TraceOp.crash(),
]


def test_trace_roundtrips_every_op_kind():
    trace = Trace(list(ALL_KINDS_OPS), meta={"mode": "differential"})
    clone = Trace.from_json(trace.to_json())
    assert clone.ops == trace.ops
    assert clone.meta == trace.meta
    assert clone.to_json() == trace.to_json()


def test_trace_save_load_roundtrip(tmp_path):
    trace = Trace(list(ALL_KINDS_OPS), meta={"mode": "crash", "seed": 3})
    path = str(tmp_path / "t.json")
    trace.save(path)
    assert Trace.load(path).ops == trace.ops


def test_trace_rejects_unknown_format():
    with pytest.raises(ValueError):
        Trace.from_json('{"format": "bogus", "ops": []}')


def test_trace_op_rejects_unknown_kind():
    with pytest.raises(ValueError):
        TraceOp("frobnicate")
    with pytest.raises(ValueError):
        TraceOp.batch([("upsert", b"k", b"v")])


def test_generate_trace_is_deterministic():
    first = generate_trace(400, seed=9)
    second = generate_trace(400, seed=9)
    assert first.to_json() == second.to_json()
    assert generate_trace(400, seed=10).to_json() != first.to_json()
    kinds = {op.kind for op in first}
    # The default mix exercises every differential surface.
    assert {"put", "delete", "get", "scan", "batch",
            "multi_get", "merge_work"} <= kinds


# ----------------------------------------------------------------------
# Oracle + differential executor
# ----------------------------------------------------------------------

def test_oracle_delta_semantics():
    oracle = TraceOracle()
    oracle.expected(TraceOp.put(b"k", b"A"))
    oracle.expected(TraceOp.delta(b"k", b"+1"))
    assert oracle.expected(TraceOp.get(b"k")) == b"A+1"
    oracle.expected(TraceOp.delete(b"k"))
    oracle.expected(TraceOp.delta(b"k", b"+2"))  # delta over tombstone
    assert oracle.expected(TraceOp.get(b"k")) is None
    oracle.expected(TraceOp.delta(b"ghost", b"+3"))  # dangling delta
    assert oracle.expected(TraceOp.get(b"ghost")) is None
    assert oracle.items() == []


def test_differential_all_engines_agree():
    trace = generate_trace(400, seed=1)
    divergences = run_differential(trace)
    assert divergences == []


def test_default_matrix_shape():
    labels = [config.label for config in default_fuzz_configs()]
    assert "blsm" in labels
    assert "sharded-2" in labels       # >= 2 shards, always
    assert "blsm-faulty" in labels     # fault-plan config in the matrix
    restricted = default_fuzz_configs(engines=["btree"],
                                      include_faulted=False)
    assert [config.label for config in restricted] == ["btree"]


def test_run_trace_reports_engine_exception_as_divergence():
    class Exploding(BrokenEngine):
        def get(self, key):
            raise RuntimeError("boom")

    engine = Exploding(build_engine("btree", CONFIG), bug="stale-scan")
    trace = Trace([TraceOp.put(b"k", b"v"), TraceOp.get(b"k")])
    divergence = run_trace(engine, trace, config="exploding")
    assert divergence is not None
    assert "RuntimeError" in divergence.detail


@pytest.mark.parametrize(
    "name, checker",
    [("blsm", "check_blsm_invariants"),
     ("blsm-part", "check_partitioned_invariants")],
)
def test_the_end_of_run_invariant_check_catches_a_planted_fault(name, checker):
    trace = generate_trace(300, seed=2, merge_work_fraction=0.0)
    assert run_trace(build_engine(name, CONFIG), trace) is None
    # The planted fault: a merge_work marker after the trace drains C0
    # and miscounts one on-disk component's keys.  Every answer, the
    # final scan and the snapshot refcounts stay right; only the deep
    # check can see it.
    engine = build_engine(name, CONFIG)
    tree = engine.tree
    hook = "step_m01" if hasattr(tree, "step_m01") else "merge_step"

    def corrupt(budget):
        delattr(tree, hook)  # fire once; drain steps the real merge
        tree.drain()
        tree._live_tables()[0].key_count += 1
        return budget

    setattr(tree, hook, corrupt)
    planted = trace.replace_ops([*trace, TraceOp.merge_work()])
    divergence = run_trace(engine, planted, config=name)
    assert divergence is not None
    assert divergence.op_index == len(planted)
    assert divergence.detail.startswith(checker)
    assert "key count drift" in divergence.detail


def test_the_policy_tree_check_catches_two_swapped_files():
    trace = generate_trace(1500, seed=2, keyspace=2000, value_bytes=100)
    assert run_trace(build_engine("leveldb", CONFIG), trace) is None
    # The planted fault: right after the final scan, two files of a
    # file level trade places.  Reads had already cached their view of
    # the level, so every answer and the final scan were right; only
    # the deep check can see it.
    engine = build_engine("leveldb", CONFIG)
    scan = engine.scan

    def scan_then_swap(lo, *rest):
        rows = list(scan(lo, *rest))
        if not rest:  # run_trace's final full scan
            levels = engine.tree.manager.levels
            files = next(files for files in levels[1:] if len(files) >= 2)
            files[0], files[1] = files[1], files[0]
        return rows

    engine.scan = scan_then_swap
    divergence = run_trace(engine, trace, config="leveldb")
    assert divergence is not None
    assert divergence.op_index == len(trace)
    assert divergence.detail.startswith("check_compaction_invariants")
    assert "files overlap or are out of key order" in divergence.detail


# ----------------------------------------------------------------------
# The honesty test: catch a planted bug, shrink it, file it, replay it
# ----------------------------------------------------------------------

@pytest.mark.parametrize("bug", BrokenEngine.BUGS)
def test_broken_engine_is_caught_and_shrunk(bug, tmp_path):
    config = FuzzConfig(
        f"broken-{bug}",
        "blsm",
        lambda: BrokenEngine(build_engine("blsm", CONFIG), bug=bug),
    )

    def failing(trace):
        return run_trace(
            config.build(), trace, batched=config.batched, config=config.label
        ) is not None

    trace = generate_trace(800, seed=0)
    divergence = run_trace(config.build(), trace, config=config.label)
    assert divergence is not None, f"bug {bug!r} not caught in 800 ops"

    small = minimize_trace(trace, failing)
    assert failing(small)
    assert len(small) <= 25, (
        f"bug {bug!r} shrunk only to {len(small)} ops"
    )

    path = write_corpus_file(small, str(tmp_path), f"repro-{bug}",
                             note=divergence.describe())
    reloaded = Trace.load(path)
    assert reloaded.meta["note"] == divergence.describe()
    assert failing(reloaded), "filed corpus repro no longer fails"


def test_minimizer_respects_probe_budget():
    probes = 0

    def failing(trace):
        nonlocal probes
        probes += 1
        return len(trace) >= 1

    trace = generate_trace(64, seed=2)
    small = minimize_trace(trace, failing, max_probes=10)
    assert probes <= 11
    assert len(small) >= 1


# ----------------------------------------------------------------------
# Fault composer
# ----------------------------------------------------------------------

def crash_trace(seed=4, ops=70):
    return generate_trace(
        ops, seed=seed, keyspace=25, scan_fraction=0.0,
        multi_get_fraction=0.03, merge_work_fraction=0.1,
        crash_fraction=0.06,
    )


def test_crash_markers_recover_and_verify():
    trace = crash_trace()
    assert any(op.kind == "crash" for op in trace)
    failures = run_crash_trace(trace, engine="blsm", seed=4)
    assert failures == []


def test_verify_recovered_flags_lost_acked_write():
    # The composer's durable-prefix check must actually check: a
    # recovered store missing an acked write, or returning a value that
    # is neither the acked nor the in-flight one, gets flagged.
    from repro.testing.composer import _verify_recovered

    class Fake:
        def __init__(self, state):
            self.state = state

        def get(self, key):
            return self.state.get(key)

    failures = []
    _verify_recovered(Fake({}), {b"k": b"acked"}, None, failures, "ctx")
    assert failures and "ctx" in failures[0]

    # In-flight ambiguity: old value, new value both fine; garbage not.
    for value, expect_failure in ((b"acked", False), (b"new", False),
                                  (b"garbage", True)):
        failures = []
        _verify_recovered(
            Fake({b"k": value}), {b"k": b"acked"},
            ("put", b"k", b"new"), failures, "ctx",
        )
        assert bool(failures) == expect_failure, (value, failures)


def test_enumerate_trace_crash_points_small_sweep():
    trace = crash_trace(seed=5, ops=40)
    total = trace_access_count(trace, engine="blsm", seed=5)
    assert total > 0
    stride = max(1, total // 4)
    report = enumerate_trace_crash_points(
        trace, engine="blsm", every=stride, seed=5
    )
    assert report.points_tested >= 3
    assert report.crashes_triggered >= 3
    assert report.ok, [o.failures for o in report.failures]


def test_enumerate_rejects_bad_arguments():
    trace = crash_trace(ops=10)
    with pytest.raises(ValueError):
        enumerate_trace_crash_points(trace, engine="btree")
    with pytest.raises(ValueError):
        enumerate_trace_crash_points(trace, engine="blsm", every=0)


# ----------------------------------------------------------------------
# Fuzz loop + corpus replay
# ----------------------------------------------------------------------

def test_fuzz_end_to_end_clean():
    report = fuzz(rounds=1, ops=250, seed=6, faults="all",
                  crash_every=80, crash_ops=50)
    assert report.ok
    assert report.rounds_run == 1
    assert report.crash_boundaries > 0
    text = format_fuzz_report(report)
    assert "all engines agree" in text
    assert "crash compose" in text


def test_fuzz_rejects_unknown_fault_mode():
    with pytest.raises(ValueError):
        fuzz(rounds=1, ops=10, faults="chaos")


def test_replay_corpus_flags_failing_trace(tmp_path):
    # A trace whose meta pins expectations an engine cannot meet: the
    # replay must report it rather than pass silently. We fabricate the
    # failure by writing a differential trace and then flipping one
    # oracle-visible byte (a get after a put of a different value).
    good = Trace(
        [TraceOp.put(b"k", b"v"), TraceOp.get(b"k")],
        meta={"mode": "differential", "engines": ["btree"]},
    )
    good.save(str(tmp_path / "good.json"))
    results = replay_corpus(str(tmp_path))
    assert results and results[0][1] == []
    # An unreadable file reports instead of raising.
    (tmp_path / "broken.json").write_text("{not json")
    results = dict(replay_corpus(str(tmp_path)))
    assert any(failures for failures in results.values())


def test_replay_corpus_file_unknown_mode(tmp_path):
    trace = Trace([TraceOp.put(b"k", b"v")], meta={"mode": "martian"})
    path = str(tmp_path / "weird.json")
    trace.save(path)
    failures = replay_corpus_file(path)
    assert failures and "martian" in failures[0]


def test_fuzz_with_broken_config_files_minimized_corpus(tmp_path):
    # Wire a broken engine into the differential matrix by hand and run
    # the whole loop: fuzz must report the divergence and file a
    # minimized corpus repro.
    configs = default_fuzz_configs(engines=["blsm", "btree"],
                                  include_faulted=False)
    configs.append(FuzzConfig(
        "planted",
        "blsm",
        lambda: BrokenEngine(build_engine("blsm", CONFIG),
                             bug="drop-tombstone"),
    ))
    from repro.testing.differential import run_differential as run_diff
    from repro.testing.harness import _shrink_and_file

    trace = generate_trace(600, seed=0)
    divergences = run_diff(trace, configs)
    assert [d.config for d in divergences] == ["planted"]
    small, path = _shrink_and_file(
        trace, divergences[0], configs, str(tmp_path), "planted-repro",
        None, 2,
    )
    assert len(small) <= 25
    assert path is not None
    assert Trace.load(path).meta["mode"] == "differential"


@pytest.mark.parametrize(
    "label, engine",
    [
        ("blsm-faulty", "blsm"),
        ("blsm-part-group", "blsm-part"),
        ("sharded-range-2", "sharded"),
    ],
)
def test_filed_repro_replays_on_the_config_that_failed(label, engine, tmp_path):
    from repro.testing.harness import _shrink_and_file

    trace = Trace([TraceOp.put(b"k", b"v"), TraceOp.get(b"k")])
    _, path = _shrink_and_file(
        trace, Divergence(label, 1, "get", b"v", None),
        default_fuzz_configs(), str(tmp_path), "repro", None, 2,
    )
    meta = Trace.load(path).meta
    assert meta["config"] == label
    assert meta["engines"] == [engine]
    replayed = []
    assert replay_corpus_file(path, progress=replayed.append) == []
    # One line per config run: the derived config itself, fault plan
    # and all — not its engine's fault-free family.
    assert [line.split(":")[0].strip() for line in replayed] == [label]


def test_replay_of_a_config_the_matrix_no_longer_has_fails(tmp_path):
    path = str(tmp_path / "stale.json")
    Trace(
        [TraceOp.put(b"k", b"v")],
        meta={"mode": "differential", "engines": ["blsm"],
              "config": "blsm-mt-array"},
    ).save(path)
    failures = replay_corpus_file(path)
    assert failures and "blsm-mt-array" in failures[0]


# ----------------------------------------------------------------------
# Determinism of the whole stack
# ----------------------------------------------------------------------

def test_fuzz_is_deterministic_across_runs():
    first = fuzz(rounds=1, ops=200, seed=12, faults="plans")
    second = fuzz(rounds=1, ops=200, seed=12, faults="plans")
    assert first.ok and second.ok
    assert first.ops_replayed == second.ops_replayed
    assert first.configs == second.configs


# ----------------------------------------------------------------------
# Wall-clock budget guard (the fuzzer must stay cheap enough for CI)
# ----------------------------------------------------------------------

def test_differential_matrix_fits_cpu_budget():
    """The whole matrix (now including the memtable-ablation configs)
    must replay a moderate trace within a *generous* CPU budget.  This
    is the guard against accidental hot-path regressions that would
    silently turn every fuzz run (and CI job) 10x slower: the budget is
    ~6x the typical cost on the reference container, so only a real
    slowdown trips it, never timing noise."""
    import time

    trace = generate_trace(400, seed=21)
    start = time.process_time()
    divergences = run_differential(trace)
    cpu = time.process_time() - start
    assert divergences == []
    assert cpu < 30.0, (
        f"differential replay of 400 ops took {cpu:.1f} CPU-seconds; "
        "the fuzz hot path has regressed"
    )


def test_fuzz_budget_seconds_stops_new_rounds():
    report = fuzz(rounds=50, ops=60, seed=3, faults="none",
                  budget_seconds=0.0)
    assert report.ok
    # The first round always runs (determinism anchor); the budget
    # stops every later round from starting.
    assert report.rounds_run == 1
