"""Tests for the command-line interface."""

import argparse

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_workload_standard_mix(capsys):
    code, out = run_cli(
        capsys,
        "workload", "--engine", "blsm", "--workload", "a",
        "--records", "300", "--ops", "300", "--value-bytes", "100",
    )
    assert code == 0
    assert "engine=bLSM" in out
    assert "load :" in out
    assert "run  :" in out
    assert "io   :" in out


@pytest.mark.parametrize("engine", ["blsm", "blsm-part", "btree", "leveldb"])
def test_workload_all_engines(capsys, engine):
    code, out = run_cli(
        capsys,
        "workload", "--engine", engine,
        "--records", "200", "--ops", "150",
        "--read", "0.5", "--blind-write", "0.5",
        "--value-bytes", "100",
    )
    assert code == 0
    assert "ops/s" in out


def test_workload_custom_proportions_normalized(capsys):
    code, out = run_cli(
        capsys,
        "workload", "--records", "100", "--ops", "100",
        "--read", "3", "--scan", "1", "--value-bytes", "100",
    )
    assert code == 0
    assert "read" in out
    assert "scan" in out


def test_workload_defaults_to_mixed(capsys):
    # No proportions at all: the CLI falls back to a 50/50 mix.
    code, out = run_cli(
        capsys, "workload", "--records", "100", "--ops", "60",
        "--value-bytes", "100",
    )
    assert code == 0
    assert "blind_write" in out


def test_workload_ssd(capsys):
    code, out = run_cli(
        capsys,
        "workload", "--disk", "ssd", "--records", "100", "--ops", "50",
        "--read", "1.0", "--value-bytes", "100",
    )
    assert code == 0
    assert "disk=ssd" in out


def test_load_only(capsys):
    code, out = run_cli(
        capsys, "workload", "--records", "100", "--ops", "0",
        "--value-bytes", "100",
    )
    assert code == 0
    assert "run  :" not in out


def test_parser_rejects_unknown_engine():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["workload", "--engine", "bogus"])


def test_profile_subcommand_is_gone(capsys):
    parser = build_parser()
    with pytest.raises(SystemExit) as excinfo:
        parser.parse_args(["profile"])
    assert excinfo.value.code == 2
    capsys.readouterr()
    (subcommands,) = (
        action.choices for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    # workload, trace, fuzz, crashtest, report and the five scenario
    # rows.  Six subcommands no CI line, scenario or committed result
    # ran are gone: benchmarks/ writes Figure 2 and Table 2, fuzz runs
    # the model checks with the structural invariants, and a seeded
    # workload replays the same op stream on any engine.
    assert len(subcommands) == 10


def test_parser_requires_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_trace_summary_lists_stalls(capsys):
    code, out = run_cli(
        capsys,
        "trace", "--engine", "blsm", "--scheduler", "naive",
        "--records", "300", "--ops", "0", "--value-bytes", "100",
        "--c0-bytes", "16384", "--cache-pages", "16",
    )
    assert code == 0
    assert "trace:" in out and "events" in out
    assert "stall_begin" in out  # event taxonomy listing
    assert "merge_backpressure" in out  # top stall causes
    assert "merge time by level" in out
    assert "c0c1" in out


def test_trace_dump_prints_raw_events(capsys):
    code, out = run_cli(
        capsys,
        "trace", "--engine", "blsm", "--scheduler", "naive",
        "--records", "300", "--ops", "0", "--value-bytes", "100",
        "--c0-bytes", "16384", "--cache-pages", "16",
        "--dump", "--last", "5",
    )
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 5
    assert all(line.startswith("t=") for line in lines)


def test_trace_works_for_every_engine(capsys):
    # Engines without stalls still summarize cleanly.
    code, out = run_cli(
        capsys,
        "trace", "--engine", "bitcask",
        "--records", "100", "--ops", "0", "--value-bytes", "100",
    )
    assert code == 0
    assert "disk_io" in out


def test_crashtest_subcommand_passes(capsys):
    code, out = run_cli(
        capsys,
        "crashtest", "--engine", "blsm", "--ops", "60", "--every", "9",
        "--quiet",
    )
    assert code == 0
    assert "crash-point enumeration" in out
    assert "verdict" in out and "PASS" in out


def test_crashtest_partitioned_engine(capsys):
    code, out = run_cli(
        capsys,
        "crashtest", "--engine", "partitioned", "--ops", "50",
        "--every", "11", "--quiet",
    )
    assert code == 0
    assert "PASS" in out


def test_trace_summary_reports_injected_faults(capsys):
    code, out = run_cli(
        capsys,
        "trace", "--engine", "blsm",
        "--records", "400", "--ops", "200", "--value-bytes", "100",
        "--c0-bytes", "16384", "--cache-pages", "16",
        "--fault-transient", "0.05", "--fault-seed", "3",
    )
    assert code == 0
    assert "faults and recovery hardening:" in out
    assert "transient I/O errors" in out
    assert "retries" in out
    assert "retry backoff" in out


def test_trace_summary_silent_when_healthy(capsys):
    code, out = run_cli(
        capsys,
        "trace", "--engine", "blsm",
        "--records", "200", "--ops", "0", "--value-bytes", "100",
    )
    assert code == 0
    assert "faults and recovery hardening:" not in out


def test_workload_with_fault_flags_completes(capsys):
    code, out = run_cli(
        capsys,
        "workload", "--engine", "blsm",
        "--records", "200", "--ops", "150", "--value-bytes", "100",
        "--blind-write", "1.0",
        "--fault-transient", "0.02", "--fault-latency", "0.001",
    )
    assert code == 0
    assert "run  :" in out


def test_fault_flags_rejected_for_non_blsm_engines(capsys):
    with pytest.raises(SystemExit):
        main([
            "workload", "--engine", "btree",
            "--records", "50", "--ops", "0",
            "--fault-transient", "0.1",
        ])


def test_workload_sharded_engine(capsys):
    code, out = run_cli(
        capsys,
        "workload", "--engine", "sharded", "--shards", "2",
        "--records", "200", "--ops", "150",
        "--read", "0.5", "--blind-write", "0.5",
        "--value-bytes", "100",
    )
    assert code == 0
    assert "ops/s" in out


def test_workload_sharded_range_partitioner(capsys):
    code, out = run_cli(
        capsys,
        "workload", "--engine", "sharded", "--shards", "3",
        "--partitioner", "range",
        "--records", "200", "--ops", "100",
        "--read", "0.6", "--scan", "0.4", "--value-bytes", "100",
    )
    assert code == 0
    assert "scan" in out


def test_trace_sharded_prints_per_shard_rows(capsys):
    code, out = run_cli(
        capsys,
        "trace", "--engine", "sharded", "--shards", "2",
        "--records", "300", "--ops", "100", "--value-bytes", "100",
    )
    assert code == 0
    assert "shards (load balance and utilization):" in out
    assert "shard" in out


def test_bench_reports_speedup(capsys):
    code, out = run_cli(
        capsys,
        "bench", "--records", "400", "--ops", "256", "--batch", "32",
        "--value-bytes", "200", "--c0-bytes", "16384", "--cache-pages", "8",
    )
    assert code == 0
    assert "speedup" in out
    assert "batch" in out


def test_bench_assert_speedup_failure_exits_nonzero(capsys):
    code, out = run_cli(
        capsys,
        "bench", "--records", "400", "--ops", "256", "--batch", "32",
        "--value-bytes", "200", "--c0-bytes", "16384", "--cache-pages", "8",
        "--assert-speedup", "1000",
    )
    assert code == 1
    assert "speedup" in out


def test_bench_without_baseline(capsys):
    code, out = run_cli(
        capsys,
        "bench", "--records", "300", "--ops", "128", "--batch", "16",
        "--value-bytes", "200", "--c0-bytes", "16384", "--cache-pages", "8",
        "--baseline", "none",
    )
    assert code == 0
    assert "speedup" not in out


def test_fuzz_differential_clean(capsys):
    code, out = run_cli(
        capsys, "fuzz", "--ops", "200", "--seed", "0", "--quiet",
    )
    assert code == 0
    assert "all engines agree" in out
    # The default matrix covers every registry engine, a 2-shard
    # config, and the fault-plan config.
    assert "sharded-2" in out
    assert "blsm-faulty" in out


def test_fuzz_with_crash_composition(capsys):
    code, out = run_cli(
        capsys, "fuzz", "--ops", "150", "--seed", "1", "--faults", "all",
        "--crash-every", "80", "--crash-ops", "40", "--quiet",
    )
    assert code == 0
    assert "crash compose" in out


def test_fuzz_engine_subset(capsys):
    code, out = run_cli(
        capsys, "fuzz", "--ops", "150", "--engines", "btree,bitcask",
        "--faults", "none", "--quiet",
    )
    assert code == 0
    assert "btree" in out and "bitcask" in out
    assert "blsm-faulty" not in out


def test_fuzz_corpus_replay(capsys, tmp_path):
    from repro.testing import Trace, TraceOp

    Trace(
        [TraceOp.put(b"k", b"v"), TraceOp.get(b"k")],
        meta={"mode": "differential", "engines": ["btree"]},
    ).save(str(tmp_path / "one.json"))
    code, out = run_cli(capsys, "fuzz", "--corpus", str(tmp_path), "--quiet")
    assert code == 0
    assert "all OK" in out


def test_fuzz_corpus_replay_shipped_corpus(capsys):
    import os

    corpus = os.path.join(os.path.dirname(__file__), "corpus")
    code, out = run_cli(capsys, "fuzz", "--corpus", corpus, "--quiet")
    assert code == 0
    assert "all OK" in out
