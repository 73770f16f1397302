#!/usr/bin/env python3
"""Count bytecodes and Python calls per op: a deterministic CPU proxy.

Host CPU time on a shared box moves by tens of percent between runs of
the same code; the number of bytecodes the interpreter executes does
not.  This tool builds one of the benchmark's workloads exactly as
``bench/run.py`` does (``bench.workloads``: engine, load, warm-up), then
runs its first ``--ops`` ops under ``sys.settrace`` with opcode events
on and prints, per op, how many bytecodes ran and how many Python frames
were entered (a generator resumption counts as one).  Two checkouts
compared on the same workload, seed and op count give a before/after
that repeats exactly; it says nothing about time spent in C code or
waiting.

A closed-loop workload runs the first ``--ops`` ops of its first timed
segment through ``runner.execute``.  The open-loop ``sessions_ol`` runs
the first ``--ops`` arrivals of its reference-rate segment (300 ops per
virtual second) through ``run_sessions``, with the window width of the
full segment, and the count includes the op generator, the session
queue, group commit and the closing flush.

``--check OPCOUNT.json`` is the committed gate: it re-counts every
workload the file records, at the file's seed and op counts, and exits
1 when any workload's opcodes or calls per op rose by more than
``TOLERANCE`` (1 %).  Counts repeat exactly only on one CPython minor
version, so under any other the check reports the mismatch and passes
without counting.  ``--record OPCOUNT.json`` re-counts the same
workloads and rewrites the file — what a change that moves a count
commits, with the reason.

Run:
    python3 tools/opcount.py --workload read_cold --ops 3000 [--seed 0]
    python3 tools/opcount.py --workload sessions_ol --ops 3000 [--seed 0]
    python3 tools/opcount.py --check OPCOUNT.json
    python3 tools/opcount.py --record OPCOUNT.json
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Any, Callable

TOLERANCE = 0.01
"""How far a count may rise above the committed one before ``--check``
fails."""

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def count(run: Callable[[], Any]) -> tuple[int, int]:
    """Call ``run()``; return the (bytecodes, Python calls) it took."""
    opcodes = calls = 0

    def local(frame: Any, event: str, arg: Any) -> Any:
        nonlocal opcodes
        if event == "opcode":
            opcodes += 1
        return local

    def on_call(frame: Any, event: str, arg: Any) -> Any:
        nonlocal calls
        calls += 1
        frame.f_trace_opcodes = True
        return local

    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(None)
    return opcodes, calls


def closed_loop_run(workload: Any, ops: int) -> tuple[Callable[[], Any], int]:
    """The first ``ops`` ops of segment 0, one ``execute`` each."""
    from repro.ycsb.runner import execute

    ctx = workload.setup(0)
    engine = ctx.engine
    stream = workload.segment_ops(ctx, 0)[:ops]

    def run() -> None:
        for op in stream:
            execute(engine, op)

    return run, len(stream)


def open_loop_run(workload: Any, ops: int) -> tuple[Callable[[], Any], int]:
    """The first ``ops`` arrivals of the reference-rate sessions run."""
    from bench.workloads import REFERENCE_RATE, SESSIONS
    from repro.ycsb.sessions import run_sessions

    ctx = workload.setup(workload.traced_segment)
    full = ctx.spec.operation_count
    ops = min(ops, full)
    spec = dataclasses.replace(ctx.spec, operation_count=ops)
    # run_sessions sizes its windows from the op count; keep the full
    # segment's width so the prefix files its samples the same way.
    window = max(1e-9, max(1, full) / REFERENCE_RATE / 12.0)

    def run() -> None:
        run_sessions(
            ctx.engine, spec, REFERENCE_RATE, sessions=SESSIONS,
            arrival="poisson", seed=workload.seed, window_seconds=window,
        )

    return run, ops


def _bootstrap() -> None:
    """Make the checkout's ``repro`` and ``bench`` importable."""
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


def measure(name: str, ops: int, seed: int) -> tuple[int, float, float]:
    """``(ops run, opcodes per op, calls per op)`` of workload ``name``."""
    _bootstrap()
    from bench.workloads import make_workload

    workload = make_workload(name, seed, 1.0, 10.0)
    build = open_loop_run if workload.open_loop else closed_loop_run
    run, ran = build(workload, ops)
    opcodes, calls = count(run)
    return ran, opcodes / ran, calls / ran


def interpreter() -> str:
    """The running CPython's minor version, as ``OPCOUNT.json`` records it."""
    return "%d.%d" % sys.version_info[:2]


def check(path: str) -> int:
    """Re-count what ``path`` records; 1 if any count rose past tolerance."""
    with open(path) as handle:
        baseline = json.load(handle)
    if baseline["python"] != interpreter():
        print(
            f"version mismatch: {path} was counted on CPython "
            f"{baseline['python']}, this is {interpreter()}; not compared"
        )
        return 0
    failed = False
    for name, row in baseline["workloads"].items():
        _ran, opcodes, calls = measure(name, row["ops"], baseline["seed"])
        for metric, now in (("opcodes_per_op", opcodes), ("calls_per_op", calls)):
            was = row[metric]
            verdict = "ok"
            if now > was * (1 + TOLERANCE):
                verdict = f"ROSE more than {TOLERANCE:.0%}"
                failed = True
            print(f"{name} {metric}: {was:.1f} -> {now:.1f} {verdict}")
    return 1 if failed else 0


def record(path: str) -> int:
    """Re-count the workloads ``path`` lists and rewrite it."""
    with open(path) as handle:
        baseline = json.load(handle)
    for name, row in baseline["workloads"].items():
        _ran, opcodes, calls = measure(name, row["ops"], baseline["seed"])
        row["opcodes_per_op"] = round(opcodes, 1)
        row["calls_per_op"] = round(calls, 1)
    baseline["python"] = interpreter()
    with open(path, "w") as handle:
        json.dump(baseline, handle, indent=2)
        handle.write("\n")
    return 0


def main(argv: list[str]) -> int:
    _bootstrap()
    from bench.workloads import WORKLOAD_CLASSES

    parser = argparse.ArgumentParser(prog="tools/opcount.py")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=list(WORKLOAD_CLASSES))
    mode.add_argument("--check", metavar="OPCOUNT.json")
    mode.add_argument("--record", metavar="OPCOUNT.json")
    parser.add_argument("--ops", type=int)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.check is not None:
        return check(args.check)
    if args.record is not None:
        return record(args.record)
    if args.ops is None or args.ops <= 0:
        parser.error("--workload needs a positive --ops")
    ops, opcodes, calls = measure(args.workload, args.ops, args.seed)
    print(
        f"{args.workload} seed={args.seed} ops={ops}: "
        f"{opcodes:.1f} opcodes/op, {calls:.1f} calls/op"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
