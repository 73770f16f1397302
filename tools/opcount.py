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

Run:
    python3 tools/opcount.py --workload read_cold --ops 3000 [--seed 0]
    python3 tools/opcount.py --workload sessions_ol --ops 3000 [--seed 0]
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Any, Callable

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


def main(argv: list[str]) -> int:
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from bench.workloads import WORKLOAD_CLASSES, make_workload

    parser = argparse.ArgumentParser(prog="tools/opcount.py")
    parser.add_argument("--workload", required=True, choices=list(WORKLOAD_CLASSES))
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.ops <= 0:
        parser.error("--ops must be positive")
    workload = make_workload(args.workload, args.seed, 1.0, 10.0)
    build = open_loop_run if workload.open_loop else closed_loop_run
    run, ops = build(workload, args.ops)
    opcodes, calls = count(run)
    print(
        f"{args.workload} seed={args.seed} ops={ops}: "
        f"{opcodes / ops:.1f} opcodes/op, {calls / ops:.1f} calls/op"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
