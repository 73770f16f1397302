#!/usr/bin/env python3
"""Count bytecodes and Python calls per op: a deterministic CPU proxy.

Host CPU time on a shared box moves by tens of percent between runs of
the same code; the number of bytecodes the interpreter executes does
not.  This tool builds one of the benchmark's workloads exactly as
``bench/run.py`` does (``bench.workloads``: engine, load, warm-up), then
runs the first ``--ops`` ops of its first timed segment under
``sys.settrace`` with opcode events on and prints, per op, how many
bytecodes ran and how many Python frames were entered (a generator
resumption counts as one).  Two checkouts compared on the same workload,
seed and op count give a before/after that repeats exactly; it says
nothing about time spent in C code or waiting.

Run:
    python3 tools/opcount.py --workload read_cold --ops 3000 [--seed 0]
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def count(engine: Any, ops: list[Any]) -> tuple[int, int]:
    """Run ``ops`` against ``engine``; return (bytecodes, Python calls)."""
    from repro.ycsb.runner import execute

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
        for op in ops:
            execute(engine, op)
    finally:
        sys.settrace(None)
    return opcodes, calls


def main(argv: list[str]) -> int:
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from bench.workloads import WORKLOAD_CLASSES, make_workload

    closed_loop = [
        name for name, cls in WORKLOAD_CLASSES.items() if not cls.open_loop
    ]
    parser = argparse.ArgumentParser(prog="tools/opcount.py")
    parser.add_argument("--workload", required=True, choices=closed_loop)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.ops <= 0:
        parser.error("--ops must be positive")
    workload = make_workload(args.workload, args.seed, 1.0, 10.0)
    ctx = workload.setup(0)
    ops = workload.segment_ops(ctx, 0)[: args.ops]
    opcodes, calls = count(ctx.engine, ops)
    print(
        f"{args.workload} seed={args.seed} ops={len(ops)}: "
        f"{opcodes / len(ops):.1f} opcodes/op, {calls / len(ops):.1f} calls/op"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
