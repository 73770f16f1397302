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

The counts are split by layer.  A frame's layer is its ``repro`` module
with the package prefix dropped (``core.merge``, ``storage.logical_log``,
``bloom.filter``); a frame of any other module (the standard library,
``bench``) belongs to the layer of its nearest ``repro`` caller, and one
with none, the loop that drives the ops, to ``HARNESS``.  Each opcode
and each call is booked to the layer of the frame it runs in, so the
layers are self counts and sum exactly to the total.  The layers come
from the frames alone: nothing in ``repro`` exists for the counter.
Each layer's line ends with the ``bench/ledger.py`` row its CPU time is
booked to (``LEDGER_ROWS``), so a count reads next to the traced
benchmark's ``*.self_cpu_ns_per_op`` rows: the log file's, for instance,
next to ``log.force`` and ``sim.logdisk.*``.

A closed-loop workload runs the first ``--ops`` ops of its first timed
segment through ``runner.execute``.  The open-loop ``sessions_ol`` runs
the first ``--ops`` arrivals of its reference-rate segment (300 ops per
virtual second) through ``run_sessions``, with the window width of the
full segment, and the count includes the op generator, the session
queue, group commit and the closing flush.

A closed-loop workload's set-up also builds its op list with one
``OperationGenerator.prepared_operations()`` call, and that call is
counted too, per op it returns (``prepared`` in the report and in
``OPCOUNT.json``): ``setup_s`` is mostly that call on ``read_hot``, so
this is its deterministic count.  ``ingest`` and ``sessions_ol`` prepare
no op list and have no such count.

``--check OPCOUNT.json`` is the committed gate: it re-counts every
workload the file records, at the file's seed and op counts, and exits
1 when any workload's opcodes or calls per op (timed or prepared) rose
by more than ``TOLERANCE`` (1 %) above the recorded count, in total or
in any one layer (a layer's count taken at the top of its 0.1 rounding;
a layer the file does not record counts as a rise from zero), so work
moved from one layer into another fails the gate even when the total
holds.
Counts repeat exactly only on one CPython minor version, so under any
other the check reports the mismatch and passes without counting.  ``--record
OPCOUNT.json`` re-counts the same workloads and rewrites the file —
what a change that moves a count commits, with the reason.

Run:
    python3 tools/opcount.py --workload read_cold --ops 3000 [--seed 0]
    python3 tools/opcount.py --workload sessions_ol --ops 3000 [--seed 0]
    python3 tools/opcount.py --check OPCOUNT.json
    python3 tools/opcount.py --record OPCOUNT.json
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from typing import Any, Callable, Iterator

TOLERANCE = 0.01
"""How far a count may rise above the committed one before ``--check``
fails."""

RESOLUTION = 0.05
"""Half the 0.1 per op to which ``OPCOUNT.json`` records a count."""

HARNESS = "(harness)"
"""The layer of frames with no ``repro`` module on their stack."""

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

LEDGER_ROWS = {
    HARNESS: "ycsb.driver",
    "ycsb.generator": "ycsb.gen",
    "ycsb.distributions": "ycsb.gen",
    "ycsb.runner": "ycsb.driver",
    "ycsb.sessions": "ycsb.sessions",
    "baselines": "core.tree",
    "core.tree": "core.tree",
    "core.kernel": "core.tree",
    "core.scheduler": "core.scheduler",
    "core.merge": "core.merge",
    "memtable": "memtable",
    "bloom": "bloom",
    "sstable": "sstable",
    "storage.buffer": "buffer",
    "storage.pagefile": "pagefile",
    "storage.logical_log": "log",
    "storage.logfile": "log.force, sim.logdisk",
    "storage.wal": "core.merge",
    "storage.stasis": "core.merge",
    "storage.group_commit": "group_commit",
    "sim.disk": "sim.disk, sim.logdisk",
}
"""Layer (or package) -> the ``bench/ledger.py`` row its work is booked
to: the ledger charges unwrapped code to its nearest wrapped caller, so
the manifest WAL's commits land in ``core.merge``.  A layer with no row
of its own (``records``, ``sim.clock``, ``obs.*``) books to its caller's."""


def ledger_row(layer: str) -> str:
    """The ledger row of ``layer``: its own entry, else its package's."""
    parts = layer.split(".")
    while parts:
        row = LEDGER_ROWS.get(".".join(parts))
        if row is not None:
            return row
        parts.pop()
    return "(caller's row)"


def layer_of(frame: Any) -> str:
    """The layer a frame's opcodes and its call are booked to."""
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if module.startswith("repro."):
            return module[6:]
        if module == "repro":
            return module
        frame = frame.f_back
    return HARNESS


def count(run: Callable[[], Any]) -> dict[str, list[int]]:
    """Call ``run()``; return ``{layer: [bytecodes, Python calls]}``."""
    layers: dict[str, list[int]] = {}
    tracers: dict[str, Callable] = {}

    def tracer(cell: list[int]) -> Callable:
        def local(frame: Any, event: str, arg: Any) -> Any:
            if event == "opcode":
                cell[0] += 1
            return local

        return local

    def on_call(frame: Any, event: str, arg: Any) -> Any:
        layer = layer_of(frame)
        local = tracers.get(layer)
        if local is None:
            cell = layers[layer] = [0, 0]
            local = tracers[layer] = tracer(cell)
        layers[layer][1] += 1
        frame.f_trace_opcodes = True
        return local

    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(None)
    return layers


@contextlib.contextmanager
def counting_preparation(counted: list) -> Iterator[None]:
    """While open, every ``OperationGenerator.prepared_operations()``
    call runs under :func:`count`, and ``counted`` gets its
    ``(layers, ops returned)``."""
    from repro.ycsb.generator import OperationGenerator

    original = OperationGenerator.prepared_operations

    def prepared_operations(self: Any, *args: Any, **kwargs: Any) -> Any:
        made: list = []
        layers = count(lambda: made.extend(original(self, *args, **kwargs)))
        counted.append((layers, len(made)))
        return made

    OperationGenerator.prepared_operations = prepared_operations
    try:
        yield
    finally:
        OperationGenerator.prepared_operations = original


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


def per_op(layers: dict[str, list[int]], ops: int) -> dict[str, Any]:
    """``opcodes_per_op`` and ``calls_per_op`` in total and per layer
    (``layers``, the largest first) of ``count``'s result over ``ops``."""
    return {
        "opcodes_per_op": sum(op for op, _ in layers.values()) / ops,
        "calls_per_op": sum(calls for _, calls in layers.values()) / ops,
        "layers": {
            layer: {"opcodes_per_op": op / ops, "calls_per_op": calls / ops}
            for layer, (op, calls) in sorted(
                layers.items(), key=lambda item: (-item[1][0], item[0])
            )
        },
    }


def measure(name: str, ops: int, seed: int) -> tuple[int, dict[str, Any]]:
    """``(ops run, counts)`` of workload ``name``: ``counts`` is
    :func:`per_op` of the ops run, plus, for a workload whose set-up
    prepares its op list, ``prepared``: :func:`per_op` of that
    ``prepared_operations()`` call over the ops it returned."""
    _bootstrap()
    from bench.workloads import make_workload

    workload = make_workload(name, seed, 1.0, 10.0)
    build = open_loop_run if workload.open_loop else closed_loop_run
    prepared: list = []
    with counting_preparation(prepared):
        run, ran = build(workload, ops)
    counts = per_op(count(run), ran)
    if prepared:
        ((layers, made),) = prepared
        counts["prepared"] = per_op(layers, made)
    return ran, counts


def rounded(counts: dict[str, Any]) -> dict[str, Any]:
    """``counts`` as ``OPCOUNT.json`` records them: 0.1 per op."""
    return {
        key: rounded(value) if isinstance(value, dict) else round(value, 1)
        for key, value in counts.items()
    }


def report(name: str, seed: int, ops: int, counts: dict[str, Any]) -> str:
    """The total line, then one line per layer with its share; then the
    same for the prepared op list, if there is one."""
    total = counts["opcodes_per_op"]
    lines = [
        f"{name} seed={seed} ops={ops}: {total:.1f} opcodes/op, "
        f"{counts['calls_per_op']:.1f} calls/op"
    ]
    lines += _layer_lines(counts)
    prepared = counts.get("prepared")
    if prepared is not None:
        lines.append(
            f"prepared_operations(): {prepared['opcodes_per_op']:.1f} "
            f"opcodes/op, {prepared['calls_per_op']:.1f} calls/op"
        )
        lines += _layer_lines(prepared)
    return "\n".join(lines)


def _layer_lines(counts: dict[str, Any]) -> list[str]:
    """One line per layer of ``counts``, with its share of the total."""
    total = counts["opcodes_per_op"]
    lines = []
    width = max(len(layer) for layer in counts["layers"])
    for layer, row in counts["layers"].items():
        share = row["opcodes_per_op"] / total if total else 0.0
        lines.append(
            f"  {layer:<{width}} {row['opcodes_per_op']:9.1f} opcodes/op "
            f"({share:6.1%}) {row['calls_per_op']:7.1f} calls/op"
            f"  -> {ledger_row(layer)}"
        )
    return lines


def interpreter() -> str:
    """The running CPython's minor version, as ``OPCOUNT.json`` records it."""
    return "%d.%d" % sys.version_info[:2]


def _compare(
    where: str, was: dict[str, Any], now: dict[str, Any], slack: float = 0.0
) -> bool:
    """Print ``where``'s two metrics; whether either rose past tolerance.

    ``was`` is recorded to 0.1 per op, so the true count behind it may
    lie up to ``RESOLUTION`` above it.  A layer passes that as
    ``slack``, so that a layer of a few opcodes or calls per op does
    not fail on a rounding flip; a workload's total gets none.
    """
    rose = False
    for metric in ("opcodes_per_op", "calls_per_op"):
        before, after = was.get(metric, 0.0), now[metric]
        verdict = "ok"
        if after > (before + slack) * (1 + TOLERANCE):
            verdict = f"ROSE more than {TOLERANCE:.0%}"
            rose = True
        print(f"{where} {metric}: {before:.1f} -> {after:.1f} {verdict}")
    return rose


def check(path: str) -> int:
    """Re-count what ``path`` records; 1 if any count, in total or in
    one layer, rose past tolerance."""
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
        _ran, now = measure(name, row["ops"], baseline["seed"])
        failed |= _check_counts(name, row, now)
        if "prepared" in now:
            # A prepared op makes two or three calls: a total that small
            # takes the rounding slack a layer does.
            failed |= _check_counts(
                f"{name} prepared",
                row.get("prepared", {}),
                now["prepared"],
                RESOLUTION,
            )
    return 1 if failed else 0


def _check_counts(
    where: str, was: dict[str, Any], now: dict[str, Any], slack: float = 0.0
) -> bool:
    """:func:`_compare` on the total (with ``slack``), then on every
    layer of ``now``."""
    rose = _compare(where, was, now, slack)
    recorded = was.get("layers", {})
    for layer, layer_now in now["layers"].items():
        rose |= _compare(
            f"{where} [{layer}]",
            recorded.get(layer, {}),
            layer_now,
            RESOLUTION,
        )
    return rose


def record(path: str) -> int:
    """Re-count the workloads ``path`` lists and rewrite it."""
    with open(path) as handle:
        baseline = json.load(handle)
    for name, row in baseline["workloads"].items():
        _ran, counts = measure(name, row["ops"], baseline["seed"])
        row.update(rounded(counts))
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
    ops, counts = measure(args.workload, args.ops, args.seed)
    print(report(args.workload, args.seed, ops, counts))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
