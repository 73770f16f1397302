"""Ablation (Section 4.2): snowshoveling.

Two measurements:

1. Run-length multipliers from replacement selection — the paper's
   arithmetic: ~2x memory for random arrivals, 1x for reverse-sorted,
   and the entire input for sorted arrivals ("it streams them directly
   to disk").
2. End-to-end insert throughput with snowshoveling on vs off (the off
   configuration freezes C0 into C0', halving the write pool), for
   random and sorted arrival orders.
3. The recovery cost Section 4.4.2 attributes to snowshoveling: after a
   crash at the end of each load, the recovery's virtual time and the
   log bytes it reads.  Snowshoveling drains C0 by key, not by seqno, so
   the writes it leaves un-merged are scattered over the log, and replay
   reads from the oldest of them to the tail.
"""

from __future__ import annotations

import random

from benchmarks.conftest import SCALE, make_blsm, report
from repro.core import BLSM
from repro.memtable import replacement_selection_runs
from repro.memtable.snowshovel import run_length_multiplier
from repro.ycsb import WorkloadSpec, load_phase

_MEMORY_ITEMS = 400
_INPUT_ITEMS = 8000


def _arrivals(order):
    keys = [b"%08d" % i for i in range(_INPUT_ITEMS)]
    if order == "sorted":
        return keys
    if order == "reverse":
        return list(reversed(keys))
    rng = random.Random(23)
    rng.shuffle(keys)
    return keys


def _run_lengths():
    return {
        order: run_length_multiplier(_arrivals(order), _MEMORY_ITEMS)
        for order in ("sorted", "random", "reverse")
    }


def _load_and_recover(snowshovel, ordered):
    """Insert throughput, then crash: recovery ms and log bytes read."""
    engine = make_blsm(snowshovel=snowshovel)
    spec = WorkloadSpec(
        record_count=SCALE.record_count,
        operation_count=0,
        value_bytes=SCALE.value_bytes,
        ordered_inserts=ordered,
    )
    throughput = load_phase(engine, spec, seed=24).throughput
    stasis = engine.tree.stasis
    stasis.crash()
    started, read = stasis.clock.now, stasis.log_disk.stats.bytes_read
    BLSM.recover(stasis, engine.tree.options)
    return {
        "throughput": throughput,
        "recovery_ms": (stasis.clock.now - started) * 1000,
        "log_bytes": stasis.log_disk.stats.bytes_read - read,
    }


def _measure():
    return {
        "multipliers": _run_lengths(),
        **{
            order: {
                "snowshovel": _load_and_recover(True, order == "sorted"),
                "frozen C0'": _load_and_recover(False, order == "sorted"),
            }
            for order in ("random", "sorted")
        },
    }


def test_ablation_snowshovel(run_once):
    results = run_once(_measure)

    multipliers = results["multipliers"]
    lines = ["Run length as a multiple of memory (replacement selection):"]
    for order, value in multipliers.items():
        lines.append(f"  {order:8s} arrivals: {value:8.2f}x")
    lines.append("")
    header = f"{'snowshovel':>12s}{'frozen C0-prime':>17s}"
    lines.append(f"{'insert order':14s}{header}")
    frozen = "frozen C0'"
    for order in ("random", "sorted"):
        lines.append(
            f"{order:14s}{results[order]['snowshovel']['throughput']:12.0f}"
            f"{results[order][frozen]['throughput']:17.0f}"
        )
    lines.append("")
    lines.append("Recovery after a crash at the end of the load:")
    lines.append(f"{'insert order':22s}{header}")
    for order in ("random", "sorted"):
        for metric, label, scale in (
            ("recovery_ms", "recovery ms", 1),
            ("log_bytes", "log KB read", 1 / 1024),
        ):
            lines.append(
                f"{order + ' ' + label:22s}"
                f"{results[order]['snowshovel'][metric] * scale:12.1f}"
                f"{results[order][frozen][metric] * scale:17.1f}"
            )
    report("ablation_snowshovel", lines)

    # Section 4.2's run-length arithmetic.
    assert 1.7 < multipliers["random"] < 2.4
    assert multipliers["reverse"] <= 1.1
    assert multipliers["sorted"] > 10  # one run consumes the whole input
    # Snowshoveling raises write throughput for random arrivals
    # (bigger effective C0 means fewer C1 rewrites per byte).
    random_order = results["random"]
    assert random_order["snowshovel"]["throughput"] > (
        random_order[frozen]["throughput"]
    )
    # Section 4.4.2: C0 is never atomically emptied, so on random inserts
    # snowshoveling leaves more log to replay than a frozen C0' does.
    assert random_order["snowshovel"]["log_bytes"] > (
        random_order[frozen]["log_bytes"]
    )


def test_snowshovel_runs_cover_input(run_once):
    runs = run_once(
        replacement_selection_runs, _arrivals("random"), _MEMORY_ITEMS
    )
    assert sorted(k for run in runs for k in run) == sorted(_arrivals("random"))
