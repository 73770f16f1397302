"""Section 2's crossover: where update-in-place starts winning writes.

Analytic half: crossover object sizes per device and write
amplification.  Measured half: sweep the value size on the HDD model
and find where InnoDB's blind-write throughput overtakes bLSM's — the
paper's closing caveat ("we target applications that manage small
pieces of data").
"""

from __future__ import annotations

from benchmarks.conftest import make_blsm, make_btree, report
from repro.analysis import crossover_object_bytes, crossover_table
from repro.sim import DiskModel
from repro.ycsb import WorkloadSpec, load_phase, run_workload

VALUE_SIZES = [1_000, 10_000, 50_000, 200_000, 800_000]


def _blind_write_throughput(make_engine, value_bytes: int) -> float:
    engine = make_engine()
    records = max(40, 2_000_000 // value_bytes)
    load = WorkloadSpec(
        record_count=records, operation_count=0, value_bytes=value_bytes
    )
    load_phase(engine, load, seed=141)
    engine.flush()
    spec = WorkloadSpec(
        record_count=records,
        # Sized with the data: a window smaller than one streaming unit
        # never reaches the device and measures nothing.
        operation_count=max(200, 2 * records),
        blind_write_proportion=1.0,
        value_bytes=value_bytes,
    )
    result = run_workload(engine, spec, seed=142)
    assert result.elapsed_seconds > 0, "the window saw no device time"
    return result.throughput


def _measure():
    sweep = {}
    for value_bytes in VALUE_SIZES:
        sweep[value_bytes] = {
            "bLSM": _blind_write_throughput(make_blsm, value_bytes),
            "InnoDB": _blind_write_throughput(make_btree, value_bytes),
        }
    return crossover_table(), sweep


def test_crossover_object_size(run_once):
    analytic, sweep = run_once(_measure)

    lines = ["analytic crossover object size (update-in-place wins above):"]
    lines.append(
        f"{'device':12s}{'access':>10s}"
        + "".join(f"{'WA=%g' % wa:>12s}" for wa in (4.0, 8.0, 16.0, 32.0))
    )
    for name, access, sizes in analytic:
        row = f"{name:12s}{access * 1e3:8.2f}ms"
        for size in sizes:
            row += (
                f"{'inf':>12s}" if size == float("inf") else f"{size:12,.0f}"
            )
        lines.append(row)
    lines.append("")
    lines.append("measured blind-write throughput (HDD):")
    lines.append(f"{'value bytes':>12s}{'bLSM':>10s}{'InnoDB':>10s}{'winner':>9s}")
    for value_bytes, row in sweep.items():
        winner = "bLSM" if row["bLSM"] >= row["InnoDB"] else "InnoDB"
        lines.append(
            f"{value_bytes:12,d}{row['bLSM']:10.0f}{row['InnoDB']:10.0f}"
            f"{winner:>9s}"
        )
    report("crossover_object_size", lines)

    # Analytic: slower seeks push the crossover up; SSDs pull it down.
    hdd = crossover_object_bytes(DiskModel.hdd(), 8.0)
    ssd = crossover_object_bytes(DiskModel.ssd(), 8.0)
    assert hdd > 5 * ssd
    # Measured: bLSM dominates small objects; InnoDB takes over as the
    # object size grows (Section 2's crossover exists and is visible).
    assert sweep[1_000]["bLSM"] > 3 * sweep[1_000]["InnoDB"]
    biggest = VALUE_SIZES[-1]
    assert sweep[biggest]["InnoDB"] > sweep[biggest]["bLSM"]
    # The measured crossover falls within the analytic ballpark for the
    # HDD profile at this tree's amplification (an order-of-magnitude
    # check, not a point estimate).
    flips = [
        size
        for size in VALUE_SIZES
        if sweep[size]["InnoDB"] > sweep[size]["bLSM"]
    ]
    assert flips, "InnoDB never won: no crossover observed"
    measured_crossover = flips[0]
    analytic_hdd = crossover_object_bytes(DiskModel.hdd(), 8.0)
    assert analytic_hdd / 30 < measured_crossover < analytic_hdd * 30