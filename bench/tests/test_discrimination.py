"""The workload pair separates a device-charge change from a read-CPU
change: burning CPU in SimDisk.write slows ``ingest`` and shows up in
the device layer's self time, leaves ``read_hot`` inside its bound, and
changes no virtual-clock result anywhere."""

from __future__ import annotations

import time
from contextlib import contextmanager

from bench import run as bench_run
from bench import spec
from repro.sim.disk import SimDisk

# The issue suggested 2 us, but SimDisk.write runs only ~0.1 times per
# ingested key (merges write 256 KB runs), so 2 us per call is 0.3 % of
# an op and invisible; 1 ms per call is unmistakable.
SPIN_US = 1000


@contextmanager
def slow_disk_writes(spin_us: int):
    original = SimDisk.write

    def write(self, offset, nbytes):
        until = time.perf_counter_ns() + spin_us * 1000
        while time.perf_counter_ns() < until:
            pass
        return original(self, offset, nbytes)

    SimDisk.write = write
    try:
        yield
    finally:
        SimDisk.write = original


def _best(report: dict) -> float:
    """Fastest segment: CPU noise only ever slows a segment down."""
    return max(row["ops_per_cpu_s"] for row in report["segments"])


def _run(name: str, scale: float, trace: bool = False) -> dict:
    return bench_run.run_workload(
        name, 0, 10.0, scale, trace=trace, write_spans=False
    )


def test_device_cpu_change_moves_ingest_not_read_hot() -> None:
    base = {
        "ingest": _run("ingest", 0.05),
        "read_hot": _run("read_hot", 0.1),
        "traced": _run("ingest", 0.05, trace=True),
    }
    with slow_disk_writes(SPIN_US):
        slow = {
            "ingest": _run("ingest", 0.05),
            "read_hot": _run("read_hot", 0.1),
            "traced": _run("ingest", 0.05, trace=True),
        }
    # This sandbox has slow spells; they only ever slow a run down, so a
    # side may be re-measured.
    bound = spec.E2E_BY_NAME["host_ops_per_cpu_s"].bound
    for _ in range(3):
        if _best(slow["read_hot"]) > (1 - bound) * _best(base["read_hot"]):
            break
        with slow_disk_writes(SPIN_US):
            again = _run("read_hot", 0.1)
        assert again["sim_signature"] == slow["read_hot"]["sim_signature"]
        if _best(again) > _best(slow["read_hot"]):
            slow["read_hot"] = again
    assert SimDisk.write.__name__ == "write" and not hasattr(
        SimDisk.write, "__wrapped__"
    )
    # The mechanism's workload slows down, well beyond its bound ...
    assert _best(slow["ingest"]) < 0.8 * _best(base["ingest"])
    # ... and the ledger says where.
    layer = "sim.disk.self_cpu_ns_per_op"
    assert (
        slow["traced"]["per_layer"][layer]["value"]
        > 5 * base["traced"]["per_layer"][layer]["value"]
    )
    # The bypass workload issues no device writes: inside its bound.
    assert _best(slow["read_hot"]) > (1 - bound) * _best(base["read_hot"])
    # A change meant only to speed (or slow) the simulator leaves every
    # virtual-clock result and every exact count identical.
    for key in base:
        assert base[key]["sim_signature"] == slow[key]["sim_signature"], key
    for metric in spec.END_TO_END:
        if metric.clock == "sim":
            for name in ("ingest", "read_hot"):
                assert (
                    base[name]["end_to_end"][metric.name]["value"]
                    == slow[name]["end_to_end"][metric.name]["value"]
                ), (name, metric.name)
    for metric in spec.PER_LAYER:
        if metric.exact:
            assert (
                base["traced"]["per_layer"][metric.name]["value"]
                == slow["traced"]["per_layer"][metric.name]["value"]
            ), metric.name
