#!/usr/bin/env python3
"""Log-shipping replication with degraded durability (Section 4.4.2).

bLSM's no-logging durability mode exists for exactly this: "after a
crash, older (up to a well-defined point in time) updates are
available, but recent updates may be lost.  These semantics are useful
for high-throughput replication" — the replica's durability comes from
the *shipped log*, not a local one (bLSM grew out of Rose, a
log-structured replication engine).

This example runs a primary that ships its operation stream (a
``repro-trace-v1`` document, :class:`repro.testing.Trace`), and a
replica applying it with ``DurabilityMode.NONE``.  The replica then
crashes: everything its merges made durable survives; the lost tail is
re-applied by replaying the shipped log from the replica's recovery
point.

Run:
    python examples/replication.py
"""

import random

from repro import BLSM, BLSMOptions, DurabilityMode
from repro.testing import Trace, TraceOp

UPDATES = 4000
KEYSPACE = 1200


def apply(tree: BLSM, op: TraceOp) -> None:
    if op.kind == "put":
        tree.put(op.key, op.value)
    elif op.kind == "delete":
        tree.delete(op.key)


def main() -> None:
    rng = random.Random(3)

    # --- primary: generate writes and ship them as a trace -------------
    primary = BLSM(BLSMOptions(c0_bytes=64 * 1024))
    shipped = Trace()
    for i in range(UPDATES):
        key = b"row%05d" % rng.randrange(KEYSPACE)
        if rng.random() < 0.9:
            op = TraceOp.put(key, b"v%06d" % i)
        else:
            op = TraceOp.delete(key)
        apply(primary, op)
        shipped.ops.append(op)
    wire = shipped.to_json()
    print(
        f"primary: applied {UPDATES} updates, shipped "
        f"{len(wire) / 1024:.1f} KB of log"
    )

    # --- replica: apply with no local logging --------------------------
    replica_options = BLSMOptions(
        c0_bytes=64 * 1024, durability=DurabilityMode.NONE
    )
    replica = BLSM(replica_options)
    applied = 0
    for op in Trace.from_json(wire):
        apply(replica, op)
        applied += 1
    log_mb = replica.stasis.log_disk.stats.bytes_written / 1e6
    print(
        f"replica: applied {applied} updates with durability=none "
        f"({log_mb:.2f} MB of local log written — manifests only)"
    )

    # --- replica crash + catch-up ---------------------------------------
    expected = dict(primary.scan(b""))
    stasis = replica.stasis
    stasis.crash()
    recovered = BLSM.recover(stasis, replica_options)
    after_crash = dict(recovered.scan(b""))
    lost = {
        k: v for k, v in expected.items() if after_crash.get(k) != v
    }
    print(
        f"replica crash: {len(after_crash)} rows durable, "
        f"{len(lost)} rows stale/missing (the un-merged tail)"
    )

    # Catch up by replaying the shipped log from the recovery point —
    # replay is idempotent thanks to blind base/tombstone writes.
    for op in Trace.from_json(wire):
        apply(recovered, op)
    caught_up = dict(recovered.scan(b""))
    assert caught_up == expected
    print(f"replayed shipped log: replica now matches primary "
          f"({len(caught_up)} rows) — zero local commit latency paid")


if __name__ == "__main__":
    main()
