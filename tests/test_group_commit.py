"""Leader-based group commit: queue mechanics and the crash matrix.

Covers the :class:`~repro.storage.group_commit.GroupCommitQueue` unit
surface (leader election, follower acknowledgement, amortization
accounting, crash semantics) and the ALICE-style crash matrix over the
GROUP commit path — every force boundary with partially drained commit
groups, verified prefix-consistent after recovery.
"""

import pytest

from repro.core.options import BLSMOptions
from repro.core.tree import BLSM
from repro.faults.crashpoints import enumerate_group_commit_crash_points
from repro.storage.logical_log import DurabilityMode
from repro.testing.differential import default_fuzz_configs


def _group_tree(**overrides) -> BLSM:
    options = BLSMOptions(
        c0_bytes=64 * 1024,
        buffer_pool_pages=16,
        durability=DurabilityMode.GROUP,
        **overrides,
    )
    return BLSM(options)


def _batch(serial: int, ops: int = 1):
    return [
        ("put", b"key-%06d" % (serial * 10 + i), b"value-%06d" % serial)
        for i in range(ops)
    ]


# ---------------------------------------------------------------------------
# Queue mechanics
# ---------------------------------------------------------------------------


def test_single_commit_elects_itself_leader():
    tree = _group_tree()
    ticket = tree.write_batch(_batch(0, ops=2), session=3)
    assert ticket.leader
    assert ticket.durable
    assert ticket.group_size == 1
    assert ticket.session == 3
    assert ticket.durable_lsn >= ticket.last_seqno
    tree.close()


def test_stacked_submits_form_a_group():
    # The first wait=False submit finds the log writer idle and forces
    # alone; everything submitted while that force is in flight stacks
    # into the next group — one force acknowledges all of them together.
    tree = _group_tree()
    queue = tree.stasis.group_commit
    tickets = [
        tree.write_batch(_batch(serial), wait=False) for serial in range(6)
    ]
    leader_alone, stacked = tickets[0], tickets[1:]
    assert leader_alone.leader and leader_alone.group_size == 1
    assert all(not t.durable for t in stacked)
    queue.wait(stacked[-1])
    assert all(t.durable for t in stacked)
    # One leader, the rest followers, all sharing one force's outcome.
    assert sum(1 for t in stacked if t.leader) == 1
    assert {t.group_size for t in stacked} == {len(stacked)}
    assert {t.durable_at for t in stacked} == {stacked[0].durable_at}
    assert {t.durable_lsn for t in stacked} == {stacked[0].durable_lsn}
    assert queue.group_sizes.get(len(stacked)) == 1
    tree.close()


def test_followers_inherit_durability_ordering():
    # Acked tickets form a seqno-prefix: a resolved ticket's durable LSN
    # covers every earlier ticket's records too.
    tree = _group_tree()
    tickets = [
        tree.write_batch(_batch(serial, ops=2), wait=False)
        for serial in range(8)
    ]
    tree.stasis.group_commit.drain()
    for ticket in tickets:
        assert ticket.durable
        assert ticket.durable_lsn >= ticket.last_seqno
    durable_ats = [t.durable_at for t in tickets]
    assert durable_ats == sorted(durable_ats)
    tree.close()


def test_group_commit_amortizes_forces():
    tree = _group_tree()
    queue = tree.stasis.group_commit
    for serial in range(20):
        tree.write_batch(_batch(serial), wait=False)
    queue.drain()
    assert queue.commits == 20
    assert queue.forces < queue.commits
    assert queue.forces_per_commit < 1.0
    assert queue.pending == 0
    tree.close()


def test_empty_commit_range_rejected():
    tree = _group_tree()
    with pytest.raises(ValueError):
        tree.stasis.group_commit.submit(5, 4, 1)
    tree.close()


def test_crash_abandons_unacked_tickets():
    tree = _group_tree()
    queue = tree.stasis.group_commit
    acked = tree.write_batch(_batch(0))
    # The first wait=False submit forces alone on the idle log writer;
    # the next two arrive while that force is in flight and stay queued.
    first = tree.write_batch(_batch(1), wait=False)
    stuck = [
        tree.write_batch(_batch(serial), wait=False) for serial in (2, 3)
    ]
    assert queue.pending == len(stuck)
    tree.stasis.crash()
    assert queue.pending == 0
    assert acked.durable and first.durable
    # Unacked tickets stay unresolved forever: the process died before
    # any force covered them.
    assert all(not t.durable for t in stuck)


def test_wait_charges_queueing_delay_to_the_clock():
    tree = _group_tree()
    clock = tree.stasis.clock
    tree.write_batch(_batch(0))
    ticket = tree.write_batch(_batch(1), wait=False)
    before = clock.now
    tree.stasis.group_commit.wait(ticket)
    assert ticket.durable_at is not None
    assert clock.now >= ticket.durable_at
    assert clock.now >= before
    assert ticket.queue_delay >= 0.0
    tree.close()


# ---------------------------------------------------------------------------
# Crash matrix + fuzz coverage
# ---------------------------------------------------------------------------


def test_group_commit_crash_matrix():
    # Kill the GROUP commit path at every 2nd device access; recovery
    # must be prefix-consistent and no shorter than the acked tickets.
    report = enumerate_group_commit_crash_points(batches=40, every=2)
    assert report.crashes_triggered > 0
    assert report.recoveries_verified == report.crashes_triggered
    assert report.ok, [outcome.detail for outcome in report.failures]


def test_fuzz_matrix_includes_group_commit_config():
    engines = {config.label: config.engine for config in default_fuzz_configs()}
    assert engines["blsm-group"] == "blsm"
    # A filed blsm-part failure replays on blsm-part, not on blsm.
    assert engines["blsm-part"] == engines["blsm-part-group"] == "blsm-part"
