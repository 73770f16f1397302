"""Leader-based group commit: queue mechanics and the crash matrix.

Covers the :class:`~repro.storage.group_commit.GroupCommitQueue` unit
surface (leader election, follower acknowledgement, amortization
accounting, crash semantics) and the ALICE-style crash matrix over the
GROUP commit path — every force boundary with partially drained commit
groups, verified prefix-consistent after recovery.
"""

from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.options import BLSMOptions
from repro.core.tree import BLSM
from repro.errors import CrashPoint
from repro.faults.crashpoints import (
    CrashOutcome,
    _verify_prefix_consistent,
    crash_plan,
    enumerate_group_commit_crash_points,
    registry,
)
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


# ---------------------------------------------------------------------------
# A crash leaves a prefix of the writes, under GROUP and ASYNC
# ---------------------------------------------------------------------------

_KEY = st.integers(0, 5)  # a small keyspace: overwrites are common
_CRASH_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), _KEY, st.integers(1, 400)),
        st.tuples(st.just("put"), _KEY, st.integers(1, 400)),
        st.tuples(st.just("delete"), _KEY),
        st.tuples(st.just("batch"), _KEY, st.integers(1, 3)),
        st.tuples(st.just("wait")),
        st.tuples(st.just("merge"), st.integers(1, 16 * 1024)),
        st.tuples(st.just("force")),
    ),
    min_size=20,
    max_size=200,
)


def _crash_run(mode, ops, point):
    """Drive ``ops`` on a crash-configured tree of ``mode``, armed to
    die at device access ``point`` (``None``: only count).  Returns the
    tree, the plan, the records submitted (each before the call that
    submits it) and how many of them are acked: by a completed
    ``flush_log`` or a resolved ticket (the durable LSN is monotone)."""
    plan = crash_plan(point, seed=0)
    tree = BLSM(replace(registry().crash_options(plan), durability=mode))
    applied, tickets = [], []
    flushed = 0
    plan.arm()
    try:
        for serial, op in enumerate(ops):
            kind = op[0]
            if kind in ("put", "delete"):
                key = b"k%02d" % op[1]
                value = bytes([serial % 256]) * op[2] if kind == "put" else None
                applied.append((kind, key, value))
                if kind == "put":
                    tree.put(key, value)
                else:
                    tree.delete(key)
            elif kind == "batch":
                batch = [
                    ("put", b"k%02d" % ((op[1] + i) % 6), b"b%d" % serial)
                    for i in range(op[2])
                ]
                applied.extend(batch)
                ticket = tree.write_batch(batch, serial % 4, wait=False)
                tickets.append((len(applied), ticket))
            elif kind == "wait" and tickets:
                tree.stasis.group_commit.wait(tickets[-1][1])
            elif kind == "merge":
                tree.step_m01(op[1])
            else:
                tree.flush_log()
                flushed = len(applied)
    except CrashPoint:
        pass
    finally:
        plan.disarm()
    acked = [n for n, ticket in tickets if ticket.durable_at is not None]
    return tree, plan, applied, max([flushed, *acked])


# Found by this property before the manifest WAL and the logical log
# shared one file: ``flush_log`` makes a put of k00 durable, an unforced
# put overwrites it in C0, and the merge step that completes drops the
# forced record at its checkpoint (the overwrite covers the key).  A
# crash at the last access then recovered an older value of k00 from C1.
_OVERWRITE_THEN_CHECKPOINT = [
    ("put", 0, 1), ("put", 0, 1), ("put", 0, 1), ("put", 0, 1),
    ("put", 0, 1), ("wait",), ("put", 0, 1), ("batch", 0, 1),
    ("merge", 1), ("batch", 0, 1), ("delete", 0), ("wait",), ("wait",),
    ("delete", 0), ("batch", 0, 1), ("put", 0, 1), ("force",),
    ("put", 0, 1), ("merge", 1), ("put", 0, 1),
]


@pytest.mark.parametrize("mode", [DurabilityMode.GROUP, DurabilityMode.ASYNC])
@settings(max_examples=60, deadline=None)
@given(ops=_CRASH_OPS, data=st.data())
@example(ops=_OVERWRITE_THEN_CHECKPOINT, data=None)
def test_a_crash_recovers_a_prefix_no_shorter_than_what_was_acked(
    mode, ops, data
):
    total = _crash_run(mode, ops, None)[1].access_count
    if total == 0:
        return
    points = range(1, total + 1)
    if data is None:  # the pinned case: every access
        chosen = list(points)
    else:
        chosen = [data.draw(st.sampled_from(points), label="crash at")]
    for point in chosen:
        tree, _plan, applied, floor = _crash_run(mode, ops, point)
        tree.stasis.crash()
        recovered = registry().recover_crash_tree(
            "blsm", tree.stasis, tree.options
        )
        outcome = CrashOutcome(point)
        _verify_prefix_consistent(recovered, applied, floor, outcome)
        assert outcome.ok, (point, outcome.failures)
