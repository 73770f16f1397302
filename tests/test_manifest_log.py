"""The manifest log: version edits folded over a self-sized base.

``Stasis.commit_manifest`` logs what changed since the previous commit
(scalars, new components in full, kept ones by tree id) and rewrites
the full manifest once the edits since the last base reach its size;
``recover_manifest`` folds the edits over the newest base.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.btree_engine import BTreeEngine
from repro.engines import CRASH_ENGINE_NAMES, build_crash_tree, recover_crash_tree
from repro.errors import CrashPoint
from repro.faults.plan import FaultPlan, FaultRule
from repro.storage import Stasis
from repro.storage.wal import record_bytes


def component(tree_id, nblocks):
    return {
        "tree_id": tree_id,
        "blocks": tuple((tree_id, block) for block in range(nblocks)),
        "key_count": 7 * nblocks,
        "bloom": None,
    }


def kinds(stasis):
    return [record.kind for record in stasis.wal.records()]


def replay_bound_holds(stasis):
    """Replay reads at most two full manifests plus one edit."""
    records = list(stasis.wal.records())
    base, last = records[0], records[-1]
    assert base.kind == "manifest"
    return sum(r.nbytes for r in records) <= 2 * base.nbytes + last.nbytes


# ----------------------------------------------------------------------
# Random commit sequences, one crash at a drawn log access
# ----------------------------------------------------------------------

_steps = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove", "move", "bump", "persist"]),
        st.integers(0, 3),  # slot
        st.integers(0, 3),  # second slot / level
        st.integers(1, 40),  # blocks of a new component
    ),
    min_size=1,
    max_size=30,
)


def manifests(steps):
    """The manifest after each step: four slots and a level of runs."""
    slots = [None] * 4
    level = []
    next_id = 1
    seqno = 0
    out = []
    for op, a, b, nblocks in steps:
        if op == "add":
            new = component(next_id, nblocks)
            next_id += 1
            if b == 3:
                level.append(new)
            else:
                slots[a] = new
        elif op == "remove":
            if b == 3 and level:
                level.pop(a % len(level))
            else:
                slots[a] = None
        elif op == "move":
            slots[a], slots[b] = slots[b], slots[a]
        elif op == "persist" and slots[a] is not None:
            # Same tree id, new entry: it must be logged in full again.
            slots[a] = dict(slots[a], bloom={"extent": (a, nblocks)})
        seqno += nblocks
        out.append(
            {
                "next_seqno": seqno,
                "next_tree_id": next_id,
                "r": 2.0 + a / 4,
                "slots": tuple(slots),
                "levels": (tuple(level),),
            }
        )
    return out


def log_writes(sequence):
    stasis = Stasis()
    for manifest in sequence:
        stasis.commit_manifest(manifest)
    return stasis.log_disk.stats.write_ops


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    steps=_steps,
    data=st.data(),
    torn=st.booleans(),
    fraction=st.sampled_from([0.0, 0.3, 0.9]),
)
def test_recovery_returns_the_last_manifest_whose_force_completed(
    steps, data, torn, fraction
):
    sequence = manifests(steps)
    crash_at = data.draw(st.integers(1, log_writes(sequence)), label="crash_at")
    rule = FaultRule(
        kind="torn" if torn else "crash",
        op="write",
        device="log",
        at_access=crash_at,
        count=1,
        torn_fraction=fraction,
    )
    plan = FaultPlan([rule])
    stasis = Stasis(fault_plan=plan)
    durable = None
    for i, manifest in enumerate(sequence):
        before = plan.access_count
        try:
            stasis.commit_manifest(manifest)
        except CrashPoint:
            # The commit's first force is its edit (or its base); a
            # crash in the base rewrite after it keeps the commit.
            if crash_at > before + 1:
                durable = manifest
            break
        durable = manifest
    else:
        raise AssertionError("the drawn log write never happened")
    stasis.crash()
    plan.disarm()
    if durable is None:
        assert list(stasis.wal.records()) == []
        return
    # Replay reads what the forces left on the device, a torn
    # record's persisted prefix included.
    persisted = stasis.wal.tail_offset - stasis.wal.head_offset
    read_before = stasis.log_disk.stats.bytes_read
    assert stasis.recover_manifest() == durable
    read = stasis.log_disk.stats.bytes_read - read_before
    assert read == persisted
    if not torn:
        assert read == sum(r.nbytes for r in stasis.wal.records())
    assert replay_bound_holds(stasis)
    # The log keeps working after recovery and folds the same way.
    for manifest in sequence[i + 1 :]:
        stasis.commit_manifest(manifest)
        assert replay_bound_holds(stasis)
        durable = manifest
    assert stasis.recover_manifest() == durable


def test_an_edit_names_kept_components_by_tree_id():
    stasis = Stasis()
    c1, c2 = component(1, 10), component(2, 100)
    stasis.commit_manifest({"next_seqno": 0, "c1": None, "c2": c2})
    stasis.commit_manifest({"next_seqno": 5, "c1": c1, "c2": c2})
    edit = list(stasis.wal.records())[-1]
    assert edit.kind == "edit"
    assert edit.payload["c2"].tree_id == 2  # by name ...
    assert edit.payload["c1"] is c1  # ... the new one in full
    assert edit.nbytes == record_bytes({"next_seqno": 5, "c1": c1, "c2": "#2"}) - 2
    # A promotion moves C1 to another slot: nothing is logged in full.
    stasis.commit_manifest({"next_seqno": 6, "c1": None, "c1_prime": c1, "c2": c2})
    edit = list(stasis.wal.records())[-1]
    assert repr(edit.payload) == "{'next_seqno': 6, 'c1': None, 'c1_prime': #1, 'c2': #2}"
    assert stasis.recover_manifest() == {
        "next_seqno": 6, "c1": None, "c1_prime": c1, "c2": c2
    }


def test_the_base_is_rewritten_once_the_edits_reach_its_size():
    stasis = Stasis()
    big = component(1, 40)
    stasis.commit_manifest({"n": 0, "c2": big})
    (base,) = list(stasis.wal.records())
    logged = 0
    n = 0
    while True:
        n += 1
        manifest = {"n": n, "c1": component(100 + n, 5), "c2": big}
        stasis.commit_manifest(manifest)
        logged += record_bytes({"n": n, "c1": manifest["c1"], "c2": "#1"}) - 2
        if logged >= base.nbytes:
            break
        assert kinds(stasis) == ["manifest"] + ["edit"] * n
    # The edit that reached the base's size is followed by a new base,
    # and everything below it is truncated.
    assert kinds(stasis) == ["manifest"]
    assert stasis.recover_manifest() == manifest
    assert list(stasis.wal.records())[0].nbytes == record_bytes(manifest)


def _edit_then_base_crash(kind):
    plan = FaultPlan(armed=False)
    stasis = Stasis(fault_plan=plan)
    big = component(1, 40)
    first = {"n": 0, "c2": big}
    stasis.commit_manifest(first)
    n = 0
    base_bytes = list(stasis.wal.records())[0].nbytes
    logged = 0
    while True:  # stop one edit short of a base rewrite
        manifest = {"n": n + 1, "c1": component(100 + n, 5), "c2": big}
        size = record_bytes({"n": n + 1, "c1": manifest["c1"], "c2": "#1"}) - 2
        if logged + size >= base_bytes:
            break
        stasis.commit_manifest(manifest)
        logged += size
        n += 1
    plan.add(FaultRule(kind=kind, op="write", device="log", at_access=2, count=1))
    plan.arm()
    try:
        stasis.commit_manifest(manifest)  # its edit, then the base: dies
    except CrashPoint:
        pass
    else:
        raise AssertionError("the base rewrite did not crash")
    stasis.crash()
    plan.disarm()
    return stasis, manifest, n


def test_a_crash_between_the_edit_and_the_base_rewrite_keeps_the_commit():
    for kind in ("crash", "torn"):
        stasis, manifest, n = _edit_then_base_crash(kind)
        assert stasis.recover_manifest() == manifest
        # The old base and every edit since, the last one included.
        assert kinds(stasis) == ["manifest"] + ["edit"] * (n + 1)
        assert replay_bound_holds(stasis)
        # The next commit's edit finds the edits over budget: a new
        # base follows it and the log is truncated below that.
        after = dict(manifest, n=-1)
        stasis.commit_manifest(after)
        assert kinds(stasis) == ["manifest"]
        assert stasis.recover_manifest() == after


# ----------------------------------------------------------------------
# Every layout's manifest round-trips through the edits
# ----------------------------------------------------------------------


def test_every_tree_layout_recovers_through_edits():
    for name in CRASH_ENGINE_NAMES:
        tree = build_crash_tree(name, None)
        stasis = tree.stasis
        committed, logged = [], set()
        commit = stasis.commit_manifest

        def record(manifest):
            commit(manifest)
            committed.append(manifest)
            logged.update(kinds(stasis))

        stasis.commit_manifest = record
        rng = random.Random(3)
        for i in range(900):
            tree.put(b"key%05d" % rng.randrange(700), bytes(rng.randrange(20, 120)))
        assert logged == {"manifest", "edit"}, name
        assert stasis.recover_manifest() == committed[-1], name
        stasis.crash()
        recovered = recover_crash_tree(name, stasis, tree.options)
        layout, expected = recovered._manifest(), dict(committed[-1])
        assert layout.pop("next_seqno") == 900, name  # C0 replayed from the log
        del expected["next_seqno"]
        assert layout == expected, name
        for key in (b"key%05d" % k for k in range(700)):
            assert recovered.get(key) == tree.get(key), name


def test_the_btree_checkpoint_recovers_as_a_base():
    engine = BTreeEngine(buffer_pool_pages=64)
    for round_ in range(3):
        for i in range(200):
            engine.put(b"key%05d" % (i * 7 % 500), b"v%d" % round_)
        engine.checkpoint()
    stasis = engine.stasis
    # A manifest without components is its own edit: every checkpoint
    # is a base, and the log holds the newest one only.
    assert kinds(stasis) == ["manifest"]
    stasis.crash()
    recovered = BTreeEngine.recover(stasis)
    for i in range(500):
        assert recovered.get(b"key%05d" % i) == engine.get(b"key%05d" % i)
