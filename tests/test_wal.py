"""Unit tests for the physical write-ahead log."""

import pytest

from repro.errors import LogError
from repro.sim import DiskModel, SimDisk, VirtualClock
from repro.storage import WriteAheadLog


@pytest.fixture
def wal():
    clock = VirtualClock()
    return WriteAheadLog(SimDisk(DiskModel.hdd(), clock))


def test_append_assigns_increasing_lsns(wal):
    assert wal.append("a", 1) == 0
    assert wal.append("b", 2) == 1
    assert wal.next_lsn == 2


def test_unforced_records_are_not_durable(wal):
    wal.append("manifest", {"x": 1})
    assert wal.durable_lsn == 0
    assert list(wal.records()) == []


def test_force_makes_records_durable(wal):
    wal.append("manifest", {"x": 1})
    wal.force()
    records = list(wal.records())
    assert len(records) == 1
    assert records[0].payload == {"x": 1}
    assert wal.durable_lsn == 1


def test_force_charges_sequential_io(wal):
    wal.append("a", "payload-one")
    wal.force()
    wal.append("b", "payload-two")
    wal.force()
    assert wal.disk.stats.seeks == 1  # appends continue sequentially


def test_crash_loses_unforced_tail(wal):
    wal.append("a", 1)
    wal.force()
    wal.append("b", 2)
    wal.crash()
    kinds = [record.kind for record in wal.records()]
    assert kinds == ["a"]


def test_truncate_drops_old_records(wal):
    for i in range(5):
        wal.append("r", i)
    wal.force()
    wal.truncate(3)
    payloads = [record.payload for record in wal.records()]
    assert payloads == [3, 4]


def test_truncate_past_end_rejected(wal):
    with pytest.raises(LogError):
        wal.truncate(10)


def test_replay_charges_read_io(wal):
    wal.append("r", "data")
    wal.force()
    before = wal.disk.stats.bytes_read
    list(wal.records())
    assert wal.disk.stats.bytes_read > before


def test_explicit_record_size(wal):
    wal.append("r", "x", nbytes=1000)
    before = wal.disk.stats.bytes_written
    wal.force()
    assert wal.disk.stats.bytes_written - before == 1000


def test_truncate_advances_durable_head(wal):
    for i in range(4):
        wal.append("r", i, nbytes=100)
    wal.force()
    assert wal.head_offset == 0
    wal.truncate(2)
    assert wal.head_offset == 200  # records 0 and 1 are dead space
    wal.truncate(4)
    assert wal.head_offset == 400  # empty log: head meets tail


def test_replay_charged_from_head_not_origin(wal):
    for i in range(10):
        wal.append("r", i, nbytes=500)
    wal.force()
    wal.truncate(9)  # one live record, 4500 dead bytes before it
    before = wal.disk.stats.bytes_read
    list(wal.records())
    assert wal.disk.stats.bytes_read - before == 500  # not 5000


def test_replay_cost_stays_proportional_to_live_tail(wal):
    # Repeated append/truncate cycles must not grow replay cost: the
    # head chases the tail, so replay reads only the retained records.
    costs = []
    for cycle in range(5):
        for i in range(20):
            wal.append("r", (cycle, i), nbytes=64)
        wal.force()
        wal.truncate(wal.next_lsn - 1)
        before = wal.disk.stats.bytes_read
        list(wal.records())
        costs.append(wal.disk.stats.bytes_read - before)
    assert len(set(costs)) == 1  # identical every cycle


def test_live_bytes_tracks_retained_records(wal):
    for i in range(3):
        wal.append("r", i, nbytes=100)
    wal.force()
    assert wal.live_bytes == 300
    wal.truncate(2)
    assert wal.live_bytes == 100


def test_records_carry_checksums_on_fault_capable_disks():
    # Checksums exist to catch device damage, so they are only computed
    # when the device *can* be damaged; a plain SimDisk skips them.
    from repro.faults.disk import FaultyDisk

    clock = VirtualClock()
    wal = WriteAheadLog(FaultyDisk(DiskModel.hdd(), clock))
    wal.append("manifest", {"root": 7})
    wal.force()
    (record,) = list(wal.records())
    assert record.checksum != 0


def test_plain_disks_skip_checksums(wal):
    wal.append("manifest", {"root": 7})
    wal.force()
    (record,) = list(wal.records())
    assert record.checksum == 0  # SimDisk can neither corrupt nor tear


# ---------------------------------------------------------------------------
# Accounting invariants under truncate / torn-crash / recovery (property test)
# ---------------------------------------------------------------------------

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.errors import CrashPoint  # noqa: E402


class _TornDisk(SimDisk):
    """A disk that tears one scheduled write partway through."""

    def __init__(self, model, clock):
        super().__init__(model, clock)
        self.tear_fraction: float | None = None

    def write(self, offset: int, nbytes: int) -> float:
        fraction = self.tear_fraction
        if fraction is not None:
            self.tear_fraction = None
            raise CrashPoint(persisted_bytes=int(nbytes * fraction))
        return super().write(offset, nbytes)


def _check_wal_invariants(wal: WriteAheadLog) -> None:
    """The accounting every quiescent (post-recovery) WAL must satisfy."""
    assert wal.durable_lsn <= wal.next_lsn
    assert 0 <= wal.head_offset <= wal.tail_offset
    # Live records occupy a contiguous span inside [head, tail]: replay
    # never reads outside what the device actually holds.
    assert wal.live_bytes <= wal.tail_offset - wal.head_offset


_wal_ops = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(min_value=1, max_value=200)),
        st.tuples(st.just("force"), st.just(0)),
        st.tuples(
            st.just("torn_crash"),
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        ),
        st.tuples(st.just("truncate"), st.floats(min_value=0.0, max_value=1.0)),
    ),
    min_size=1,
    max_size=40,
)


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=_wal_ops)
def test_wal_accounting_survives_truncate_crash_recover(ops):
    clock = VirtualClock()
    disk = _TornDisk(DiskModel.hdd(), clock)
    wal = WriteAheadLog(disk)
    acked: set[int] = set()   # lsns whose force completed (durable contract)
    staged: list[int] = []    # appended, awaiting a force (lost by a crash)
    floor = 0                 # truncation floor: lsns below are released
    for kind, arg in ops:
        if kind == "append":
            staged.append(wal.append("r", arg, nbytes=arg))
        elif kind == "force":
            wal.force()
            acked.update(staged)
            staged.clear()
        elif kind == "truncate":
            lsn = int(arg * wal.next_lsn)
            wal.truncate(lsn)
            floor = max(floor, lsn)
            acked = {l for l in acked if l >= floor}
        else:  # torn_crash: tear the force, die, recover via replay
            if wal.pending_records == 0:
                continue
            disk.tear_fraction = arg
            try:
                wal.force()
            except CrashPoint:
                pass
            wal.crash()
            staged.clear()  # un-forced appends died with the process
            replayed = [r.lsn for r in wal.records()]
            # Recovery contract: every acked record still in the log
            # replays, in order; the torn (never-acked) tail is dropped.
            assert replayed == sorted(replayed)
            assert acked <= set(replayed) | set(range(floor))
            acked.update(replayed)
        if kind != "append":  # pending bytes are not yet accounted on-disk
            _check_wal_invariants(wal)
    # Reopen: a final crash + replay must land on consistent accounting
    # and lose nothing that was acked.
    wal.crash()
    survivors = [r.lsn for r in wal.records()]
    assert acked <= set(survivors) | set(range(floor))
    _check_wal_invariants(wal)
    # The log must remain writable after recovery: post-recovery appends
    # force and replay cleanly over any rolled-back torn region.
    wal.append("post", 1, nbytes=64)
    wal.force()
    assert wal.next_lsn - 1 in {r.lsn for r in wal.records()}
    _check_wal_invariants(wal)


def test_torn_tail_truncation_rolls_back_tail_offset():
    # A torn force leaves the straddling record's partial bytes on disk;
    # recovery drops the record AND reclaims its space — the tail rolls
    # back to where it began, so no dead bytes are stranded inside the
    # live extent and post-recovery appends overwrite the torn region.
    clock = VirtualClock()
    disk = _TornDisk(DiskModel.hdd(), clock)
    wal = WriteAheadLog(disk)
    wal.append("good", 1, nbytes=100)
    wal.force()
    tail_after_good = wal.tail_offset
    wal.append("torn", 2, nbytes=100)
    disk.tear_fraction = 0.5  # 50 of 100 bytes reach the platter
    try:
        wal.force()
    except CrashPoint:
        pass
    assert wal.tail_offset == tail_after_good + 50  # partial bytes on disk
    wal.crash()
    assert [r.payload for r in wal.records()] == [1]  # torn record dropped
    assert wal.tail_offset == tail_after_good  # ...and its space reclaimed
    assert wal.live_bytes == wal.tail_offset - wal.head_offset
    wal.append("after", 3, nbytes=100)
    wal.force()
    assert [r.payload for r in wal.records()] == [1, 3]


def test_replay_after_a_tear_reads_only_the_persisted_bytes():
    disk = _TornDisk(DiskModel.hdd(), VirtualClock())
    wal = WriteAheadLog(disk)
    wal.append("good", 1, nbytes=100)
    wal.force()
    wal.append("whole", 2, nbytes=100)
    wal.append("torn", 3, nbytes=100)
    disk.tear_fraction = 0.75  # 150 of 200 bytes reach the platter
    try:
        wal.force()
    except CrashPoint:
        pass
    wal.crash()
    before = disk.stats.bytes_read
    assert [r.payload for r in wal.records()] == [1, 2]
    assert disk.stats.bytes_read - before == 100 + 150


def test_torn_tail_truncation_of_whole_log_resets_head():
    clock = VirtualClock()
    disk = _TornDisk(DiskModel.hdd(), clock)
    wal = WriteAheadLog(disk)
    wal.append("only", 1, nbytes=100)
    disk.tear_fraction = 0.3
    try:
        wal.force()
    except CrashPoint:
        pass
    wal.crash()
    assert list(wal.records()) == []
    assert wal.head_offset == wal.tail_offset == 0
    assert wal.live_bytes == 0


def test_wal_record_is_an_immutable_tuple_with_named_fields():
    import copy
    import pickle

    from repro.storage import WALRecord

    record = WALRecord(3, "edit", {"root": 7}, 64, 99)
    assert isinstance(record, tuple)
    assert (record.lsn, record.kind, record.payload) == (3, "edit", {"root": 7})
    assert (record.nbytes, record.checksum) == (64, 99)
    assert WALRecord(4, "manifest", None, 40).checksum == 0
    with pytest.raises(AttributeError):
        record.lsn = 4
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record
    assert repr(record) == (
        "WALRecord(lsn=3, kind='edit', payload={'root': 7}, nbytes=64, "
        "checksum=99)"
    )
