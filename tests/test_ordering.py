"""Cross-device ordering of manifest commits and the data they name.

A manifest commit names components whose pages the data device wrote
earlier.  Crash recovery reads the newest committed manifest and trusts
every page it names, so a commit's log force must not end before any
data write issued ahead of it: otherwise a crash between the two would
recover a manifest that names unwritten pages.  The crash sweeps cut the
access sequence in issue order and never see such a state, so this test
checks the order in virtual time, from both devices' traces, under each
commit mode.
"""

import random

import pytest

from repro.engines import build_engine
from repro.sim import DiskModel

KIB = 1024


def commits_and_data_writes(durability):
    """Both devices' traces over a load that completes C0:C1 and C1':C2
    merges, with each manifest commit's span of the log trace and the
    number of data accesses issued before it."""
    engine = build_engine(
        "blsm",
        durability=durability,
        c0_bytes=64 * KIB,
        cache_pages=16,
        log_disk=DiskModel.hdd(),
        observability=False,
    )
    tree = engine.tree
    stasis = tree.stasis
    log, data = stasis.log_disk, stasis.data_disk
    log.start_trace()
    data.start_trace()
    commits = []
    commit_manifest = stasis.commit_manifest

    def traced_commit(manifest):
        first, issued = len(log._trace), len(data._trace)
        commit_manifest(manifest)
        commits.append((first, len(log._trace), issued))

    stasis.commit_manifest = traced_commit
    rng = random.Random(3)
    for i in range(10_000):
        key = b"user%06d" % rng.randrange(5_000)
        if durability == "group":
            engine.commit_batch([("put", key, bytes(200))], wait=i % 4 == 3)
        else:
            engine.put(key, bytes(200))
    engine.flush()
    assert tree._c2 is not None  # a C1':C2 merge completed
    return commits, log.stop_trace(), data.stop_trace()


@pytest.mark.parametrize("durability", ["sync", "group", "async"])
def test_a_manifest_commit_ends_after_every_data_write_issued_before_it(
    durability,
):
    commits, log_events, data_events = commits_and_data_writes(durability)
    assert len(commits) > 20
    latest = [0.0]  # the latest end of a write among the first n accesses
    for event in data_events:
        end = event.time if event.kind == "write" else 0.0
        latest.append(max(latest[-1], end))
    late = []
    for first, last, issued in commits:
        forced = [e for e in log_events[first:last] if e.kind == "write"]
        assert forced, "every manifest commit forces the log"
        if forced[-1].time < latest[issued]:
            late.append((forced[-1].time, latest[issued]))
    assert late == []
