"""Outside-in layer ledger: timing wrappers installed from the benchmark.

``Ledger.install()`` replaces the public functions of each layer with
wrappers (class attributes and two module functions), ``restore()``
puts the originals back; nothing under ``src/`` is edited.  A wrapper
records, per name: calls, inclusive ``perf_counter_ns``, and the
virtual-clock delta, on an explicit stack so that

    self = inclusive - children

and every nanosecond (and virtual second) of a segment belongs to
exactly one frame: the self times sum to the whole by construction.
Code that is not wrapped (``records.resolve``, snapshots, the k-way
merge) is charged to its nearest wrapped caller.

The wrappers cost CPU themselves.  ``calibrate()`` measures the part
that lands inside a frame's own interval (``c_in``) and the part that
lands in its caller (``c_out``); ``self_ns`` reports subtract them,
``raw_self_ns`` does not.  Raw numbers sum exactly; corrected numbers
are the estimate of what the layer costs untraced.

Spans: the first wrapped frame below the driver is an *op*; 1-in-N ops
(up to a cap) keep every span (name, start, end, parent id, op id) in
memory for ``write_spans``.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Iterator

_perf = time.perf_counter_ns

# Stat slots.
(CALLS, INCL_NS, CHILD_NS, INCL_V, CHILD_V, N_CHILD, N_DESC, HITS, MAX_V,
 BG_SELF_V) = range(10)
_ZERO = [0, 0, 0, 0.0, 0.0, 0, 0, 0, 0.0, 0.0]

# Frame slots.  A frame's virtual time is read on the timeline that was
# active when it was entered (a merge or the log writer may be running
# on a background timeline), and a child's virtual time is charged to
# its parent only when both were read on the same timeline.
(_F_CHILD_NS, _F_CHILD_V, _F_N_CHILD, _F_N_DESC, _F_SPAN, _F_TIMELINE,
 _F_V0) = range(7)

#: Names whose *self* virtual time is where the clock is supposed to
#: advance: device service, the commit queue's waits, the open-loop
#: driver idling until the next arrival, and the stall path waiting on
#: a background worker.
#: Span sampling: 1-in-N driver ops keep their spans, up to a cap.
SAMPLE_EVERY = 64
SPAN_CAP = 2000

VSEC_OWNERS = (
    "sim.disk.", "sim.logdisk.", "group_commit.", "ycsb.sessions",
)


def _targets() -> list[tuple[Any, str, str, str]]:
    """(owner, attribute, ledger name, kind) for every wrapped call.

    Kinds: ``call`` plain function; ``gen`` returns a generator whose
    every resumption is timed; ``hit`` also counts truthy/non-None
    results; ``disk`` splits by data vs log device.
    """
    from repro.baselines.blsm_engine import BLSMEngine
    from repro.baselines.interface import KVEngine
    from repro.bloom.filter import BloomFilter
    from repro.core import scheduler as sched
    from repro.core.merge import MergeProcess
    from repro.core.tree import BLSM
    from repro.memtable.memtable import MemTable
    from repro.sim.disk import SimDisk
    from repro.sstable.builder import SSTableBuilder
    from repro.sstable.reader import SSTable
    from repro.storage.buffer import BufferManager
    from repro.storage.group_commit import GroupCommitQueue
    from repro.storage.logical_log import LogicalLog
    from repro.storage.pagefile import PageFile
    from repro.ycsb import runner, sessions
    from repro.ycsb.generator import OperationGenerator

    out: list[tuple[Any, str, str, str]] = [
        (OperationGenerator, "prepared_operations", "ycsb.gen", "always"),
        (OperationGenerator, "operations", "ycsb.gen", "gen"),
        (runner, "execute", "ycsb.execute", "call"),
        (sessions, "run_sessions", "ycsb.sessions", "call"),
        (BLSMEngine, "get", "engine.get", "call"),
        (BLSMEngine, "put", "engine.put", "call"),
        (KVEngine, "read_modify_write", "engine.rmw", "call"),
        (BLSMEngine, "scan", "engine.scan", "gen"),
        (BLSMEngine, "commit_batch", "engine.commit_batch", "call"),
        (BLSMEngine, "flush", "engine.flush", "call"),
        (MergeProcess, "step", "core.merge.step", "call"),
        (MergeProcess, "run_to_completion", "core.merge.run", "call"),
        (BLSM, "step_m01", "core.merge.m01", "call"),
        (BLSM, "step_m12", "core.merge.m12", "call"),
        (BLSM, "force_drain", "core.merge.force_drain", "call"),
        (MemTable, "put", "memtable.put", "call"),
        (MemTable, "get", "memtable.get", "hit"),
        (MemTable, "remove", "memtable.remove", "call"),
        (MemTable, "first_key", "memtable.first_key", "call"),
        (MemTable, "ceiling_key", "memtable.ceiling_key", "call"),
        (MemTable, "scan", "memtable.scan", "gen"),
        (BloomFilter, "add", "bloom.add", "call"),
        (BloomFilter, "__contains__", "bloom.probe", "hit"),
        (SSTable, "get", "sstable.get", "call"),
        (SSTable, "scan", "sstable.scan", "gen"),
        (SSTable, "iter_records", "sstable.iter_records", "gen"),
        (SSTableBuilder, "add", "sstable.builder_add", "call"),
        (SSTableBuilder, "finish", "sstable.builder_finish", "call"),
        (BufferManager, "get", "buffer.get", "call"),
        (BufferManager, "put", "buffer.put", "call"),
        (BufferManager, "flush_all", "buffer.flush_all", "call"),
        (PageFile, "read_page", "pagefile.read_page", "call"),
        (PageFile, "read_run", "pagefile.read_run", "call"),
        (PageFile, "write_page", "pagefile.write_page", "call"),
        (PageFile, "write_run", "pagefile.write_run", "call"),
        (LogicalLog, "log", "log.append", "call"),
        (LogicalLog, "force", "log.force", "call"),
        (LogicalLog, "truncate", "log.truncate", "call"),
        (LogicalLog, "retain_ranges", "log.retain_ranges", "call"),
        (GroupCommitQueue, "submit", "group_commit.submit", "call"),
        (GroupCommitQueue, "commit", "group_commit.commit", "call"),
        (GroupCommitQueue, "wait", "group_commit.wait", "call"),
        (GroupCommitQueue, "drain", "group_commit.drain", "call"),
        (SimDisk, "read", "read", "disk"),
        (SimDisk, "write", "write", "disk"),
        (SimDisk, "sync_barrier", "sync_barrier", "disk"),
    ]
    # on_write is abstract on MergeScheduler; patch each class that
    # defines it so whichever scheduler the engine builds is covered.
    for cls in (
        sched.NaiveScheduler, sched.GearScheduler, sched.SpringGearScheduler
    ):
        out.append((cls, "on_write", "core.scheduler.on_write", "call"))
    return out


class Ledger:
    """Per-name call/CPU/virtual-time accounting on an explicit stack."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self.stack: list[list] = []
        self.on = False
        self.clock: Any = None
        self.op_depth = 1
        self.op_seq = 0
        self.kept_ops = 0
        self.recording = False
        self.span_seq = 0
        self.spans: list[tuple] = []
        self.c_in = 0.0
        self.c_out = 0.0
        self.setup_gen = list(_ZERO)
        self._patched: list[tuple[Any, str, Any]] = []

    # -- accounting ----------------------------------------------------

    def stat(self, name: str) -> list:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = list(_ZERO)
        return stat

    def reset(self) -> None:
        """Zero every stat in place (wrappers hold references)."""
        for stat in self.stats.values():
            stat[:] = _ZERO
        self.op_seq = self.kept_ops = self.span_seq = 0
        self.recording = False
        self.spans = []

    def _enter(self, op: bool = True) -> list:
        stack = self.stack
        if op and len(stack) == self.op_depth:
            self.op_seq += 1
            keep = (
                self.op_seq % SAMPLE_EVERY == 0 and self.kept_ops < SPAN_CAP
            )
            self.recording = keep
            if keep:
                self.kept_ops += 1
        clock = self.clock
        if clock is None:
            timeline, v0 = None, 0.0
        else:
            timeline = clock.active_timeline
            v0 = timeline.now if timeline is not None else clock.now
        frame = [0, 0.0, 0, 0, 0, timeline, v0]
        if self.recording:
            self.span_seq += 1
            frame[_F_SPAN] = self.span_seq
        stack.append(frame)
        return frame

    def _exit(
        self, name: str, stat: list, frame: list, t0: int, t1: int
    ) -> None:
        stack = self.stack
        stack.pop()
        dt = t1 - t0
        timeline, v0 = frame[_F_TIMELINE], frame[_F_V0]
        if timeline is not None:
            v1 = timeline.now
        else:
            v1 = self.clock.now if self.clock is not None else 0.0
        dv = v1 - v0
        stat[INCL_NS] += dt
        stat[CHILD_NS] += frame[_F_CHILD_NS]
        stat[INCL_V] += dv
        stat[CHILD_V] += frame[_F_CHILD_V]
        stat[N_CHILD] += frame[_F_N_CHILD]
        stat[N_DESC] += frame[_F_N_DESC]
        if dv > stat[MAX_V]:
            stat[MAX_V] = dv
        if timeline is not None:
            stat[BG_SELF_V] += dv - frame[_F_CHILD_V]
        parent_span = 0
        if stack:
            parent = stack[-1]
            parent[_F_CHILD_NS] += dt
            if parent[_F_TIMELINE] is timeline:
                parent[_F_CHILD_V] += dv
            parent[_F_N_CHILD] += 1
            parent[_F_N_DESC] += frame[_F_N_DESC] + 1
            parent_span = parent[_F_SPAN]
        if frame[_F_SPAN]:
            self.spans.append(
                (name, t0, t1, v0, v1, frame[_F_SPAN], parent_span,
                 self.op_seq)
            )

    # -- wrappers ------------------------------------------------------

    def _wrap_call(
        self, name: str, fn: Callable, count_hits: bool = False,
        always: bool = False,
    ) -> Callable:
        stat = self.stat(name)
        enter, leave = self._enter, self._exit
        ledger = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not (ledger.on or always):
                return fn(*args, **kwargs)
            frame = enter()
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _perf()
                stat[CALLS] += 1
                leave(name, stat, frame, t0, t1)
            if count_hits and result is not None and result is not False:
                stat[HITS] += 1
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _wrap_gen(self, name: str, fn: Callable) -> Callable:
        """Wrap a function that returns a generator: one call is one
        generator consumed; every resumption is its own timed frame.
        Op generation runs inside the session driver, at op depth, but
        is not itself a driver op."""
        op = name != "ycsb.gen"
        stat = self.stat(name)
        enter, leave = self._enter, self._exit
        ledger = self

        def timed(inner: Iterator) -> Iterator:
            while True:
                frame = enter(op)
                t0 = _perf()
                try:
                    item = next(inner)
                except StopIteration:
                    leave(name, stat, frame, t0, _perf())
                    return
                except BaseException:
                    leave(name, stat, frame, t0, _perf())
                    raise
                leave(name, stat, frame, t0, _perf())
                yield item

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            inner = fn(*args, **kwargs)
            if not ledger.on:
                return inner
            stat[CALLS] += 1
            return timed(inner)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _wrap_disk(self, verb: str, fn: Callable) -> Callable:
        """Like ``_wrap_call`` but books the data and the log device
        under separate names (picked by the device's name)."""
        names = (f"sim.disk.{verb}", f"sim.logdisk.{verb}")
        stats = (self.stat(names[0]), self.stat(names[1]))
        enter, leave = self._enter, self._exit
        ledger = self

        def wrapper(disk: Any, *args: Any, **kwargs: Any) -> Any:
            if not ledger.on:
                return fn(disk, *args, **kwargs)
            which = 1 if disk.name.endswith("-log") else 0
            frame = enter()
            t0 = _perf()
            try:
                return fn(disk, *args, **kwargs)
            finally:
                t1 = _perf()
                stat = stats[which]
                stat[CALLS] += 1
                leave(names[which], stat, frame, t0, t1)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = verb
        return wrapper

    # -- install / restore ---------------------------------------------

    def install(self) -> None:
        """Patch every target (before any engine is built)."""
        if self._patched:
            raise RuntimeError("ledger already installed")
        for owner, attr, name, kind in _targets():
            original = vars(owner)[attr]
            if kind == "gen":
                patched = self._wrap_gen(name, original)
            elif kind == "disk":
                patched = self._wrap_disk(name, original)
            else:
                patched = self._wrap_call(
                    name, original,
                    count_hits=kind == "hit", always=kind == "always",
                )
            self._patched.append((owner, attr, original))
            setattr(owner, attr, patched)

    def restore(self) -> None:
        """Put every original attribute back (identity-preserving)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        self.on = False
        self.clock = None

    # -- segment bracket ----------------------------------------------

    def begin(self, clock: Any, op_depth: int) -> list:
        """Start a traced segment: zero the stats, push the root frame
        (the benchmark's own driver loop, ``bench.loop``)."""
        # Op generation traced during set-up (prepared_operations) is
        # not part of the segment: keep it aside before zeroing.
        self.setup_gen = list(self.stat("ycsb.gen"))
        self.reset()
        self.clock = clock
        self.op_depth = op_depth
        self.on = True
        self.stack.clear()
        self.stack.append([0, 0.0, 0, 0, 0, None, clock.now])
        return [_perf(), clock.now]

    def end(self, token: list) -> None:
        t1 = _perf()
        v1 = self.clock.now
        frame = self.stack.pop()
        self.on = False
        self.recording = False
        stat = self.stat("bench.loop")
        stat[CALLS] += 1
        stat[INCL_NS] += t1 - token[0]
        stat[CHILD_NS] += frame[_F_CHILD_NS]
        stat[INCL_V] += v1 - token[1]
        stat[CHILD_V] += frame[_F_CHILD_V]
        stat[N_CHILD] += frame[_F_N_CHILD]
        stat[N_DESC] += frame[_F_N_DESC]

    # -- calibration ---------------------------------------------------

    def calibrate(self, rounds: int = 100_000) -> None:
        """Measure the wrapper's own cost.

        ``c_in`` is what a wrapped no-op records as its inclusive time;
        ``c_out`` is the rest of the per-call cost, which lands in the
        caller's self time.  Best of three, since noise only adds.
        """
        from repro.sim.clock import VirtualClock

        saved = (self.on, self.clock, self.stats, self.stack)
        self.stats, self.stack, self.on = {}, [], True
        self.clock = VirtualClock()  # so reading virtual time costs what it costs live
        self.op_depth = -1  # no op sampling while calibrating

        def noop() -> None:
            return None

        wrapped = self._wrap_call("calibrate", noop)
        stat = self.stat("calibrate")
        best_in = best_out = float("inf")
        for _ in range(3):
            stat[:] = _ZERO
            self.stack.append([0, 0.0, 0, 0, 0, None, 0.0])
            t0 = _perf()
            for _ in range(rounds):
                noop()
            bare = _perf() - t0
            t0 = _perf()
            for _ in range(rounds):
                wrapped()
            traced = _perf() - t0
            self.stack.pop()
            c_in = stat[INCL_NS] / rounds
            c_out = (traced - bare) / rounds - c_in
            best_in = min(best_in, c_in)
            best_out = min(best_out, max(0.0, c_out))
        self.c_in, self.c_out = best_in, best_out
        self.on, self.clock, self.stats, self.stack = saved
        self.op_depth = 1

    # -- read-out ------------------------------------------------------

    def raw_self_ns(self, name: str) -> int:
        stat = self.stats.get(name)
        return stat[INCL_NS] - stat[CHILD_NS] if stat else 0

    def raw_self_total(self) -> int:
        """Sum of every frame's raw self time: the segment's wall time."""
        return sum(stat[INCL_NS] - stat[CHILD_NS] for stat in self.stats.values())

    def self_ns(self, name: str) -> float:
        """Self time with the wrappers' own cost taken out."""
        stat = self.stats.get(name)
        if not stat:
            return 0.0
        raw = stat[INCL_NS] - stat[CHILD_NS]
        own = stat[CALLS] * self.c_in if name != "bench.loop" else 0.0
        return max(0.0, raw - own - stat[N_CHILD] * self.c_out)

    def incl_ns(self, name: str) -> float:
        """Inclusive time with every descendant wrapper's cost taken out."""
        stat = self.stats.get(name)
        if not stat:
            return 0.0
        overhead = stat[CALLS] * self.c_in + stat[N_DESC] * (
            self.c_in + self.c_out
        )
        return max(0.0, stat[INCL_NS] - overhead)

    def self_vsec(self, name: str) -> float:
        """Self virtual time on whichever timelines the frames ran."""
        stat = self.stats.get(name)
        return stat[INCL_V] - stat[CHILD_V] if stat else 0.0

    def foreground_self_vsec(self, name: str) -> float:
        """Self virtual time of the frames that ran on the foreground
        clock — the part an op's caller actually waited for."""
        stat = self.stats.get(name)
        if not stat:
            return 0.0
        return stat[INCL_V] - stat[CHILD_V] - stat[BG_SELF_V]

    def get(self, name: str, slot: int) -> Any:
        stat = self.stats.get(name)
        return stat[slot] if stat else 0

    def names(self, prefix: str) -> list[str]:
        return [n for n in self.stats if n.startswith(prefix)]

    def rows(self) -> list[dict[str, Any]]:
        """One row per name, largest corrected self time first."""
        rows = []
        for name, stat in self.stats.items():
            if not stat[CALLS]:
                continue
            rows.append(
                {
                    "name": name,
                    "calls": stat[CALLS],
                    "incl_ns": stat[INCL_NS],
                    "raw_self_ns": stat[INCL_NS] - stat[CHILD_NS],
                    "self_ns": round(self.self_ns(name)),
                    "incl_vsec": stat[INCL_V],
                    "self_vsec": stat[INCL_V] - stat[CHILD_V],
                    "foreground_self_vsec": self.foreground_self_vsec(name),
                    "hits": stat[HITS],
                }
            )
        rows.sort(key=lambda row: -row["self_ns"])
        return rows

    def write_spans(self, path: str, workload: str) -> int:
        """Write the sampled ops' spans; returns how many were kept."""
        base = min((span[1] for span in self.spans), default=0)
        doc = {
            "workload": workload,
            "sample_every": SAMPLE_EVERY,
            "ops_kept": self.kept_ops,
            "fields": [
                "name", "start_ns", "end_ns", "start_vsec", "end_vsec",
                "span_id", "parent_id", "op_id",
            ],
            "spans": [
                [s[0], s[1] - base, s[2] - base, s[3], s[4], s[5], s[6], s[7]]
                for s in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        return len(self.spans)
