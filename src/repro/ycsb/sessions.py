"""Open-loop workload execution (the session layer bench).

The paper measures under continuous overload and notes that
"throttling the threads, as would be done in production, would reduce
the latencies" (Section 5.1).  This runner models production: N
concurrent *sessions* (``sessions=1`` is one paced client) share one
engine, each session has its own arrival process, the merged arrival
stream drives the engine in global time order, and writes commit through
:meth:`~repro.baselines.interface.KVEngine.commit_batch` with
``wait=False`` — the session keeps issuing while the group-commit queue
resolves its ticket.  That separation is the point of the bench:
*queueing delay* (arrival to service start) and *ack latency* (arrival
to durable) are measured independently of service time, so the
forces-per-commit amortization of group commit shows up as ack latency
staying flat while N grows.

Arrival processes:

* ``uniform`` — each session issues at a fixed interval (paced load
  generator), sessions mutually staggered only by their stream phase.
* ``poisson`` — exponential inter-arrivals per session (independent
  clients); the merged stream is Poisson at the full offered rate.
* ``diurnal`` — an inhomogeneous Poisson process whose rate swings
  sinusoidally around the mean (period ``diurnal_period`` seconds,
  amplitude ``diurnal_amplitude``), sampled by thinning.  The burst
  crests push the queue into its heavy-traffic regime, which is where
  the queueing-delay p99.9 timeline earns its keep.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.baselines.interface import KVEngine, WriteBatch
from repro.obs.timeline import WindowedTimeline
from repro.storage.group_commit import CommitTicket
from repro.storage.stasis import Stasis
from repro.ycsb.generator import OperationGenerator, OpKind
from repro.ycsb.metrics import LatencyStats
from repro.ycsb.workload import WorkloadSpec

ARRIVAL_MODES = ("uniform", "poisson", "diurnal")


@dataclass
class SessionsResult:
    """Outcome of one multi-session open-loop run."""

    engine: str
    sessions: int
    offered_rate: float
    arrival: str
    operations: int
    reads: int
    writes: int
    queueing: LatencyStats
    """Arrival to service start, per operation."""
    ack_latency: LatencyStats
    """Arrival to durable acknowledgement, per committed batch."""
    read_latency: LatencyStats
    """Arrival to completion, per read/scan."""
    timeline: list[dict[str, float]]
    """Per-window percentile rows (queue/write/read channels) over the
    run, from the shared :class:`~repro.obs.timeline.WindowedTimeline`."""
    forces: int
    commits: int
    committed_ops: int
    group_sizes: dict[int, int]
    completed_in: float
    backlog_seconds: float
    arrival_window: float
    completed_in_window: int
    io: dict[str, Any] = field(default_factory=dict)
    probes: list[dict[str, float]] = field(default_factory=list)
    """Cumulative engine-metric samples taken at window boundaries
    (present when :func:`run_sessions` was given a ``probe``)."""

    @property
    def forces_per_commit(self) -> float:
        """Log-device forces per committed batch (1.0 = no grouping)."""
        if self.commits == 0:
            return 0.0
        return self.forces / self.commits

    @property
    def forces_per_op(self) -> float:
        """Log-device forces per committed operation."""
        if self.committed_ops == 0:
            return 0.0
        return self.forces / self.committed_ops

    @property
    def achieved_rate(self) -> float:
        """Completions per second *while load was offered*.

        Measured over the arrival window, not first-arrival-to-last-
        completion: a trailing stall after the final arrival (say, a
        merge the last write triggered) extends ``completed_in`` but
        says nothing about how fast the engine absorbed the offered
        rate.  Falls back to that ratio when the window is degenerate
        (zero or one arrival).
        """
        if self.arrival_window > 0:
            return self.completed_in_window / self.arrival_window
        if self.completed_in <= 0:
            return 0.0
        return self.operations / self.completed_in

    @property
    def latency(self) -> LatencyStats:
        """Arrival to done, per operation: ``read_latency`` and
        ``ack_latency`` pooled (a write is done when it is durable)."""
        pooled = LatencyStats()
        pooled.merge(self.read_latency)
        pooled.merge(self.ack_latency)
        return pooled

    @property
    def saturated(self) -> bool:
        """True when the engine could not keep up with the offered rate:
        it ended more than five inter-arrival gaps behind the final
        arrival.  The backlog includes the closing log force, so at
        rates where one force spans five gaps this is True for an
        engine that kept up; ``achieved_rate`` tells the two apart."""
        if self.operations == 0:
            return False
        return self.backlog_seconds > 5.0 / self.offered_rate

    def summary(self) -> dict[str, Any]:
        return {
            "engine": self.engine,
            "sessions": self.sessions,
            "offered_rate": self.offered_rate,
            "arrival": self.arrival,
            "operations": self.operations,
            "reads": self.reads,
            "writes": self.writes,
            "achieved_rate": self.achieved_rate,
            "completed_in": self.completed_in,
            "backlog_seconds": self.backlog_seconds,
            "queueing": self.queueing.summary(),
            "ack_latency": self.ack_latency.summary(),
            "read_latency": self.read_latency.summary(),
            "forces": self.forces,
            "commits": self.commits,
            "committed_ops": self.committed_ops,
            "forces_per_commit": self.forces_per_commit,
            "forces_per_op": self.forces_per_op,
            "group_sizes": {
                str(size): count
                for size, count in sorted(self.group_sizes.items())
            },
            "timeline": self.timeline,
        }


def substrates(engine: KVEngine) -> list[Stasis]:
    """Every :class:`Stasis` substrate under an engine.

    A tree-backed engine has one; a sharded engine has one per shard;
    engines off the Stasis stack (bitcask, btree...) have none and
    report zero forces.
    """
    tree = getattr(engine, "tree", None)
    if tree is not None:
        return [tree.stasis]
    shards = getattr(engine, "shards", None)
    if shards is not None:
        return [stasis for shard in shards for stasis in substrates(shard)]
    stasis = getattr(engine, "stasis", None)
    return [stasis] if stasis is not None else []


def _next_arrival(
    mode: str,
    rng: random.Random,
    t: float,
    per_rate: float,
    period: float,
    amplitude: float,
) -> float:
    if mode == "uniform":
        return t + 1.0 / per_rate
    if mode == "poisson":
        return t + rng.expovariate(per_rate)
    # Diurnal burst: inhomogeneous Poisson via thinning.  Candidates
    # arrive at the peak rate; each survives with probability
    # rate(t)/peak, which reproduces rate(t) exactly (Lewis & Shedler).
    peak = per_rate * (1.0 + amplitude)
    while True:
        t += rng.expovariate(peak)
        rate = per_rate * (
            1.0 + amplitude * math.sin(2.0 * math.pi * t / period)
        )
        if rng.random() * peak <= rate:
            return t


def run_sessions(
    engine: KVEngine,
    spec: WorkloadSpec,
    offered_rate: float,
    sessions: int = 8,
    arrival: str = "poisson",
    seed: int = 0,
    window_seconds: float | None = None,
    diurnal_period: float = 20.0,
    diurnal_amplitude: float = 0.8,
    probe: Callable[[], dict[str, float]] | None = None,
) -> SessionsResult:
    """Drive ``spec`` through N concurrent open-loop sessions.

    Reads run inline at their arrival (service charged to the clock as
    usual).  Writes become one-op :class:`WriteBatch` commits submitted
    with ``wait=False``: the ticket resolves when a leader's force
    covers it, and the session's *ack latency* is measured at
    ``ticket.durable_at`` — the session itself moves on immediately,
    which is what lets a second session's commit join the first's force
    group.  UPDATE/RMW reads the key inline, then commits the write.

    ``probe``, when given, is called at each window boundary (and once
    before the first arrival and once after the final flush) and must
    return a flat dict of *cumulative* engine metrics; each sample is
    stored with the boundary time ``t`` plus the instantaneous commit
    ``queue_depth``.  The stability bench differences consecutive
    samples into per-window stall/backpressure timelines.
    """
    if offered_rate <= 0:
        raise ValueError(f"offered_rate must be positive, got {offered_rate}")
    if sessions < 1:
        raise ValueError(f"sessions must be >= 1, got {sessions}")
    if arrival not in ARRIVAL_MODES:
        raise ValueError(
            f"arrival must be one of {ARRIVAL_MODES}, got {arrival!r}"
        )
    generator = OperationGenerator(spec, seed=seed)
    ops_iter = iter(generator.operations())
    per_rate = offered_rate / sessions
    clock = engine.clock
    base = clock.now
    if window_seconds is None:
        expected = max(1, spec.operation_count) / offered_rate
        window_seconds = max(1e-9, expected / 12.0)

    # Forces are counted at the logical log, not the commit queue: under
    # ``sync`` durability every write forces inside ``log()`` and never
    # passes through the queue.
    logs = [stasis.logical_log for stasis in substrates(engine)]
    forces_before = sum(log.forces for log in logs)
    rngs = [random.Random(seed * 1_000_003 + s + 11) for s in range(sessions)]
    heap: list[tuple[float, int]] = []
    for sid in range(sessions):
        first = _next_arrival(
            arrival, rngs[sid], base, per_rate, diurnal_period,
            diurnal_amplitude,
        )
        heapq.heappush(heap, (first, sid))

    queueing = LatencyStats()
    ack_latency = LatencyStats()
    read_latency = LatencyStats()
    timeline = WindowedTimeline(window_seconds, base=base)
    record_in = timeline.record_in
    # (ticket, arrival time, arrival window) in submission order.  Every
    # engine acknowledges commits in submission order (a group force
    # covers a prefix of its queue), so the durable tickets are always
    # a prefix of this deque.
    outstanding: deque[tuple[CommitTicket, float, int]] = deque()
    completions: list[float] = []
    operations = reads = writes = 0
    first_arrival: float | None = None
    last_arrival = base
    probes: list[dict[str, float]] = []
    probed_through = -1

    def take_probe(index: int, at: float) -> None:
        nonlocal probed_through
        if probe is None:
            return
        sample: dict[str, float] = {
            "t": at,
            "queue_depth": float(len(outstanding)),
        }
        sample.update(probe())
        probes.append(sample)
        probed_through = index

    def resolve_acked() -> None:
        while outstanding:
            ticket, arrived, window = outstanding[0]
            durable_at = ticket.durable_at
            if durable_at is None:
                return
            outstanding.popleft()
            latency = max(0.0, durable_at - arrived)
            ack_latency.record(latency)
            record_in(window, "write", latency)
            completions.append(durable_at)

    take_probe(0, base)

    while heap:
        op = next(ops_iter, None)
        if op is None:
            break
        t, sid = heap[0]
        heapq.heapreplace(
            heap,
            (
                _next_arrival(
                    arrival, rngs[sid], t, per_rate, diurnal_period,
                    diurnal_amplitude,
                ),
                sid,
            ),
        )
        if first_arrival is None:
            first_arrival = t
        last_arrival = t
        # Queueing delay: how long this arrival waits for the engine's
        # foreground to be free.  (The engine is a serial resource on
        # the virtual clock; with the clock behind the arrival, the op
        # starts the instant it arrives.)
        delay = max(0.0, clock.now - t)
        queueing.record(delay)
        index = timeline.index_of(t)
        record_in(index, "queue", delay)
        if index > probed_through:
            take_probe(index, timeline.window_start(index))
        clock.advance_to(t)
        resolve_acked()
        operations += 1
        kind = op.kind
        if kind is OpKind.READ or kind is OpKind.SCAN:
            if kind is OpKind.READ:
                engine.get(op.key)
            else:
                for _ in engine.scan(op.key, limit=op.scan_length):
                    pass
            done = clock.now
            read_latency.record(done - t)
            record_in(index, "read", done - t)
            completions.append(done)
            reads += 1
        else:
            batch = WriteBatch()
            if kind is OpKind.DELETE:
                batch.delete(op.key)
            else:
                assert op.value is not None
                if kind is OpKind.UPDATE or kind is OpKind.RMW:
                    engine.get(op.key)  # the read half, inline
                batch.put(op.key, op.value)
            ticket = engine.commit_batch(batch, session=sid, wait=False)
            outstanding.append((ticket, t, index))
            writes += 1
    # Durability barrier: resolve every in-flight ticket, then collect.
    engine.flush()
    resolve_acked()
    for _ticket, arrived, window in outstanding:
        latency = max(0.0, clock.now - arrived)
        ack_latency.record(latency)
        record_in(window, "write", latency)
        completions.append(clock.now)
    outstanding.clear()
    take_probe(probed_through + 1, clock.now)

    queues = [stasis.group_commit for stasis in substrates(engine)]
    group_sizes: dict[int, int] = {}
    for queue in queues:
        for size, count in queue.group_sizes.items():
            group_sizes[size] = group_sizes.get(size, 0) + count
    window = last_arrival - (first_arrival if first_arrival is not None else last_arrival)
    rows = timeline.rows()
    for row in rows:
        # Every arrival lands one "queue" sample, so the queue channel's
        # count is the window's operation count (the legacy "ops" key).
        row["ops"] = row.get("queue_n", 0.0)
    return SessionsResult(
        engine=engine.name,
        sessions=sessions,
        offered_rate=offered_rate,
        arrival=arrival,
        operations=operations,
        reads=reads,
        writes=writes,
        queueing=queueing,
        ack_latency=ack_latency,
        read_latency=read_latency,
        timeline=rows,
        forces=sum(log.forces for log in logs) - forces_before,
        commits=sum(queue.commits for queue in queues),
        committed_ops=sum(queue.committed_ops for queue in queues),
        group_sizes=group_sizes,
        completed_in=clock.now - (first_arrival or clock.now),
        backlog_seconds=max(0.0, clock.now - last_arrival),
        arrival_window=window,
        completed_in_window=sum(
            1 for done in completions if done <= last_arrival
        ),
        io=engine.io_summary(),
        probes=probes,
    )
