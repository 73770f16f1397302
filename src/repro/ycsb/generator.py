"""Operation stream generation.

Turns a :class:`~repro.ycsb.workload.WorkloadSpec` into a deterministic
stream of operations against a growing keyspace, the way YCSB's client
threads do.  Keys follow YCSB's convention (``user`` + padded number);
by default insertion order is *hashed* (random-looking), matching the
paper's "50GB unordered data set" (Section 5.2); ordered mode reproduces
the pre-sorted load InnoDB needs.
"""

from __future__ import annotations

import enum
import random
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate

from repro.ycsb.distributions import LatestChooser, fnv1a_64, make_chooser
from repro.ycsb.workload import WorkloadSpec


class OpKind(enum.Enum):
    """What one generated operation does."""

    READ = "read"
    UPDATE = "update"  # read-modify-write semantics
    BLIND_WRITE = "blind_write"
    INSERT = "insert"
    SCAN = "scan"
    RMW = "rmw"
    DELETE = "delete"


@dataclass(frozen=True)
class Operation:
    """One operation to run against an engine."""

    kind: OpKind
    key: bytes
    value: bytes | None = None
    scan_length: int = 0


def make_key(index: int, ordered: bool) -> bytes:
    """YCSB key naming: ``user`` + number (hashed unless ordered)."""
    if ordered:
        return b"user%019d" % index
    return b"user%019d" % fnv1a_64(index)


def make_value(rng: random.Random, nbytes: int) -> bytes:
    """A value payload of the configured size (content is irrelevant)."""
    return bytes([rng.randrange(256)]) * nbytes


class OperationGenerator:
    """Deterministic operation stream for one workload."""

    def __init__(self, spec: WorkloadSpec, seed: int = 0) -> None:
        self.spec = spec
        self._rng = random.Random(seed)
        self._inserted = spec.record_count
        self._chooser = make_chooser(
            spec.request_distribution, max(1, spec.record_count)
        )
        choices = [
            (OpKind.READ, spec.read_proportion),
            (OpKind.UPDATE, spec.update_proportion),
            (OpKind.BLIND_WRITE, spec.blind_write_proportion),
            (OpKind.INSERT, spec.insert_proportion),
            (OpKind.SCAN, spec.scan_proportion),
            (OpKind.RMW, spec.rmw_proportion),
            (OpKind.DELETE, spec.delete_proportion),
        ]
        self._kinds = [kind for kind, p in choices if p > 0]
        self._weights = [p for _, p in choices if p > 0]
        self._keys: dict[int, bytes] = {}  # key index -> rendered key
        self._values: dict[int, bytes] = {}  # fill byte -> write value

    def load_keys(self):
        """Keys for the load phase, in the configured insertion order."""
        for index in range(self.spec.record_count):
            yield make_key(index, self.spec.ordered_inserts)

    def batches(self, batch_size: int):
        """Yield :meth:`operations` grouped into client batches.

        The batched runner issues each group through the engine's
        multi-key surface (``multi_get`` / ``apply_batch``); the final
        batch may be short.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        batch: list[Operation] = []
        for op in self.operations():
            batch.append(op)
            if len(batch) == batch_size:
                yield batch
                batch = []
        if batch:
            yield batch

    def prepared_operations(self, value_pool: int = 32) -> list[Operation]:
        """Materialize the whole operation stream up front, fast.

        The hot-path profiler's generation path: kind draws are chunked
        into a single ``choices(k=n)`` call, write values come from a
        small reusable pool (their content is irrelevant — only the
        size is simulated) and key rendering is cached per chosen
        index.  Distributions match :meth:`operations` but the RNG draw
        *order* differs, so the streams are not byte-identical;
        committed benchmark baselines and replay tests keep using
        :meth:`operations`.
        """
        spec = self.spec
        rng = self._rng
        n = spec.operation_count
        if n == 0:
            # A load-only spec has no proportions to draw kinds from
            # (``choices`` rejects an empty population even for k=0).
            return []
        kinds = rng.choices(self._kinds, weights=self._weights, k=n)
        pool = [
            make_value(rng, spec.value_bytes)
            for _ in range(max(1, value_pool))
        ]
        pool_n = len(pool)
        key_cache: dict[int, bytes] = {}
        ordered = spec.ordered_inserts
        chooser = self._chooser
        grow = (
            chooser.grow if isinstance(chooser, LatestChooser) else None
        )
        choose = chooser.next
        scan_lo, scan_hi = spec.scan_length_min, spec.scan_length_max
        ops: list[Operation] = []
        append = ops.append
        for position, kind in enumerate(kinds):
            if kind is OpKind.INSERT:
                key = make_key(self._inserted, ordered)
                self._inserted += 1
                if grow is not None:
                    grow(self._inserted)
                append(Operation(kind, key, pool[position % pool_n]))
                continue
            index = choose(rng)
            key = key_cache.get(index)
            if key is None:
                key = make_key(index, ordered)
                key_cache[index] = key
            if kind is OpKind.SCAN:
                append(
                    Operation(
                        kind, key, scan_length=rng.randint(scan_lo, scan_hi)
                    )
                )
            elif kind is OpKind.READ or kind is OpKind.DELETE:
                append(Operation(kind, key))
            else:  # UPDATE, BLIND_WRITE, RMW carry a fresh value
                append(Operation(kind, key, pool[position % pool_n]))
        return ops

    def operations(self):
        """Yield ``spec.operation_count`` operations.

        One ``random()`` draw picks each op's kind by bisecting the
        cumulative weights, built once: that is what
        ``rng.choices(kinds, weights=...)`` does on every call, so the
        stream is draw-for-draw the one a per-op ``choices`` loop makes.
        Each key index is rendered once per generator, and each write
        value once per fill byte (the same ``randrange(256)`` draw and
        the same bytes as :func:`make_value`).
        """
        spec = self.spec
        count = spec.operation_count
        if count == 0:
            # A load-only spec has no weights to build the table from.
            return
        rng = self._rng
        draw = rng.random
        kinds = self._kinds
        cum = list(accumulate(self._weights))
        total = cum[-1] + 0.0
        hi = len(cum) - 1
        ordered = spec.ordered_inserts
        value_bytes = spec.value_bytes
        scan_lo, scan_hi = spec.scan_length_min, spec.scan_length_max
        chooser = self._chooser
        choose = chooser.next
        grow = chooser.grow if isinstance(chooser, LatestChooser) else None
        keys = self._keys
        values = self._values
        insert, scan = OpKind.INSERT, OpKind.SCAN
        read, delete = OpKind.READ, OpKind.DELETE
        for _ in range(count):
            kind = kinds[bisect(cum, draw() * total, 0, hi)]
            if kind is insert:
                key = make_key(self._inserted, ordered)
                self._inserted += 1
                if grow is not None:
                    grow(self._inserted)
            else:
                index = choose(rng)
                key = keys.get(index)
                if key is None:
                    key = keys[index] = make_key(index, ordered)
                if kind is scan:
                    yield Operation(
                        kind, key, scan_length=rng.randint(scan_lo, scan_hi)
                    )
                    continue
                if kind is read or kind is delete:
                    yield Operation(kind, key)
                    continue
            # INSERT, UPDATE, BLIND_WRITE and RMW carry a fresh value.
            fill = rng.randrange(256)
            value = values.get(fill)
            if value is None:
                value = values[fill] = bytes([fill]) * value_bytes
            yield Operation(kind, key, value)
