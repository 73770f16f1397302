"""Stateful (rule-based) property testing of the engines.

Hypothesis drives arbitrary interleavings of the full public API —
writes, deletes, deltas, reads, scans, insert-if-not-exists, merge
steps, crash/recover — against a dictionary model.  This is the test
that found the delta double-application and tombstone-swallowing bugs
documented in docs/correctness.md.
"""

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core import BLSM, BLSMOptions, PartitionedBLSM
from repro.storage import DurabilityMode

keys = st.binary(min_size=1, max_size=6)
values = st.binary(min_size=0, max_size=24)


class BLSMMachine(RuleBasedStateMachine):
    """The unpartitioned tree under arbitrary API interleavings.

    The option combination is itself randomized, so every feature flag
    (scheduler, snowshoveling, compression, Bloom persistence) is
    exercised under the same arbitrary interleavings.
    """

    @initialize(
        scheduler=st.sampled_from(["naive", "gear", "spring_gear"]),
        snowshovel=st.booleans(),
        compression=st.sampled_from([1.0, 0.5]),
        persist_blooms=st.booleans(),
    )
    def setup(self, scheduler, snowshovel, compression, persist_blooms):
        self.options = BLSMOptions(
            c0_bytes=2048,
            buffer_pool_pages=8,
            durability=DurabilityMode.SYNC,
            scheduler=scheduler,
            snowshovel=snowshovel,
            compression_ratio=compression,
            persist_bloom_filters=persist_blooms,
        )
        self.tree = BLSM(self.options)
        self.model: dict[bytes, bytes] = {}

    @rule(key=keys, value=values)
    def put(self, key, value):
        self.tree.put(key, value)
        self.model[key] = value

    @rule(key=keys)
    def delete(self, key):
        self.tree.delete(key)
        self.model.pop(key, None)

    @rule(key=keys, delta=st.binary(min_size=1, max_size=6))
    def apply_delta(self, key, delta):
        self.tree.apply_delta(key, delta)
        if key in self.model:
            self.model[key] += delta

    @rule(key=keys, value=values)
    def insert_if_not_exists(self, key, value):
        inserted = self.tree.insert_if_not_exists(key, value)
        assert inserted == (key not in self.model)
        if inserted:
            self.model[key] = value

    @rule(key=keys)
    def get(self, key):
        assert self.tree.get(key) == self.model.get(key)

    @rule(budget=st.integers(1, 5000))
    def merge_work(self, budget):
        if self.tree.step_m01(budget) == 0:
            self.tree.step_m12(budget)

    @rule()
    def drain(self):
        self.tree.drain()

    @rule()
    def crash_and_recover(self):
        stasis = self.tree.stasis
        stasis.crash()
        self.tree = BLSM.recover(stasis, self.options)

    @precondition(lambda self: len(self.model) < 200)
    @rule()
    def full_scan_matches_model(self):
        assert list(self.tree.scan(b"")) == sorted(self.model.items())

    @invariant()
    def spot_check(self):
        if self.model:
            key = next(iter(self.model))
            assert self.tree.get(key) == self.model[key]


class PartitionedMachine(RuleBasedStateMachine):
    """The partitioned tree under arbitrary API interleavings."""

    @initialize()
    def setup(self):
        self.options = BLSMOptions(
            c0_bytes=2048,
            buffer_pool_pages=8,
            durability=DurabilityMode.SYNC,
        )
        self.tree = PartitionedBLSM(self.options, max_partition_bytes=4096)
        self.model: dict[bytes, bytes] = {}

    @rule(key=keys, value=values)
    def put(self, key, value):
        self.tree.put(key, value)
        self.model[key] = value

    @rule(key=keys)
    def delete(self, key):
        self.tree.delete(key)
        self.model.pop(key, None)

    @rule(key=keys)
    def get(self, key):
        assert self.tree.get(key) == self.model.get(key)

    @rule(budget=st.integers(1, 5000))
    def merge_work(self, budget):
        self.tree.step_m01(budget)

    @rule()
    def crash_and_recover(self):
        stasis = self.tree.stasis
        stasis.crash()
        self.tree = PartitionedBLSM.recover(
            stasis, self.options, max_partition_bytes=4096
        )

    @rule()
    def full_scan_matches_model(self):
        assert list(self.tree.scan(b"")) == sorted(self.model.items())

    @invariant()
    def partitions_tile(self):
        ranges = self.tree.partition_ranges()
        assert ranges[0][0] == b""
        assert ranges[-1][1] is None
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo


TestBLSMStateful = BLSMMachine.TestCase
TestBLSMStateful.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)

TestPartitionedStateful = PartitionedMachine.TestCase
TestPartitionedStateful.settings = settings(
    max_examples=20, stateful_step_count=40, deadline=None
)
