"""Budget-stepped execution of one :class:`MergePlan`.

A :class:`PolicyMergeJob` is the policy-agnostic worker: it k-way merges
its input runs (newest first, so version resolution is positional) into
one new sorted run, consuming input in byte-budgeted steps of at most
one data-device access each, exactly like
:class:`repro.core.merge.MergeProcess` — which is what lets the existing
merge schedulers pace policy trees unchanged.  The inputs stay readable
in their levels until the job finishes; the tree then installs the
output atomically (see :meth:`LevelManager.install`) and frees them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.progress import inprogress
from repro.sstable.builder import SSTableBuilder
from repro.sstable.iterator import kway_merge, merge_records
from repro.sstable.reader import SSTable
from repro.storage.stasis import WAIT, StepGate

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.compaction.policy import MergePlan
    from repro.core.options import BLSMOptions
    from repro.storage.stasis import Stasis

__all__ = ["PolicyMergeJob"]


class PolicyMergeJob:
    """One plan's merge: input runs (newest first) -> a single output run."""

    def __init__(
        self,
        stasis: "Stasis",
        plan: "MergePlan",
        inputs_newest_first: list[SSTable],
        tree_id: int,
        drop_tombstones: bool,
        options: "BLSMOptions",
    ) -> None:
        self.plan = plan
        self.inputs = list(inputs_newest_first)
        self.drop_tombstones = drop_tombstones
        self.input_bytes = max(1, sum(t.nbytes for t in self.inputs))
        self.bytes_read = 0
        self.output: SSTable | None = None
        self.done = False
        self._stats = stasis.data_disk.stats
        # Data-device accesses this job issued and the head
        # repositionings among them (``seeks``: reads and writes).
        self.read_calls = 0
        self.seeks = 0
        self.write_calls = 0
        self.write_seeks = 0
        self._gate = gate = StepGate(self._stats)
        self._groups = kway_merge(
            [table.iter_records(gate) for table in self.inputs]
        )
        self._builder = SSTableBuilder(
            stasis,
            tree_id=tree_id,
            expected_bytes=sum(t.nbytes for t in self.inputs),
            expected_keys=sum(t.key_count for t in self.inputs),
            with_bloom=options.with_bloom_filters,
            bloom_false_positive_rate=options.bloom_false_positive_rate,
            compression_ratio=options.compression_ratio,
            gate=gate,
        )

    @property
    def inprogress(self) -> float:
        """Smooth progress estimator in [0, 1] (Section 4.1)."""
        if self.done:
            return 1.0
        return inprogress(self.bytes_read, self.input_bytes)

    def step(self, budget_bytes: int) -> int:
        """Consume up to ``budget_bytes`` of input; return bytes consumed.

        One data-device access per step, and 1 for a step that only
        fetched an input's head (opening ``k`` runs takes ``k`` steps),
        as in :meth:`repro.core.merge.MergeProcess.step`.
        """
        if self.done or budget_bytes <= 0:
            return 0
        stats = self._stats
        reads, writes = stats.read_ops, stats.write_ops
        seeks, write_seeks = stats.seeks, stats.write_seeks
        self._gate.open()
        consumed = 0
        while consumed < budget_bytes:
            group = next(self._groups, None)
            if group is WAIT:
                break
            if group is None:
                self.output = self._builder.finish()
                self.done = True
                break
            consumed += sum(record.nbytes for record in group)
            merged = merge_records(group, drop_tombstones=self.drop_tombstones)
            if merged is not None:
                self._builder.add(merged)
        self.bytes_read += consumed
        self.read_calls += stats.read_ops - reads
        self.write_calls += stats.write_ops - writes
        self.seeks += stats.seeks - seeks
        self.write_seeks += stats.write_seeks - write_seeks
        if consumed == 0 and not self.done:
            return 1
        return consumed
