"""Adapter exposing :class:`repro.core.PartitionedBLSM` as a KVEngine."""

from __future__ import annotations

from typing import Any

from repro.baselines.blsm_engine import BLSMEngine
from repro.core.options import BLSMOptions
from repro.core.partitioned import PartitionedBLSM


class PartitionedBLSMEngine(BLSMEngine):
    """Partitioned bLSM behind the common engine interface."""

    name = "bLSM-part"

    def __init__(
        self,
        options: BLSMOptions | None = None,
        max_partition_bytes: int | None = None,
    ) -> None:
        self.tree = PartitionedBLSM(
            options, max_partition_bytes=max_partition_bytes
        )

    def io_summary(self) -> dict[str, Any]:
        summary = self.tree.stasis.io_summary()
        summary["partitions"] = self.tree.partition_count
        return summary
