"""Adapter exposing policy compaction trees through the engine interface.

One adapter serves every non-``blsm3`` compaction policy: the policy
name in :attr:`BLSMOptions.compaction_policy` selects the layout, and
:func:`repro.core.compaction.make_tree` builds the matching
:class:`~repro.core.compaction.tree.CompactionTree`.  The registry in
:mod:`repro.engines` registers one engine name per policy so benchmark
sweeps and the differential fuzzer iterate the design space with the
same loop they use for every other engine.
"""

from __future__ import annotations

from typing import Any

from repro.baselines.blsm_engine import BLSMEngine
from repro.core.compaction import make_tree
from repro.core.options import BLSMOptions


class CompactionEngine(BLSMEngine):
    """A policy-parameterized compaction tree behind the engine interface."""

    name = "compaction"

    def __init__(self, options: BLSMOptions | None = None) -> None:
        if options is None:
            options = BLSMOptions(compaction_policy="leveled")
        self.tree = make_tree(options)
        self.name = options.compaction_policy

    def io_summary(self) -> dict[str, Any]:
        summary = self.tree.stasis.io_summary()
        view = self.tree.level_view()
        summary["level_runs"] = [len(level) for level in view["levels"]]
        return summary

    def level_view(self) -> dict[str, Any]:
        """Layout snapshot (policy, per-level runs and budgets)."""
        return self.tree.level_view()
