"""The compaction design-space lab: pluggable policies over N levels.

This package generalizes the storage core's on-disk layout away from
the bLSM-specific C0/C1'/C1/C2 slots:

* :mod:`~repro.core.compaction.policy` — the design-space axes as
  strategy objects (``leveled``, ``tiered``, ``lazy-leveled`` and the
  file-granularity ``leveldb``);
* :mod:`~repro.core.compaction.manager` — the N-level run structure
  with geometric ``base * ratio^level`` sizing;
* :mod:`~repro.core.compaction.tree` — the policy-parameterized tree
  exposing the same write/read/scheduler/recovery surface as
  :class:`repro.core.tree.BLSM`, running every plan as a
  :class:`~repro.core.merge.MergeProcess`.

:func:`make_tree` is the single dispatch point: ``blsm3`` (the default
policy) returns the unmodified paper tree, so existing behaviour is
preserved bit for bit, while every other policy name returns a
:class:`CompactionTree` parameterized by :func:`make_policy`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

from repro.core.compaction.manager import LevelManager
from repro.core.compaction.policy import (
    POLICY_NAMES,
    CompactionPolicy,
    LazyLeveledPolicy,
    LevelDBPolicy,
    LeveledPolicy,
    MergePlan,
    TieredPolicy,
    make_policy,
)
from repro.core.compaction.tree import CompactionTree

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.options import BLSMOptions
    from repro.core.tree import BLSM
    from repro.storage.stasis import Stasis

__all__ = [
    "CompactionPolicy",
    "CompactionTree",
    "LazyLeveledPolicy",
    "LevelDBPolicy",
    "LevelManager",
    "LeveledPolicy",
    "MergePlan",
    "POLICY_NAMES",
    "TieredPolicy",
    "make_policy",
    "make_tree",
    "recover_tree",
]


def make_tree(
    options: "BLSMOptions", stasis: "Stasis | None" = None
) -> "Union[BLSM, CompactionTree]":
    """Build the tree ``options.compaction_policy`` names.

    ``blsm3`` maps to the paper's own :class:`~repro.core.tree.BLSM`
    (imported lazily to avoid a cycle); anything else builds a
    :class:`CompactionTree` around the matching policy.
    """
    if options.compaction_policy == "blsm3":
        from repro.core.tree import BLSM

        return BLSM(options, stasis)
    return CompactionTree(options, stasis)


def recover_tree(
    stasis: "Stasis", options: "BLSMOptions"
) -> "Union[BLSM, CompactionTree]":
    """Recover the tree ``options.compaction_policy`` names from a crash."""
    if options.compaction_policy == "blsm3":
        from repro.core.tree import BLSM

        return BLSM.recover(stasis, options)
    return CompactionTree.recover(stasis, options)
