"""Compaction policies: who merges what, when (the design-space axes).

The bLSM paper fixes one point in the LSM compaction design space — a
three-level tree with level-granularity merges — but the space itself is
spanned by a few orthogonal decisions (Sarkar et al., *Constructing and
Analyzing the LSM Compaction Design Space*; Luo & Carey's survey):

* **data layout** — how many sorted runs a level may hold before it must
  merge (1 for leveling, ``fanout`` for tiering);
* **granularity** — what one merge consumes: whole levels (bLSM's level
  scheduler, and ``leveled``/``tiered``/``lazy-leveled`` here) or one
  file plus its overlaps in the next level (``leveldb``, the partition
  scheduler the paper contrasts with its own, Section 3.2);
* **trigger** — when a merge becomes due (size overflow for leveling,
  run-count overflow for tiering, L0 run count for both).

A :class:`CompactionPolicy` owns exactly these decisions.  It never
touches devices: it reads a :class:`~repro.core.compaction.manager.
LevelManager` and yields :class:`MergePlan` work items; the tree turns
plans into budget-stepped merge jobs.  Adding a policy is therefore one
class with two small methods (see docs/compaction.md).

:class:`LevelDBPolicy` is the paper's LevelDB baseline as one point in
this space.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.compaction.manager import LevelManager
    from repro.sstable.reader import SSTable

__all__ = [
    "CompactionPolicy",
    "LazyLeveledPolicy",
    "LevelDBPolicy",
    "LeveledPolicy",
    "MergePlan",
    "POLICY_NAMES",
    "TieredPolicy",
    "make_policy",
]

#: Every policy ``make_policy`` knows how to build, in presentation
#: order.  ``blsm3`` is the paper's own three-level layout and maps to
#: :class:`repro.core.tree.BLSM` unchanged (see ``make_tree``).
POLICY_NAMES: tuple[str, ...] = (
    "blsm3", "leveled", "tiered", "lazy-leveled", "leveldb"
)


@dataclass(frozen=True)
class MergePlan:
    """One unit of compaction work a policy wants performed.

    ``source_level``'s runs (all of them — level granularity) merge into
    ``target_level``.  When ``include_target`` is set the target level's
    resident runs join the merge and are replaced by its output (the
    leveling move); otherwise the output lands in the target level as a
    new run alongside the existing ones (the tiering move).  A plan with
    ``target_level == source_level`` consolidates the level in place —
    all its runs collapse into one (lazy leveling's bottom level).

    A file-granularity plan names its ``inputs`` instead, newest first:
    the files it moves and the target-level files they overlap.
    """

    source_level: int
    target_level: int
    include_target: bool
    label: str
    inputs: tuple["SSTable", ...] = ()

    def __post_init__(self) -> None:
        if self.source_level < 0:
            raise ValueError(
                f"source_level must be >= 0, got {self.source_level}"
            )
        if self.target_level not in (self.source_level, self.source_level + 1):
            raise ValueError(
                "level-granularity merges target the same or next level: "
                f"got {self.source_level} -> {self.target_level}"
            )


class CompactionPolicy(ABC):
    """Strategy object owning a tree's on-disk layout decisions."""

    #: Registry name (one of :data:`POLICY_NAMES`).
    name: str = "abstract"

    #: ``"file"``: levels below 0 are runs of key-disjoint files and a
    #: plan names the files it moves (:attr:`MergePlan.inputs`).
    granularity: str = "level"

    #: Level-0 runs from which each flush sleeps first (or never).
    slowdown_trigger: int | None = None

    def __init__(self, level0_trigger: int, fanout: int) -> None:
        if level0_trigger < 1:
            raise ValueError(
                f"level0_trigger must be >= 1, got {level0_trigger}"
            )
        if fanout < 2:
            raise ValueError(f"fanout must be >= 2, got {fanout}")
        self.level0_trigger = level0_trigger
        self.fanout = fanout

    @abstractmethod
    def max_runs(self, level: int) -> int:
        """Sorted runs ``level`` may hold before a merge becomes due."""

    @abstractmethod
    def plan_merges(
        self, manager: "LevelManager", busy: Iterable[int] = ()
    ) -> list[MergePlan]:
        """Every merge currently due, most urgent first.

        ``busy`` names levels whose runs an in-flight job is already
        consuming; plans touching them (as source or target) are
        withheld so two jobs never claim the same run.
        """

    def plan_started(self, manager: "LevelManager", plan: MergePlan) -> None:
        """A job for ``plan`` started (``plan_merges`` only answers what
        is due: schedulers ask it too)."""

    # -- shared helpers -------------------------------------------------

    def _free(self, plan: MergePlan, busy: frozenset[int]) -> bool:
        return plan.source_level not in busy and plan.target_level not in busy

    @abstractmethod
    def estimated_write_amplification(self, levels: int, ratio: float) -> float:
        """Analytic merge I/O (read + write bytes) per ingested byte.

        The classic design-space formulas (Sarkar et al., Table 1): a
        byte crossing a leveled level is rewritten ~``ratio`` times
        (``2*(1+ratio)`` I/O per crossing), while a tiered crossing
        copies it once (``2`` I/O).  Used by the spring-and-gear
        scheduler to size merge budgets and by
        :mod:`repro.analysis.amplification` to draw crossover curves.
        """

    def drop_tombstones(self, manager: "LevelManager", plan: MergePlan) -> bool:
        """Whether ``plan``'s merge may garbage-collect tombstones.

        A tombstone may be dropped only when every version older than
        the merge's inputs is *also* in its inputs — otherwise the
        discarded tombstone resurrects an older value.  Older versions
        live in levels deeper than the target, and (for a tiering move,
        which leaves the target's resident runs in place) in the target
        itself.  This is the classic GC-only-at-the-last-level rule;
        bLSM applies it to C2 (Section 3).
        """
        if not manager.is_bottom(plan.target_level):
            return False
        return plan.include_target or manager.run_count(plan.target_level) == 0


class LeveledPolicy(CompactionPolicy):
    """LevelDB-style leveling at level granularity: one run per level.

    L0 collects whole-memtable flushes (overlapping runs) and merges
    them all into L1 once ``level0_trigger`` accumulate; every deeper
    level holds a single run and spills into the next level — merging
    with its resident run — whenever it outgrows ``base * ratio^level``.
    Reads probe at most one run per deep level; writes pay ~``ratio``
    copies per level crossed.
    """

    name = "leveled"

    def max_runs(self, level: int) -> int:
        return self.level0_trigger if level == 0 else 1

    def estimated_write_amplification(self, levels: int, ratio: float) -> float:
        return 2.0 * (1.0 + ratio) * max(1, levels)

    def plan_merges(
        self, manager: "LevelManager", busy: Iterable[int] = ()
    ) -> list[MergePlan]:
        taken = frozenset(busy)
        plans: list[MergePlan] = []
        if manager.run_count(0) >= self.level0_trigger:
            plans.append(
                MergePlan(0, 1, include_target=True, label="leveled:l0")
            )
        for level in range(1, manager.level_count):
            if manager.level_bytes(level) > manager.max_bytes(level):
                plans.append(
                    MergePlan(
                        level, level + 1, include_target=True,
                        label=f"leveled:l{level}",
                    )
                )
        return [plan for plan in plans if self._free(plan, taken)]


class TieredPolicy(CompactionPolicy):
    """Tiering: every level stacks up to ``fanout`` overlapping runs.

    A level that reaches ``fanout`` runs merges them into a *single new
    run* appended to the next level; the target's resident runs are not
    rewritten.  Each byte is therefore copied only once per level — the
    write-optimal end of the design space — at the price of probing up
    to ``fanout`` runs per level on reads.
    """

    name = "tiered"

    def max_runs(self, level: int) -> int:
        return max(self.level0_trigger, self.fanout) if level == 0 else self.fanout

    def estimated_write_amplification(self, levels: int, ratio: float) -> float:
        return 2.0 * max(1, levels)

    def plan_merges(
        self, manager: "LevelManager", busy: Iterable[int] = ()
    ) -> list[MergePlan]:
        taken = frozenset(busy)
        plans: list[MergePlan] = []
        for level in range(manager.level_count):
            if manager.run_count(level) >= self.max_runs(level):
                plans.append(
                    MergePlan(
                        level, level + 1, include_target=False,
                        label=f"tiered:l{level}",
                    )
                )
        return [plan for plan in plans if self._free(plan, taken)]


class LazyLeveledPolicy(TieredPolicy):
    """Dostoevsky-style lazy leveling: tier everywhere, level the bottom.

    Levels above the bottom behave exactly like :class:`TieredPolicy`
    (each byte copied once per level — cheap writes); the bottom level,
    which holds most of the data, is kept to a *single run*.  The bottom
    is pinned by capacity — the shallowest level whose ``base *
    ratio^level`` budget covers the data — so it deepens as the store
    grows, exactly like leveling's last level.  Point reads then probe
    up to ``fanout`` runs only in the small upper levels and one run in
    the large bottom level.
    """

    name = "lazy-leveled"

    def estimated_write_amplification(self, levels: int, ratio: float) -> float:
        upper = max(0, levels - 1)
        return 2.0 * upper + 2.0 * (1.0 + ratio)

    def plan_merges(
        self, manager: "LevelManager", busy: Iterable[int] = ()
    ) -> list[MergePlan]:
        taken = frozenset(busy)
        bottom = manager.capacity_bottom()
        plans: list[MergePlan] = []
        for level in range(manager.level_count):
            count = manager.run_count(level)
            if count == 0:
                continue
            if level >= bottom:
                if count > 1:
                    plans.append(
                        MergePlan(
                            level, level, include_target=True,
                            label=f"lazy:bottom-l{level}",
                        )
                    )
            elif count >= self.max_runs(level):
                target = level + 1
                plans.append(
                    MergePlan(
                        level, target, include_target=target >= bottom,
                        label=f"lazy:l{level}",
                    )
                )
        return [plan for plan in plans if self._free(plan, taken)]


class LevelDBPolicy(LeveledPolicy):
    """LevelDB circa 2012: leveling at file granularity (Section 3.2).

    ``level0_trigger`` L0 flushes merge with the L1 files they overlap;
    else the most over-budget level (L1 holds the base) moves one file,
    round-robin, with its overlaps below.  One compaction runs at a
    time.  Under uniform inserts each L0 file spans the keyspace, so L0
    merges rewrite nearly all of L1 and L0 backs up into the slowdown
    and stop triggers: partitioning alone cannot bound write latency.
    """

    name = "leveldb"
    granularity = "file"
    slowdown_trigger = 8

    def __init__(self, level0_trigger: int, fanout: int) -> None:
        super().__init__(level0_trigger, fanout)
        self._next: dict[int, int] = {}  # level -> round-robin position

    def plan_merges(
        self, manager: "LevelManager", busy: Iterable[int] = ()
    ) -> list[MergePlan]:
        if frozenset(busy):  # LevelDB's one background compaction
            return []
        if manager.run_count(0) >= self.level0_trigger:
            level, moved = 0, manager.runs(0)
        else:  # L1's budget is the base: max_bytes counts from level 0
            scores = {
                level: manager.level_bytes(level) / manager.max_bytes(level - 1)
                for level in range(1, manager.level_count)
            }
            level = max(scores, key=scores.__getitem__, default=0)
            if not level or scores[level] <= 1.0:
                return []
            files = manager.runs(level)
            moved = [files[self._next.get(level, 0) % len(files)]]
        lo = min(table.min_key for table in moved)
        hi = max(table.max_key for table in moved)
        overlaps = [
            table for table in manager.runs(level + 1)
            if table.max_key >= lo and table.min_key <= hi
        ]
        return [
            MergePlan(
                level, level + 1, include_target=True,
                label=f"leveldb:l{level}", inputs=(*moved, *overlaps),
            )
        ]

    def plan_started(self, manager: "LevelManager", plan: MergePlan) -> None:
        level = plan.source_level
        if level > 0:
            self._next[level] = manager.runs(level).index(plan.inputs[0]) + 1


def make_policy(
    name: str, level0_trigger: int = 4, fanout: int = 4
) -> CompactionPolicy:
    """Build a policy by registry name.

    ``blsm3`` is deliberately absent: the paper's own layout is served
    by :class:`repro.core.tree.BLSM` itself (``make_tree`` dispatches),
    so its behaviour stays bit-for-bit identical to the pre-refactor
    tree rather than being re-expressed — and re-risked — here.
    """
    if name == "leveled":
        return LeveledPolicy(level0_trigger, fanout)
    if name == "tiered":
        return TieredPolicy(level0_trigger, fanout)
    if name == "lazy-leveled":
        return LazyLeveledPolicy(level0_trigger, fanout)
    if name == "leveldb":
        return LevelDBPolicy(level0_trigger, fanout)
    raise ValueError(
        f"unknown compaction policy {name!r}; expected one of "
        f"{tuple(n for n in POLICY_NAMES if n != 'blsm3')}"
    )
