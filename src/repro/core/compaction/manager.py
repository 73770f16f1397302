"""The generalized level structure: N on-disk levels of sorted runs.

Where :class:`repro.core.tree.BLSM` hardcodes three component slots
(C1, C1', C2), a :class:`LevelManager` holds an open-ended list of
levels, each a list of :class:`~repro.sstable.reader.SSTable` runs in
**newest-first** order.  Data only ever flows downward, so recency is a
total order over the whole structure: the memtable, then level 0's runs
newest-first, then level 1's, and so on — which is exactly the probe
order reads use and the source order k-way merges require.

Per-level capacity follows the classic geometric schedule
``max_bytes(level) = base * ratio^level``; *policies* decide when a
level's run count or byte size makes a merge due (see
:mod:`repro.core.compaction.policy`), the manager only answers questions
and applies installs.  Manifest round-tripping reuses the same component
descriptors as the bLSM tree, so recovery, orphan-extent accounting and
Bloom-filter rebuild behave identically across policies.

With ``file_levels`` (a file-granularity policy) every level below 0
is one sorted run cut into key-disjoint files, kept in key order, and
read as one :class:`~repro.core.versions.FileRun`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator

from repro.core.components import (
    component_row,
    describe_component,
    rebuild_component,
)
from repro.core.versions import FileRun
from repro.sstable.reader import SSTable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.options import BLSMOptions
    from repro.storage.stasis import Stasis

__all__ = ["LevelManager"]


class LevelManager:
    """N on-disk levels of newest-first sorted runs with geometric sizing."""

    def __init__(
        self, base_bytes: int, ratio: float, file_levels: bool = False
    ) -> None:
        if base_bytes <= 0:
            raise ValueError(f"base_bytes must be positive, got {base_bytes}")
        if ratio <= 1.0:
            raise ValueError(f"ratio must exceed 1, got {ratio}")
        self.base_bytes = base_bytes
        self.ratio = ratio
        self.file_levels = file_levels
        self.levels: list[list[SSTable]] = []
        self._sources: tuple[SSTable | FileRun, ...] | None = None

    # ------------------------------------------------------------------
    # Queries (what policies read)
    # ------------------------------------------------------------------

    @property
    def level_count(self) -> int:
        """Allocated levels (trailing levels may be empty)."""
        return len(self.levels)

    def runs(self, level: int) -> list[SSTable]:
        """The runs of ``level``, newest first (empty beyond the tree)."""
        if 0 <= level < len(self.levels):
            return self.levels[level]
        return []

    def run_count(self, level: int) -> int:
        """Number of sorted runs resident in ``level``."""
        return len(self.runs(level))

    def level_bytes(self, level: int) -> int:
        """Total record bytes resident in ``level``."""
        return sum(table.nbytes for table in self.runs(level))

    def max_bytes(self, level: int) -> int:
        """Capacity budget of ``level``: ``base * ratio^level``."""
        if level < 0:
            raise ValueError(f"level must be >= 0, got {level}")
        return int(self.base_bytes * self.ratio**level)

    def total_bytes(self) -> int:
        """Record bytes across every level."""
        return sum(self.level_bytes(level) for level in range(len(self.levels)))

    def is_bottom(self, level: int) -> bool:
        """Whether no level deeper than ``level`` holds any run."""
        return all(
            not self.levels[deeper]
            for deeper in range(level + 1, len(self.levels))
        )

    def deepest_nonempty(self) -> int | None:
        """Index of the deepest data-bearing level, or ``None``."""
        for level in range(len(self.levels) - 1, -1, -1):
            if self.levels[level]:
                return level
        return None

    def capacity_bottom(self) -> int:
        """The shallowest level ``>= 1`` whose budget covers all data.

        Lazy leveling pins its single-run bottom level here, so the
        bottom deepens as the store grows (the last level of an
        equivalent leveled tree).
        """
        total = self.total_bytes()
        level = 1
        while self.max_bytes(level) < total:
            level += 1
        return level

    def iter_tables(self) -> Iterator[SSTable]:
        """Every resident run, shallowest level first, newest first."""
        for level in self.levels:
            yield from level

    def sources(self) -> tuple[SSTable | FileRun, ...]:
        """What a read probes, newest first (a level of files is one
        :class:`FileRun`); never mutated, so a snapshot may hold it."""
        if self._sources is None:
            if self.file_levels:
                deep = [FileRun(files) for files in self.levels[1:] if files]
                self._sources = (*self.runs(0), *deep)
            else:
                self._sources = tuple(self.iter_tables())
        return self._sources

    def level_view(self) -> list[list[dict[str, Any]]]:
        """Introspection: per level, one ``component_row`` per run."""
        return [
            [component_row(table) for table in level] for level in self.levels
        ]

    # ------------------------------------------------------------------
    # Mutation (what the tree applies)
    # ------------------------------------------------------------------

    def add_run(self, level: int, table: SSTable) -> None:
        """Install ``table`` as the newest run of ``level``."""
        self._ensure_level(level)
        self.levels[level].insert(0, table)
        self._sources = None

    def install(
        self,
        inputs: list[SSTable],
        target_level: int,
        outputs: list[SSTable],
    ) -> None:
        """Atomically swap a finished merge's inputs for its outputs.

        The inputs (wherever they reside) leave the structure.  The
        output — newer than everything already in the target level,
        because data only flows downward — becomes the target's newest
        run; under ``file_levels`` the output files join the target's
        files in key order.  The caller commits the manifest and frees
        the inputs.
        """
        input_ids = {id(table) for table in inputs}
        for level in range(len(self.levels)):
            self.levels[level] = [
                table
                for table in self.levels[level]
                if id(table) not in input_ids
            ]
        if self.file_levels and target_level > 0:
            self._ensure_level(target_level)
            files = self.levels[target_level] + outputs
            files.sort(key=lambda table: table.min_key)
            self.levels[target_level] = files
        else:
            for output in outputs:
                self.add_run(target_level, output)
        self._sources = None

    def _ensure_level(self, level: int) -> None:
        while len(self.levels) <= level:
            self.levels.append([])

    # ------------------------------------------------------------------
    # Manifest round-trip
    # ------------------------------------------------------------------

    def describe(self) -> tuple[tuple[dict[str, Any], ...], ...]:
        """Manifest payload: one descriptor tuple per level."""
        return tuple(
            tuple(describe_component(table) for table in level)
            for level in self.levels
        )

    @classmethod
    def rebuild(
        cls,
        stasis: "Stasis",
        desc: tuple[tuple[dict[str, Any], ...], ...],
        base_bytes: int,
        ratio: float,
        options: "BLSMOptions",
        file_levels: bool = False,
    ) -> "LevelManager":
        """Reconstruct a manager (and every run) from a manifest payload."""
        manager = cls(base_bytes, ratio, file_levels)
        for level in desc:
            manager.levels.append(
                [rebuild_component(stasis, entry, options) for entry in level]
            )
        return manager

    def __repr__(self) -> str:
        shape = "/".join(str(len(level)) for level in self.levels) or "-"
        return (
            f"LevelManager(base={self.base_bytes}, ratio={self.ratio:g}, "
            f"runs={shape}, bytes={self.total_bytes()})"
        )
