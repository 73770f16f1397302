"""Fuzz orchestration: generate, replay everywhere, shrink, file.

This is the loop behind ``repro fuzz`` and the CI smoke job:

1. generate a seeded trace (:func:`~repro.testing.trace.generate_trace`);
2. replay it through the whole differential matrix
   (:func:`~repro.testing.differential.run_differential`) — every
   registry engine, a ``>= 2``-shard sharded config, a fault-plan
   config;
3. optionally compose crash schedules over a companion trace
   (:func:`~repro.testing.composer.run_crash_trace` /
   :func:`~repro.testing.composer.enumerate_trace_crash_points`);
4. on any divergence, shrink the trace with
   :func:`~repro.testing.minimize.minimize_trace` and file the repro
   into the corpus directory, where ``tests/test_corpus.py`` replays it
   forever.

Everything is seeded and virtual-clocked, so a report reproduces from
its seed alone; the corpus files exist for the cases a seed no longer
reaches once the bug is fixed.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.testing.composer import (
    enumerate_trace_crash_points,
    run_crash_trace,
)
from repro.testing.differential import (
    Divergence,
    FuzzConfig,
    default_fuzz_configs,
    run_differential,
    run_trace,
)
from repro.testing.minimize import minimize_trace, write_corpus_file
from repro.testing.trace import Trace, generate_trace

__all__ = [
    "FuzzReport",
    "format_fuzz_report",
    "fuzz",
    "replay_corpus",
    "replay_corpus_file",
]

#: What the ``faults`` knob of :func:`fuzz` accepts.
FAULT_MODES = ("none", "plans", "crash", "all")


@dataclass
class FuzzReport:
    """Everything one :func:`fuzz` invocation observed."""

    seed: int
    configs: list[str] = field(default_factory=list)
    rounds_run: int = 0
    ops_replayed: int = 0
    divergences: list[Divergence] = field(default_factory=list)
    crash_failures: list[str] = field(default_factory=list)
    crash_boundaries: int = 0
    crashes_triggered: int = 0
    corpus_files: list[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether every replay agreed and every recovery verified."""
        return not self.divergences and not self.crash_failures


def _shrink_and_file(
    trace: Trace,
    divergence: Divergence,
    configs: Sequence[FuzzConfig],
    corpus_dir: str | None,
    name: str,
    progress: Callable[[str], None] | None,
    shards: int,
) -> tuple[Trace, str | None]:
    """Minimize a failing trace against its config; optionally file it."""
    config = next(c for c in configs if c.label == divergence.config)

    def still_failing(candidate: Trace) -> bool:
        return (
            run_trace(
                config.build(), candidate,
                batched=config.batched, config=config.label,
            )
            is not None
        )

    small = minimize_trace(trace, still_failing)
    if progress is not None:
        progress(
            f"  minimized {len(trace)} -> {len(small)} ops for "
            f"[{divergence.config}]"
        )
    path = None
    if corpus_dir is not None:
        small.meta.update(
            mode="differential",
            config=config.label,
            engines=[config.engine],
            shards=shards,
        )
        path = write_corpus_file(
            small, corpus_dir, name, note=divergence.describe()
        )
        if progress is not None:
            progress(f"  filed repro: {path}")
    return small, path


def fuzz(
    rounds: int = 1,
    ops: int = 2000,
    seed: int = 0,
    engines: Sequence[str] | None = None,
    shards: int = 2,
    faults: str = "plans",
    crash_every: int = 40,
    crash_ops: int = 120,
    budget_seconds: float | None = None,
    corpus_dir: str | None = None,
    progress: Callable[[str], None] | None = None,
) -> FuzzReport:
    """Run the differential (and optionally crash) fuzz loop.

    ``faults`` selects the schedule: ``"none"`` drops the fault-plan
    config from the matrix, ``"plans"`` (default) keeps it, ``"crash"``
    adds the crash-composition sweep over a companion ``crash_ops``-op
    trace (crash markers plus a boundary enumeration at stride
    ``crash_every``), ``"all"`` does both.  ``budget_seconds`` stops
    starting new rounds once exceeded — a wall-clock lid for CI, not a
    determinism knob (completed rounds are identical regardless).

    Every divergence is minimized; with ``corpus_dir`` set, the shrunken
    repro is written there as ``fuzz-s<seed>-r<round>-<config>.json``.
    """
    if faults not in FAULT_MODES:
        raise ValueError(
            f"unknown faults mode {faults!r}; expected one of {FAULT_MODES}"
        )
    started = time.monotonic()
    configs = default_fuzz_configs(
        engines=engines,
        shards=shards,
        include_faulted=faults in ("plans", "all"),
    )
    report = FuzzReport(seed=seed, configs=[c.label for c in configs])
    for round_index in range(rounds):
        if (
            budget_seconds is not None
            and time.monotonic() - started > budget_seconds
            and round_index > 0
        ):
            if progress is not None:
                progress(
                    f"time budget exhausted after {round_index} rounds"
                )
            break
        round_seed = seed + round_index
        # Under the full fault schedule the trace also drives online
        # migrations (split/merge/step ops) — honoured by the migrating
        # sharded config, no-ops everywhere else, so one trace still
        # replays across the whole matrix.
        trace = generate_trace(
            ops,
            seed=round_seed,
            migrate_fraction=0.015 if faults == "all" else 0.0,
        )
        if progress is not None:
            progress(
                f"round {round_index}: {len(trace)} ops (seed {round_seed}) "
                f"across {len(configs)} configs"
            )
        divergences = run_differential(trace, configs, progress=progress)
        report.divergences.extend(divergences)
        report.ops_replayed += len(trace) * len(configs)
        for divergence in divergences:
            _, path = _shrink_and_file(
                trace, divergence, configs, corpus_dir,
                f"fuzz-s{seed}-r{round_index}-{divergence.config}",
                progress, shards,
            )
            if path is not None:
                report.corpus_files.append(path)
        if faults in ("crash", "all"):
            crash_trace = generate_trace(
                crash_ops,
                seed=round_seed,
                keyspace=40,
                scan_fraction=0.0,
                multi_get_fraction=0.03,
                merge_work_fraction=0.08,
                crash_fraction=0.03,
            )
            # Every crash-capable tree gets a schedule: the bLSM tree,
            # its partitioned variant, and one config per compaction
            # policy — so a recovery bug in any layout fails the fuzz
            # run, not just bugs in the paper's own tree.
            from repro.engines import CRASH_ENGINE_NAMES

            for crash_engine in CRASH_ENGINE_NAMES:
                marker_failures = run_crash_trace(
                    crash_trace, engine=crash_engine, seed=round_seed
                )
                sweep = enumerate_trace_crash_points(
                    crash_trace,
                    engine=crash_engine,
                    every=crash_every,
                    seed=round_seed,
                    progress=progress,
                )
                report.crash_boundaries += sweep.points_tested
                report.crashes_triggered += sweep.crashes_triggered
                report.crash_failures.extend(
                    f"[{crash_engine}] {failure}"
                    for failure in marker_failures
                )
                report.crash_failures.extend(
                    f"[{crash_engine}] {failure}"
                    for outcome in sweep.failures
                    for failure in outcome.failures
                )
                if progress is not None:
                    progress(
                        f"  crash compose [{crash_engine}]: "
                        f"{sweep.points_tested} boundaries, "
                        f"{sweep.crashes_triggered} crashes, "
                        f"{len(sweep.failures)} failures"
                    )
        report.rounds_run += 1
    report.elapsed_seconds = time.monotonic() - started
    return report


def replay_corpus_file(
    path: str, progress: Callable[[str], None] | None = None
) -> list[str]:
    """Replay one corpus trace; return human-readable failures.

    Dispatches on the trace's ``meta["mode"]``: ``"differential"``
    (default) rebuilds the matrix the file's ``engines``/``shards``
    hints name and demands zero divergences; ``"crash"`` drives the
    crash composer — ``crash`` markers always, plus a full boundary
    enumeration when ``meta["crash_every"]`` is set.  A differential
    file that names its ``config`` replays on that one config, fault
    plan included; one without replays its engines' fault-free family.
    """
    trace = Trace.load(path)
    mode = trace.meta.get("mode", "differential")
    if mode == "crash":
        engine = trace.meta.get("engine", "blsm")
        seed = int(trace.meta.get("seed", 0))
        failures = list(run_crash_trace(trace, engine=engine, seed=seed))
        every = trace.meta.get("crash_every")
        if every:
            sweep = enumerate_trace_crash_points(
                trace, engine=engine, every=int(every), seed=seed,
                progress=progress,
            )
            failures.extend(
                failure
                for outcome in sweep.failures
                for failure in outcome.failures
            )
        return failures
    if mode != "differential":
        return [f"{path}: unknown trace mode {mode!r}"]
    label = trace.meta.get("config")
    configs = default_fuzz_configs(
        engines=trace.meta.get("engines") or None,
        shards=int(trace.meta.get("shards", 2)),
        include_faulted=label is not None,
    )
    if label is not None:
        configs = [config for config in configs if config.label == label]
        if not configs:
            return [f"{path}: no fuzz config is labelled {label!r}"]
    return [
        divergence.describe()
        for divergence in run_differential(trace, configs, progress=progress)
    ]


def replay_corpus(
    directory: str, progress: Callable[[str], None] | None = None
) -> list[tuple[str, list[str]]]:
    """Replay every ``*.json`` trace under a corpus directory.

    Returns ``(path, failures)`` pairs in sorted path order; an
    unreadable file reports as a failure rather than raising, so one
    corrupt corpus entry cannot hide the rest.
    """
    results: list[tuple[str, list[str]]] = []
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        path = os.path.join(directory, name)
        if progress is not None:
            progress(f"corpus: {name}")
        try:
            failures = replay_corpus_file(path, progress=progress)
        except Exception as error:  # noqa: BLE001 — report, don't abort
            failures = [f"replay raised {type(error).__name__}: {error}"]
        results.append((path, failures))
    return results


def format_fuzz_report(report: FuzzReport) -> str:
    """Render a :class:`FuzzReport` as the CLI's summary block."""
    lines = [
        f"fuzz seed {report.seed}: {report.rounds_run} round(s), "
        f"{report.ops_replayed} engine-ops across "
        f"{len(report.configs)} configs "
        f"({', '.join(report.configs)}) in {report.elapsed_seconds:.1f}s"
    ]
    if report.crash_boundaries:
        lines.append(
            f"crash compose: {report.crash_boundaries} boundaries tested, "
            f"{report.crashes_triggered} crashes triggered"
        )
    if report.divergences:
        lines.append(f"DIVERGENCES: {len(report.divergences)}")
        lines.extend(f"  {d.describe()}" for d in report.divergences)
    if report.crash_failures:
        lines.append(f"CRASH FAILURES: {len(report.crash_failures)}")
        lines.extend(f"  {failure}" for failure in report.crash_failures)
    if report.corpus_files:
        lines.append("corpus repros written:")
        lines.extend(f"  {path}" for path in report.corpus_files)
    if report.ok:
        lines.append("all engines agree; all recoveries verified")
    return "\n".join(lines)
