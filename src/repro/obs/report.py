"""The versioned bench-report envelope (every ``BENCH_*.json``).

This module is the one report surface the bench subcommands emit and
the perf gate consumes (docs/benchmarking.md):

* :class:`BenchReport` — a schema-versioned envelope: ``bench`` name,
  run ``config`` (seed and parameters), ``meta`` (schema version, git
  revision) and named ``metrics`` blocks addressed by dotted paths.
* :func:`load_report` — loads and validates an envelope file.
* :class:`Gate` + :func:`evaluate_gates` — the declarative assertion
  helper every CLI ``--assert-*`` flag now compiles into, printed as
  one uniform pass/fail table by :func:`format_gate_table`.
* :class:`CompareRule` + :func:`compare_reports` — the CI perf gate:
  diff a fresh report against a committed baseline and fail on
  throughput or tail-latency regressions beyond a tolerance.
"""

from __future__ import annotations

import inspect
import json
import subprocess
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

#: The envelope's schema identifier; bump VERSION on breaking changes.
SCHEMA = "repro.bench-report"
VERSION = 1

__all__ = [
    "SCHEMA",
    "VERSION",
    "BenchReport",
    "CompareRule",
    "ComparisonRow",
    "Gate",
    "GateResult",
    "ReportError",
    "compare_reports",
    "comparison_passed",
    "evaluate_gates",
    "format_comparison",
    "format_gate_table",
    "gates_passed",
    "git_revision",
    "keyword_defaults",
    "load_report",
    "metric_value",
    "new_report",
    "validate_payload",
]


class ReportError(ValueError):
    """A payload that is not a BenchReport."""


def git_revision() -> str:
    """The repository's short git revision, or ``"unknown"``.

    Report metadata, not identity: comparisons never touch it, so a
    missing ``git`` binary or a non-repo working directory degrade to a
    placeholder instead of failing the bench.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


@dataclass
class BenchReport:
    """One benchmark run in the repo's shared envelope.

    ``metrics`` holds named blocks (nested dicts of JSON scalars,
    lists, and sub-dicts); :meth:`value` addresses leaves by dotted
    path (``"group.forces_per_op"``), which is the coordinate system
    gates and baseline comparisons share.
    """

    bench: str
    config: dict[str, Any] = field(default_factory=dict)
    metrics: dict[str, Any] = field(default_factory=dict)
    meta: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA,
            "version": VERSION,
            "bench": self.bench,
            "meta": dict(self.meta),
            "config": self.config,
            "metrics": self.metrics,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "BenchReport":
        problems = validate_payload(payload)
        if problems:
            raise ReportError(
                "invalid bench report: " + "; ".join(problems)
            )
        return cls(
            bench=payload["bench"],
            config=dict(payload.get("config", {})),
            metrics=dict(payload.get("metrics", {})),
            meta=dict(payload.get("meta", {})),
        )

    def value(self, path: str, default: Any = ...) -> Any:
        """The metric at dotted ``path``; ``default`` or KeyError if absent."""
        try:
            return metric_value(self.metrics, path)
        except KeyError:
            if default is ...:
                raise
            return default

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=1, sort_keys=True)
            handle.write("\n")


def new_report(
    bench: str,
    config: Mapping[str, Any],
    metrics: Mapping[str, Any],
    meta: Mapping[str, Any] | None = None,
) -> BenchReport:
    """A fresh report stamped with the current git revision."""
    stamped: dict[str, Any] = {"git_rev": git_revision()}
    if meta:
        stamped.update(meta)
    return BenchReport(
        bench=bench,
        config=dict(config),
        metrics=dict(metrics),
        meta=stamped,
    )


def keyword_defaults(function: Callable[..., Any]) -> dict[str, Any]:
    """``function``'s keyword defaults — a scenario's one home.

    A bench's CLI flags take their defaults from here and its report's
    ``config`` block is these names, so neither can drift from the code.
    """
    return {
        name: parameter.default
        for name, parameter in inspect.signature(function).parameters.items()
        if parameter.default is not parameter.empty
    }


def validate_payload(payload: Mapping[str, Any]) -> list[str]:
    """Schema problems of an envelope payload ([] when valid)."""
    problems: list[str] = []
    if not isinstance(payload, Mapping):
        return ["payload is not an object"]
    if payload.get("schema") != SCHEMA:
        problems.append(
            f"schema is {payload.get('schema')!r}, expected {SCHEMA!r}"
        )
    version = payload.get("version")
    if not isinstance(version, int) or version < 1:
        problems.append(f"version is {version!r}, expected a positive int")
    elif version > VERSION:
        problems.append(
            f"version {version} is newer than this reader ({VERSION})"
        )
    bench = payload.get("bench")
    if not isinstance(bench, str) or not bench:
        problems.append("bench name missing")
    for section in ("config", "metrics"):
        value = payload.get(section, {})
        if not isinstance(value, Mapping):
            problems.append(f"{section} is not an object")
    meta = payload.get("meta", {})
    if not isinstance(meta, Mapping):
        problems.append("meta is not an object")
    return problems


def load_report(path: str) -> BenchReport:
    """Load a report file; an invalid payload's error names the file."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    try:
        return BenchReport.from_dict(payload)
    except ReportError as error:
        raise ReportError(f"{path}: {error}") from None


def metric_value(metrics: Mapping[str, Any], path: str) -> Any:
    """Resolve dotted ``path`` inside a metrics mapping.

    Raises KeyError naming the first missing segment, so a failed gate
    says *which* block is absent rather than just "no".
    """
    node: Any = metrics
    for segment in path.split("."):
        if not isinstance(node, Mapping) or segment not in node:
            raise KeyError(f"no metric at {path!r} (missing {segment!r})")
        node = node[segment]
    return node


# ----------------------------------------------------------------------
# Declarative gates (every CLI --assert-* flag compiles to these)
# ----------------------------------------------------------------------

_OPS = {
    "<=": lambda value, bound: value <= bound,
    ">=": lambda value, bound: value >= bound,
    "<": lambda value, bound: value < bound,
    ">": lambda value, bound: value > bound,
    "==": lambda value, bound: value == bound,
}


@dataclass(frozen=True)
class Gate:
    """One pass/fail assertion against a report metric.

    ``value(path) op bound`` — e.g. ``Gate("force amortization",
    "force_ratio", ">=", 4.0)``.  ``scale``/``unit`` only affect how
    the table renders the numbers (``1e3``/``"ms"`` for latencies).
    """

    name: str
    path: str
    op: str
    bound: float
    scale: float = 1.0
    unit: str = ""

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(
                f"unknown gate op {self.op!r}; expected one of {sorted(_OPS)}"
            )


@dataclass(frozen=True)
class GateResult:
    gate: Gate
    value: float | None
    passed: bool
    error: str = ""


def evaluate_gates(
    report: BenchReport, gates: Iterable[Gate]
) -> list[GateResult]:
    """Evaluate every gate against the report's metrics.

    A missing or non-numeric metric is a *failure* (with the error
    recorded), never a silent pass — a gate that cannot see its metric
    must not green-light CI.
    """
    results: list[GateResult] = []
    for gate in gates:
        try:
            raw = report.value(gate.path)
            value = float(raw)
        except KeyError as error:
            results.append(GateResult(gate, None, False, str(error)))
            continue
        except (TypeError, ValueError):
            results.append(
                GateResult(
                    gate, None, False,
                    f"metric at {gate.path!r} is not numeric",
                )
            )
            continue
        results.append(
            GateResult(gate, value, _OPS[gate.op](value, gate.bound))
        )
    return results


def gates_passed(results: Iterable[GateResult]) -> bool:
    return all(result.passed for result in results)


def format_gate_table(results: Sequence[GateResult]) -> list[str]:
    """The uniform pass/fail table every gated subcommand prints."""
    if not results:
        return []
    lines = [
        f"{'gate':36s}{'value':>14s}{'bound':>16s}{'result':>8s}"
    ]
    for result in results:
        gate = result.gate
        unit = f" {gate.unit}" if gate.unit else ""
        if result.value is None:
            shown = "-"
        else:
            shown = f"{result.value * gate.scale:.3f}{unit}"
        bound = f"{gate.op} {gate.bound * gate.scale:g}{unit}"
        verdict = "PASS" if result.passed else "FAIL"
        lines.append(f"{gate.name:36s}{shown:>14s}{bound:>16s}{verdict:>8s}")
        if result.error:
            lines.append(f"  ({result.error})")
    failed = sum(1 for result in results if not result.passed)
    lines.append(
        "gates: all passed"
        if failed == 0
        else f"gates: {failed} of {len(results)} FAILED"
    )
    return lines


# ----------------------------------------------------------------------
# Baseline comparison (the CI perf gate)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CompareRule:
    """How one metric may drift between baseline and current.

    ``direction`` is which way is *better*: ``"higher"`` for
    throughput-like metrics (current may not fall more than
    ``tolerance`` below baseline), ``"lower"`` for latency-like ones
    (current may not rise more than ``tolerance`` above baseline).
    """

    path: str
    direction: str
    tolerance: float = 0.25

    def __post_init__(self) -> None:
        if self.direction not in ("higher", "lower"):
            raise ValueError(
                f"direction must be 'higher' or 'lower', "
                f"got {self.direction!r}"
            )
        if self.tolerance < 0.0:
            raise ValueError(f"tolerance must be >= 0, got {self.tolerance}")


@dataclass(frozen=True)
class ComparisonRow:
    rule: CompareRule
    baseline: float | None
    current: float | None
    change: float | None
    """Relative change, signed toward degradation (+0.30 = 30% worse)."""
    passed: bool
    error: str = ""


def compare_reports(
    baseline: BenchReport,
    current: BenchReport,
    rules: Iterable[CompareRule],
) -> list[ComparisonRow]:
    """Diff ``current`` against ``baseline`` under the given rules.

    Bench names must match (comparing a sessions report against a
    stability baseline is a configuration error, reported as a failing
    row, not an exception).  A metric missing from *current* fails its
    rule; one missing from *baseline* also fails — a silently shrinking
    baseline is how perf gates rot.
    """
    rows: list[ComparisonRow] = []
    if baseline.bench != current.bench:
        rule = CompareRule("bench", "higher", 0.0)
        rows.append(
            ComparisonRow(
                rule, None, None, None, False,
                f"bench mismatch: baseline {baseline.bench!r} "
                f"vs current {current.bench!r}",
            )
        )
        return rows
    for rule in rules:
        base: float | None = None
        cur: float | None = None
        try:
            base = float(baseline.value(rule.path))
            cur = float(current.value(rule.path))
        except KeyError as error:
            rows.append(ComparisonRow(rule, base, cur, None, False, str(error)))
            continue
        except (TypeError, ValueError):
            rows.append(
                ComparisonRow(
                    rule, base, cur, None, False,
                    f"metric at {rule.path!r} is not numeric",
                )
            )
            continue
        if base == 0.0:
            # Nothing to regress against: degradation is any nonzero
            # movement the wrong way; tolerance has no scale to bite on.
            worse = cur > 0.0 if rule.direction == "lower" else cur < 0.0
            rows.append(
                ComparisonRow(rule, base, cur, None, not worse,
                              "" if not worse else "baseline is zero")
            )
            continue
        drift = (cur - base) / abs(base)
        degradation = drift if rule.direction == "lower" else -drift
        rows.append(
            ComparisonRow(
                rule, base, cur, degradation,
                degradation <= rule.tolerance,
            )
        )
    return rows


def comparison_passed(rows: Iterable[ComparisonRow]) -> bool:
    return all(row.passed for row in rows)


def format_comparison(rows: Sequence[ComparisonRow]) -> list[str]:
    """Human-readable perf-gate table (one line per rule)."""
    if not rows:
        return ["perf gate: no rules evaluated"]
    lines = [
        f"{'metric':44s}{'baseline':>12s}{'current':>12s}"
        f"{'drift':>9s}{'result':>8s}"
    ]
    for row in rows:
        base = "-" if row.baseline is None else f"{row.baseline:.5g}"
        cur = "-" if row.current is None else f"{row.current:.5g}"
        if row.change is None:
            drift = "-"
        else:
            change = row.change + 0.0  # normalize -0.0
            sign = "+" if change >= 0 else ""
            drift = f"{sign}{change * 100:.1f}%"
        verdict = "PASS" if row.passed else "FAIL"
        lines.append(
            f"{row.rule.path:44s}{base:>12s}{cur:>12s}{drift:>9s}{verdict:>8s}"
        )
        if row.error:
            lines.append(f"  ({row.error})")
    failed = sum(1 for row in rows if not row.passed)
    lines.append(
        "perf gate: no regressions"
        if failed == 0
        else f"perf gate: {failed} of {len(rows)} rules FAILED"
    )
    return lines
