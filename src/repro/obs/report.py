"""The versioned bench-report envelope (every ``BENCH_*.json``).

This module is the one report surface the bench subcommands emit
(docs/benchmarking.md):

* :class:`BenchReport` — a schema-versioned envelope: ``bench`` name,
  run ``config`` (seed and parameters) and named ``metrics`` blocks
  addressed by dotted paths.  A report is a pure function of the code
  and its config: two runs of one scenario write byte-identical files,
  so a committed report is checked by regenerating it and diffing
  (``git diff --exit-code``), with no comparator in between.
* :func:`load_report` — loads and validates an envelope file.
* :class:`Gate` + :func:`evaluate_gates` — the declarative assertion
  helper every CLI ``--assert-*`` flag now compiles into, printed as
  one uniform pass/fail table by :func:`format_gate_table`.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

#: The envelope's schema identifier; bump VERSION on breaking changes.
SCHEMA = "repro.bench-report"
VERSION = 1

__all__ = [
    "SCHEMA",
    "VERSION",
    "BenchReport",
    "Gate",
    "GateResult",
    "ReportError",
    "evaluate_gates",
    "format_gate_table",
    "gates_passed",
    "keyword_defaults",
    "load_report",
    "metric_value",
    "new_report",
    "validate_payload",
]


class ReportError(ValueError):
    """A payload that is not a BenchReport."""


@dataclass
class BenchReport:
    """One benchmark run in the repo's shared envelope.

    ``metrics`` holds named blocks (nested dicts of JSON scalars,
    lists, and sub-dicts); :meth:`value` addresses leaves by dotted
    path (``"group.forces_per_op"``), which is the coordinate system
    gates use.
    """

    bench: str
    config: dict[str, Any] = field(default_factory=dict)
    metrics: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA,
            "version": VERSION,
            "bench": self.bench,
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
) -> BenchReport:
    """A fresh report: nothing in it names the host or the revision."""
    return BenchReport(bench=bench, config=dict(config), metrics=dict(metrics))


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
    """Schema problems of an envelope payload ([] when valid).

    Keys the envelope does not define, such as the ``meta`` block older
    reports carry, are ignored.
    """
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
