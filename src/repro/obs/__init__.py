"""Observability core: metrics registry, trace recorder, engine runtime.

One instrumentation spine for the whole repository (see
``docs/observability.md``): every layer — simulated devices, buffer
manager, merges, schedulers, trees, the YCSB runner — reports through
the :class:`MetricsRegistry` and :class:`TraceRecorder` owned by its
engine's :class:`EngineRuntime`.
"""

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.report import (
    BenchReport,
    CompareRule,
    Gate,
    ReportError,
    compare_reports,
    evaluate_gates,
    format_comparison,
    format_gate_table,
    load_report,
    new_report,
)
from repro.obs.runtime import EngineRuntime
from repro.obs.timeline import (
    WindowedTimeline,
    percentile,
    windows_over_span,
)
from repro.obs.summary import (
    StallInterval,
    events_within,
    format_buffer_summary,
    format_device_summary,
    format_fault_summary,
    format_layout_summary,
    format_memory_summary,
    format_shard_summary,
    format_summary,
    format_version_summary,
    merge_seconds_by_level,
    reconstruct_stalls,
    stall_causes,
    summarize_trace,
)
from repro.obs.trace import TraceEvent, TraceRecorder

__all__ = [
    "BenchReport",
    "CompareRule",
    "Counter",
    "EngineRuntime",
    "Gate",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ReportError",
    "StallInterval",
    "TraceEvent",
    "TraceRecorder",
    "WindowedTimeline",
    "compare_reports",
    "evaluate_gates",
    "events_within",
    "format_comparison",
    "format_gate_table",
    "load_report",
    "new_report",
    "percentile",
    "windows_over_span",
    "format_buffer_summary",
    "format_device_summary",
    "format_fault_summary",
    "format_layout_summary",
    "format_memory_summary",
    "format_shard_summary",
    "format_summary",
    "format_version_summary",
    "merge_seconds_by_level",
    "reconstruct_stalls",
    "stall_causes",
    "summarize_trace",
]
