"""Analytical models from the paper (Sections 2.1, 3.1 and Appendix A)."""

from repro.analysis.amplification import (
    bloom_bandwidth_amplification,
    bloom_read_amplification,
    cascade_bandwidth_amplification,
    cascade_read_amplification,
    figure2_series,
    geometric_levels,
    per_level_write_amplification,
    policy_read_amplification,
    policy_run_counts,
    policy_space_amplification,
    policy_table,
    policy_write_amplification,
    read_fanout,
)
from repro.analysis.crossover import (
    crossover_object_bytes,
    crossover_table,
    log_structured_write_seconds,
    policy_crossover_table,
    update_in_place_write_seconds,
)
from repro.analysis.five_minute import DeviceSpec, cache_gb_table, STANDARD_DEVICES
from repro.analysis.levels import (
    level_ratio,
    optimal_levels_for_write,
    read_amplification,
    tradeoff_table,
    write_amplification,
)
from repro.analysis.stability import (
    bounded_latency_block,
    bounded_latency_check,
    stability_table,
)

__all__ = [
    "DeviceSpec",
    "STANDARD_DEVICES",
    "bloom_bandwidth_amplification",
    "bloom_read_amplification",
    "bounded_latency_block",
    "bounded_latency_check",
    "cache_gb_table",
    "cascade_bandwidth_amplification",
    "cascade_read_amplification",
    "crossover_object_bytes",
    "crossover_table",
    "figure2_series",
    "geometric_levels",
    "log_structured_write_seconds",
    "update_in_place_write_seconds",
    "level_ratio",
    "optimal_levels_for_write",
    "per_level_write_amplification",
    "policy_crossover_table",
    "policy_read_amplification",
    "policy_run_counts",
    "policy_space_amplification",
    "policy_table",
    "policy_write_amplification",
    "read_amplification",
    "read_fanout",
    "stability_table",
    "tradeoff_table",
    "write_amplification",
]
