"""Amplification models: Bloom filters, cascading, and the policy space.

Two families of models live here.  The first backs the paper's Figure 2
(Bloom filters vs fractional cascading, below).  The second generalizes
the repo's original hardcoded three-component arithmetic to the N-level
compaction design space (Sarkar et al., PAPERS.md): given a policy name,
a level count and a size ratio, :func:`policy_write_amplification`,
:func:`policy_read_amplification` and
:func:`policy_space_amplification` place it on the write/read/space
trade-off triangle, and :func:`policy_table` tabulates the whole design
space at once — the analytic twin of ``repro policies``.

Figure 2 plots worst-case read amplification against data size (in
multiples of available RAM) for two designs:

* a three-level LSM-Tree whose on-disk components carry Bloom filters
  (the paper's design): point lookups cost at most ``1 + N * fpr`` seeks
  — about 1.03 for three on-disk components at a 1 % false-positive rate
  — independent of data size;

* fractional-cascading trees (TokuDB/COLA style) with a fixed fanout R:
  the number of levels grows logarithmically with data size, lookups
  visit a run of data pages at every on-disk level, and no choice of R
  is competitive — driving amplification to 1 requires an R so large the
  tree degenerates to a single component and O(n) write amplification
  (Section 3.1).

The cascading model charges one seek per on-disk level (the cascade
pointer lands directly in the next level's leaves, but those leaves are
on disk) and ``R/2`` pages of transfer per cascade step (the short run
of candidate pages examined at each level).
"""

from __future__ import annotations

import math

#: On-disk components a bLSM point lookup may probe (C1, C1', C2).
BLSM_DISK_COMPONENTS = 3


def cascade_levels(r: float, data_over_ram: float) -> int:
    """On-disk levels of a fractional-cascading tree with fanout ``r``.

    The top ``RAM`` worth of the tree is cached; every factor-of-``r``
    beyond that adds one on-disk level.
    """
    if r <= 1.0:
        raise ValueError(f"fanout must exceed 1, got {r}")
    if data_over_ram <= 1.0:
        return 0
    return max(1, math.ceil(math.log(data_over_ram, r)))


def cascade_read_amplification(r: float, data_over_ram: float) -> float:
    """Worst-case seeks per probe with fractional cascading."""
    return float(cascade_levels(r, data_over_ram))


def cascade_bandwidth_amplification(r: float, data_over_ram: float) -> float:
    """Pages transferred per probe with fractional cascading.

    Each cascade step examines a run of about ``r / 2`` candidate leaf
    pages in the next level (the run between two consecutive cascade
    pointers), so larger fanouts trade seeks for bandwidth.
    """
    levels = cascade_levels(r, data_over_ram)
    return levels * max(1.0, r / 2.0)


def bloom_read_amplification(
    data_over_ram: float,
    components: int = BLSM_DISK_COMPONENTS,
    false_positive_rate: float = 0.01,
) -> float:
    """Worst-case seeks per probe for the Bloom-filtered three-level tree.

    One seek for the component holding the record plus one expected seek
    per falsely-positive filter: ``1 + (components - 1) * fpr`` — 1.03
    at the paper's scenario parameters, flat in data size.
    """
    if data_over_ram <= 1.0:
        return 0.0  # everything fits in RAM
    return 1.0 + (components - 1) * false_positive_rate


def bloom_bandwidth_amplification(
    data_over_ram: float,
    components: int = BLSM_DISK_COMPONENTS,
    false_positive_rate: float = 0.01,
) -> float:
    """Pages transferred per probe with Bloom filters (one per seek)."""
    return bloom_read_amplification(data_over_ram, components, false_positive_rate)


# ----------------------------------------------------------------------
# The N-level compaction design space (generalizes the 3-slot arithmetic)
# ----------------------------------------------------------------------


def geometric_levels(data_over_base: float, ratio: float) -> int:
    """On-disk levels a geometric ``base * ratio^level`` tree needs.

    ``data_over_base`` is total data over the level-1 budget; one level
    suffices while the data fits it, and every factor of ``ratio``
    beyond adds a level.
    """
    if ratio <= 1.0:
        raise ValueError(f"ratio must exceed 1, got {ratio}")
    if data_over_base <= 1.0:
        return 1
    return 1 + max(1, math.ceil(math.log(data_over_base, ratio)))


def policy_run_counts(
    policy: str, levels: int, fanout: int = 4
) -> list[int]:
    """Worst-case resident sorted runs per on-disk level.

    ``leveled`` (and ``leveldb``, whose level is one run cut into files)
    keeps one run everywhere; ``tiered`` stacks ``fanout`` runs per
    level; ``lazy-leveled`` tiers the upper levels and keeps a
    single-run bottom; ``blsm3`` is the paper's fixed layout — C1 and
    C1' share the first on-disk level, C2 is the second.
    """
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    if policy == "blsm3":
        return [2, 1]
    if policy in ("leveled", "leveldb"):
        return [1] * levels
    if policy == "tiered":
        return [fanout] * levels
    if policy == "lazy-leveled":
        return [fanout] * (levels - 1) + [1]
    raise ValueError(f"unknown compaction policy {policy!r}")


def policy_write_amplification(
    policy: str, levels: int, ratio: float, fanout: int = 4
) -> float:
    """Merge I/O (read + write bytes) per ingested byte, per policy.

    Delegates to the policy objects' own
    ``estimated_write_amplification`` so the analytic tables, the
    spring-and-gear scheduler and the bench sweep share one formula;
    ``blsm3`` uses the leveled formula over its two on-disk levels.
    """
    from repro.core.compaction.policy import make_policy

    if policy == "blsm3":
        return make_policy("leveled").estimated_write_amplification(2, ratio)
    return make_policy(
        policy, fanout=fanout
    ).estimated_write_amplification(levels, ratio)


def per_level_write_amplification(
    policy: str, levels: int, ratio: float, fanout: int = 4
) -> list[float]:
    """The per-level breakdown :func:`policy_write_amplification` sums.

    Each entry is the merge I/O a byte pays to cross (or settle in) one
    level: ``2 * (1 + ratio)`` for a leveled crossing (the byte is
    rewritten together with the ~``ratio``-times-larger resident run),
    ``2.0`` for a tiered crossing (copied once, never rewritten).
    """
    counts = policy_run_counts(policy, levels, fanout)
    leveled_cost = 2.0 * (1.0 + ratio)
    if policy == "blsm3":
        # C1' is a promoted C1, not an extra tier: both on-disk levels
        # rewrite their resident run per crossing (leveled cost).
        return [leveled_cost, leveled_cost]
    return [leveled_cost if count <= 1 else 2.0 for count in counts]


def policy_read_amplification(
    policy: str,
    levels: int,
    fanout: int = 4,
    false_positive_rate: float = 0.0,
) -> float:
    """Worst-case seeks per point lookup, per policy.

    Without Bloom filters a lookup probes every resident run; with them
    it pays one seek for the run holding the key plus ``fpr`` expected
    seeks per other filter — the N-level generalization of
    :func:`bloom_read_amplification`.
    """
    runs = sum(policy_run_counts(policy, levels, fanout))
    if false_positive_rate <= 0.0:
        return float(runs)
    return 1.0 + (runs - 1) * false_positive_rate


def policy_space_amplification(
    policy: str, ratio: float, fanout: int = 4
) -> float:
    """Worst-case physical/logical size ratio, per policy.

    Leveling bounds stale versions to the upper levels' share
    (``1 + 1/ratio``); tiering may hold ``fanout`` full copies in its
    bottom level; lazy leveling's single-run bottom restores the
    leveled bound except for its tiered upper levels
    (``1 + fanout/ratio``).  ``blsm3`` keeps two ``data/ratio``-sized
    upper components (C1 and C1') above C2.
    """
    if ratio <= 1.0:
        raise ValueError(f"ratio must exceed 1, got {ratio}")
    if policy == "blsm3":
        return 1.0 + 2.0 / ratio
    if policy in ("leveled", "leveldb"):
        return 1.0 + 1.0 / ratio
    if policy == "tiered":
        return float(fanout)
    if policy == "lazy-leveled":
        return 1.0 + fanout / ratio
    raise ValueError(f"unknown compaction policy {policy!r}")


def policy_table(
    policies: list[str] | None = None,
    data_over_base: float = 64.0,
    ratio: float = 4.0,
    fanout: int = 4,
    false_positive_rate: float = 0.01,
) -> list[dict[str, object]]:
    """The design space in one table: amplifications per policy.

    Rows carry ``policy``, ``levels``, ``write_amp`` (with its
    ``per_level`` breakdown), ``read_seeks`` (Bloom-filtered and
    filterless) and ``space_amp`` at one data size — the analytic
    counterpart of the measured ``repro policies`` sweep.
    """
    from repro.core.compaction.policy import POLICY_NAMES

    names = list(policies) if policies else list(POLICY_NAMES)
    levels = geometric_levels(data_over_base, ratio)
    rows: list[dict[str, object]] = []
    for name in names:
        depth = 2 if name == "blsm3" else levels
        rows.append(
            {
                "policy": name,
                "levels": depth,
                "write_amp": policy_write_amplification(
                    name, depth, ratio, fanout
                ),
                "per_level": per_level_write_amplification(
                    name, depth, ratio, fanout
                ),
                "read_seeks": policy_read_amplification(
                    name, depth, fanout, false_positive_rate
                ),
                "read_seeks_no_bloom": policy_read_amplification(
                    name, depth, fanout
                ),
                "space_amp": policy_space_amplification(name, ratio, fanout),
            }
        )
    return rows


def read_fanout(
    page_size: int, key_bytes: int, value_bytes: int, pointer_bytes: int = 8
) -> float:
    """Appendix A's read fanout: data addressed per byte of index RAM.

    ``max(page_size, key + value) / (key + pointer)`` — about 40 for
    100-byte keys and 4 KB pages.
    """
    if page_size <= 0 or key_bytes <= 0:
        raise ValueError("page_size and key_bytes must be positive")
    addressed = max(page_size, key_bytes + value_bytes)
    return addressed / (key_bytes + pointer_bytes)


def figure2_series(
    r_values: list[int] | None = None,
    max_ratio: int = 16,
    points_per_unit: int = 2,
) -> dict[str, list[tuple[float, float, float]]]:
    """The Figure 2 data: per curve, (ratio, seek amp, bandwidth amp).

    Returns a mapping from curve label (``bloom`` or ``R=k``) to its
    series over data sizes 0..``max_ratio`` multiples of RAM.
    """
    if r_values is None:
        r_values = list(range(2, 11))
    ratios = [
        i / points_per_unit for i in range(0, max_ratio * points_per_unit + 1)
    ]
    series: dict[str, list[tuple[float, float, float]]] = {"bloom": []}
    for ratio in ratios:
        series["bloom"].append(
            (
                ratio,
                bloom_read_amplification(ratio),
                bloom_bandwidth_amplification(ratio),
            )
        )
    for r in r_values:
        curve: list[tuple[float, float, float]] = []
        for ratio in ratios:
            if ratio <= 1.0:
                curve.append((ratio, 0.0, 0.0))
            else:
                curve.append(
                    (
                        ratio,
                        cascade_read_amplification(r, ratio),
                        cascade_bandwidth_amplification(r, ratio),
                    )
                )
        series[f"R={r}"] = curve
    return series
