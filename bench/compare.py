"""Judge one suite report against another, metric by metric.

Each end-to-end metric carries a direction and a bound (bench/spec.py):
the candidate may be worse than the baseline by at most ``bound`` x the
baseline.  ``sim_*`` bounds are 1 % because the simulation is
deterministic for a given seed, so any drift is a code-path change;
``host_*`` bounds are 10 %.  Where the two sides' timed segments
disagree about the speed-up by more than the bound, the row reads
``unresolved`` rather than passing or failing.
"""

from __future__ import annotations

from typing import Any

from bench import spec

#: Worst first.
_RANK = ("REGRESSED", "DIFFERS", "unresolved", "improved", "ok", "same", "n/a")


def paired_segment_spread(
    base: dict[str, Any], cand: dict[str, Any]
) -> float:
    """How much the timed segments disagree about the speed-up.

    Segment *i* does the same deterministic work on both sides, so the
    per-segment ratios candidate/baseline would be equal without noise;
    their (max - min) / median is the noise the comparison carries.
    """
    ratios = sorted(
        c["ops_per_cpu_s"] / b["ops_per_cpu_s"]
        for b, c in zip(base["segments"], cand["segments"])
        if b["label"] == c["label"] and b["ops_per_cpu_s"] > 0
    )
    if len(ratios) < 2:
        return 0.0
    return (ratios[-1] - ratios[0]) / ratios[len(ratios) // 2]


def judge(
    metric: spec.EndToEnd, base: float | None, cand: float | None
) -> tuple[str, float | None]:
    """(verdict, share of the baseline by which the candidate is worse)."""
    if base is None and cand is None:
        return "n/a", None
    if base is None or cand is None:
        return "DIFFERS", None
    if base == cand:
        return "same", 0.0
    worse = cand - base if metric.better == "lower" else base - cand
    if base == 0:
        return ("REGRESSED" if worse > 0 else "improved"), None
    share = worse / abs(base)
    if share > metric.bound:
        return "REGRESSED", share
    if share < -metric.bound:
        return "improved", share
    return "ok", share


def compare_suites(
    baseline: dict[str, Any], candidate: dict[str, Any],
    require_identical_sim: bool = False,
) -> list[dict[str, Any]]:
    """One row per workload x end-to-end metric (plus, when both suites
    hold traced runs, one per exact per-layer count that differs)."""
    rows: list[dict[str, Any]] = []
    for name in spec.WORKLOADS:
        base = baseline["workloads"].get(name)
        cand = candidate["workloads"].get(name)
        if base is None and cand is None:
            continue  # a --workloads subset, on both sides
        if base is None or cand is None:
            rows.append(_differs(
                name, "workload", base and "present", cand and "present"
            ))
            continue
        noisy = paired_segment_spread(base, cand)
        for metric in spec.END_TO_END:
            a = base["end_to_end"][metric.name]["value"]
            b = cand["end_to_end"][metric.name]["value"]
            verdict, share = judge(metric, a, b)
            if (
                metric.name == "host_ops_per_cpu_s"
                and noisy > metric.bound
                and verdict != "same"
            ):
                verdict = "unresolved"
            if (
                require_identical_sim
                and metric.clock == "sim"
                and verdict not in ("same", "n/a")
            ):
                verdict = "DIFFERS"
            rows.append(
                {
                    "workload": name, "metric": metric.name,
                    "unit": metric.unit, "better": metric.better,
                    "bound": metric.bound, "baseline": a, "candidate": b,
                    "worse_by": share, "verdict": verdict,
                }
            )
        if require_identical_sim and (
            base["sim_signature"] != cand["sim_signature"]
        ):
            rows.append(_differs(name, "sim_signature"))
        base_traced = baseline.get("traced", {}).get(name)
        cand_traced = candidate.get("traced", {}).get(name)
        if base_traced and cand_traced:
            for layer in spec.PER_LAYER:
                if not layer.exact:
                    continue
                a = base_traced["per_layer"][layer.name]["value"]
                b = cand_traced["per_layer"][layer.name]["value"]
                if a != b:
                    rows.append(_differs(name, layer.name, a, b, layer.unit))
    return rows


def _differs(
    workload: str, metric: str, a: Any = None, b: Any = None, unit: str = ""
) -> dict[str, Any]:
    return {
        "workload": workload, "metric": metric, "unit": unit, "better": "",
        "bound": 0.0, "baseline": a, "candidate": b, "worse_by": None,
        "verdict": "DIFFERS",
    }


def worst(rows: list[dict[str, Any]]) -> str:
    verdicts = {row["verdict"] for row in rows}
    return next((v for v in _RANK if v in verdicts), "n/a")


def _cell(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def format_rows(
    rows: list[dict[str, Any]], only_notable: bool = False
) -> str:
    lines = [
        f"{'workload':<12} {'metric':<26} {'baseline':>14} {'candidate':>14} "
        f"{'worse by':>9} {'bound':>6}  verdict"
    ]
    for row in rows:
        if only_notable and row["verdict"] in ("same", "ok", "n/a", "improved"):
            continue
        share = row["worse_by"]
        lines.append(
            f"{row['workload']:<12} {row['metric']:<26} "
            f"{_cell(row['baseline']):>14} {_cell(row['candidate']):>14} "
            f"{'' if share is None else f'{100 * share:+.2f}%':>9} "
            f"{100 * row['bound']:>5.0f}%  {row['verdict']}"
        )
    lines.append(f"worst: {worst(rows)}")
    return "\n".join(lines)
