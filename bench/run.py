#!/usr/bin/env python3
"""Benchmark entry point.

The driver's contract (BENCHMARK.json)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload in this process and prints, as the last line of
standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (``--trace 0``: the end-to-end metrics
BENCHMARK.json lists; ``--trace 1``: every per-layer metric).

For people::

    python3 bench/run.py suite [--trace] [--out FILE]   # all six, one subprocess each
    python3 bench/run.py compare A.json B.json          # judge B against A
    python3 bench/run.py repeat --sets 2                # must agree with itself
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _bootstrap() -> None:
    """Make ``bench`` and the program under test importable from the
    checkout only; without the program's sources there is nothing to
    measure and the run fails instead of printing a result."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write(
            f"bench: {os.path.join(SRC, 'repro')} not found: the program "
            "under test is missing from this checkout\n"
        )
        raise SystemExit(2)
    for path in (SRC, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


def _contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------


def run_workload(
    name: str, seed: int, seconds: float, scale: float, trace: bool,
    write_spans: bool = True, startup_cpu_s: float = 0.0,
) -> dict:
    """Run one workload and return its report (also used by the tests).

    ``startup_cpu_s``: CPU this process used before it got here, when
    the process exists only for this run (the command line); it is
    charged to ``setup_s`` together with the imports below.
    """
    _bootstrap()
    before_imports = time.process_time()
    from bench import measure
    from bench.workloads import make_workload

    workload = make_workload(name, seed, scale, seconds)
    startup_cpu_s += time.process_time() - before_imports
    if trace:
        report = measure.run_traced(workload, write_spans=write_spans)
    else:
        report = measure.run_untraced(workload, startup_cpu_s)
    report.update(
        schema="bench-report-v1", seed=seed, seconds=seconds, scale=scale,
        sizes=vars(workload.sizes),
    )
    return report


def _fmt(value: object) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        if value != 0 and (abs(value) >= 1e6 or abs(value) < 1e-3):
            return f"{value:.4e}"
        return f"{value:.4f}"
    return str(value)


def print_report(report: dict) -> None:
    """Every metric by name with unit and sample count, for people."""
    out = sys.stdout.write
    out(
        f"== {report['workload']}  seed={report['seed']} "
        f"seconds={report['seconds']:g} scale={report['scale']:g} "
        f"trace={int(report['trace'])}\n"
    )
    for row in report["segments"]:
        out(
            f"   {row['label']:<8} ops={row['ops']:<8} "
            f"cpu_s={row['cpu_s']:.3f} ops/cpu-s={row['ops_per_cpu_s']:.0f} "
            f"vsec={row['vsec']:.4f}\n"
        )
    block = report.get("end_to_end") or report.get("per_layer") or {}
    spare = report.get("setup_sim", {})
    for name, cell in block.items():
        n = f" n={cell['n']}" if cell.get("n") is not None else ""
        why = f"  ({cell['reason']})" if cell.get("reason") else ""
        if cell["value"] is None and name in spare:
            why += f"  driver's line: the set-up's {_fmt(spare[name]['value'])}"
        out(f"   {name:<44} {_fmt(cell['value']):>14} {cell['unit']}{n}{why}\n")
    if report["trace"]:
        ledger = report["ledger"]
        out(
            f"   ledger: wrapper cost c_in={ledger['c_in_ns']:.0f} ns "
            f"c_out={ledger['c_out_ns']:.0f} ns; "
            f"{ledger['ops_sampled']} ops / {ledger['spans_written']} spans "
            "written\n"
        )
        total = max(1, ledger["raw_self_sum_ns"])
        for row in ledger["rows"][:12]:
            out(
                f"   {row['name']:<28} calls={row['calls']:<9} "
                f"self={row['self_ns'] / 1e6:9.1f} ms "
                f"raw={100 * row['raw_self_ns'] / total:5.1f}% "
                f"self_vsec={row['self_vsec']:.4f}\n"
            )
    out(
        f"   attempted={report['attempted']} failed={report['failed']} "
        f"correct={report['correct']}\n"
    )
    for problem in report["problems"]:
        out(f"   PROBLEM: {problem}\n")


def contract_line(report: dict) -> str:
    """The driver's last line: exactly the metrics BENCHMARK.json lists
    for this mode, each as a number.  The report keeps ``null`` + reason
    where a workload's timed segments give no number; the schema has no
    null, so there an end-to-end cell carries the same ratio over the
    workload's set-up (load and warm-up) and a per-layer cell reads 0."""
    contract = _contract()
    if report["trace"]:
        names, block, spare = contract["per_layer"], report["per_layer"], {}
    else:
        names, block = contract["end_to_end"], report["end_to_end"]
        spare = report["setup_sim"]
    metrics = {}
    for entry in names:
        value = block[entry["name"]]["value"]
        if value is None and entry["name"] in spare:
            value = spare[entry["name"]]["value"]
        if value is None and report["trace"]:
            value = 0.0
        if value is None or not math.isfinite(value):
            raise SystemExit(
                f"bench: {entry['name']} is {value!r} on {report['workload']}"
            )
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return json.dumps(
        {
            "correct": bool(report["correct"]),
            "attempted": int(report["attempted"]),
            "failed": int(report["failed"]),
            "metrics": metrics,
        }
    )


def main_workload(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink data set, memory and op counts together (smoke runs)",
    )
    parser.add_argument("--out", help="also write the full report here")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.scale <= 0:
        parser.error("--seconds and --scale must be positive")
    report = run_workload(
        args.workload, args.seed, args.seconds, args.scale, bool(args.trace),
        startup_cpu_s=time.process_time(),
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
    print_report(report)
    sys.stdout.write(contract_line(report) + "\n")
    sys.stdout.flush()
    return 0 if report["correct"] else 1


# ----------------------------------------------------------------------
# the suite: one subprocess per workload, run sequentially
# ----------------------------------------------------------------------


def run_suite(
    seed: int, seconds: float, scale: float, trace: bool,
    workloads: tuple[str, ...] | None = None,
) -> dict:
    _bootstrap()
    from bench import spec

    suite: dict = {
        "schema": "bench-suite-v1", "seed": seed, "seconds": seconds,
        "scale": scale, "workloads": {}, "traced": {},
    }
    for name in workloads or spec.WORKLOADS:
        for traced in (False, True) if trace else (False,):
            with tempfile.TemporaryDirectory(dir=_out_dir()) as tmp:
                path = os.path.join(tmp, "report.json")
                code = subprocess.run(
                    [
                        sys.executable, os.path.abspath(__file__),
                        "--workload", name, "--seed", str(seed),
                        "--seconds", repr(seconds), "--scale", repr(scale),
                        "--trace", str(int(traced)), "--out", path,
                    ],
                    check=False,
                ).returncode
                if not os.path.exists(path):
                    raise SystemExit(
                        f"bench: {name} exited {code} without a report"
                    )
                with open(path, encoding="utf-8") as handle:
                    report = json.load(handle)
            suite["traced" if traced else "workloads"][name] = report
    return suite


def _out_dir() -> str:
    path = os.path.join(HERE, "out")
    os.makedirs(path, exist_ok=True)
    return path


def _suite_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument(
        "--trace", action="store_true",
        help="also make the traced (per-layer) run of every workload",
    )
    parser.add_argument("--workloads", help="comma-separated subset")


def _subset(args: argparse.Namespace) -> tuple[str, ...] | None:
    return tuple(args.workloads.split(",")) if args.workloads else None


def main_suite(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py suite")
    _suite_args(parser)
    parser.add_argument("--out", help="write the suite report here")
    args = parser.parse_args(argv)
    suite = run_suite(
        args.seed, args.seconds, args.scale, args.trace, _subset(args)
    )
    out = args.out or os.path.join(_out_dir(), "suite.json")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(suite, handle, indent=1)
    print(f"suite report: {out}")
    reports = list(suite["workloads"].values()) + list(suite["traced"].values())
    return 0 if all(r["correct"] for r in reports) else 1


def main_compare(argv: list[str]) -> int:
    _bootstrap()
    from bench import compare

    parser = argparse.ArgumentParser(prog="bench/run.py compare")
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    args = parser.parse_args(argv)
    with open(args.baseline, encoding="utf-8") as handle:
        baseline = json.load(handle)
    with open(args.candidate, encoding="utf-8") as handle:
        candidate = json.load(handle)
    rows = compare.compare_suites(baseline, candidate)
    print(compare.format_rows(rows))
    return 1 if compare.worst(rows) in ("REGRESSED", "DIFFERS") else 0


def main_repeat(argv: list[str]) -> int:
    _bootstrap()
    from bench import compare

    parser = argparse.ArgumentParser(prog="bench/run.py repeat")
    _suite_args(parser)
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args(argv)
    if args.sets < 2:
        parser.error("--sets must be at least 2")
    sets = []
    for index in range(args.sets):
        sets.append(
            run_suite(args.seed, args.seconds, args.scale, args.trace,
                      _subset(args))
        )
        path = os.path.join(_out_dir(), f"repeat-set{index + 1}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(sets[-1], handle, indent=1)
    failures = 0
    for index in range(1, len(sets)):
        for a, b in ((sets[0], sets[index]), (sets[index], sets[0])):
            rows = compare.compare_suites(a, b, require_identical_sim=True)
            # "unresolved" (the segments disagree by more than the bound:
            # a slow spell) is printed but is not a disagreement.
            if compare.worst(rows) in ("REGRESSED", "DIFFERS"):
                failures += 1
            print(compare.format_rows(rows, only_notable=True))
    print(
        f"repeat: {args.sets} sets "
        + ("agree within bounds" if not failures else "DISAGREE")
    )
    return 1 if failures else 0


def _pin_hash_seed() -> None:
    """Re-exec once with ``PYTHONHASHSEED=0`` unless the caller set it.

    String-hash randomisation changes dict collision patterns from one
    process to the next; on ``scan_short`` (which rebuilds a bytes-keyed
    dict per scan) that alone moved ``host_ops_per_cpu_s`` by +-12 %
    between runs of the same seed.  No virtual-clock result depends on
    it (the self-tests run under two other hash seeds).
    """
    if "PYTHONHASHSEED" not in os.environ:
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def main(argv: list[str]) -> int:
    commands = {
        "suite": main_suite, "compare": main_compare, "repeat": main_repeat,
    }
    if argv and argv[0] in commands:
        return commands[argv[0]](argv[1:])
    return main_workload(argv)


if __name__ == "__main__":
    _pin_hash_seed()
    raise SystemExit(main(sys.argv[1:]))
