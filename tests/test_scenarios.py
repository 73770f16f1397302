"""The scenario table (src/repro/scenarios.py): one runner, five rows.

Every row runs once at a smoke size through ``main([...])`` (module
fixture); the cases then check what the table promises of *each* row —
parameters typed once, gates that bite, compare rules that resolve, a
measurement callable without the CLI — and that the command lines CI
runs and the docs show still parse.
"""

import glob
import json
import os
import re
import shlex

import pytest

from repro.cli import build_parser, main
from repro.obs.report import keyword_defaults, load_report
from repro.scenarios import (
    SCENARIOS,
    live_migration_bench,
    policy_sweep,
    scenario_for,
    sessions_contrast,
    sharded_batch_read,
)

ROWS = {row.command: row for row in SCENARIOS}

#: Smoke-size flags per row, with gates that pass at that size.
SMOKE = {
    "bench": [
        "--records", "400", "--ops", "256", "--batch", "32",
        "--value-bytes", "200", "--c0-bytes", "16384", "--cache-pages", "8",
        "--assert-speedup", "1.0", "--quiet",
    ],
    "policies": [
        "--records", "800", "--ops", "150", "--value-bytes", "400",
        "--c0-bytes", "32768", "--cache-pages", "32",
        "--assert-crossover", "--assert-blsm3-floor", "1",
    ],
    "sessions": [
        "--records", "200", "--ops", "300", "--assert-force-ratio", "2",
        "--assert-forces-per-commit", "0.5",
    ],
    "migrate": [
        "--records", "1200", "--batches", "60", "--shards", "2",
        "--windows", "4", "--c0-bytes", "24576", "--cache-pages", "8",
        "--assert-p99-ratio", "10",
    ],
    "stability": [
        "--configs", "spring_gear,unthrottled", "--duration", "1",
        "--rate", "1000", "--sessions", "4", "--windows", "6",
        "--records", "200", "--assert-ceiling", "1.0", "--quiet",
    ],
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """``{command: (exit code, stdout, report path)}`` of one smoke run each."""
    import contextlib
    import io

    runs = {}
    for command, flags in SMOKE.items():
        path = str(tmp_path_factory.mktemp(command) / "report.json")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([command, *flags, "--json", path])
        runs[command] = (code, out.getvalue(), path)
    return runs


def _flag_overrides(command):
    """The parameters SMOKE[command] sets, as the parser types them."""
    parser = build_parser()
    given = vars(parser.parse_args([command, *SMOKE[command]]))
    default = vars(parser.parse_args([command]))
    return {name: given[name] for name in given if given[name] != default[name]}


@pytest.mark.parametrize("command", list(ROWS))
def test_parameters_are_typed_once(command, smoke):
    """Parser defaults == signature defaults == the report's config block."""
    row = ROWS[command]
    signature = keyword_defaults(row.run)
    if row.forwards is not None:
        signature.update(keyword_defaults(row.forwards))
    signature.pop("progress", None)
    assert row.defaults() == signature
    flags = {k: v for k, v in signature.items() if k not in row.fixed}
    parsed = vars(build_parser().parse_args([command]))
    assert {name: parsed[name] for name in flags} == flags
    assert not set(row.fixed) & set(parsed)
    # No scenario flag beyond the signature: what is left is the runner's.
    runner = {"command", "fn", "scenario", "json", "quiet"}
    extra = set(parsed) - set(flags) - runner
    assert all(name.startswith("assert_") for name in extra), extra
    assert ("quiet" in parsed) == row.takes_progress
    overrides = {
        name: value
        for name, value in _flag_overrides(command).items()
        if name in signature
    }
    assert overrides, "the smoke run must move at least one parameter"
    report = load_report(smoke[command][2])
    assert report.bench == row.bench
    assert report.config == {**signature, **overrides}


def test_the_table_adds_no_knob():
    """The flags of the rows and ``crashtest`` are the parent's (PR 22)
    without ``migrate --bench/--crash-matrix``: a parameter a measurement
    grows becomes a flag only by being added here on purpose."""
    import argparse

    (sub,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    union = {
        option
        for command in [*ROWS, "crashtest"]
        for action in sub.choices[command]._actions
        for option in action.option_strings
        if option.startswith("--")
    }
    assert union == {
        "--arrival", "--assert-blsm3-floor", "--assert-bounded",
        "--assert-ceiling", "--assert-crossover", "--assert-force-ratio",
        "--assert-forces-per-commit", "--assert-p99-ratio",
        "--assert-queueing-p99", "--assert-speedup", "--baseline",
        "--baseline-stripes", "--batch", "--batches", "--c0-bytes",
        "--cache-pages", "--configs", "--disk", "--duration", "--engine",
        "--every", "--fanout", "--help", "--json", "--level-ratio", "--ops",
        "--partitioner", "--policy", "--quiet", "--rate", "--read",
        "--records", "--seed", "--sessions", "--shards", "--value-bytes",
        "--windows",
    }


@pytest.mark.parametrize("command", list(ROWS))
def test_gates_pass_at_smoke_size_and_print_one_table(command, smoke):
    code, out, _ = smoke[command]
    assert code == 0, out
    assert out.startswith(f"{ROWS[command].bench}: ")
    assert out.count("gates: all passed") == 1
    assert "FAIL" not in out


@pytest.mark.parametrize(
    "command, impossible",
    [
        ("policies", ["--assert-blsm3-floor", "1e12"]),
        ("sessions", ["--assert-force-ratio", "1e9"]),
        ("migrate", ["--assert-p99-ratio", "1e-9"]),
    ],
)
def test_an_impossible_bound_exits_one(command, impossible, capsys):
    code, out = run_cli(capsys, command, *SMOKE[command], *impossible)
    assert code == 1
    assert "FAIL" in out and "FAILED" in out


def test_crossover_without_both_policies_fails_with_a_message(capsys):
    code, out = run_cli(
        capsys, "policies", "--policy", "leveled", "--records", "300",
        "--ops", "50", "--value-bytes", "200", "--c0-bytes", "16384",
        "--assert-crossover",
    )
    assert code == 1
    assert "no metric at 'crossover.tiered_write_amp_below_leveled'" in out
    assert "gates: 3 of 3 FAILED" in out


def test_migrate_always_gates_on_a_completed_migration(capsys):
    # One batch: the rebalancer has seen no load share to act on.
    # No flag asked for the gate, and it still fails the run.
    code, out = run_cli(
        capsys, "migrate", "--records", "200", "--batches", "1",
        "--shards", "2", "--windows", "2",
    )
    assert code == 1
    assert "migrations completed under traffic" in out


@pytest.mark.parametrize("command", list(ROWS))
def test_compare_rules_resolve_against_the_rows_own_report(
    command, smoke, capsys
):
    path = smoke[command][2]
    report = load_report(path)
    rules = scenario_for(report.bench).rules(report, 0.25)
    assert rules and all(rule.tolerance == 0.25 for rule in rules)
    code, out = run_cli(capsys, "report", "--compare", path, path)
    assert code == 0, out
    assert "no regressions" in out
    assert out.count("PASS") == len(rules)


@pytest.mark.parametrize(
    "command, function",
    [
        ("bench", sharded_batch_read),
        ("policies", policy_sweep),
        ("sessions", sessions_contrast),
        ("migrate", live_migration_bench),
    ],
)
def test_measurement_is_callable_without_the_cli(command, function, smoke):
    """``function(**config)`` returns the ``metrics`` that ``--json`` wrote."""
    assert ROWS[command].run is function
    report = load_report(smoke[command][2])
    metrics = function(**report.config)
    assert json.loads(json.dumps(metrics)) == report.metrics


def test_only_a_usage_error_becomes_a_one_line_exit(monkeypatch, capsys):
    """A rejected flag exits with its message; a ``ValueError`` from inside
    the measurement keeps its traceback."""
    with pytest.raises(SystemExit, match="require a bLSM or sharded engine"):
        main(["bench", "--baseline", "btree", "--baseline-stripes", "2"])

    def broken(*args, **kwargs):
        raise ValueError("a bug inside the run")

    monkeypatch.setattr("repro.scenarios.run_sessions", broken)
    with pytest.raises(ValueError, match="a bug inside the run"):
        main(["sessions", *SMOKE["sessions"]])


def test_help_is_the_functions_docstring(capsys):
    with pytest.raises(SystemExit):
        main(["sessions", "--help"])
    out = capsys.readouterr().out
    assert "group commit vs per-write syncing" in out
    assert "--assert-queueing-p99" in out


# ----------------------------------------------------------------------
# CI is the table: every command line the workflow runs must parse
# ----------------------------------------------------------------------

CI = os.path.join(
    os.path.dirname(__file__), "..", ".github", "workflows", "ci.yml"
)


def _matrix_cells(job):
    """One ``{placeholder: value}`` dict per cell of a job's matrix."""
    matrix = job.get("strategy", {}).get("matrix", {})
    cells = [{}]
    for key, values in matrix.items():
        if key != "include":
            cells = [{**cell, key: value} for cell in cells for value in values]
    if "include" in matrix:
        cells = [{**cell, **extra} for cell in cells for extra in matrix["include"]]
    return cells


def ci_commands():
    yaml = pytest.importorskip("yaml")
    with open(CI) as handle:
        workflow = yaml.safe_load(handle)
    commands = []
    for name, job in workflow["jobs"].items():
        for cell in _matrix_cells(job):
            for step in job["steps"]:
                run = re.sub(
                    r"\$\{\{\s*matrix\.(\w+)\s*\}\}",
                    lambda match: str(cell[match.group(1)]),
                    step.get("run", ""),
                )
                for line in run.splitlines():
                    if "python -m repro " in line:
                        argv = line.split("python -m repro ", 1)[1].split()
                        commands.append((name, argv))
    return commands


ROOT = os.path.join(os.path.dirname(__file__), "..")

#: Docs whose fenced ``python -m repro ...`` lines must name live flags
#: and subcommands: the README, the verify skill and every page of docs/.
DOCS = (
    "README.md",
    os.path.join(".claude", "skills", "verify", "SKILL.md"),
    *sorted(
        os.path.relpath(path, ROOT)
        for path in glob.glob(os.path.join(ROOT, "docs", "*.md"))
    ),
)


def _read(doc):
    with open(os.path.join(ROOT, doc)) as handle:
        return handle.read()


def doc_commands():
    """``(doc, argv)`` per ``python -m repro`` line in a doc's code blocks
    (backslash continuations joined, ``#`` comments dropped)."""
    commands = []
    for doc in DOCS:
        for block in _read(doc).split("```")[1::2]:
            for line in block.replace("\\\n", " ").splitlines():
                if "python -m repro " in line:
                    tail = line.split("python -m repro ", 1)[1]
                    commands.append((doc, shlex.split(tail, comments=True)))
    return commands


def _assert_parses(commands, capsys):
    parser = build_parser()
    for where, argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(
                f"{where}: `repro {' '.join(argv)}` does not "
                f"parse: {capsys.readouterr().err}"
            )


def test_every_ci_command_line_parses(capsys):
    commands = ci_commands()
    # fuzz x2 + migration crash + 5 gates + stability/report + 7 crashtests
    assert len(commands) >= 17
    subcommands = {argv[0] for _, argv in commands}
    assert {row.command for row in SCENARIOS} <= subcommands
    _assert_parses(
        [(f"ci.yml job {job!r}", argv) for job, argv in commands], capsys
    )


def test_every_documented_command_line_parses(capsys):
    commands = doc_commands()
    # A doc that shows a command line shows it in a code block.
    mentioning = {doc for doc in DOCS if "python -m repro " in _read(doc)}
    assert {doc for doc, _ in commands} == mentioning
    assert len(mentioning) >= 6  # README, the skill, four pages of docs/
    _assert_parses(commands, capsys)


def test_the_policy_sweep_oracle_survives_optimised_python(monkeypatch):
    """A loaded key that reads back missing fails the sweep with an
    error, not an ``assert`` that ``python -O`` strips."""
    from repro.baselines.compaction_engine import CompactionEngine
    from repro.errors import ReproError

    monkeypatch.setattr(CompactionEngine, "get", lambda self, key: None)
    with pytest.raises(ReproError, match="leveled lost loaded key"):
        policy_sweep(
            policy="leveled", records=50, ops=5, value_bytes=100,
            c0_bytes=16384, cache_pages=8,
        )
