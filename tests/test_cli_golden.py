"""Golden CLI sweep: stdout, standard error and exit code of fixed argv.

The expected values in fixtures/cli_golden.json were produced by running
``GOLDEN_ARGV`` through ``cli.main`` in process, with ``tests/fixtures`` as
the working directory so that fixture paths in the argv stay relative to
it; every report and every error line must stay byte-identical across
refactors of the code underneath.
"""

import json
import re

import pytest

from swcalc.cli import main

from conftest import CATALOG_NAMES, FIXTURES

GOLDEN = FIXTURES / "cli_golden.json"

_PER_MANIFOLD = (
    ("validate",),
    ("invariants",),
    ("abundance",),
    ("sst",),
    ("dvanish",),
    ("bound",),
    ("bound", "--non-strict"),
    ("region", "--format", "json"),
    ("region", "--format", "svg"),
    ("region", "--format", "ascii"),
)


def _vector(rank, entries):
    values = ["0"] * rank
    for i, v in entries.items():
        values[i] = v
    return ",".join(values)


# K3 with chi 25: parses, but fails validation, so every pipeline
# subcommand must print the "input fails validation" report instead.
_INVALID = "k3_bad_chi.json"

GOLDEN_ARGV = [
    [cmd, name, *rest] for name in CATALOG_NAMES for cmd, *rest in _PER_MANIFOLD
] + [
    ["witten", "E3", "--direction", _vector(34, {0: "1/2", 1: "-1/2"}), "--order", "3"],
    ["relate", "E4", "--lambda", _vector(46, {2: "2", 3: "-3"}),
     "--w", _vector(46, {2: "2", 3: "-1"}), "--delta", "0", "-m", "0",
     "--at", _vector(46, {0: "1/2", 1: "-1/2"})],
    ["relate", "E4", "--lambda", _vector(46, {2: "1", 3: "-7"}),
     "--w", _vector(46, {2: "1", 3: "-7"}), "--delta", "2", "-m", "0",
     "--at", _vector(46, {1: "1"})],
    ["catalog", "list"],
    ["catalog", "show", "E4"],
] + [
    # validation failures, one per subcommand that reads a manifest
    ["validate", _INVALID],
    ["invariants", _INVALID],
    ["abundance", _INVALID],
    ["sst", _INVALID],
    ["dvanish", _INVALID],
    ["relate", _INVALID, "--lambda", "0", "--w", "0", "--delta", "0", "-m", "0"],
    ["witten", _INVALID, "--direction", "0", "--order", "1"],
    ["bound", _INVALID],
    ["region", _INVALID],
    # undetermined (exit 3) and failing (exit 2) pipelines on fixtures
    ["abundance", "definite_complement.json"],
    ["dvanish", "definite_complement.json"],
    ["sst", "e4_corrupted.json"],
    ["dvanish", "e4_corrupted.json"],
    # the widest relation jet in the tree: four independent class directions
    ["sst", "wide_e10_2222.json"],
    ["dvanish", "wide_e10_2222.json"],
    # optional arguments not covered above
    ["invariants", "E4", "--w", "0"],
    ["sst", "E4", "--w", "0"],
    ["relate", "E4", "--delta", "0", "-m", "0", "--lambda", _vector(46, {2: "2", 3: "-3"}),
     "--w", _vector(46, {2: "2", 3: "-1"})],
    ["region", "E4", "--window=-24:-8:0:8"],
    ["region", "K3", "--w", "0", "--window=-14:-2:0:6", "--format", "ascii"],
    # usage and precondition errors (exit 1, one line on standard error)
    ["sst", "E4", "--w", "1,2"],
    ["sst", "E4", "--w", "1,x"],
    ["sst", "E4", "--w", _vector(46, {0: "1"})],
    ["sst", "E4", "--lambda0", _vector(46, {0: "1"})],
    ["abundance", "E4", "--radius", "0"],
    ["witten", "E3", "--direction", "1/0", "--order", "1"],
    ["witten", "E3", "--direction", "1,2", "--order", "1"],
    ["witten", "E3", "--direction", "0", "--order=-1"],
    ["relate", "E4"],
    ["relate", "E4", "--delta", "5", "-m", "0", "--lambda", _vector(46, {2: "2", 3: "-3"}),
     "--w", _vector(46, {2: "2", 3: "-3"})],
    ["region", "K3", "--window", "bogus"],
    ["region", "K3", "--window=1:0:0:1"],
    ["validate", "NOPE"],
    ["frobnicate", "E4"],
    ["catalog", "show"],
    ["catalog", "show", "NOPE"],
]


def _choices_unquoted(err):
    """Newer Pythons print argparse choices without quotes; compare both forms alike."""
    return re.sub(r"\(choose from ([^)]*)\)",
                  lambda m: "(choose from " + m.group(1).replace("'", "") + ")", err)


def run_golden(argv, capsys):
    code = main(list(argv))
    captured = capsys.readouterr()
    return {"argv": list(argv), "exit": code, "stdout": captured.out,
            "stderr": _choices_unquoted(captured.err)}


@pytest.mark.parametrize("argv", GOLDEN_ARGV, ids=lambda a: " ".join(a)[:60])
def test_cli_output_matches_golden(argv, capsys, monkeypatch):
    monkeypatch.chdir(FIXTURES)
    expected = {tuple(r["argv"]): r for r in json.loads(GOLDEN.read_text())}[tuple(argv)]
    assert run_golden(argv, capsys) == dict(expected, stderr=_choices_unquoted(expected["stderr"]))


def test_every_manifest_report_names_its_manifold():
    # main's contract: a JSON report on a manifest starts with the command
    # and manifold names, whatever its verdict
    for case in json.loads(GOLDEN.read_text()):
        if case["argv"][0] != "catalog" and case["stdout"].startswith("{"):
            report = json.loads(case["stdout"])
            assert list(report)[1:3] == ["command", "manifold"], case["argv"]
