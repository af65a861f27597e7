"""Golden CLI sweep: stdout and exit code of fixed argv, byte for byte.

The expected values in fixtures/cli_golden.json were produced by running
``GOLDEN_ARGV`` through ``cli.main`` in process; every report must stay
byte-identical across refactors of the arithmetic underneath.
"""

import json

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
]


def run_golden(argv, capsys):
    code = main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": capsys.readouterr().out}


@pytest.mark.parametrize("argv", GOLDEN_ARGV, ids=lambda a: " ".join(a)[:60])
def test_cli_output_matches_golden(argv, capsys):
    expected = {tuple(r["argv"]): r for r in json.loads(GOLDEN.read_text())}
    assert run_golden(argv, capsys) == expected[tuple(argv)]
