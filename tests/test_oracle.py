"""The benchmark's independent oracle on the CLI's abundance, sst and dvanish reports.

perfbench/oracle.py re-derives every witness of a report (the pair, the
abundance classes, the series order and each relation-sum zero claim) with
its own integer arithmetic and no swcalc code.  It is read here from its
file, without writing anything next to it, and run on the live output of
``cli.main`` for every abundance, sst and dvanish case of the golden sweep
and for one manifest from each family generator.  These tests depend on
the oracle's ``check_cli`` API.
"""

import json
import random
import types
from pathlib import Path

import pytest

from swcalc.catalog import catalog_entry
from swcalc.cli import main

from conftest import FIXTURES, multiply
from test_blowup_family import blown_up
from test_knot_surgery import knot_surgery_manifest
from test_product_family import product_manifest, sinh_power, unit

ORACLE_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"
PIPELINES = ("abundance", "sst", "dvanish")


def _load_oracle() -> types.ModuleType:
    module = types.ModuleType("perfbench_oracle")
    module.__file__ = str(ORACLE_PATH)
    exec(compile(ORACLE_PATH.read_text(encoding="utf-8"), str(ORACLE_PATH), "exec"),
         module.__dict__)
    return module


oracle = _load_oracle()
GOLDEN = [case for case in json.loads((FIXTURES / "cli_golden.json").read_text())
          if case["argv"][0] in PIPELINES]


def _manifest(name: str):
    """The manifest dict that the CLI loads for a catalog name or fixture path."""
    entry = catalog_entry(name)
    return entry if entry is not None else json.loads((FIXTURES / name).read_text())


def _problems(argv, manifest, capsys) -> tuple[int, list[str]]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, oracle.check_cli(argv, code, captured.out, captured.err, manifest, {},
                                  random.Random(0))


def test_the_golden_sweep_has_every_pipeline_case():
    counts = {cmd: sum(c["argv"][0] == cmd for c in GOLDEN) for cmd in PIPELINES}
    assert counts == {"abundance": 8, "sst": 13, "dvanish": 9}
    assert sum(c["exit"] == 0 for c in GOLDEN) == 19  # the oracle re-derives these witnesses


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: " ".join(c["argv"])[:60])
def test_the_oracle_accepts_every_golden_pipeline_report(case, capsys, monkeypatch):
    monkeypatch.chdir(FIXTURES)
    argv = case["argv"]
    code, problems = _problems(argv, _manifest(argv[1]), capsys)
    assert code == case["exit"]
    assert problems == []


# E(6) with series (y - 1/y)^2 (y^2 - 1 + y^-2) (z - 1/z)^2 on two H blocks,
# of order 4 = n - 2; E(5) surgered along the trefoil, the 4 (mod 8) case,
# whose dvanish reports relation entries; and E(5) blown up twice, an odd
# form with three diag blocks, of order 5 = c - 2, also in the 4 (mod 8) case
FAMILIES = {
    "product": product_manifest(6, [(1, 1, multiply(sinh_power(2), unit([1], 1))),
                                    (4, 0, sinh_power(2))]),
    "knot-surgery": knot_surgery_manifest(5, {-1: 1, 0: -1, 1: 1}),
    "blow-up": blown_up("E5", 2),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_the_oracle_accepts_generated_family_reports(family, capsys, tmp_path):
    manifest = FAMILIES[family]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    for cmd in PIPELINES:
        code, problems = _problems((cmd, str(path)), manifest, capsys)
        assert (code, problems) == (0, []), cmd
