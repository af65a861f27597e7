"""The report encoder: exact values only, never a float or a str() fallback."""

import json
from fractions import Fraction

import pytest

from swcalc.lattice import CohClass
from swcalc.report import render
from swcalc.series import Jet

from conftest import FIXTURES


def _floats(value):
    if isinstance(value, float):
        yield value
    elif isinstance(value, dict):
        for v in value.values():
            yield from _floats(v)
    elif isinstance(value, list):
        for v in value:
            yield from _floats(v)


def test_golden_reports_hold_no_floats():
    # json.dumps writes floats natively, so the encoder's default hook never
    # sees one; only the outputs themselves can show that none slipped in.
    reports = []
    for case in json.loads((FIXTURES / "cli_golden.json").read_text()):
        if case["stdout"].startswith("{"):
            reports.append(json.loads(case["stdout"]))
    assert len(reports) == 64
    assert [f for r in reports for f in _floats(r)] == []


def test_render_writes_rationals_and_classes_exactly():
    text = render("x", c=Fraction(6, 4), n=Fraction(2), w=CohClass((1, -2)), v=(Fraction(1, 3),))
    assert json.loads(text) == {
        "schema_version": 1, "command": "x", "c": "3/2", "n": "2", "w": [1, -2], "v": ["1/3"],
    }
    assert text.endswith("}\n")


@pytest.mark.parametrize("value", [Jet(None, (), {}, 0), {1, 2}, 0.5j],
                         ids=["Jet", "set", "complex"])
def test_render_rejects_values_without_an_exact_form(value):
    with pytest.raises(TypeError):
        render("x", value=value)
