"""The one JSON encoder of reports.

Report fields hold exact values.  A rational is written as a string in
lowest terms ("3/2", or "2" when the denominator is 1) and a class as its
coordinate list; nothing is converted to a float, so reports round-trip
losslessly.  Any other value without a JSON form is an error.  The four
verdicts live here, with the encoder, so that mapping a report to its exit
code loads no pipeline module.
"""

import json
from fractions import Fraction

from .lattice import CohClass

SCHEMA_VERSION = 1

VERDICT_PASS = "pass"
VERDICT_PASS_VACUOUS = "pass-vacuous"
VERDICT_FAIL = "fail"
VERDICT_UNDETERMINED = "undetermined"


def _exact(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, CohClass):
        return value.coords
    raise TypeError(f"no exact JSON form for {type(value).__name__}")


def render(command: str, **fields) -> str:
    report = {"schema_version": SCHEMA_VERSION, "command": command, **fields}
    return json.dumps(report, indent=2, default=_exact) + "\n"
