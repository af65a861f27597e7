"""`series`, `relations` and `region` run on first use.

`swcalc/__init__.py` registers the three modules in `sys.modules` with their
bodies not yet run; a fresh call runs only those its subcommand reads.
`type(sys.modules[name])` tells a run module (a plain module) from a
registered one without running it.
"""

import os
import subprocess
import sys

import pytest

import swcalc
from swcalc import relations, report, series

SRC = os.path.dirname(os.path.dirname(swcalc.__file__))
LAZY = ("series", "relations", "region")

# Prints which lazy modules have run after `swcalc.cli.main(argv)`, or after
# the import alone when argv is empty.
_PROBE = """
import contextlib, io, sys, types
import swcalc.cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = swcalc.cli.main(sys.argv[1:])
    if code:
        sys.exit(code)
print(" ".join(n for n in {lazy!r} if type(sys.modules["swcalc." + n]) is types.ModuleType))
""".format(lazy=LAZY)


def _fresh(script, *argv):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True,
                          text=True, check=True, timeout=60).stdout.split()


def _e4_class(*head):
    return ",".join(map(str, head + (0,) * (46 - len(head))))


@pytest.mark.parametrize("argv, ran", [
    ((), []),
    (("validate", "E4"), []),
    (("abundance", "E4"), []),
    (("catalog", "list"), []),
    (("invariants", "E4"), ["series"]),
    (("witten", "E4", "--direction", "0", "--order", "1"), ["series"]),
    (("sst", "E4"), ["series", "relations"]),
    (("dvanish", "E4"), ["relations"]),
    (("relate", "E4", "--lambda", _e4_class(0, 0, 2, -3), "--w", _e4_class(0, 0, 2, -1),
      "--delta", "0", "-m", "0"), ["series", "relations"]),
    (("bound", "E4", "--non-strict"), ["relations"]),
    (("region", "K3"), ["relations", "region"]),
], ids=lambda v: (v[0] if v else "import") if isinstance(v, tuple) else "+".join(v) or "none")
def test_a_fresh_call_runs_only_the_modules_its_subcommand_reads(argv, ran):
    assert _fresh(_PROBE, *argv) == ran


# The names `swcalc` re-exports from `relations` and `series`, written out so
# that a name dropped from the package's table fails here.
REEXPORTED = {
    relations: ("RelationQuery", "basic_class_bound", "degree_admissible", "dswrel_value",
                "dvanish_applies", "dvanish_theorem_check", "i_lambda", "r_lambda",
                "region_data", "sst_check"),
    series: ("ExpSum", "GaussianSeries", "Jet", "Parity", "VanishingOrder", "evaluate_along",
             "jet_expand", "parity", "predicted_parity", "sw_series", "twist", "vanishing_order",
             "witten_series"),
}


def test_package_reexports_resolve_to_their_modules():
    for module, exported in REEXPORTED.items():
        for name in exported:
            assert getattr(swcalc, name) is getattr(module, name)
            namespace = {}
            exec(f"from swcalc import {name}", namespace)
            assert namespace[name] is getattr(module, name)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        swcalc.no_such_name
    with pytest.raises(ImportError):
        exec("from swcalc import no_such_name", {})


def test_verdicts_are_defined_in_report_and_still_exported_by_relations():
    for name in ("VERDICT_PASS", "VERDICT_PASS_VACUOUS", "VERDICT_FAIL", "VERDICT_UNDETERMINED"):
        assert getattr(relations, name) is getattr(report, name)


def test_other_threads_wait_for_the_whole_first_run():
    """The first thread's run of the body is slowed; eight threads that touch
    the module meanwhile must each see it complete, not half-run."""
    script = """
import sys, threading, time, types
import swcalc
module = sys.modules["swcalc.series"]
spec = types.ModuleType.__getattribute__(module, "__spec__")
source_loader, started = spec.loader, threading.Event()

class Slow:
    def exec_module(self, m):
        started.set()
        time.sleep(0.3)
        source_loader.exec_module(m)

spec.loader = Slow()
sys.setswitchinterval(1e-6)
seen = []
first = threading.Thread(target=lambda: module.sw_series)
first.start()
started.wait(10)
others = [threading.Thread(target=lambda: seen.append(hasattr(module, "witten_series")))
          for _ in range(8)]
for t in others:
    t.start()
for t in [first, *others]:
    t.join(10)
print(started.is_set(), len(seen), all(seen), any(t.is_alive() for t in [first, *others]))
"""
    assert _fresh(script) == ["True", "8", "True", "False"]


def test_an_assignment_or_deletion_before_the_first_run_survives_the_run():
    script = """
import sys
import swcalc
marker = object()
sys.modules["swcalc.series"]._power_sums = marker  # series runs no other lazy module
del sys.modules["swcalc.region"].region_to_svg
print(swcalc.series._power_sums is marker, hasattr(swcalc.region, "region_to_svg"))
"""
    assert _fresh(script) == ["True", "False"]
