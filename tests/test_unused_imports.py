"""Every module under src/swcalc/ and tests/ reads each name it imports.

No linter ships with the test environment, so this walks the syntax tree
with ``ast``: a name bound by an import must be read as a name somewhere
in its module.  The package's re-exports in ``swcalc/__init__.py`` and the
verdict names that ``swcalc.relations`` keeps importable are read by
callers, not by the module, and are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "swcalc").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
EXEMPT = {
    "src/swcalc/relations.py": {
        "VERDICT_FAIL", "VERDICT_PASS", "VERDICT_PASS_VACUOUS", "VERDICT_UNDETERMINED"},
}


def unused_imports(source: str, reexports: bool = False) -> list[str]:
    """The names an import binds in source that no expression reads.  With
    reexports, names imported from the package's own modules count as read."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.module == "__future__" or reexports and node.level):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound.setdefault(name, node.lineno)
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda x: x[1])
            if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_reads_every_name_it_imports(path):
    rel = str(path.relative_to(ROOT))
    unused = unused_imports(path.read_text(), reexports=rel == "src/swcalc/__init__.py")
    assert [u for u in unused if u.rpartition(" ")[2] not in EXEMPT.get(rel, ())] == []


def test_unused_import_is_caught():
    source = ("from collections.abc import Callable\nfrom functools import partial, reduce\n"
              "import os.path\nfrom . import x\nreduce(os.path.join, x)\n")
    assert unused_imports(source) == ["line 1: Callable", "line 2: partial"]
    assert unused_imports("from .lattice import dot\n") == ["line 1: dot"]
    assert unused_imports("from .lattice import dot\n", reexports=True) == []
