"""`swcalc.record` against `dataclasses.dataclass(frozen=True)`, its oracle.

Every `@record` class in the package gets a frozen dataclass twin built from
the same annotations, defaults, `__post_init__` and own `__init__`; the two
must agree on construction, defaults, equality, hashing, repr, `replace` and
refused assignment.
"""

import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import swcalc
from swcalc import lattice, manifest, manifold, relations, series
from swcalc.lattice import CohClass
from swcalc.record import replace

SRC = Path(swcalc.__file__).parent
RECORDS = [
    cls
    for module in (lattice, manifest, manifold, relations, series)
    for cls in vars(module).values()
    if isinstance(cls, type) and cls.__module__ == module.__name__ and "_fields" in cls.__dict__
]
NOT_COMPARED = {(manifest.Manifest, "warnings")}


def test_every_decorated_class_is_found():
    decorated = sum(len(re.findall(r"^@record$", p.read_text(), re.M)) for p in SRC.glob("*.py"))
    assert len(RECORDS) == decorated > 0


def twin(cls):
    """A frozen dataclass with cls's name, fields, defaults and own methods."""
    fields = []
    for name in cls._fields:
        spec = {"compare": (cls, name) not in NOT_COMPARED}
        if name in cls.__dict__:
            spec["default"] = cls.__dict__[name]
        fields.append((name, cls.__annotations__[name], dataclasses.field(**spec)))
    namespace = {m: cls.__dict__[m] for m in ("__init__", "__post_init__")
                 if m in cls.__dict__ and cls.__dict__[m].__module__ != "swcalc.record"}
    return dataclasses.make_dataclass(cls.__qualname__, fields, namespace=namespace,
                                      frozen=True, init="__init__" not in namespace)


def samples(cls):
    """Two sets of field values, (a, b); b differs from a in every field.
    Classes not listed take small distinct integers.  For CohClass these are
    its own constructor's arguments.  The classes are built here, not at
    import, so that a broken constructor fails the tests, not their collection."""
    f, g = CohClass((1, 0)), CohClass((0, 2))
    listed = {
        lattice.E8Block: ((1,), (-1,)),
        lattice.CohClass: (((0, 3, 0),), ((1, 0, 0),)),
        relations.RelationQuery: ((f, g, 4, 1), (g, f, 6, 2)),
    }
    if cls in listed:
        return listed[cls]
    n = len(cls._fields)
    return tuple(range(n)), tuple(range(10, 10 + n))


def outcome(call):
    """What a call gives: its value, or the type of what it raises."""
    try:
        return "value", call()
    except Exception as e:  # the two sides must fail alike
        return "raises", type(e)


def agree(rec, dc):
    """The observable behaviour of a record matches its dataclass twin's."""
    assert repr(rec) == repr(dc)
    assert outcome(lambda: hash(rec)) == outcome(lambda: hash(dc))
    assert vars(rec) == {n: getattr(dc, n) for n in rec._fields}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__qualname__)
def test_record_matches_frozen_dataclass(cls):
    other = twin(cls)
    own_init = cls.__init__.__module__ != "swcalc.record"
    a, b = samples(cls)
    rec, dc = cls(*a), other(*a)
    agree(rec, dc)
    assert rec == cls(*a) and dc == other(*a)
    assert rec != dc and dc != rec  # equality holds only within one class
    for name in cls._fields:
        value = getattr(cls(*b), name)
        for target in (rec, dc):
            with pytest.raises(AttributeError):
                setattr(target, name, value)
            with pytest.raises(AttributeError):
                delattr(target, name)
        r2 = outcome(lambda: replace(rec, **{name: value}))
        d2 = outcome(lambda: dataclasses.replace(dc, **{name: value}))
        if own_init:  # its arguments are not the fields, so replace fails alike
            assert r2 == d2 == ("raises", TypeError)
            continue
        (_, r2), (_, d2) = r2, d2
        agree(r2, d2)
        assert (rec == r2) == (dc == d2)
        assert (hash(rec) == hash(r2)) == (hash(dc) == hash(d2))
    if not own_init:
        required = len([n for n in cls._fields if n not in cls.__dict__])
        agree(cls(*a[:required]), other(*a[:required]))
        keywords = dict(zip(cls._fields, a))
        agree(cls(**keywords), other(**keywords))


def test_manifest_equality_ignores_warnings():
    m = manifest.load_catalog("K3")
    noisy = replace(m, warnings=("unknown field 'x' ignored",))
    assert noisy == m and hash(noisy) == hash(m)
    assert noisy.warnings != m.warnings
    assert "warnings=(\"unknown field 'x' ignored\",)" in repr(noisy)
    assert replace(m, chi=m.chi + 1) != m


def test_cohclass_keeps_its_own_init():
    c = CohClass((0, 3, 0, -1))
    assert (c.rank, c.support) == (4, ((1, 3), (3, -1)))
    assert c == CohClass.from_support(4, [(3, -1), (1, 3)])
    assert repr(c) == "CohClass(rank=4, support=((1, 3), (3, -1)))"
    assert c.coords == (0, 3, 0, -1)  # cached_property writes past the frozen __setattr__
    with pytest.raises(AttributeError):
        c.rank = 5


def test_constructor_rejects_bad_arguments():
    window = relations.Window
    with pytest.raises(TypeError):
        window(1, 2, 3)
    with pytest.raises(TypeError):
        window(1, 2, 3, 4, 5)
    with pytest.raises(TypeError):
        window(1, 2, 3, 4, lam_min=0)
    with pytest.raises(TypeError):
        window(1, 2, 3, delta_maximum=4)
    assert window(1, 2, delta_max=4, delta_min=3) == window(1, 2, 3, 4)


def test_post_init_checks_run_on_construction_and_replace():
    with pytest.raises(ValueError):
        lattice.E8Block(2)
    with pytest.raises(ValueError):
        replace(lattice.E8Block(), sign=0)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """Generating dataclass methods at import was about a fifth of a cold CLI call."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c",
         "import swcalc.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out == "[]\n"
