"""Argv fuzz: any argv built from the parser's own subcommands and flags
ends in a documented exit code, never in an uncaught exception.

Values include zero and negative numbers, malformed and wrong-length
vectors and bad windows.  Radii stay at most 2 so every example is fast.
"""

import argparse

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from swcalc.cli import build_parser, main
from swcalc.manifest import load_catalog

MANIFOLDS = ("K3", "E3")
RANKS = {name: load_catalog(name).to_manifold().form.rank for name in MANIFOLDS}
SUBCOMMANDS = next(
    a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
).choices

_MALFORMED_VECTORS = ("", ",", "x", "1,x", "1/0", "1,,2", "0,", "1.5")
_INT_FLAGS = {
    "radius": st.integers(-2, 2),
    "order": st.integers(-2, 6),
    "delta": st.integers(-4, 8),
    "m": st.integers(-2, 4),
}


def _joined(entries, size, sep=","):
    return st.lists(entries, min_size=size, max_size=size).map(lambda v: sep.join(map(str, v)))


def _vector(rank, entries):
    return st.one_of(
        st.just("0"),
        _joined(entries, rank),
        st.integers(1, 4).flatmap(lambda n: _joined(entries, n)),
        st.sampled_from(_MALFORMED_VECTORS),
    )


def _value(dest, rank):
    small = st.integers(-3, 3)
    if dest in _INT_FLAGS:
        return _INT_FLAGS[dest].map(str)
    if dest in ("w", "lam", "lambda0", "lambda1"):
        return _vector(rank, small)
    if dest in ("direction", "at"):
        return _vector(rank, st.one_of(small, st.fractions(-2, 2, max_denominator=3)))
    if dest == "window":
        return st.one_of(
            st.integers(3, 5).flatmap(lambda n: _joined(st.integers(-30, 10), n, ":")),
            st.sampled_from(("bogus", "1:2:x:4", "")),
        )
    if dest == "name":
        return st.sampled_from(("E4", "NOPE"))
    raise KeyError(f"no fuzz values for the argument {dest!r}; add them here")


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    manifold = draw(st.sampled_from(MANIFOLDS))
    argv = [command]
    for action in SUBCOMMANDS[command]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if not action.option_strings:
            if action.dest == "file":
                argv.append(manifold)
            elif action.choices:
                argv.append(draw(st.sampled_from(action.choices)))
            elif draw(st.booleans()):
                argv.append(draw(_value(action.dest, RANKS[manifold])))
            continue
        if not action.required and not draw(st.booleans()):
            continue
        flag = action.option_strings[0]
        if action.nargs == 0:
            argv.append(flag)
        elif action.choices:
            argv.append(f"{flag}={draw(st.sampled_from(action.choices))}")
        else:
            argv.append(f"{flag}={draw(_value(action.dest, RANKS[manifold]))}")
    return argv


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=argvs())
def test_cli_argv_fuzz_exits_cleanly(argv, capsys, monkeypatch):
    monkeypatch.delenv("SWCALC_RADIUS", raising=False)
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3), argv
    if code == 1:
        assert out == "", argv
        assert err.startswith(("usage error: ", "error: ")) and err.count("\n") == 1, (argv, err)
    else:
        assert out and err == "", argv
