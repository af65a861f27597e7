"""CLI fuzz: any argv built from the parser's own subcommands and flags,
and any near-valid manifest run through every subcommand, ends in a
documented exit code, never in an uncaught exception.

Values include zero and negative numbers, malformed and wrong-length
vectors and bad windows.  Radii stay at most 2 and orders at most 4 so
every example is fast.
"""

import argparse
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from swcalc.cli import COMMANDS, build_parser, main
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


def _assert_exits_cleanly(argv, capsys):
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3), argv
    if code == 1:
        assert out == "", argv
        assert err.startswith(("usage error: ", "error: ")) and err.count("\n") == 1, (argv, err)
    else:
        assert out and err == "", argv


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=argvs())
def test_cli_argv_fuzz_exits_cleanly(argv, capsys):
    _assert_exits_cleanly(argv, capsys)


_BLOCKS = st.one_of(
    st.just(({"type": "H"}, 2, 0)),
    st.sampled_from((1, -1)).map(lambda s: ({"type": "E8", "sign": s}, 8, 8 * s)),
    st.lists(st.sampled_from((1, -1, 1, -1, 2, -2, 0, 3)), min_size=1, max_size=3).map(
        lambda e: ({"type": "diag", "entries": e}, len(e), sum((x > 0) - (x < 0) for x in e))),
)


def _sparse(rank, size):
    """Coordinates of length rank with at most size entries in -2..2 set."""
    return st.lists(st.tuples(st.integers(0, rank - 1), st.integers(-2, 2)), max_size=size).map(
        lambda entries: [dict(entries).get(t, 0) for t in range(rank)])


@st.composite
def near_valid_manifests(draw):
    """Manifest JSON whose blocks, numbers and classes are mostly consistent.

    chi is usually rank + 2 and sigma the blocks' signature, each with
    occasional noise, and b_plus follows from them; the 0-3 sparse classes
    come with or without their conjugates.
    """
    blocks = draw(st.lists(_BLOCKS, min_size=1, max_size=4))
    rank = sum(n for _, n, _ in blocks)
    sigma = sum(s for _, _, s in blocks) + draw(st.sampled_from((0,) * 6 + (-4, -1, 1, 4)))
    chi = rank + 2 + draw(st.sampled_from((0,) * 6 + (-4, -1, 1, 4)))
    classes = []
    for _ in range(draw(st.integers(0, 3))):
        coords = draw(_sparse(rank, 4))
        sw = draw(st.sampled_from((1, -1, 1, -1, 2, 0)))
        classes.append({"coords": coords, "sw": sw})
        if draw(st.booleans()):
            classes.append({"coords": [-x for x in coords], "sw": draw(st.sampled_from((sw, -sw)))})
    return json.dumps({
        "schema_version": 1, "name": "fuzz", "chi": chi, "sigma": sigma,
        "b_plus": (chi - 2 + sigma) // 2, "form": [b for b, _, _ in blocks],
        "basic_classes": classes,
        "assume_conjecture": draw(st.sampled_from((True, True, True, False))),
    }), rank


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=near_valid_manifests(), data=st.data())
def test_cli_manifest_fuzz_exits_cleanly(case, data, capsys, tmp_path):
    text, rank = case
    path = tmp_path / "fuzz.json"
    path.write_text(text)
    sparse = _sparse(rank, 3).map(lambda coords: ",".join(map(str, coords)))
    radius = f"--radius={data.draw(st.integers(1, 2))}"
    options = {
        "abundance": [radius], "sst": [radius], "dvanish": [radius],
        "relate": [f"--lambda={data.draw(sparse)}", f"--w={data.draw(sparse)}",
                   f"--delta={data.draw(st.integers(0, 4))}", f"-m={data.draw(st.integers(0, 2))}",
                   f"--at={data.draw(sparse)}"],
        "witten": [f"--direction={data.draw(sparse)}", f"--order={data.draw(st.integers(0, 4))}"],
        "region": [f"--format={data.draw(st.sampled_from(('svg', 'ascii', 'json')))}"],
    }
    for command in COMMANDS:
        _assert_exits_cleanly([command, str(path), *options.get(command, [])], capsys)
