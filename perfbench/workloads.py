"""Seeded input generators for the four benchmark workloads.

Everything here is plain Python and never imports swcalc: the program under
test receives only the manifests (and, for ``cli``, the argument lists) built
below.  A seed moves placement, the class ``w`` and item order; it never
changes the list of shapes, so the work per pass does not depend on it.
"""

import json
import random
from dataclasses import dataclass
from itertools import product
from math import comb

LADDER_N = (4, 8, 12, 20)

# (n, exponents a_i): basic classes are the terms of prod (e^{x_i} - e^{-x_i})^{a_i}
# over isotropic generators x_i of distinct H blocks of E(n).  Every a_i is even
# and sum a_i = n - 2, so the series vanishes to exactly order c - 2 = n - 2.
WIDE_SHAPES = (
    (8, (2, 2, 2)),
    (10, (6, 2)),
    (10, (4, 4)),
    (10, (4, 2, 2)),
    (10, (2, 2, 2, 2)),
)

# Odd indefinite forms diag(1^p, (-1)^q) with one conjugate pair of odd basic
# classes.  Each placement is (signs of the diagonal entries, class coordinates).
# The placements were screened at the commit that introduced this benchmark:
# none gives a complement basis with a literal hyperbolic block (so the box
# enumeration of find_hyperbolic_pair runs), and each finds a pair within the
# radius after scanning few candidates.  Enumerating the whole coordinate box,
# the same for every placement of a shape, then sets the cost, so the seed does
# not move it.  Radius 3 is used at rank 6 and radius 2 at rank 8.
SEARCH_SHAPES = {
    # name: (p, q, radius, copies per pass, placements)
    "p3q3": (3, 3, 3, 2, (
        ("++--+-", (1, -3, 1, -1, -3, -1)), ("+-+--+", (3, -1, -3, -1, -1, -1)),
        ("+---++", (1, -1, -1, -1, -3, -3)), ("-++--+", (1, -3, 3, 1, -1, -1)),
        ("--+-++", (1, -1, -3, -1, -1, -3)), ("++-+--", (1, -3, -1, -3, -1, -1)),
        ("---+++", (1, -1, -1, -3, -1, -3)), ("+--++-", (1, -1, -1, -3, 3, -1)),
    )),
    "p5q1": (5, 1, 3, 2, (
        ("++++-+", (1, -3, -1, -3, -1, -3)), ("+-++++", (3, 1, 1, 3, -1, -3)),
        ("-+++++", (1, -3, 1, 3, -1, -3)), ("++-+++", (3, 3, 1, -1, 1, -3)),
        ("+++-++", (1, -3, -1, -1, -3, -3)), ("+++++-", (1, -1, -3, -3, -3, -1)),
    )),
    "p5q3": (5, 3, 2, 3, (
        ("+--++++-", (3, -1, -1, 3, 1, -1, 3, 1)), ("-+++-+-+", (1, -1, 3, 1, 1, -3, -1, -3)),
        ("-++-+++-", (1, 3, 3, -1, -1, 1, -3, -1)), ("++-++--+", (1, 3, -1, -3, -3, -1, 1, -1)),
        ("++-+--++", (1, 3, -1, -3, 1, 1, 3, -1)), ("+-+-+++-", (3, 1, 3, -1, -1, 3, -1, -1)),
        ("-+++--++", (1, -1, -1, -3, 1, 1, 3, 3)), ("-+++++--", (1, 3, -3, -1, 1, -3, 1, -1)),
    )),
    "p3q5": (3, 5, 2, 3, (
        ("+--++---", (1, -1, 1, -3, 3, -1, -1, 1)), ("+-----++", (1, 1, -1, -1, 1, -1, -3, 3)),
        ("-----+++", (1, 1, -1, 1, -1, 3, 3, 1)), ("++-----+", (3, -3, -1, 1, -1, 1, 1, 1)),
        ("-+----++", (1, 3, -1, -1, -1, -1, 1, 3)), ("++-+----", (3, 1, -1, -3, -1, 1, 1, 1)),
        ("++----+-", (3, 1, -1, 1, 1, 1, 3, 1)), ("++--+---", (1, 3, 1, 1, -3, -1, -1, -1)),
    )),
    "p7q1": (7, 1, 2, 2, (
        ("-+++++++", (1, -3, -1, 3, -3, 1, -3, 1)), ("++++++-+", (3, -1, -1, -3, 1, 3, 1, -3)),
        ("+-++++++", (3, -1, 1, -3, -1, -3, 1, -3)), ("+++++++-", (1, 1, 1, 3, 3, 3, -3, 1)),
    )),
}

E8_TYPE = {"type": "E8", "sign": -1}
H_TYPE = {"type": "H"}


@dataclass(frozen=True)
class Item:
    """One unit of work: a manifest through a library pipeline."""

    key: str          # shape identifier; the reference verdicts are keyed by it
    pipeline: str     # "vanishing" (sst + dvanish) or "abundance"
    text: str         # manifest JSON, exactly what the program parses
    radius: int = 3


@dataclass(frozen=True)
class Call:
    """One fresh-process CLI call."""

    key: str
    argv: tuple[str, ...]   # arguments after ``python -m swcalc``


def elliptic(n: int) -> dict:
    """Standard E(n) data: the spin form for even n, an odd form for odd n."""
    rank = 12 * n - 2
    fiber = [0] * rank
    if n % 2 == 0:
        form = [H_TYPE] * (2 * n - 1) + [E8_TYPE] * n
        fiber[0] = 1
    else:
        form = [{"type": "diag", "entries": [1, -1]}] + [H_TYPE] * (2 * n - 2) + [E8_TYPE] * n
        fiber[0] = fiber[1] = 1
    classes = [
        {"coords": [(n - 2 - 2 * j) * x for x in fiber], "sw": (-1) ** j * comb(n - 2, j)}
        for j in range(n - 1)
    ]
    return {
        "schema_version": 1, "name": f"E{n}", "chi": 12 * n, "sigma": -8 * n,
        "b_plus": 2 * n - 1, "form": form, "basic_classes": classes,
        "assume_conjecture": True,
    }


def k3() -> dict:
    return {
        "schema_version": 1, "name": "K3", "chi": 24, "sigma": -16, "b_plus": 3,
        "form": [H_TYPE] * 3 + [E8_TYPE] * 2,
        "basic_classes": [{"coords": [0] * 22, "sw": 1}],
        "assume_conjecture": True,
    }


def catalog(name: str) -> dict:
    """The standard data the program's catalog names stand for."""
    return k3() if name == "K3" else elliptic(int(name[1:]))


def block_offsets(form) -> list[int]:
    offsets, offset = [], 0
    for block in form:
        offsets.append(offset)
        offset += {"H": 2, "E8": 8}.get(block["type"]) or len(block.get("entries", ()))
    return offsets + [offset]


def _even_w(rng: random.Random, rank: int) -> list[int]:
    """w = w0 + 2x on an even form (w0 = 0).  x has four +-1 entries, so
    w.w = 4 x.x is 0 mod 8 and the cost of pairing with w is seed-independent."""
    w = [0] * rank
    for i in rng.sample(range(rank), 4):
        w[i] = 2 * rng.choice((1, -1))
    return w


def ladder(seed: int) -> list[Item]:
    rng = random.Random(seed)
    items = [Item(f"E{n}", "vanishing", json.dumps(elliptic(n))) for n in LADDER_N]
    rng.shuffle(items)
    return items


def wide_manifest(rng: random.Random, n: int, shape) -> dict:
    form = [H_TYPE] * (2 * n - 1) + [E8_TYPE] * n
    rng.shuffle(form)
    offsets = block_offsets(form)
    rank = offsets[-1]
    h_blocks = [i for i, b in enumerate(form) if b["type"] == "H"]
    generators = []
    for block in rng.sample(h_blocks, len(shape)):
        g = [0] * rank
        g[offsets[block] + rng.randrange(2)] = rng.choice((1, -1))
        generators.append(g)
    classes = []
    for js in product(*(range(-a, a + 1, 2) for a in shape)):
        sw = 1
        for a, j in zip(shape, js):
            sw *= (-1) ** ((a - j) // 2) * comb(a, (a + j) // 2)
        coords = [sum(j * g[i] for j, g in zip(js, generators)) for i in range(rank)]
        classes.append({"coords": coords, "sw": sw})
    return {
        "schema_version": 1, "name": f"E{n}-wide-" + "-".join(map(str, shape)),
        "chi": 12 * n, "sigma": -8 * n, "b_plus": 2 * n - 1, "form": form,
        "basic_classes": classes, "assume_conjecture": True, "w": _even_w(rng, rank),
    }


def wide(seed: int) -> list[Item]:
    rng = random.Random(seed)
    items = [
        Item(f"wide-n{n}-" + ".".join(map(str, shape)), "vanishing",
             json.dumps(wide_manifest(rng, n, shape)))
        for n, shape in WIDE_SHAPES
    ]
    rng.shuffle(items)
    return items


def search_manifest(rng: random.Random, name: str, placement=None) -> dict:
    p, q, _, _, placements = SEARCH_SHAPES[name]
    signs, k = placement or rng.choice(placements)
    entries = [1 if s == "+" else -1 for s in signs]
    rank = p + q
    chi, sigma = 2 + rank, p - q
    eps = -1 if ((chi + sigma) // 4) % 2 else 1
    # w = w0 + 2x with w0 the all-ones characteristic vector, so w.w = sigma (mod 8)
    w = [1 + 2 * rng.choice((0, 0, 1, -1)) for _ in range(rank)]
    return {
        "schema_version": 1, "name": f"diag-{name}", "chi": chi, "sigma": sigma,
        "b_plus": p, "form": [{"type": "diag", "entries": entries}],
        "basic_classes": [{"coords": list(k), "sw": 1},
                          {"coords": [-x for x in k], "sw": eps}],
        "assume_conjecture": True, "w": w,
    }


def search(seed: int) -> list[Item]:
    rng = random.Random(seed)
    items = []
    for name, (_, _, radius, copies, _) in SEARCH_SHAPES.items():
        for _ in range(copies):
            items.append(Item(f"search-{name}", "abundance",
                              json.dumps(search_manifest(rng, name)), radius))
    rng.shuffle(items)
    return items


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _unit_h_class(rank: int, a: int, b: int) -> list[int]:
    """(a, b) on the first H block after the leading diag(1,-1) or H block."""
    v = [0] * rank
    v[2], v[3] = a, b
    return v


def cli(seed: int, search_path: str) -> list[Call]:
    """47 calls covering all ten subcommands on K3, E3-E6 and one generated
    rank-6 search manifest (written by the caller to search_path)."""
    rng = random.Random(seed)
    formats = {"K3": "svg", "E3": "ascii", "E4": "json", "E5": "svg", "E6": "json"}
    calls = []
    for name in ("K3", "E3", "E4", "E5", "E6"):
        rank = 22 if name == "K3" else 12 * int(name[1:]) - 2
        direction = _csv(["1/2", "-1/2"] + ["0"] * (rank - 2))
        for argv in (
            ("validate", name),
            ("invariants", name),
            ("abundance", name),
            ("sst", name),
            ("dvanish", name),
            ("bound", name),
            ("witten", name, "--direction", direction, "--order", "3"),
            ("region", name, "--format", formats[name]),
        ):
            calls.append(Call(f"{argv[0]}-{name}", argv))
    # relate at delta = r(lambda) for lambda = (a, b) in the second H block
    e4 = _unit_h_class(46, 2, -3)
    calls.append(Call("relate-E4", ("relate", "E4", "--lambda", _csv(e4),
                                    "--w", _csv(_unit_h_class(46, 2, -1)),
                                    "--delta", "0", "-m", "0")))
    e6 = _unit_h_class(70, 2, -5)
    at = [0] * 70
    at[1], at[3] = 1, 1
    calls.append(Call("relate-E6", ("relate", "E6", "--lambda", _csv(e6),
                                    "--w", _csv(_unit_h_class(70, 2, -1)),
                                    "--delta", "2", "-m", "1", "--at", _csv(at))))
    calls += [
        Call("bound-E6-non-strict", ("bound", "E6", "--non-strict")),
        Call("catalog-list", ("catalog", "list")),
        Call("catalog-show-E4", ("catalog", "show", "E4")),
        Call("validate-search", ("validate", search_path)),
        Call("abundance-search", ("abundance", search_path, "--radius", "3")),
    ]
    rng.shuffle(calls)
    return calls


def cli_search_manifest(seed: int) -> dict:
    return search_manifest(random.Random(seed), "p3q3")


def generate(workload: str, seed: int):
    return {"ladder": ladder, "wide": wide, "search": search}[workload](seed)
