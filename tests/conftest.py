from pathlib import Path

import pytest

from swcalc.lattice import E8_GRAM, E8Block, HyperbolicBlock
from swcalc.manifest import load_catalog
from swcalc.relations import RelationQuery, dswrel_value, dvanish_theorem_check, sst_check
from swcalc.series import Jet

FIXTURES = Path(__file__).parent / "fixtures"

CATALOG_NAMES = ("K3", "E3", "E4", "E5", "E6")


@pytest.fixture(scope="session")
def catalog():
    return {name: load_catalog(name).to_manifold() for name in CATALOG_NAMES}


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


def dense_block_gram(blocks):
    """Block-diagonal Gram matrix from E8_GRAM and the block entries: the
    dense reference of the form, built apart from the block columns."""
    pieces = []
    for b in blocks:
        if isinstance(b, HyperbolicBlock):
            pieces.append([[0, 1], [1, 0]])
        elif isinstance(b, E8Block):
            pieces.append([[b.sign * x for x in row] for row in E8_GRAM])
        else:
            pieces.append([[e if i == j else 0 for j in range(len(b.entries))]
                           for i, e in enumerate(b.entries)])
    n = sum(len(p) for p in pieces)
    gram = [[0] * n for _ in range(n)]
    offset = 0
    for p in pieces:
        for i, row in enumerate(p):
            gram[offset + i][offset:offset + len(row)] = row
        offset += len(p)
    return gram


def homogeneous_part(jet, degree):
    """The degree part of a jet, over the same variables and order."""
    part = {a: c for a, c in jet.coefficients.items() if sum(a) == degree}
    return Jet(jet.ambient, jet.variables, part, jet.order)


def multiply(p, q):
    """The product of two Laurent polynomials given as {exponent: coefficient}."""
    out = {}
    for a, x in p.items():
        for b, y in q.items():
            out[a + b] = out.get(a + b, 0) + x * y
    return out


def relation_flag_pairs(m, w):
    """(reported, polynomial) for each relation sum that sst and dvanish report
    on (m, w): the zero flag each pipeline reports, and whether dswrel_value
    at the same (w + lam, lam, delta, m) is the zero polynomial."""
    sst, dvanish = sst_check(m, w), dvanish_theorem_check(m, w)

    def polynomial_is_zero(lam, delta, mm):
        return dswrel_value(m, RelationQuery(w + lam, lam, delta, mm)).is_zero()

    return [(e.relation_is_zero, polynomial_is_zero(sst.lambda1, e.delta, e.m))
            for e in sst.entries] + [
        (e.value_is_zero, polynomial_is_zero(dvanish.lam, e.d, e.m))
        for e in dvanish.entries if e.route == "relation"]


def bump_conjugate_pair(manifest, index, t):
    """A copy of the manifest dict with |sw| raised by t on basic class
    index and on its conjugate: sw(-k) = +-sw(k) still holds with the same
    sign, so the copy validates whenever the manifest does."""
    classes = manifest["basic_classes"]
    coords = classes[index]["coords"]
    bumped = []
    for entry in classes:
        if entry["coords"] in (coords, [-x for x in coords]):
            sw = entry["sw"]
            entry = dict(entry, sw=sw + t if sw > 0 else sw - t)
        bumped.append(entry)
    return dict(manifest, basic_classes=bumped)
