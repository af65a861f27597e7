"""Knot surgery on E(n) as a theory oracle.

Fintushel-Stern knot surgery along a fiber gives SW(E(n)_K) = SW(E(n)) *
Delta_K(t^2), with t = e^f for the fiber class f.  By Seifert's theorem every
symmetric Laurent polynomial Delta with Delta(1) = 1 is the Alexander
polynomial of a knot, so the generator below draws Delta directly.  It
builds the manifests from the product alone and shares no code with swcalc.

Delta(t^2) is a unit at h = 0, so the theory predicts that E(n)_K
validates, that its series vanishes to order exactly n - 2, as E(n)'s does,
and that sst and dvanish give the verdicts they give on E(n).  For odd n,
dvanish settles d = c - 4 by the relation route.  With the sw of one
conjugate pair raised, the data still validates and the series' order may
drop, so the relation sums need not vanish; each flag that sst and dvanish
report must still be the zero test of relate's polynomial.
"""

import json
from functools import cache
from math import comb

from hypothesis import example, given, settings
from hypothesis import strategies as st

import swcalc.series as series
from swcalc.catalog import _elliptic
from swcalc.lattice import characteristic_vector
from swcalc.manifest import parse_manifest
from swcalc.manifold import validate
from swcalc.relations import dvanish_theorem_check, sst_check
from swcalc.series import VanishingOrder

from conftest import bump_conjugate_pair, multiply, relation_flag_pairs


def knot_surgery_manifest(n, alexander):
    """E(n)_K for the Alexander polynomial {k: a_k} (a_k = a_-k, sum 1).

    E(n) is (2n-1)H + n(-E8) with f the first hyperbolic generator for even
    n, and diag(1, -1) + (2n-2)H + n(-E8) with f = (1, 1, 0, ...) for odd n.
    Its series is (t - 1/t)^(n-2) in t = e^f; the class r*f carries the
    coefficient of t^r in that times Delta(t^2), and is dropped when the
    coefficient cancels to zero.
    """
    rank = 12 * n - 2
    if n % 2:
        form = [{"type": "diag", "entries": [1, -1]}] + [{"type": "H"}] * (2 * n - 2)
        fiber = (1, 1)
    else:
        form = [{"type": "H"}] * (2 * n - 1)
        fiber = (1, 0)
    form += [{"type": "E8", "sign": -1}] * n
    elliptic = {n - 2 - 2 * j: (-1) ** j * comb(n - 2, j) for j in range(n - 1)}
    product = multiply(elliptic, {2 * k: a for k, a in alexander.items()})
    classes = [
        {"coords": [r * fiber[0], r * fiber[1]] + [0] * (rank - 2), "sw": sw}
        for r, sw in sorted(product.items(), reverse=True) if sw
    ]
    return {
        "schema_version": 1, "name": f"E{n}_K", "chi": 12 * n, "sigma": -8 * n,
        "b_plus": 2 * n - 1, "form": form, "basic_classes": classes,
        "assume_conjecture": True,
    }


@st.composite
def alexander_polynomials(draw):
    """Symmetric Laurent polynomials of degree <= 6 with Delta(1) = 1 and
    every coefficient in [-3, 3]; the constant term takes what is left."""
    tail = draw(st.lists(st.integers(-3, 3), max_size=6).filter(
        lambda a: -3 <= 1 - 2 * sum(a) <= 3))
    alexander = {0: 1 - 2 * sum(tail)}
    for k, a in enumerate(tail, 1):
        alexander[k] = alexander[-k] = a
    return alexander


def to_manifold(manifest):
    return parse_manifest(json.dumps(manifest)).to_manifold()


@cache
def elliptic_verdicts(n):
    m = to_manifold(_elliptic(n))
    w = characteristic_vector(m.form)
    return sst_check(m, w).verdict, dvanish_theorem_check(m, w).verdict


def test_the_trivial_knot_gives_e_n():
    for n in range(3, 13):
        assert knot_surgery_manifest(n, {0: 1})["basic_classes"] == _elliptic(n)["basic_classes"]


def test_the_trefoil_on_e4():
    # Delta = t - 1 + 1/t: (t - 1/t)^2 (t^2 - 1 + t^-2) = t^4 - 3t^2 + 4 - 3t^-2 + t^-4
    manifest = knot_surgery_manifest(4, {-1: 1, 0: -1, 1: 1})
    assert [(c["coords"][0], c["sw"]) for c in manifest["basic_classes"]] == [
        (4, 1), (2, -3), (0, 4), (-2, -3), (-4, 1)]


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 12), alexander_polynomials())
def test_knot_surgery_keeps_the_order_and_the_verdicts_of_e_n(n, alexander):
    m = to_manifold(knot_surgery_manifest(n, alexander))
    assert validate(m).passed
    w = characteristic_vector(m.form)
    sst = sst_check(m, w)
    assert sst.order == VanishingOrder.exact(n - 2)
    dvanish = dvanish_theorem_check(m, w)
    assert (sst.verdict, dvanish.verdict) == elliptic_verdicts(n)
    assert any(e.route == "relation" for e in dvanish.entries) == (n % 2 == 1 and n >= 5)
    # the oracle pair: each reported relation flag is the zero test of
    # relate's polynomial at the same query
    assert all(reported == polynomial for reported, polynomial in relation_flag_pairs(m, w))


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 12), alexander_polynomials(), st.integers(0, 99), st.integers(1, 2))
@example(5, {0: 1}, 1, 1)  # E5 with sw -+4 on +-f: both dvanish relation sums are nonzero
def test_perturbed_knot_surgery_relation_flags_match_the_polynomial_route(
        n, alexander, index, t):
    manifest = knot_surgery_manifest(n, alexander)
    m = to_manifold(bump_conjugate_pair(manifest, index % len(manifest["basic_classes"]), t))
    assert validate(m).passed
    pairs = relation_flag_pairs(m, characteristic_vector(m.form))
    assert all(reported == polynomial for reported, polynomial in pairs)


def test_the_torus_knot_t_2_41_on_e_320(monkeypatch):
    # Delta = t^20 - t^19 + ... + t^-20: 359 classes of rank 3838, one
    # variable; the order engine reads the order 318 by division at t = 1,
    # with no walk, and sst and dvanish give E(320)'s verdicts
    def refused(*args):
        raise AssertionError("the order engine walked a one-variable series")

    manifest = knot_surgery_manifest(320, {k: (-1) ** abs(k) for k in range(-20, 21)})
    assert len(manifest["basic_classes"]) == 359
    m = to_manifold(manifest)
    assert validate(m).passed
    w = characteristic_vector(m.form)
    with monkeypatch.context() as patch:
        patch.setattr(series, "_power_sums", refused)
        sst = sst_check(m, w)
        dvanish = dvanish_theorem_check(m, w)
    assert sst.order == VanishingOrder.exact(318)
    assert (sst.verdict, dvanish.verdict) == elliptic_verdicts(320)
