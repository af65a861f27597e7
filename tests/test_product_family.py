"""Product series on E(n) as a theory oracle.

For n even, E(n) is (2n-1)H + n(-E8), an even form with characteristic
number c = n.  The generator below gives it the basic classes of a product
prod_i F_i(x_i), x_i = <g_i, h> for isotropic generators g_i of distinct H
blocks, where each F_i is (e^x - e^-x)^a with a in {2, 4}, a symmetric unit
u(e^(2x)) with u(1) = +-1, or one of each multiplied.  It builds the
manifests from the product alone and shares no code with swcalc.

Every class is even and isotropic, so it is characteristic, has square
0 = 2 chi + 3 sigma and pairs to zero with w = 0; every factor is
symmetric, so conjugation symmetry holds.  The covectors of distinct
generators are independent and Q[[h]] is an integral domain, so the series
vanishes to order exactly sum a_i.  The theory predicts that validate
passes, that sst passes iff sum a_i >= n - 2 = c - 2 and fails with the
order note otherwise, and that dvanish passes (n even takes the vanishing
branch alone).  With the sw of one conjugate pair raised, the data still
validates but is no longer a product; there each relation flag that sst
reports must still be the zero test of relate's polynomial.
"""

import json
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swcalc.lattice import characteristic_vector
from swcalc.manifest import parse_manifest
from swcalc.manifold import validate
from swcalc.relations import dvanish_theorem_check, sst_check
from swcalc.series import VanishingOrder, sw_series, vanishing_order

from conftest import bump_conjugate_pair, multiply, relation_flag_pairs


def sinh_power(a):
    """(y - 1/y)^a in y = e^x."""
    return {a - 2 * j: (-1) ** j * comb(a, j) for j in range(a + 1)}


def unit(tail, sign):
    """u(y^2) = sum_j u_j y^(2j) with u_j = u_-j = tail[j - 1] and u(1) = sign."""
    u = {0: sign - 2 * sum(tail)}
    for j, x in enumerate(tail, 1):
        u[2 * j] = u[-2 * j] = x
    return u


def product_manifest(n, factors):
    """E(n) whose basic classes are the terms of prod_i F_i(<g_i, h>).

    factors is a list of (block, generator, F) with distinct H blocks b,
    generator 0 or 1 picking coordinate 2b or 2b + 1 (e or f of the block),
    and F a Laurent polynomial {r: coefficient} in y = e^x; the class
    sum_i r_i g_i carries prod_i F_i[r_i], and classes that cancel are
    dropped."""
    rank = 12 * n - 2
    terms = {(): 1}
    for _, _, f in factors:
        terms = {(*rs, r): x * y for rs, x in terms.items() for r, y in f.items()}
    classes = []
    for rs, sw in sorted(terms.items(), reverse=True):
        if sw:
            coords = [0] * rank
            for (block, generator, _), r in zip(factors, rs):
                coords[2 * block + generator] = r
            classes.append({"coords": coords, "sw": sw})
    return {
        "schema_version": 1, "name": f"E{n}-product", "chi": 12 * n, "sigma": -8 * n,
        "b_plus": 2 * n - 1,
        "form": [{"type": "H"}] * (2 * n - 1) + [{"type": "E8", "sign": -1}] * n,
        "basic_classes": classes, "assume_conjecture": True,
    }


def predict_and_check(n, factors, a):
    """Run the four predictions on E(n) with the given factors, of total order a."""
    m = parse_manifest(json.dumps(product_manifest(n, factors))).to_manifold()
    assert validate(m).passed
    w = characteristic_vector(m.form)
    series = sw_series(m, w)
    for cap in (a, a + 1, a + 3):
        assert vanishing_order(series, cap) == VanishingOrder.exact(a)
    sst = sst_check(m, w)
    if n == 2:  # c - 3 < 0
        assert sst.verdict == "pass-vacuous"
    else:
        assert sst.verdict == ("pass" if a >= n - 2 else "fail")
        assert any("below required" in note for note in sst.notes) == (a < n - 2)
    assert dvanish_theorem_check(m, w).verdict == "pass"


@st.composite
def factor(draw):
    """(a, F): (y - 1/y)^a, a unit, or one of each multiplied; units have
    degree <= 1 in y^2 and coefficients in [-3, 3]."""
    kind = draw(st.sampled_from(("sinh", "unit", "both")))
    a = 0 if kind == "unit" else draw(st.sampled_from((2, 4)))
    f = sinh_power(a)
    if kind != "sinh":
        sign = draw(st.sampled_from((1, -1)))
        tail = draw(st.lists(st.integers(-2, 2), max_size=1).filter(
            lambda t: -3 <= sign - 2 * sum(t) <= 3))
        f = multiply(f, unit(tail, sign))
    return a, f


@st.composite
def products(draw):
    """(n, factors, sum a_i): n even in [2, 12], 1-4 factors on distinct H
    blocks, at most 100 classes before cancellation."""
    n = draw(st.sampled_from((2, 4, 6, 8, 10, 12)))
    drawn = draw(st.lists(factor(), min_size=1, max_size=min(4, 2 * n - 2)).filter(
        lambda fs: prod(len(f) for _, f in fs) <= 100))
    blocks = draw(st.lists(st.integers(0, 2 * n - 2), min_size=len(drawn),
                           max_size=len(drawn), unique=True))
    generators = draw(st.lists(st.integers(0, 1), min_size=len(drawn), max_size=len(drawn)))
    factors = [(b, g, f) for b, g, (_, f) in zip(blocks, generators, drawn)]
    return n, factors, sum(a for a, _ in drawn)


def test_sinh_powers_and_units():
    assert sinh_power(2) == {2: 1, 0: -2, -2: 1}
    assert sum(sinh_power(4).values()) == 0
    assert unit([1], -1) == {0: -3, 2: 1, -2: 1} and sum(unit([1], -1).values()) == -1


@pytest.mark.parametrize("n, powers", [
    (4, (2,)), (6, (4,)), (6, (2, 2)), (8, (2, 4)), (10, (4, 4)), (12, (2, 2, 2, 4)),
])
def test_sst_passes_at_order_n_minus_2_and_fails_just_below(n, powers):
    """At sum a_i = n - 2 sst passes; with a unit for the last factor, the
    order is n - 2 - a_last < n - 2 and sst fails."""
    at = [(2 * i + 1, 1, multiply(sinh_power(a), unit([1], 1))) for i, a in enumerate(powers)]
    predict_and_check(n, at, n - 2)
    below = at[:-1] + [(at[-1][0], 0, unit([1], -1))]
    predict_and_check(n, below, n - 2 - powers[-1])


@settings(max_examples=100, deadline=None)
@given(products(), st.integers(0, 99), st.integers(1, 2))
def test_product_series_verdicts_match_the_theory(case, index, t):
    n, factors, a = case
    predict_and_check(n, factors, a)
    manifest = product_manifest(n, factors)
    bumped = bump_conjugate_pair(manifest, index % len(manifest["basic_classes"]), t)
    m = parse_manifest(json.dumps(bumped)).to_manifold()
    assert validate(m).passed
    pairs = relation_flag_pairs(m, characteristic_vector(m.form))
    assert all(reported == polynomial for reported, polynomial in pairs)
