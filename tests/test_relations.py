"""Depth/index parameters, relation formula, vanishing pipelines, region."""

import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import swcalc.lattice as lattice_module
import swcalc.manifold as manifold_module
import swcalc.relations as relations
import swcalc.series as series_module
from swcalc.errors import (
    AbundanceInconsistent,
    AbundanceUndetermined,
    ConjectureNotAssumed,
    HypothesisViolation,
    InadmissibleParity,
    NotCharacteristic,
)
from swcalc.lattice import (
    AbundanceClasses,
    CohClass,
    DiagonalBlock,
    HyperbolicBlock,
    E8Block,
    IntegralLattice,
    block_signature,
    characteristic_vector,
    is_characteristic,
    pairing,
    square,
)
from swcalc.manifest import load_catalog, parse_manifest
from swcalc.manifold import BasicClassEntry, FourManifold, characteristic_number
from swcalc.relations import (
    RelationQuery,
    VERDICT_FAIL,
    VERDICT_PASS,
    VERDICT_PASS_VACUOUS,
    Window,
    basic_class_bound,
    degree_admissible,
    depth_value,
    dswrel_value,
    dvanish_applies,
    dvanish_theorem_check,
    i_lambda,
    index_value,
    r_lambda,
    region_data,
    sst_check,
)
from swcalc.record import replace
from swcalc.catalog import _elliptic
from swcalc.report import render
from swcalc.series import VanishingOrder, jet_expand, sw_series, twist

from conftest import homogeneous_part, relation_flag_pairs

H = IntegralLattice.from_blocks([HyperbolicBlock()])


def unit(rank, i):
    return CohClass.unit(rank, i)


def test_depth_index_examples(catalog):
    k3 = catalog["K3"]
    lam = 2 * unit(22, 0) - 2 * unit(22, 1)  # square -8
    assert r_lambda(k3, lam) == 2 == i_lambda(k3, lam)
    assert characteristic_number(k3) == 2


def test_depth_index_at_shifted_square():
    # square -(chi+sigma)+4 gives (c-4, c+4)
    rng = random.Random(31)
    for _ in range(200):
        chi = rng.randint(-100, 100)
        sigma = rng.randint(-100, 100)
        sigma -= (chi + sigma) % 4
        c = Fraction(-(7 * chi + 11 * sigma), 4)
        sq = -(chi + sigma) + 4
        assert depth_value(chi, sigma, sq) == c - 4
        assert index_value(chi, sigma, sq) == c + 4


def test_depth_plus_index_is_twice_c():
    rng = random.Random(37)
    for _ in range(300):
        chi = rng.randint(-100, 100)
        sigma = rng.randint(-100, 100)
        sq = rng.randint(-60, 60)
        c = Fraction(-(7 * chi + 11 * sigma), 4)
        assert depth_value(chi, sigma, sq) + index_value(chi, sigma, sq) == 2 * c


def test_depth_equals_index_iff_central_square():
    rng = random.Random(41)
    for _ in range(300):
        chi = rng.randint(-50, 50)
        sigma = rng.randint(-50, 50)
        sq = rng.randint(-40, 40)
        equal = depth_value(chi, sigma, sq) == index_value(chi, sigma, sq)
        assert equal == (sq == -(chi + sigma))


def test_degree_admissible_k3(catalog):
    k3 = catalog["K3"]
    w0 = CohClass.zero(22)
    admissible = [d for d in range(9) if degree_admissible(k3, w0, d)]
    assert admissible == [2, 6]


def test_degree_admissible_zero_topology():
    m = FourManifold("flat", 0, 0, 1, H, ())
    w0 = CohClass.zero(2)
    admissible = [d for d in range(9) if degree_admissible(m, w0, d)]
    assert admissible == [0, 4, 8]


def test_degree_admissible_e4_odd_w(catalog):
    e4 = catalog["E4"]
    w = 2 * unit(46, 0) - unit(46, 1)  # w.w = -4
    admissible = [d for d in range(9) if degree_admissible(e4, w, d)]
    assert admissible == [0, 4, 8]


def written_out_degree_rule(m, w, d):
    """The mod-8 degree rule 2d = -2 w.w - 3(chi+sigma)/2 (mod 8) written
    out: the oracle for the residue that relations reads it off."""
    return (2 * d + 2 * square(m.form, w) + 3 * (m.chi + m.sigma) // 2) % 8 == 0


# H + <1>: w = (a, b, c) has w.w = 2ab + c^2, of the parity of c, and is
# characteristic exactly when a and b are even and c is odd
H1 = IntegralLattice.from_blocks([HyperbolicBlock(), DiagonalBlock((1,))])
h1_classes = st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)).map(CohClass)


@settings(max_examples=300, deadline=None)
@given(st.integers(-40, 40), st.integers(-40, 40), h1_classes, st.integers(-12, 12))
def test_degree_admissible_is_the_written_out_rule(chi, sigma, w, d):
    m = FourManifold("any", chi, sigma, 1, H1, ())  # not validated
    event(f"chi + sigma = {(chi + sigma) % 4} mod 4, w.w = {square(H1, w) % 2} mod 2")
    assert degree_admissible(m, w, d) == written_out_degree_rule(m, w, d)


def test_dvanish_degrees_are_the_rule_over_0_to_c_minus_1(catalog):
    form = IntegralLattice.from_blocks([HyperbolicBlock(), HyperbolicBlock(), DiagonalBlock((1,))])
    cases = [(m, characteristic_vector(m.form)) for m in catalog.values()]
    cases.append((FourManifold("uncovered", 60, -40, 9, form, ()), CohClass((0, 0, 0, 0, 1))))
    counts = []
    for m, w in cases:
        c = int(characteristic_number(m))
        expected = tuple(d for d in range(c) if written_out_degree_rule(m, w, d))
        assert dvanish_theorem_check(m, w).admissible_d == expected
        counts.append(len(expected))
    assert counts == [0, 0, 1, 1, 1, 2]


def test_dvanish_applies(catalog):
    e4 = catalog["E4"]
    u, v = unit(46, 2), unit(46, 3)
    lam = 2 * u - 4 * v  # square -16, r = i = 4
    assert dvanish_applies(e4, lam, 3)
    assert not dvanish_applies(e4, lam, 4)
    k3 = catalog["K3"]
    lam8 = 2 * unit(22, 0) - 2 * unit(22, 1)
    assert dvanish_applies(k3, lam8, 1)


def test_dvanish_applies_needs_conjecture(catalog):
    e4 = replace(catalog["E4"], assume_conjecture=False)
    lam = 2 * unit(46, 2) - 4 * unit(46, 3)
    with pytest.raises(ConjectureNotAssumed):
        dvanish_applies(e4, lam, 3)


def test_relation_query_invariant():
    with pytest.raises(HypothesisViolation):
        RelationQuery(CohClass((0, 0)), CohClass((0, 0)), 1, 1)


def test_dswrel_e4_spot_zero(catalog):
    # lambda = 2e-3g in the second hyperbolic block, w = 2e-g, delta = m = 0
    e4 = catalog["E4"]
    u, v = unit(46, 2), unit(46, 3)
    lam = 2 * u - 3 * v
    w = 2 * u - v
    value = dswrel_value(e4, RelationQuery(w, lam, 0, 0))
    assert value.is_zero()
    assert r_lambda(e4, lam) == 0 and i_lambda(e4, lam) == 8


def test_dswrel_e4_nonzero_spot(catalog):
    # lambda of square -14 puts the boundary at delta = 2; by hand the
    # signed sum collapses to -2 <f, h>^2
    e4 = catalog["E4"]
    u, v = unit(46, 2), unit(46, 3)
    lam = u - 7 * v
    value = dswrel_value(e4, RelationQuery(lam, lam, 2, 0))
    assert min(map(sum, value.coefficients), default=None) == 2
    d = [0, 1] + [0] * 44  # <f, d> = 1
    assert value.evaluate(d) == -2
    d2 = [0, Fraction(3, 2)] + [0] * 44
    assert value.evaluate(d2) == Fraction(-9, 2)


def test_dswrel_point_insertion_changes_sign_only(catalog):
    # at delta = 2, m = 1 the monomial degree drops to zero and the value
    # is the plain signed sum, which vanishes for the catalog data
    e4 = catalog["E4"]
    u, v = unit(46, 2), unit(46, 3)
    lam = u - 7 * v
    value = dswrel_value(e4, RelationQuery(lam, lam, 2, 1))
    assert value.is_zero()


def test_dswrel_hypothesis_violations(catalog):
    e4 = catalog["E4"]
    u, v = unit(46, 2), unit(46, 3)
    lam = 2 * u - 3 * v  # r = 0
    w = 2 * u - v
    with pytest.raises(HypothesisViolation) as e:
        dswrel_value(e4, RelationQuery(w, lam, 2, 0))
    assert e.value.precondition == "delta_equals_r_lambda"
    g = unit(46, 1)  # pairs with the fiber classes
    with pytest.raises(HypothesisViolation) as e:
        dswrel_value(e4, RelationQuery(w, g, 0, 0))
    assert e.value.precondition == "lambda_in_basic_class_complement"
    with pytest.raises(HypothesisViolation) as e:
        dswrel_value(e4, RelationQuery(w + unit(46, 2), lam, 0, 0))
    assert e.value.precondition == "w_minus_lambda_characteristic"


def test_dswrel_needs_conjecture(catalog):
    e4 = replace(catalog["E4"], assume_conjecture=False)
    u, v = unit(46, 2), unit(46, 3)
    with pytest.raises(ConjectureNotAssumed):
        dswrel_value(e4, RelationQuery(2 * u - v, 2 * u - 3 * v, 0, 0))


def test_dswrel_inadmissible_parity():
    # odd square for lam forces a half-integer exponent somewhere
    lat = IntegralLattice.from_blocks([DiagonalBlock((1, -1))])
    m = FourManifold("odd", 4, -4, 0, lat, (), True)
    lam = CohClass((2, 1))  # square 3, r = 1, i = 7
    w = lam + CohClass((1, 1))
    assert r_lambda(m, lam) == 1 and i_lambda(m, lam) == 7
    with pytest.raises(InadmissibleParity):
        dswrel_value(m, RelationQuery(w, lam, 1, 0))


@st.composite
def characteristic_shifts(draw):
    """A unimodular block lattice (H, +-E8, diagonal +-1 blocks), a
    characteristic class c and a class lam of even square on it."""
    block = st.one_of(
        st.just(HyperbolicBlock()),
        st.sampled_from([E8Block(1), E8Block(-1)]),
        st.lists(st.sampled_from([1, -1]), min_size=1, max_size=3).map(
            lambda entries: DiagonalBlock(tuple(entries))),
    )
    form = IntegralLattice.from_blocks(draw(st.lists(block, min_size=1, max_size=4)))
    coords = st.lists(st.integers(-3, 3), min_size=form.rank, max_size=form.rank)
    c = characteristic_vector(form) + 2 * CohClass(tuple(draw(coords)))
    lam = CohClass(tuple(draw(coords)))
    if square(form, lam) % 2:
        lam = 2 * lam
    return form, c, lam


@settings(max_examples=200, deadline=None)
@given(characteristic_shifts())
def test_relation_sign_base_congruences(case):
    # the congruences dswrel_value asserts about its sign base, which
    # python -O strips there: for w - lam characteristic and lam.lam even,
    # sigma - w.w is even and lam.lam/2 - lam.w = (sigma - w.w)/2 (mod 2)
    form, c, lam = case
    w = c + lam
    sigma = block_signature(form)
    assert is_characteristic(form, w - lam)
    assert (square(form, w - lam) - sigma) % 8 == 0  # van der Blij
    wsq, lam_sq, lam_dot_w = square(form, w), square(form, lam), pairing(form, lam, w)
    assert (sigma - wsq) % 2 == 0
    assert (lam_sq // 2 - lam_dot_w - (sigma - wsq) // 2) % 2 == 0
    assert (lam_sq - 2 * lam_dot_w - (sigma - wsq)) % 8 == 0


def jet_oracle(m, w, lam, delta, mm):
    """Relation value recomputed through the twisted-jet route."""
    c = characteristic_number(m)
    d = delta - 2 * mm
    tw = twist(sw_series(m, w), lam, -1)
    jet = homogeneous_part(jet_expand(tw, d), d)
    lam_sq = square(m.form, lam)
    sign_exp = mm - 1 + lam_sq // 2 - pairing(m.form, lam, w)
    sign = -1 if sign_exp % 2 else 1
    scale = Fraction(2) ** int(1 - (c + delta) / 2) * sign * math.factorial(d)
    return jet.scale(scale)


def wide_e10_manifest():
    """E(10) with width-4 basic-class data: fixtures/wide_e10_2222.json.

    The basic classes are the terms of prod_i (e^{x_i} - e^{-x_i})^2 over
    isotropic generators x_i of four distinct H blocks, so the series
    vanishes to exactly order c - 2 = 8 and the relation sums of sst run
    over four independent directions.
    """
    n, rank = 10, 118
    generators = ((2, 1), (5, -1), (10, 1), (19, -1))  # (coordinate, sign)
    classes = []
    for js in itertools.product((-2, 0, 2), repeat=len(generators)):
        coords = [0] * rank
        sw = 1
        for j, (i, sign) in zip(js, generators):
            coords[i] = j * sign
            sw *= (-1) ** ((2 - j) // 2) * math.comb(2, (2 + j) // 2)
        classes.append({"coords": coords, "sw": sw})
    w = [0] * rank
    for i, v in ((0, 2), (3, 2), (30, -2), (40, -2)):  # w = 2x, x.x = -2
        w[i] = v
    return {
        "schema_version": 1, "name": "E10-wide-2-2-2-2", "chi": 12 * n,
        "sigma": -8 * n, "b_plus": 2 * n - 1,
        "form": [{"type": "H"}] * (2 * n - 1) + [{"type": "E8", "sign": -1}] * n,
        "basic_classes": classes, "assume_conjecture": True, "w": w,
    }


def sw_three_copy(m):
    """The width-4 fixture's manifold with sw 3 on its +-(2,2,2,2) classes:
    it still validates, and none of its sst relation sums vanishes."""
    heavy = {(2, -2, 2, -2), (-2, 2, -2, 2)}  # the signed generator coordinates
    return replace(m, basic_classes=tuple(
        BasicClassEntry(e.k, 3) if tuple(e.k.coords[i] for i in (2, 5, 10, 19)) in heavy else e
        for e in m.basic_classes
    ))


def doubled_fiber_copy(e5):
    """E5 with the sw of its +-f classes doubled: it still validates, and
    both of its dvanish relation sums are nonzero."""
    return replace(e5, basic_classes=tuple(
        BasicClassEntry(e.k, 2 * e.sw if abs(e.sw) == 3 else e.sw) for e in e5.basic_classes
    ))


def relation_grid(m, block_units, squares_by_delta, fiber):
    """Valid (w, lam, delta, mm) queries built inside one hyperbolic block."""
    u, v = block_units
    out = []
    for delta, squares in squares_by_delta.items():
        for a, b in squares:
            lam = a * u + b * v
            for w in (lam, lam + 2 * fiber):
                for mm in range(delta // 2 + 1):
                    out.append((w, lam, delta, mm))
    return out


def test_dswrel_matches_jet_oracle_e4_e6(catalog):
    grids = {
        "E4": {0: [(1, -6), (2, -3), (3, -2), (6, -1)], 2: [(1, -7), (7, -1)]},
        "E6": {0: [(1, -9), (3, -3), (9, -1)], 2: [(1, -10), (2, -5), (5, -2), (10, -1)]},
    }
    for name, squares in grids.items():
        m = catalog[name]
        rank = m.form.rank
        fiber = unit(rank, 0)
        queries = relation_grid(m, (unit(rank, 2), unit(rank, 3)), squares, fiber)
        assert queries
        for w, lam, delta, mm in queries:
            assert r_lambda(m, lam) == delta
            value = dswrel_value(m, RelationQuery(w, lam, delta, mm))
            oracle = jet_oracle(m, w, lam, delta, mm)
            assert value.variables == oracle.variables
            assert value.coefficients == oracle.coefficients


def test_dswrel_oracle_on_synthetic_manifolds():
    # random simple-type data over the E4 topology with two isotropic
    # class directions, so the relation polynomial is genuinely
    # multivariate; the formula route must match the jet route exactly
    from swcalc.manifold import validate

    rng = random.Random(53)
    form = IntegralLattice.from_blocks([HyperbolicBlock()] * 7 + [E8Block(-1)] * 4)
    lam_coeffs = [(1, -7), (7, -1), (-1, 7), (-7, 1)]
    for _ in range(20):
        units = rng.sample([unit(46, i) for i in range(4)], k=2)
        entries = []
        for u in units:
            s = rng.choice([1, 2, 3, -1, -2])
            entries.append(BasicClassEntry(2 * u, s))
            entries.append(BasicClassEntry(-2 * u, s))
        m = FourManifold("synthetic", 48, -32, 7, form, tuple(entries))
        assert validate(m).passed
        a, b = rng.choice(lam_coeffs)
        lam = a * unit(46, 4) + b * unit(46, 5)  # square -14: r = 2, i = 6
        assert r_lambda(m, lam) == 2 and i_lambda(m, lam) == 6
        t = CohClass(tuple(rng.randint(-1, 1) for _ in range(46)))
        w = lam + 2 * t
        for mm in (0, 1):
            value = dswrel_value(m, RelationQuery(w, lam, 2, mm))
            oracle = jet_oracle(m, w, lam, 2, mm)
            assert value.variables == oracle.variables
            assert value.coefficients == oracle.coefficients


def test_wide_fixture_is_the_built_manifest(fixtures_dir):
    text = (fixtures_dir / "wide_e10_2222.json").read_text()
    assert json.loads(text) == wide_e10_manifest()


def test_sst_relation_values_match_jet_oracle_at_width_four(fixtures_dir):
    # every relation sum of sst on the width-4 fixture, and on a copy whose
    # +-(2,2,2,2) classes carry sw 3 so that the sums no longer vanish, is
    # zero exactly when the twisted-jet route says so; on the copy the
    # relation polynomials at sst's lambda1 equal that route coefficient
    # for coefficient
    from swcalc.manifold import validate

    manifest = parse_manifest((fixtures_dir / "wide_e10_2222.json").read_text())
    m = manifest.to_manifold()
    w = CohClass(manifest.w)
    corrupted = sw_three_copy(m)
    assert validate(corrupted).passed
    for manifold, verdict in ((m, VERDICT_PASS), (corrupted, VERDICT_FAIL)):
        report = sst_check(manifold, w)
        assert report.verdict == verdict
        assert [e.m for e in report.entries] == [0, 1, 2, 3]
        for e in report.entries:
            oracle = jet_oracle(manifold, w + report.lambda1, report.lambda1, e.delta, e.m)
            assert e.relation_is_zero == oracle.is_zero() == (verdict == VERDICT_PASS)
            if verdict == VERDICT_FAIL:
                value = dswrel_value(
                    manifold, RelationQuery(w + report.lambda1, report.lambda1, e.delta, e.m)
                )
                assert len(value.variables) == 5  # four generators and lambda1
                assert value.variables == oracle.variables
                assert value.coefficients == oracle.coefficients


def test_sst_and_dvanish_relation_flags_match_the_polynomial_route(catalog, fixtures_dir):
    # sst and dvanish test each relation sum for zero on the twisted
    # sw_series(m, w), or read it off the series' vanishing order; relate's
    # dswrel_value builds the signed polynomial at (w + lam, lam).  Every
    # flag must be that polynomial's zero test: on E3-E6, on E(41), whose
    # dvanish settles d = c - 4 by 19 relation sums, on E(5) with the sw of
    # +-f doubled, where both relation sums are nonzero, and on the width-4
    # fixture and its sw-3 copy, where no sst sum vanishes
    manifest = parse_manifest((fixtures_dir / "wide_e10_2222.json").read_text())
    wide, w_wide = manifest.to_manifold(), CohClass(manifest.w)
    e41 = parse_manifest(json.dumps(_elliptic(41))).to_manifold()
    cases = [(m, characteristic_vector(m.form)) for m in (
        *(catalog[f"E{n}"] for n in (3, 4, 5, 6)), e41, doubled_fiber_copy(catalog["E5"]))]
    cases += [(wide, w_wide), (sw_three_copy(wide), w_wide)]
    counts = []
    for m, w in cases:
        pairs = relation_flag_pairs(m, w)
        assert all(reported == polynomial for reported, polynomial in pairs), m.name
        counts.append((len(pairs), sum(not reported for reported, _ in pairs)))
    assert counts == [(0, 0), (1, 0), (2, 0), (2, 0), (38, 0), (2, 2), (4, 0), (4, 4)]


def test_dswrel_oracle_with_fractional_span_rows():
    # multiples c*u of one isotropic class, twisted by lam, are spanned by the
    # first two twisted classes; with c in {0, +-2, +-6} the rows rows/den
    # have denominator 2, with c in {+-2, +-8} denominator 3, so the integer
    # route must divide by the right power of den at the end
    from swcalc.manifold import validate
    from swcalc.series import _span_reduce

    form = IntegralLattice.from_blocks([HyperbolicBlock()] * 7 + [E8Block(-1)] * 4)
    u = unit(46, 2)
    lam = unit(46, 4) - 7 * unit(46, 5)  # square -14: r = 2, i = 6
    for multiples, denominator in (((0, 2, 6), 2), ((2, 8), 3)):
        cs = sorted({c for x in multiples for c in (x, -x)})
        entries = tuple(BasicClassEntry(c * u, abs(c) // 2 + 1) for c in cs)
        m = FourManifold("synthetic", 48, -32, 7, form, entries)
        assert validate(m).passed
        classes = [k for _, k in twist(sw_series(m, lam), lam, -1).terms]
        _, den, rows = _span_reduce(form, classes)
        assert den == denominator
        assert max(Fraction(x, den).denominator for row in rows for x in row) == denominator
        for mm in (0, 1):
            value = dswrel_value(m, RelationQuery(lam, lam, 2, mm))
            oracle = jet_oracle(m, lam, lam, 2, mm)
            assert value.variables == oracle.variables
            assert value.coefficients == oracle.coefficients
            assert not value.is_zero()


def test_dswrel_cross_lambda_consistency_e6(catalog):
    # congruent classes with the same square give the same polynomial
    e6 = catalog["E6"]
    u, v = unit(70, 2), unit(70, 3)
    pairs = [
        (1 * u - 9 * v, 9 * u - 1 * v, 0),
        (1 * u - 10 * v, 5 * u - 2 * v, 2),   # hmm: (1,-10) vs (5,-2) both odd,even
        (1 * u - 11 * v, 11 * u - 1 * v, 4),
    ]
    eval_grid = [
        [0, a, b, c] + [0] * 66
        for a in range(3) for b in range(3) for c in range(3)
    ]
    for lam, lam2, delta in pairs:
        assert (lam - lam2).is_even()
        assert square(e6.form, lam) == square(e6.form, lam2)
        w = lam
        for mm in range(delta // 2 + 1):
            val1 = dswrel_value(e6, RelationQuery(w, lam, delta, mm))
            val2 = dswrel_value(e6, RelationQuery(w, lam2, delta, mm))
            for d in eval_grid:
                assert val1.evaluate(d) == val2.evaluate(d)


def test_dswrel_e6_quartic_value(catalog):
    # hand computation: the square -22 class at delta = 4 gives -24 <f,h>^4
    e6 = catalog["E6"]
    u, v = unit(70, 2), unit(70, 3)
    lam = u - 11 * v
    value = dswrel_value(e6, RelationQuery(lam, lam, 4, 0))
    d = [0, 1] + [0] * 68
    assert value.evaluate(d) == -24


def test_dswrel_empty_support_is_zero_polynomial():
    # no basic classes: the signed sum is empty for any admissible query.
    # K3 topology with the support erased keeps the datum consistent.
    form = IntegralLattice.from_blocks([HyperbolicBlock()] * 3 + [E8Block(-1)] * 2)
    m = FourManifold("empty", 24, -16, 3, form, (), True)
    lam = CohClass((1, -3) + (0,) * 20)  # square -6, r = 0, i = 4
    assert r_lambda(m, lam) == 0 and i_lambda(m, lam) == 4
    value = dswrel_value(m, RelationQuery(lam, lam, 0, 0))
    assert value.is_zero()
    assert value.variables == ()


def test_sign_identity_sampled(catalog):
    rng = random.Random(43)
    for name, m in catalog.items():
        rank = m.form.rank
        w2 = characteristic_vector(m.form)
        for _ in range(40):
            lam = CohClass(tuple(rng.randint(-2, 2) for _ in range(rank)))
            uu = CohClass(tuple(rng.randint(-1, 1) for _ in range(rank)))
            w = lam + w2 + 2 * uu
            lhs = square(m.form, lam) - 2 * pairing(m.form, lam, w)
            rhs = m.sigma - square(m.form, w)
            assert (lhs - rhs) % 8 == 0


def test_sst_k3_vacuous(catalog):
    report = sst_check(catalog["K3"], CohClass.zero(22))
    assert report.verdict == VERDICT_PASS_VACUOUS
    assert report.c == 2


def test_sst_e4_sharp(catalog):
    report = sst_check(catalog["E4"], CohClass.zero(46))
    assert report.verdict == VERDICT_PASS
    assert report.order.kind == "exact" and report.order.value == 2
    out = report.to_dict()
    assert out["required_order"] == 2
    assert (out["trace"]["r_lambda0"], out["trace"]["i_lambda0"]) == (4, 4)
    assert (out["trace"]["r_lambda1"], out["trace"]["i_lambda1"]) == (0, 8)
    assert len(report.entries) == 1
    entry = report.entries[0]
    assert entry.d == 0 and entry.m == 0 and entry.delta == 0
    assert entry.vanishing_applies and entry.relation_is_zero


def test_sst_e4_user_supplied_pair(catalog):
    e4 = catalog["E4"]
    u, v = unit(46, 2), unit(46, 3)
    report = sst_check(e4, CohClass.zero(46),
                       lambda0=u - 8 * v, lambda1=u - 6 * v)
    assert report.verdict == VERDICT_PASS


def test_sst_rejects_bad_user_pair(catalog):
    e4 = catalog["E4"]
    u, v = unit(46, 2), unit(46, 3)
    with pytest.raises(HypothesisViolation):
        sst_check(e4, CohClass.zero(46), lambda0=u - 7 * v, lambda1=u - 6 * v)
    with pytest.raises(HypothesisViolation):
        sst_check(e4, CohClass.zero(46), lambda0=2 * u - 4 * v, lambda1=2 * u - 3 * v)


def test_sst_rejects_a_half_pair_before_the_series_walk(catalog, monkeypatch):
    # the half-pair check comes before sw_series and vanishing_order, so a
    # walk that raises is never reached; below c - 3 < 0 nothing is checked
    def refused(*args):
        raise AssertionError("sst walked the series before checking the pair")

    monkeypatch.setattr(series_module, "vanishing_order", refused)
    u, v = unit(46, 2), unit(46, 3)
    for half in ({"lambda0": u - 8 * v}, {"lambda1": u - 6 * v}):
        with pytest.raises(HypothesisViolation) as e:
            sst_check(catalog["E4"], CohClass.zero(46), **half)
        assert e.value.precondition == "lambda_pair_supplied_together"
    k3 = sst_check(catalog["K3"], CohClass.zero(22), lambda0=unit(22, 2))
    assert k3.verdict == VERDICT_PASS_VACUOUS


def test_sst_checks_r_and_i_of_the_pair_explicitly(catalog, monkeypatch):
    # With the supplied-pair check bypassed, a lambda0 of the wrong square
    # reaches the (r, i) identities, which must raise rather than assert.
    monkeypatch.setattr(relations, "_verify_supplied_pair", lambda *args: None)
    u, v = unit(46, 2), unit(46, 3)
    with pytest.raises(AbundanceInconsistent):
        sst_check(catalog["E4"], CohClass.zero(46), lambda0=u - 7 * v, lambda1=u - 6 * v)


def test_sst_and_dvanish_share_one_complement(monkeypatch):
    # The complement is cached on the manifold object, so the second
    # pipeline run on the same object does not build it again.
    calls = []
    build = manifold_module.orthogonal_complement
    monkeypatch.setattr(manifold_module, "orthogonal_complement",
                        lambda *args: calls.append(args) or build(*args))
    e4 = load_catalog("E4").to_manifold()
    sst_check(e4, CohClass.zero(46))
    dvanish_theorem_check(e4, CohClass.zero(46))
    assert len(calls) == 1


def test_sst_and_dvanish_share_one_pair_search(monkeypatch):
    # The pair is cached on the manifold object per radius, like the
    # complement: a second pipeline at the same radius does not search again.
    calls = []
    search = manifold_module.find_hyperbolic_pair
    monkeypatch.setattr(manifold_module, "find_hyperbolic_pair",
                        lambda *args: calls.append(args) or search(*args))
    e4 = load_catalog("E4").to_manifold()
    sst_check(e4, CohClass.zero(46))
    dvanish_theorem_check(e4, CohClass.zero(46))
    assert [radius for _, radius in calls] == [3]
    dvanish_theorem_check(e4, CohClass.zero(46), radius=2)
    assert [radius for _, radius in calls] == [3, 2]


def test_sst_and_dvanish_share_the_abundance_classes_and_their_covectors(monkeypatch):
    # The classes are kept on the manifold per radius, next to the pair, so
    # the second pipeline builds neither them nor their covectors again.
    built, applied = [], []
    construct, gram_apply = manifold_module.construct_abundance_classes, lattice_module._gram_apply
    monkeypatch.setattr(manifold_module, "construct_abundance_classes",
                        lambda *args: built.append(args) or construct(*args))
    monkeypatch.setattr(lattice_module, "_gram_apply",
                        lambda lat, c: applied.append(c) or gram_apply(lat, c))
    e4 = load_catalog("E4").to_manifold()
    sst = sst_check(e4, CohClass.zero(46))
    dvanish = dvanish_theorem_check(e4, CohClass.zero(46))
    assert len(built) == 1
    classes = e4.abundance_classes(3)
    assert (sst.lambda0, sst.lambda1, dvanish.lam) == (
        classes.lambda0, classes.lambda1, classes.lambda_even)
    for lam in (classes.lambda0, classes.lambda1, classes.lambda_even):
        assert sum(c is lam for c in applied) == 1


def test_sst_dvanish_and_the_abundance_handler_build_the_classes_once(monkeypatch):
    # FourManifold.abundance_classes is the one builder: the abundance
    # subcommand's handler reads the classes kept there, as sst and dvanish do.
    from argparse import Namespace

    from swcalc.cli import cmd_abundance

    built = []
    construct = manifold_module.construct_abundance_classes
    monkeypatch.setattr(manifold_module, "construct_abundance_classes",
                        lambda *args: built.append(args) or construct(*args))
    e4 = load_catalog("E4").to_manifold()
    sst = sst_check(e4, CohClass.zero(46))
    dvanish = dvanish_theorem_check(e4, CohClass.zero(46))
    fields = cmd_abundance(Namespace(radius=None), None, e4)
    assert len(built) == 1
    assert fields["classes"] == {"lambda0": sst.lambda0, "lambda1": sst.lambda1,
                                 "lambda_even": dvanish.lam}


def _e41_with_order_calls(monkeypatch):
    """A fresh E(41), its characteristic w, and the caps of every
    vanishing_order call that relations makes from now on."""
    calls = []
    order = series_module.vanishing_order
    monkeypatch.setattr(series_module, "vanishing_order",
                        lambda s, cap: calls.append(cap) or order(s, cap))
    m = parse_manifest(json.dumps(_elliptic(41))).to_manifold()
    return m, characteristic_vector(m.form), calls


def test_sst_then_dvanish_walk_the_series_order_once(monkeypatch):
    # On odd E(n) dvanish reads d = c - 4 off the order by the relation
    # route; sst's order, kept on the manifold at cap c + 4, answers it.
    m, w, calls = _e41_with_order_calls(monkeypatch)
    assert sst_check(m, w).order == VanishingOrder.exact(39)
    report = dvanish_theorem_check(m, w)
    assert [e.route for e in report.entries].count("relation") == 19
    assert calls == [45]


def test_dvanish_then_sst_walk_the_series_order_once(monkeypatch):
    # dvanish keeps the one order per w, at cap c + 4 = 45, that sst reports:
    # sst reads it, and prints the report it prints on a fresh manifold.
    m, w, calls = _e41_with_order_calls(monkeypatch)
    dvanish_theorem_check(m, w)
    assert m.series_orders[w] == VanishingOrder.exact(39)
    report = sst_check(m, w)
    assert calls == [45]
    fresh = parse_manifest(json.dumps(_elliptic(41))).to_manifold()
    assert render("sst", **report.to_dict()) == render("sst", **sst_check(fresh, w).to_dict())


def test_kept_series_order_leaves_the_report_bytes_unchanged():
    # Each pipeline alone on a fresh manifold, and both in either order
    # on one manifold, print the same reports.
    def fresh():
        return parse_manifest(json.dumps(_elliptic(41))).to_manifold()

    def reports(sst_first):
        m = fresh()
        w = characteristic_vector(m.form)
        if sst_first:
            sst, dvanish = sst_check(m, w), dvanish_theorem_check(m, w)
        else:
            dvanish, sst = dvanish_theorem_check(m, w), sst_check(m, w)
        return render("sst", **sst.to_dict()), render("dvanish", **dvanish.to_dict())

    m1, m2 = fresh(), fresh()
    alone = (render("sst", **sst_check(m1, characteristic_vector(m1.form)).to_dict()),
             render("dvanish", **dvanish_theorem_check(m2, characteristic_vector(m2.form)).to_dict()))
    assert reports(True) == reports(False) == alone


def test_sw_series_shifted_by_an_orthogonal_even_class_changes_by_one_sign(catalog, fixtures_dir):
    # the lemma behind sst's relation sums: with k.lam = 0 for every basic
    # class and lam.lam even, sw_series(m, w + lam) is sw_series(m, w) times
    # (-1)^((2 w.lam + lam.lam)/2), term by term
    rng = random.Random(59)
    wide = parse_manifest((fixtures_dir / "wide_e10_2222.json").read_text()).to_manifold()
    signs = set()
    for m in (catalog["E4"], catalog["E6"], wide):
        rank, w2 = m.form.rank, characteristic_vector(m.form)
        for _ in range(20):
            lam = CohClass.zero(rank)
            for b in rng.sample(m.complement.basis, 3):
                lam = lam + rng.randint(-2, 2) * b
            if square(m.form, lam) % 2:
                continue
            w = w2 + 2 * CohClass(tuple(rng.randint(-1, 1) for _ in range(rank)))
            base, shifted = sw_series(m, w), sw_series(m, w + lam)
            sign = (-1) ** ((2 * pairing(m.form, w, lam) + square(m.form, lam)) // 2)
            signs.add(sign)
            assert [k for _, k in shifted.terms] == [k for _, k in base.terms]
            assert [a for a, _ in shifted.terms] == [sign * a for a, _ in base.terms]
    assert signs == {1, -1}


def test_sst_and_dvanish_run_no_relation_kernel(catalog, fixtures_dir, monkeypatch):
    # sst and dvanish read every relation flag off the series' vanishing
    # order, so they twist nothing and run no power-sum kernel, whether the
    # sums vanish or not: on the width-4 fixture (sst, all zero), its sw-3
    # copy (sst, none zero), E(41) (dvanish, 19 zero) and E(5) with the sw
    # of +-f doubled (dvanish, both nonzero); relate's polynomial agrees
    def refused(*args):
        raise AssertionError("sst or dvanish ran the relation kernel")

    manifest = parse_manifest((fixtures_dir / "wide_e10_2222.json").read_text())
    wide, w_wide = manifest.to_manifold(), CohClass(manifest.w)
    e41 = parse_manifest(json.dumps(_elliptic(41))).to_manifold()
    cases = [(wide, w_wide), (sw_three_copy(wide), w_wide)] + [
        (m, characteristic_vector(m.form)) for m in (e41, doubled_fiber_copy(catalog["E5"]))]
    flags = []
    with monkeypatch.context() as patch:
        for name in ("power_sums", "twist"):
            patch.setattr(series_module, name, refused)
        for m, w in cases:
            sst, dvanish = sst_check(m, w), dvanish_theorem_check(m, w)
            flags.append([e.relation_is_zero for e in sst.entries] + [
                e.value_is_zero for e in dvanish.entries if e.route == "relation"])
    assert [(len(f), sum(f)) for f in flags] == [(4, 4), (4, 0), (38, 38), (2, 0)]
    for (m, w), reported in zip(cases, flags):
        pairs = relation_flag_pairs(m, w)
        assert [flag for flag, _ in pairs] == reported
        assert all(flag == polynomial for flag, polynomial in pairs), m.name


def test_sst_reads_its_order_without_the_walk(fixtures_dir, monkeypatch):
    # E(40)'s series is one polynomial in t = e^f and the width-4 fixture's
    # a product of four: the order engine reads both by division at t = 1,
    # so sst runs no power-sum kernel at all
    def refused(*args):
        raise AssertionError("sst walked the series through the power-sum kernel")

    manifest = parse_manifest((fixtures_dir / "wide_e10_2222.json").read_text())
    cases = [(manifest.to_manifold(), CohClass(manifest.w), 8)]
    e40 = parse_manifest(json.dumps(_elliptic(40))).to_manifold()
    cases.append((e40, characteristic_vector(e40.form), 38))
    monkeypatch.setattr(series_module, "_power_sums", refused)
    for m, w, order in cases:
        report = sst_check(m, w)
        assert report.verdict == VERDICT_PASS and report.order.value == order
        assert report.entries and all(e.relation_is_zero for e in report.entries)

def test_sst_and_dvanish_need_chi_plus_sigma_not_4(tmp_path, capsys):
    # chi + sigma = 4 is b_plus = 1, which validate rejects; there the
    # relation classes' square 4 - (chi+sigma) is 0 and the order lemma
    # does not hold, so the library refuses such data, and the CLI still
    # prints the validate failure
    from swcalc.cli import main
    from swcalc.manifold import validate

    manifest = {
        "schema_version": 1, "name": "E1", "chi": 12, "sigma": -8, "b_plus": 1,
        "form": [{"type": "H"}, {"type": "E8", "sign": -1}], "basic_classes": [],
        "assume_conjecture": True,
    }
    m = parse_manifest(json.dumps(manifest)).to_manifold()
    assert [c.name for c in validate(m).failures()] == ["b_plus"]
    for check in (sst_check, dvanish_theorem_check):
        with pytest.raises(HypothesisViolation) as raised:
            check(m, CohClass.zero(10))
        assert raised.value.precondition == "chi_plus_sigma_not_4"
    path = tmp_path / "e1.json"
    path.write_text(json.dumps(manifest))
    checks = validate(m).to_list()
    for cmd in ("sst", "dvanish"):
        assert main([cmd, str(path)]) == 2
        out, err = capsys.readouterr()
        assert err == ""
        assert out == render(cmd, manifold="E1", verdict=VERDICT_FAIL, validation=checks,
                             error="input fails validation")
        assert json.loads(out)["validation"][0] == {
            "name": "b_plus", "ok": False, "detail": "b_plus = 1, must exceed 1"}


def test_sst_not_characteristic(catalog):
    with pytest.raises(NotCharacteristic):
        sst_check(catalog["E4"], unit(46, 0))


def test_sst_needs_conjecture(catalog):
    e4 = replace(catalog["E4"], assume_conjecture=False)
    with pytest.raises(ConjectureNotAssumed):
        sst_check(e4, CohClass.zero(46))


def test_sst_corrupted_e4(fixtures_dir):
    manifest = parse_manifest((fixtures_dir / "e4_corrupted.json").read_text())
    m = manifest.to_manifold()
    from swcalc.manifold import validate

    assert validate(m).passed
    report = sst_check(m, CohClass.zero(46))
    assert report.verdict == VERDICT_FAIL
    assert report.order == replace(report.order, kind="exact", value=0)
    assert not report.entries[0].relation_is_zero


def test_sst_abundance_undetermined():
    # all seven hyperbolic blocks are consumed by basic classes, leaving a
    # negative definite complement
    rank = 46
    classes = []
    for i in range(14):
        for s in (2, -2):
            coords = [0] * rank
            coords[i] = s
            classes.append({"coords": coords, "sw": 1})
    manifest = parse_manifest(json.dumps({
        "schema_version": 1,
        "name": "E4-rigid",
        "chi": 48, "sigma": -32, "b_plus": 7,
        "form": [{"type": "H"}] * 7 + [{"type": "E8", "sign": -1}] * 4,
        "basic_classes": classes,
        "assume_conjecture": True,
    }))
    m = manifest.to_manifold()
    from swcalc.manifold import validate

    assert validate(m).passed
    with pytest.raises(AbundanceUndetermined):
        sst_check(m, CohClass.zero(rank))


def test_sst_all_catalog(catalog):
    for name, m in catalog.items():
        w = characteristic_vector(m.form)
        report = sst_check(m, w)
        assert report.verdict in (VERDICT_PASS, VERDICT_PASS_VACUOUS), name


def test_dvanish_e4_trace(catalog, fixtures_dir):
    e4 = catalog["E4"]
    report = dvanish_theorem_check(e4, CohClass.zero(46))
    expected = json.loads((fixtures_dir / "e4_dvanish_trace.json").read_text())
    assert json.loads(render("dvanish", **report.to_dict()))["trace"] == expected


def test_dvanish_e3_case_four_empty_sweep(catalog):
    e3 = catalog["E3"]
    f = CohClass((1, 1) + (0,) * 32)
    report = dvanish_theorem_check(e3, f)
    assert report.verdict == VERDICT_PASS
    assert report.case_mod_8 == 4
    assert report.admissible_d == ()
    trace = report.to_dict()["trace"]
    assert trace["r_lambda"] == -1 and trace["i_lambda"] == 7


def test_dvanish_e5_relation_route(catalog):
    e5 = catalog["E5"]
    f = CohClass((1, 1) + (0,) * 56)
    report = dvanish_theorem_check(e5, f)
    assert report.verdict == VERDICT_PASS
    assert report.case_mod_8 == 4
    assert report.admissible_d == (1,)
    assert [(e.d, e.m, e.route) for e in report.entries] == [(1, 0, "relation")]


def test_dvanish_e5_failing_relation_route(catalog):
    # E(5) with the sw of +-f doubled: classes (3, 1), (1, -6), (-1, 6),
    # (-3, -1) in multiples of f.  The data still validates, but the
    # relation sum at d = c - 4 = 1 is nonzero, so dvanish fails on the
    # relation route without a note, and sst fails at exact order 1
    from swcalc.manifold import validate

    e5 = catalog["E5"]
    m = replace(e5, basic_classes=tuple(
        BasicClassEntry(e.k, 2 * e.sw if abs(e.sw) == 3 else e.sw) for e in e5.basic_classes
    ))
    assert [(e.k.coords[0], e.sw) for e in m.basic_classes] == [(3, 1), (1, -6), (-1, 6), (-3, -1)]
    assert validate(m).passed
    f = CohClass((1, 1) + (0,) * 56)
    report = dvanish_theorem_check(m, f)
    assert report.verdict == VERDICT_FAIL
    assert [(e.d, e.m, e.route, e.value_is_zero) for e in report.entries] == [
        (1, 0, "relation", False)
    ]
    assert report.notes == ()
    sst = sst_check(m, f)
    assert sst.verdict == VERDICT_FAIL
    assert (sst.order.kind, sst.order.value) == ("exact", 1)


def test_dvanish_uncovered_degrees_fail_with_one_note_each():
    # H + H + <1> with no basic classes: lambda_even = 2e - 4f has square
    # -16 and (r, i) = (1, 9), so the admissible d = 4 is neither below both
    # nor equal to r; each of its three point counts is uncovered
    form = IntegralLattice.from_blocks([HyperbolicBlock(), HyperbolicBlock(), DiagonalBlock((1,))])
    m = FourManifold("uncovered", 60, -40, 9, form, ())
    report = dvanish_theorem_check(m, CohClass((0, 0, 0, 0, 1)))
    assert report.verdict == VERDICT_FAIL
    trace = report.to_dict()["trace"]
    assert (trace["r_lambda"], trace["i_lambda"], report.admissible_d) == (1, 9, (0, 4))
    assert [(e.d, e.m, e.route, e.value_is_zero) for e in report.entries] == [
        (0, 0, "vanishing", True),
        (4, 0, "uncovered", False),
        (4, 1, "uncovered", False),
        (4, 2, "uncovered", False),
    ]
    assert report.notes == ("degree d = 4 not covered by either branch",) * 3


def test_dvanish_compares_r_and_i_a_few_times_per_degree(monkeypatch):
    # the route depends on the degree alone, so dvanish compares r and i at
    # most three times per admissible degree, not once per (d, m): about
    # c^2/4 comparisons; the relation route checks no hypothesis again
    compared = []

    def counting(op):
        def compare(self, other):
            compared.append(op.__name__)
            return op(self, other)
        return compare

    ops = ("__eq__", "__lt__", "__le__", "__gt__", "__ge__")
    Counted = type("Counted", (Fraction,), {
        "__hash__": Fraction.__hash__, **{op: counting(getattr(Fraction, op)) for op in ops},
    })
    for name in ("r_lambda", "i_lambda"):
        rule = getattr(relations, name)
        monkeypatch.setattr(relations, name, lambda m, lam, rule=rule: Counted(rule(m, lam)))
    for n, relation_entries in ((40, 0), (41, 19)):
        m = parse_manifest(json.dumps(_elliptic(n))).to_manifold()
        compared.clear()
        report = dvanish_theorem_check(m, characteristic_vector(m.form))
        assert report.verdict == VERDICT_PASS
        assert sum(e.route == "relation" for e in report.entries) == relation_entries
        assert 0 < len(compared) <= 3 * len(report.admissible_d)


def test_dvanish_checks_lambda_even_explicitly(monkeypatch):
    # a fresh manifold each time: the classes are built once per manifold
    # object, so classes kept on a shared one would bypass the patch
    u, v = unit(46, 2), unit(46, 3)
    for bad in (u - 2 * v, 2 * u - 2 * v):  # odd; even but of square -8, not -16
        classes = AbundanceClasses(u - 8 * v, u - 6 * v, bad)
        monkeypatch.setattr(manifold_module, "construct_abundance_classes",
                            lambda pair, chi, sigma: classes)
        with pytest.raises(AbundanceInconsistent):
            dvanish_theorem_check(load_catalog("E4").to_manifold(), CohClass.zero(46))


def test_dvanish_k3_trivial(catalog):
    report = dvanish_theorem_check(catalog["K3"], CohClass.zero(22))
    assert report.verdict == VERDICT_PASS
    assert report.admissible_d == ()


def test_inline_vanishing_rules_match_dvanish_applies(catalog):
    # sst and dvanish test delta < r and delta < i inline; both copies agree
    # with the public rule at every entry they report
    seen = set()
    for m in catalog.values():
        w = characteristic_vector(m.form)
        sst = sst_check(m, w)
        for e in sst.entries:
            assert e.vanishing_applies == dvanish_applies(m, sst.lambda0, e.delta)
            seen.add(("sst", e.vanishing_applies))
        dv = dvanish_theorem_check(m, w)
        for e in dv.entries:
            assert (e.route == "vanishing") == dvanish_applies(m, dv.lam, e.d)
            seen.add(("dvanish", e.route))
    assert {("sst", True), ("dvanish", "vanishing"), ("dvanish", "relation")} <= seen


def test_bound_e6(catalog):
    report = basic_class_bound(catalog["E6"])
    assert report.applicable
    assert report.b == 3
    assert report.strict_holds is False
    assert report.nonstrict_holds is True
    assert report.verdict == VERDICT_FAIL
    assert basic_class_bound(catalog["E6"], strict=False).verdict == VERDICT_PASS
    # slope bound: 0 >= 6 - 6 - 1
    assert report.slope_lhs == 0 and report.slope_rhs == -1 and report.slope_holds


def test_bound_e3(catalog):
    report = basic_class_bound(catalog["E3"])
    assert report.b == 1
    assert report.strict_holds is False
    assert report.nonstrict_holds is False  # 1 < 3/2
    assert report.slope_lhs == 0 and report.slope_rhs == 0 and report.slope_holds


def test_bound_empty_support():
    m = FourManifold("empty", 4, 0, 2, H, ())
    report = basic_class_bound(m)
    assert not report.applicable
    assert report.verdict == VERDICT_PASS_VACUOUS


def test_region_k3(catalog):
    k3 = catalog["K3"]
    w0 = CohClass.zero(22)
    region = region_data(k3, w0)
    assert region.intersection == (-8, 2)
    lam8 = 2 * unit(22, 0) - 2 * unit(22, 1)  # square -8, at the intersection
    assert dvanish_applies(k3, lam8, 1)
    assert not dvanish_applies(k3, lam8, 2)
    assert region.triangle == (
        (Fraction(-10), Fraction(0)), (Fraction(-8), Fraction(2)), (Fraction(-6), Fraction(0))
    )
    # brute-force enumeration oracle over the window
    win = region.window
    expected = []
    for lam_sq in range(win.lam_min, win.lam_max + 1):
        for delta in range(win.delta_min, win.delta_max + 1):
            if (2 * delta + 2 * 0 + 12) % 8 == 0 and (lam_sq - 0 + 16) % 4 == 0:
                expected.append((lam_sq, delta))
    assert list(region.marked) == expected
    assert all(p[0] % 8 == 0 for p in region.white)
    assert set(region.white) == {p for p in region.marked if p[0] % 8 == 0}


def test_region_e4_window(catalog):
    e4 = catalog["E4"]
    w0 = CohClass.zero(46)
    region = region_data(e4, w0, Window(-24, -8, 0, 8))
    assert region.intersection == (-16, 4)
    expected = []
    for lam_sq in range(-24, -7):
        for delta in range(0, 9):
            if (2 * delta + 24) % 8 == 0 and (lam_sq + 32) % 4 == 0:
                expected.append((lam_sq, delta))
    assert list(region.marked) == expected


windows = st.builds(
    lambda lam_min, lam_width, delta_min, delta_width: Window(
        lam_min, lam_min + lam_width, delta_min, delta_min + delta_width),
    st.integers(-30, 10), st.integers(0, 20), st.integers(-10, 10), st.integers(0, 12),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(-40, 40), st.integers(-40, 40), h1_classes, st.booleans(), windows)
def test_region_points_are_the_grid_filter(chi, sigma, w, make_characteristic, window):
    # random windows (negative deltas and single rows among them) and w
    # characteristic or not, against a brute-force filter of the grid
    if make_characteristic:
        w = CohClass((2 * w.coords[0], 2 * w.coords[1], 2 * w.coords[2] + 1))
    m = FourManifold("any", chi, sigma, 1, H1, ())  # not validated
    region = region_data(m, w, window)
    w_char = is_characteristic(H1, w)
    event(f"characteristic: {w_char}, single row: {window.delta_min == window.delta_max}")
    grid = [
        (lam_sq, delta)
        for lam_sq in range(window.lam_min, window.lam_max + 1)
        for delta in range(window.delta_min, window.delta_max + 1)
    ]
    marked = [(lam_sq, delta) for lam_sq, delta in grid
              if written_out_degree_rule(m, w, delta) and (lam_sq - square(H1, w) + sigma) % 4 == 0]
    assert list(region.marked) == marked
    assert list(region.white) == [p for p in marked if w_char and p[0] % 8 == 0]
    residues = {delta % 4 for delta in range(-8, 8) if written_out_degree_rule(m, w, delta)}
    assert len(residues) <= 1
    assert region.delta_congruence == (residues.pop() if residues else -1)


def test_one_pass_builds_each_basic_class_covector_once(fixtures_dir, monkeypatch):
    # validate, the complement's constraint rows and the series' span
    # reduction all pair the same 81 class objects in the same form: each
    # G.k is built once, counted where it is built, not where it is read
    m = parse_manifest((fixtures_dir / "wide_e10_2222.json").read_text()).to_manifold()
    built = []
    apply = lattice_module._gram_apply
    monkeypatch.setattr(lattice_module, "_gram_apply",
                        lambda lattice, c: built.append(c) or apply(lattice, c))
    w = characteristic_vector(m.form)
    assert manifold_module.validate(m).passed
    assert sst_check(m, w).verdict == dvanish_theorem_check(m, w).verdict == VERDICT_PASS
    assert len(m.basic_classes) == 81
    assert [sum(c is e.k for c in built) for e in m.basic_classes] == [1] * 81
