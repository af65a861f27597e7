"""Acceptance suite: one test per criterion, every comparison exact.

Each test prints a single PASS line when its criterion holds (visible
with pytest -s; pytest -v shows one line per criterion either way).
"""

import json
import math
import random
from fractions import Fraction

from swcalc.cli import main
from swcalc.lattice import (
    CohClass,
    DiagonalBlock,
    HyperbolicBlock,
    E8Block,
    IntegralLattice,
    characteristic_vector,
    construct_abundance_classes,
    find_hyperbolic_pair,
    orthogonal_complement,
    pairing,
    square,
)
from swcalc.manifest import parse_manifest
from swcalc.manifold import characteristic_number, validate
from swcalc.relations import (
    RelationQuery,
    dswrel_value,
    dvanish_theorem_check,
    i_lambda,
    r_lambda,
    region_data,
    sst_check,
)
from swcalc.report import render
from swcalc.series import (
    ExpSum,
    Parity,
    jet_expand,
    parity,
    predicted_parity,
    sw_series,
    twist,
    vanishing_order,
)

K3FORM = IntegralLattice.from_blocks([HyperbolicBlock()] * 3 + [E8Block(-1)] * 2)
H3 = IntegralLattice.from_blocks([HyperbolicBlock()] * 3)


def test_criterion_1_algebraic_identities():
    """r + i = 2c and c = chi_h - c1^2 on 1000 random samples, exactly."""
    rng = random.Random(101)
    for _ in range(1000):
        chi = rng.randint(-400, 400)
        sigma = rng.randint(-400, 400)
        sigma -= (chi + sigma) % 4
        lam_sq = rng.randint(-100, 100)
        c = Fraction(-(7 * chi + 11 * sigma), 4)
        r = Fraction(-(11 * chi + 15 * sigma), 4) - lam_sq
        i = Fraction(-(3 * chi + 7 * sigma), 4) + lam_sq
        assert r + i == 2 * c
        chi_h = Fraction(chi + sigma, 4)
        c1sq = 2 * chi + 3 * sigma
        assert c == chi_h - c1sq
    print("PASS criterion 1: r+i = 2c and c = chi_h - c1^2 on 1000 samples")


def test_criterion_2_abundance_constructor():
    """Constructor conclusions on 500 random (chi, sigma) over 3H + 2(-E8)."""
    rng = random.Random(102)
    sub = orthogonal_complement(K3FORM, [])
    pair = find_hyperbolic_pair(sub, 1)
    for _ in range(500):
        chi = rng.randint(-200, 200)
        sigma = rng.randint(-200, 200)
        sigma -= (chi + sigma) % 4
        cs = chi + sigma
        ac = construct_abundance_classes(pair, chi, sigma)
        assert square(K3FORM, ac.lambda0) == -cs
        assert square(K3FORM, ac.lambda1) == -cs + 4
        assert (ac.lambda0 - ac.lambda1).is_even()
        assert ac.lambda_even.is_even()
        half = CohClass(tuple(x // 2 for x in ac.lambda_even.coords))
        assert 2 * half == ac.lambda_even
        if (-cs) % 8 == 0:
            assert square(K3FORM, ac.lambda_even) == -cs
        else:
            assert (-cs) % 8 == 4
            assert square(K3FORM, ac.lambda_even) == -cs + 4
    print("PASS criterion 2: abundance constructor conclusions on 500 samples")


def test_criterion_3_catalog_sst_sharpness(catalog):
    """E(n) series vanish to exactly n-2 = c-2 and the check passes."""
    for n in (3, 4, 5, 6):
        m = catalog[f"E{n}"]
        w = characteristic_vector(m.form)
        c = characteristic_number(m)
        assert c == n
        order = vanishing_order(sw_series(m, w), int(c) + 4)
        assert order.kind == "exact" and order.value == n - 2
        report = sst_check(m, w)
        assert report.verdict == "pass"
    k3 = catalog["K3"]
    report = sst_check(k3, characteristic_vector(k3.form))
    assert report.verdict == "pass-vacuous"
    assert characteristic_number(k3) == 2
    print("PASS criterion 3: catalog sharpness (orders n-2) and verdicts")


def _relation_oracle(m, w, lam, delta, mm):
    c = characteristic_number(m)
    d = delta - 2 * mm
    jet = jet_expand(twist(sw_series(m, w), lam, -1), d).homogeneous_part(d)
    sign_exp = mm - 1 + square(m.form, lam) // 2 - pairing(m.form, lam, w)
    sign = -1 if sign_exp % 2 else 1
    return jet.scale(Fraction(2) ** int(1 - (c + delta) / 2) * sign * math.factorial(d))


def test_criterion_4_relation_oracle_equivalence(catalog):
    """Formula route equals the twisted-jet route on the E4/E6 grid."""
    grids = {
        "E4": {0: [(1, -6), (2, -3), (3, -2), (6, -1)], 2: [(1, -7), (7, -1)]},
        "E6": {0: [(1, -9), (3, -3), (9, -1)], 2: [(1, -10), (2, -5), (5, -2), (10, -1)]},
    }
    checked = 0
    for name, by_delta in grids.items():
        m = catalog[name]
        rank = m.form.rank
        u, v = CohClass.unit(rank, 2), CohClass.unit(rank, 3)
        fiber = CohClass.unit(rank, 0)
        for delta, coeffs in by_delta.items():
            for a, b in coeffs:
                lam = a * u + b * v
                assert r_lambda(m, lam) == delta < i_lambda(m, lam)
                for w in (lam, lam + 2 * fiber):
                    for mm in range(delta // 2 + 1):
                        value = dswrel_value(m, RelationQuery(w, lam, delta, mm))
                        oracle = _relation_oracle(m, w, lam, delta, mm)
                        assert value.variables == oracle.variables
                        assert value.coefficients == oracle.coefficients
                        checked += 1
    assert checked == 38
    print(f"PASS criterion 4: formula = jet oracle on {checked} grid queries")


def test_criterion_5_e4_spot_value(catalog):
    """The boundary query at delta = m = 0 returns the zero polynomial."""
    e4 = catalog["E4"]
    u, v = CohClass.unit(46, 2), CohClass.unit(46, 3)
    value = dswrel_value(e4, RelationQuery(2 * u - v, 2 * u - 3 * v, 0, 0))
    assert value.is_zero()
    total = sum(e.sw for e in e4.basic_classes)
    assert total == 0  # 1 - 2 + 1
    print("PASS criterion 5: E4 spot query returns the zero polynomial")


def test_criterion_6_sign_identity(catalog):
    """lam.lam - 2 lam.w = sigma - w.w (mod 8) on 1000 samples."""
    rng = random.Random(106)
    names = sorted(catalog)
    for t in range(1000):
        m = catalog[names[t % len(names)]]
        rank = m.form.rank
        w2 = characteristic_vector(m.form)
        lam = CohClass(tuple(rng.randint(-2, 2) for _ in range(rank)))
        u = CohClass(tuple(rng.randint(-1, 1) for _ in range(rank)))
        w = lam + w2 + 2 * u
        lhs = square(m.form, lam) - 2 * pairing(m.form, lam, w)
        rhs = m.sigma - square(m.form, w)
        assert (lhs - rhs) % 8 == 0
    print("PASS criterion 6: sign identity mod 8 on 1000 samples")


def test_criterion_7_parity_rule(catalog):
    """Series parity equals the mod-2 rule on every entry, 20 random w each."""
    rng = random.Random(107)
    for name, m in catalog.items():
        rank = m.form.rank
        for _ in range(20):
            w = CohClass(tuple(rng.randint(-2, 2) for _ in range(rank)))
            observed = parity(sw_series(m, w))
            assert observed in (Parity.EVEN, Parity.ODD)
            assert observed == predicted_parity(m, w), (name, w.coords)
    print("PASS criterion 7: parity rule on 5 entries x 20 random w")


def test_criterion_8_twist_invariance():
    """Vanishing order unchanged by twisting, 200 random sums."""
    rng = random.Random(108)
    gens = [CohClass.unit(6, 0), CohClass.unit(6, 2), CohClass.unit(6, 4)]
    for _ in range(200):
        terms = []
        for _ in range(rng.randint(1, 6)):
            k = CohClass.zero(6)
            for g in gens:
                k = k + rng.randint(-2, 2) * g
            terms.append((Fraction(rng.randint(-3, 3)), k))
        s = ExpSum.build(H3, terms)
        lam = CohClass.zero(6)
        for g in gens:
            lam = lam + rng.randint(-2, 2) * g
        sign = rng.choice((1, -1))
        assert vanishing_order(twist(s, lam, sign), 8) == vanishing_order(s, 8)
    print("PASS criterion 8: twist invariance of vanishing order, 200 sums")


def test_criterion_9_negative_control(capsys, fixtures_dir):
    """Corrupted E4 passes validation, fails the vanishing check, exit 2."""
    path = fixtures_dir / "e4_corrupted.json"
    manifold = parse_manifest(path.read_text()).to_manifold()
    assert validate(manifold).passed
    report = sst_check(manifold, CohClass.zero(46))
    assert report.verdict == "fail"
    assert report.order.kind == "exact" and report.order.value == 0
    assert report.to_dict()["required_order"] == 2
    code = main(["sst", str(path)])
    capsys.readouterr()
    assert code == 2
    print("PASS criterion 9: negative control fails with order 0 < 2, exit 2")


def test_criterion_10_region_and_search(catalog):
    """Line intersection, marked points vs brute force, search outcomes."""
    for name in ("K3", "E4"):
        m = catalog[name]
        w0 = CohClass.zero(m.form.rank)
        region = region_data(m, w0)
        assert region.intersection == (-(m.chi + m.sigma), characteristic_number(m))
        rhs = -3 * (m.chi + m.sigma) // 2
        win = region.window
        expected = [
            (lam_sq, delta)
            for lam_sq in range(win.lam_min, win.lam_max + 1)
            for delta in range(win.delta_min, win.delta_max + 1)
            if (2 * delta - rhs) % 8 == 0 and (lam_sq + m.sigma) % 4 == 0
        ]
        assert list(region.marked) == expected
    diag = IntegralLattice.from_blocks([DiagonalBlock((1, -1))])
    assert find_hyperbolic_pair(orthogonal_complement(diag, []), 5) is None
    h = IntegralLattice.from_blocks([HyperbolicBlock()])
    pair = find_hyperbolic_pair(orthogonal_complement(h, []), 1)
    assert pair is not None
    assert square(h, pair.e1) == 0 and square(h, pair.e2) == 0
    assert pairing(h, pair.e1, pair.e2) == 1
    print("PASS criterion 10: region geometry, marked points and searches")


def test_criterion_11_dvanish_trace_fixture(catalog, fixtures_dir):
    """E4 sweep settles every admissible d <= c-1 by the vanishing branch;
    the trace matches the committed fixture exactly."""
    e4 = catalog["E4"]
    report = dvanish_theorem_check(e4, CohClass.zero(46))
    assert report.verdict == "pass"
    assert all(e.route == "vanishing" for e in report.entries)
    assert report.case_mod_8 == 0
    expected = json.loads((fixtures_dir / "e4_dvanish_trace.json").read_text())
    assert json.loads(render("dvanish", **report.to_dict()))["trace"] == expected
    print("PASS criterion 11: E4 sweep trace matches the fixture")
