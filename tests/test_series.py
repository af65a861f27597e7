"""Exponential sums, jets, vanishing orders, parity, Gaussian twisting."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swcalc.series as series
from swcalc.errors import NonIntegralC, OddExponent, SWCalcError
from swcalc.lattice import (
    CohClass,
    DiagonalBlock,
    E8Block,
    HyperbolicBlock,
    IntegralLattice,
    characteristic_vector,
    covector,
    find_hyperbolic_pair,
    orthogonal_complement,
    square,
)
from swcalc.manifold import BasicClassEntry, FourManifold
from swcalc.series import (
    Direction,
    ExpSum,
    GaussianSeries,
    Parity,
    VanishingOrder,
    _dense_order,
    _span_reduce,
    evaluate_along,
    jet_expand,
    parity,
    power_sums,
    predicted_parity,
    sw_series,
    twist,
    vanishing_order,
    witten_series,
)

from conftest import dense_block_gram, multiply

H = IntegralLattice.from_blocks([HyperbolicBlock()])
DIAG11 = IntegralLattice.from_blocks([DiagonalBlock((1, -1))])
H3 = IntegralLattice.from_blocks([HyperbolicBlock()] * 3)

F_H = CohClass((1, 0))


@st.composite
def dense_rows(draw):
    """Dense coordinate tuples of one rank in 0..6, the zero class first."""
    n = draw(st.integers(0, 6))
    rows = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), max_size=12))
    return [(0,) * n, *rows]


@settings(max_examples=300, deadline=None)
@given(dense_rows(), st.randoms(use_true_random=False))
def test_dense_order_sorts_supports_as_sorted_sorts_dense_tuples(rows, rng):
    classes = [CohClass(r) for r in rows]
    rng.shuffle(classes)
    by_support = sorted(classes, key=lambda k: _dense_order(k.support))
    assert [k.coords for k in by_support] == sorted(rows)


def taylor_eval_oracle(s: ExpSum, direction: Direction, order: int) -> Fraction:
    """Truncated Taylor value of the sum along a direction, done termwise.

    Independent of the span-reduction machinery and of the pairing code:
    each <k, d> is read off the dense Gram, and each exponential is
    expanded on its own by plain powers and factorials.
    """
    gram = dense_block_gram(s.ambient.blocks)
    total = Fraction(0)
    for a, k in s.terms:
        x = sum(ki * g * di for ki, row in zip(k.coords, gram) for g, di in zip(row, direction.coords))
        power = Fraction(1)
        fact = 1
        for d in range(order + 1):
            if d:
                power *= x
                fact *= d
            total += a * power / fact
    return total


def ambient_poly_oracle(s: ExpSum, order: int) -> dict:
    """Brute-force jet in the full ambient coordinates of h.

    Expands each exp(<k, h>) by multiplying out the linear form
    sum_i (G k)_i h_i power by power; no span reduction, no shared code
    with the series engine.
    """
    n = s.ambient.rank
    gram = dense_block_gram(s.ambient.blocks)
    out: dict[tuple[int, ...], Fraction] = {}
    for a, k in s.terms:
        cov = [
            Fraction(sum(gram[i][j] * k.coords[j] for j in range(n)))
            for i in range(n)
        ]
        form = {}
        for i, c in enumerate(cov):
            if c:
                form[tuple(1 if t == i else 0 for t in range(n))] = c
        term_poly = {(0,) * n: Fraction(1)}
        running = {(0,) * n: Fraction(1)}
        for d in range(1, order + 1):
            nxt: dict[tuple[int, ...], Fraction] = {}
            for alpha, ca in running.items():
                for beta, cb in form.items():
                    key = tuple(x + y for x, y in zip(alpha, beta))
                    nxt[key] = nxt.get(key, Fraction(0)) + ca * cb
            running = nxt
            for alpha, ca in running.items():
                term_poly[alpha] = term_poly.get(alpha, Fraction(0)) + ca / math.factorial(d)
        for alpha, ca in term_poly.items():
            v = out.get(alpha, Fraction(0)) + a * ca
            if v:
                out[alpha] = v
            else:
                out.pop(alpha, None)
    return out


def jet_in_ambient_coords(jet) -> dict:
    """Substitute x_j = sum_i (G v_j)_i h_i into a jet."""
    n = jet.ambient.rank
    gram = dense_block_gram(jet.ambient.blocks)
    out: dict[tuple[int, ...], Fraction] = {}
    covs = []
    for v in jet.variables:
        covs.append([
            Fraction(sum(gram[i][t] * v.coords[t] for t in range(n)))
            for i in range(n)
        ])
    for alpha, c in jet.coefficients.items():
        poly = {(0,) * n: c}
        for j, e in enumerate(alpha):
            form = {}
            for i, cv in enumerate(covs[j]):
                if cv:
                    form[tuple(1 if t == i else 0 for t in range(n))] = cv
            for _ in range(e):
                nxt: dict[tuple[int, ...], Fraction] = {}
                for a2, ca in poly.items():
                    for b2, cb in form.items():
                        key = tuple(x + y for x, y in zip(a2, b2))
                        nxt[key] = nxt.get(key, Fraction(0)) + ca * cb
                poly = nxt
        for a2, ca in poly.items():
            v = out.get(a2, Fraction(0)) + ca
            if v:
                out[a2] = v
            else:
                out.pop(a2, None)
    return out


def test_sw_series_k3(catalog):
    s = sw_series(catalog["K3"], CohClass.zero(22))
    assert len(s.terms) == 1
    coeff, k = s.terms[0]
    assert coeff == 1 and k.is_zero()


def test_sw_series_e3_at_fiber(catalog):
    e3 = catalog["E3"]
    f = CohClass((1, 1) + (0,) * 32)
    s = sw_series(e3, f)
    assert [(a, k.coords[:2]) for a, k in s.terms] == [
        (Fraction(-1), (-1, -1)),
        (Fraction(1), (1, 1)),
    ]


def test_sw_series_odd_exponent():
    m = FourManifold(
        "bad", 4, 0, 2, H, (BasicClassEntry(CohClass((1, 0)), 1),)
    )
    with pytest.raises(OddExponent):
        sw_series(m, CohClass((0, 1)))


@pytest.mark.parametrize("name", ["E3", "E4"])
def test_sw_series_w_shift_sign(catalog, name):
    # changing w by 2u rescales the sum by (-1)^(u.u); on the odd form of
    # E3 both signs occur, on the even form of E4 only +1
    rng = random.Random(2)
    m = catalog[name]
    rank = m.form.rank
    w = characteristic_vector(m.form)
    base = sw_series(m, w)
    signs = set()
    for _ in range(20):
        u = CohClass(tuple(rng.randint(-2, 2) for _ in range(rank)))
        shifted = sw_series(m, w + 2 * u)
        sign = -1 if square(m.form, u) % 2 else 1
        signs.add(sign)
        assert shifted.terms == tuple((sign * a, k) for a, k in base.terms)
    assert signs == ({1, -1} if name == "E3" else {1})


def test_twist_examples():
    one = ExpSum.constant(H, 1)
    lam = CohClass((1, -2))
    shifted = twist(one, lam, -1)
    assert shifted.terms == ((Fraction(1), -lam),)
    assert twist(shifted, lam, 1).terms == one.terms


def test_build_merges_raw_coefficients_into_fractions():
    """Int and Fraction coefficients merge per support into Fractions, a
    support whose coefficients cancel is dropped, and each kept term holds
    the first class object given for its support."""
    first, again = CohClass((1, -2)), CohClass((1, -2))
    s = ExpSum.build(H, [
        (1, first), (Fraction(1, 2), F_H), (2, again), (-1, -F_H),
        (Fraction(-1, 2), F_H), (1, -F_H), (2, CohClass((0, 1))),
    ])
    assert [(a, k.coords) for a, k in s.terms] == [(Fraction(2), (0, 1)), (Fraction(3), (1, -2))]
    assert all(type(a) is Fraction for a, _ in s.terms)
    assert s.terms[1][1] is first


def test_twist_e3_series(catalog):
    e3 = catalog["E3"]
    f = CohClass((1, 1) + (0,) * 32)
    s = sw_series(e3, f)
    t = twist(s, f, -1)
    assert [(a, k.coords[:2]) for a, k in t.terms] == [
        (Fraction(-1), (-2, -2)),
        (Fraction(1), (0, 0)),
    ]


def test_jet_constant():
    jet = jet_expand(ExpSum.constant(H, 1), 3)
    assert jet.variables == ()
    assert jet.coefficients == {(): Fraction(1)}


def test_jet_sinh_against_univariate_oracle():
    # exp(x) - exp(-x) = 2x + x^3/3 + ...
    s = ExpSum.build(H, [(1, F_H), (-1, -F_H)])
    jet = jet_expand(s, 5)
    for t in (Fraction(1), Fraction(1, 2), Fraction(-3, 7), Fraction(2)):
        d = Direction.of([0, t])  # <f, d> = t
        assert jet.evaluate(d) == taylor_eval_oracle(s, d, 5)
    # explicit low-degree values: degree-1 coefficient 2, degree-3 coefficient 1/3
    d1 = Direction.of([0, 1])
    j3 = jet_expand(s, 3)
    j1 = jet_expand(s, 1)
    assert j1.homogeneous_part(1).evaluate(d1) == 2
    assert j3.homogeneous_part(3).evaluate(d1) == Fraction(1, 3)


def test_jet_e4_square_leading_term(catalog):
    e4 = catalog["E4"]
    s = sw_series(e4, CohClass.zero(46))
    jet = jet_expand(s, 2)
    assert min(map(sum, jet.coefficients), default=None) == 2
    d = Direction.of([0, 1] + [0] * 44)  # <f, d> = 1
    assert jet.homogeneous_part(2).evaluate(d) == 4


def test_jet_matches_ambient_multinomial_oracle():
    rng = random.Random(13)
    for lat in (DIAG11, H):
        for _ in range(25):
            terms = [
                (Fraction(rng.randint(-3, 3)),
                 CohClass((rng.randint(-2, 2), rng.randint(-2, 2))))
                for _ in range(rng.randint(1, 4))
            ]
            s = ExpSum.build(lat, terms)
            order = rng.randint(0, 6)
            jet = jet_expand(s, order)
            assert jet_in_ambient_coords(jet) == ambient_poly_oracle(s, order)


def test_twist_then_expand_equals_jet_product():
    rng = random.Random(17)
    for _ in range(15):
        terms = [
            (Fraction(rng.randint(-2, 2)),
             CohClass(tuple(rng.randint(-1, 1) for _ in range(6))))
            for _ in range(rng.randint(1, 3))
        ]
        s = ExpSum.build(H3, terms)
        lam = CohClass(tuple(rng.randint(-1, 1) for _ in range(6)))
        order = 4
        exp_lam = ambient_poly_oracle(ExpSum.exponential(H3, lam), order)
        product: dict[tuple[int, ...], Fraction] = {}
        for a, ca in ambient_poly_oracle(s, order).items():
            for b, cb in exp_lam.items():
                if sum(a) + sum(b) <= order:
                    key = tuple(x + y for x, y in zip(a, b))
                    product[key] = product.get(key, Fraction(0)) + ca * cb
        expected = {alpha: c for alpha, c in product.items() if c}
        assert jet_in_ambient_coords(jet_expand(twist(s, lam, 1), order)) == expected


def test_vanishing_order_examples(catalog):
    assert vanishing_order(ExpSum.constant(H, 1), 3) == VanishingOrder.exact(0)
    e3 = catalog["E3"]
    f3 = CohClass((1, 1) + (0,) * 32)
    assert vanishing_order(sw_series(e3, f3), 7) == VanishingOrder.exact(1)
    e4 = catalog["E4"]
    assert vanishing_order(sw_series(e4, CohClass.zero(46)), 8) == VanishingOrder.exact(2)
    assert vanishing_order(ExpSum.build(H, []), 3) == VanishingOrder.zero_series()
    s = ExpSum.build(H, [(1, F_H), (-1, -F_H)])
    assert vanishing_order(s, 0) == VanishingOrder.at_least(1)


def test_vanishing_order_twist_invariance_seeded():
    rng = random.Random(23)
    gens = [CohClass.unit(6, 0), CohClass.unit(6, 2), CohClass.unit(6, 4)]
    for _ in range(40):
        terms = []
        for _ in range(rng.randint(1, 6)):
            k = CohClass.zero(6)
            for g in gens:
                k = k + rng.randint(-2, 2) * g
            terms.append((Fraction(rng.randint(-3, 3)), k))
        s = ExpSum.build(H3, terms)
        lam = CohClass.zero(6)
        for g in gens:
            lam = lam + rng.randint(-2, 2) * CohClass(tuple(g.coords))
        for sign in (1, -1):
            assert vanishing_order(twist(s, lam, sign), 8) == vanishing_order(s, 8)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(-2, 2), st.integers(-1, 1), st.integers(-1, 1)),
                min_size=1, max_size=4),
       st.integers(-2, 2), st.integers(-2, 2))
def test_vanishing_order_twist_invariance_hypothesis(raw_terms, la, lb):
    s = ExpSum.build(H, [(Fraction(a), CohClass((x, y))) for a, x, y in raw_terms])
    lam = CohClass((la, lb))
    assert vanishing_order(twist(s, lam, 1), 6) == vanishing_order(s, 6)


H4 = IntegralLattice.from_blocks([HyperbolicBlock()] * 4)
SMALL_FRACTIONS = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3))


@st.composite
def exp_sums_over_h4(draw):
    """Sums over up to four independent isotropic classes g_j of H4.

    Three shapes: free terms; conjugate-symmetric pairs (a, k), (+-a, -k);
    and products of differences (e^v - e^-v), whose orders run high.  Small
    multiplier vectors make some classes multiples of one another, so the
    span rows get denominators above 1.
    """
    width = draw(st.integers(1, 4))
    vectors = st.lists(st.integers(-3, 3), min_size=width, max_size=width)
    shape = draw(st.sampled_from(("free", "conjugate", "product", "product")))
    if shape == "free":
        terms = draw(st.lists(st.tuples(SMALL_FRACTIONS, vectors), min_size=1, max_size=6))
    elif shape == "conjugate":
        half = draw(st.lists(st.tuples(SMALL_FRACTIONS, vectors), min_size=1, max_size=4))
        eps = draw(st.sampled_from((1, -1)))
        terms = half + [(eps * a, [-x for x in v]) for a, v in half]
    else:
        terms = [(draw(SMALL_FRACTIONS), [0] * width)]
        for v in draw(st.lists(vectors, min_size=2, max_size=6)):
            terms = [(sign * a, [x + sign * y for x, y in zip(u, v)])
                     for a, u in terms for sign in (1, -1)]
    return ExpSum.build(H4, [
        (a, CohClass(tuple(x for c in v for x in (c, 0)) + (0,) * (8 - 2 * width)))
        for a, v in terms
    ])


@settings(max_examples=100, deadline=None)
@given(exp_sums_over_h4(), st.integers(0, 8))
def test_vanishing_order_matches_the_jet_route(s, cap):
    degree = min(map(sum, jet_expand(s, cap).coefficients), default=None)
    if s.is_zero():
        expected = VanishingOrder.zero_series()
    elif degree is None:
        expected = VanishingOrder.at_least(cap + 1)
    else:
        expected = VanishingOrder.exact(degree)
    assert vanishing_order(s, cap) == expected


@settings(max_examples=100, deadline=None)
@given(exp_sums_over_h4(), st.integers(0, 6))
def test_power_sums_match_the_jet_route(s, n):
    # free and conjugate sums carry rational coefficients (A > 1), which
    # sums built from sw data never do
    jet = jet_expand(s, n)
    value = power_sums(s, {n})[n]
    assert value.variables == jet.variables
    assert value.coefficients == jet.homogeneous_part(n).scale(math.factorial(n)).coefficients


def expand_product(lattice, factors):
    """The ExpSum of a product of sums, each a list of (coefficient, class)."""
    terms = [(Fraction(1), CohClass.zero(lattice.rank))]
    for factor in factors:
        terms = [(a * b, k + l) for a, k in terms for b, l in factor]
    return ExpSum.build(lattice, terms)


def test_vanishing_order_walks_only_the_degrees_of_its_parity(monkeypatch):
    # an even sum has no odd part and an odd sum no even part, so their walks
    # skip those degrees; a sum of neither parity walks every degree.  These
    # products split into one-variable factors, so vanishing_order reads them
    # by division; the walk is called directly
    g, h = CohClass.unit(8, 0), CohClass.unit(8, 2)
    sinh_g, sinh_h = [(1, g), (-1, -g)], [(1, h), (-1, -h)]
    cases = [
        (expand_product(H4, [sinh_g, sinh_h] * 2 + [sinh_g] * 2), 5, Parity.EVEN,
         VanishingOrder.at_least(6), [0, 2, 4]),
        (expand_product(H4, [sinh_g, sinh_h] * 2 + [sinh_g] * 2), 8, Parity.EVEN,
         VanishingOrder.exact(6), [0, 2, 4, 6]),
        (expand_product(H4, [sinh_g, sinh_h, [(1, g), (1, -g)]] * 2 + [sinh_h]), 7, Parity.ODD,
         VanishingOrder.exact(5), [1, 3, 5]),
        (expand_product(H4, [[(1, g), (-1, CohClass.zero(8))]] * 3 + [sinh_h]), 3, Parity.NEITHER,
         VanishingOrder.at_least(4), [0, 1, 2, 3]),
    ]
    kernel = series._power_sums
    for s, cap, sign, order, walked in cases:
        degrees = []

        def recording(columns, products, n, powers):
            degrees.append(n)
            return kernel(columns, products, n, powers)

        monkeypatch.setattr(series, "_power_sums", recording)
        assert parity(s) == sign
        assert series._walk(s, cap) == order
        assert degrees == walked
        monkeypatch.undo()
        assert vanishing_order(s, cap) == order
        low = min(map(sum, jet_expand(s, cap).coefficients), default=None)
        assert order == (VanishingOrder.at_least(cap + 1) if low is None else VanishingOrder.exact(low))


@settings(max_examples=100, deadline=None)
@given(exp_sums_over_h4())
def test_parity_matches_the_termwise_table(s):
    # parity pairs term i with term -1-i; the definition looks each -k up
    table = {k.support: a for a, k in s.terms}
    even = all(table.get((-k).support) == a for a, k in s.terms)
    odd = all(table.get((-k).support) == -a for a, k in s.terms)
    expected = (Parity.ZERO if s.is_zero() else Parity.EVEN if even
                else Parity.ODD if odd else Parity.NEITHER)
    assert parity(s) == expected


H2_DIAG = IntegralLattice.from_blocks([HyperbolicBlock()] * 2 + [DiagonalBlock((1, -1, 2))])
H2_DIAG_CLASSES = st.lists(st.integers(-2, 2), min_size=7, max_size=7)


@st.composite
def exp_sums_over_h2_diag(draw):
    """Free sums, or products of differences (e^v - e^-v), whose exact
    orders are positive unless some G.v is zero."""
    if draw(st.booleans()):
        terms = draw(st.lists(st.tuples(st.integers(-3, 3), H2_DIAG_CLASSES),
                              min_size=1, max_size=5))
    else:
        terms = [(draw(st.integers(1, 3)), [0] * 7)]
        for v in draw(st.lists(H2_DIAG_CLASSES, min_size=1, max_size=3)):
            terms = [(sign * a, [x + sign * y for x, y in zip(u, v)])
                     for a, u in terms for sign in (1, -1)]
    return ExpSum.build(H2_DIAG, [(a, CohClass(tuple(v))) for a, v in terms])


@settings(max_examples=100, deadline=None)
@given(exp_sums_over_h2_diag(), H2_DIAG_CLASSES, st.sampled_from((1, -1)))
def test_vanishing_order_twist_invariance_over_h2_diag(s, lam, sign):
    # exp(+-<lam, h>) is a unit of the power-series ring, so twisting keeps
    # the order, exact or bounded: sst reads its relation sums off this
    assert vanishing_order(twist(s, CohClass(tuple(lam)), sign), 6) == vanishing_order(s, 6)


def test_power_sums_of_a_constant():
    # no span pivots: only the constant monomial, and only in degree 0
    sums = power_sums(ExpSum.constant(H, 3), {0, 2})
    assert {d: jet.coefficients for d, jet in sums.items()} == {0: {(): 3}, 2: {}}
    assert sums[0].variables == sums[2].variables == ()


def test_vanishing_order_rows_with_coprime_denominators():
    # pivots -3h and 2g (terms are sorted by coordinates) give rows 1/3 for
    # -h and 3/2 for 3g: the common row denominator is 6, and the degree-1
    # terms 1 - 3*(1/3) and 3 - 2*(3/2) cancel, so x^2 has the first nonzero
    # coefficient
    g, h = CohClass.unit(8, 0), CohClass.unit(8, 2)
    s = ExpSum.build(H4, [(1, CohClass.zero(8)), (3, 2 * g), (-2, 3 * g), (1, -3 * h), (-3, -h)])
    assert vanishing_order(s, 4) == VanishingOrder.exact(2)
    assert min(map(sum, jet_expand(s, 4).coefficients), default=None) == 2


# The order engine against the walk, an oracle pair kept on purpose: the
# engine splits a sum into factors over disjoint covector columns and reads
# each one-variable factor's order as the multiplicity of t = 1 by division;
# series._walk is the degree walk it falls back to.


@st.composite
def one_variable_polynomials(draw, max_a, max_u):
    """(a, t^shift (t^c - 1)^a u(t^c)) with u(1) != 0, so the root t = 1 has
    multiplicity exactly a; c scales the exponents, so their gaps share c."""
    a = draw(st.integers(0, max_a))
    u = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=max_u).filter(lambda u: sum(u)))
    c, shift = draw(st.integers(1, 4)), draw(st.integers(-3, 3))
    poly = {shift: 1}
    for _ in range(a):
        poly = multiply(poly, {c: 1, 0: -1})
    poly = multiply(poly, {c * i: x for i, x in enumerate(u)})
    return a, {e: x for e, x in poly.items() if x}


def h_block_class(block, p, q, e):
    """e * (p e_b + q f_b) in H4, where e_b, f_b span the block-th H."""
    coords = [0] * 8
    coords[2 * block], coords[2 * block + 1] = e * p, e * q
    return CohClass(tuple(coords))


H_DIRECTIONS = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any)


def perturbed(s, draw):
    """s with one coefficient moved by a nonzero amount (to zero drops it)
    or one term dropped."""
    i = draw(st.integers(0, len(s.terms) - 1))
    terms = list(s.terms)
    if draw(st.booleans()):
        del terms[i]
    else:
        terms[i] = (terms[i][0] + draw(st.integers(-2, 2).filter(bool)), terms[i][1])
    return ExpSum.build(s.ambient, terms)


def assert_engine_matches_the_walk(s, cap):
    expected = VanishingOrder.zero_series() if s.is_zero() else series._walk(s, cap)
    assert vanishing_order(s, cap) == expected
    return expected


@settings(max_examples=100, deadline=None)
@given(one_variable_polynomials(4, 3), st.integers(0, 3), H_DIRECTIONS, st.integers(0, 9),
       st.booleans(), st.data())
def test_vanishing_order_matches_the_walk_on_one_variable_sums(case, block, direction, cap,
                                                               perturb, data):
    # exponents along a direction (p, q) of one H block, non-primitive among
    # them: with p and q both nonzero the factor spans two covector columns
    a, poly = case
    s = ExpSum.build(H4, [(x, h_block_class(block, *direction, e)) for e, x in poly.items()])
    if perturb:
        s = perturbed(s, data.draw)
    order = assert_engine_matches_the_walk(s, cap)
    if not perturb:
        # degree <= 6: a dense span of at most 7, within 4 times any count of
        # two or more terms (a single term spans 1), so the split accepts it
        assert series._factored_order(s, cap) == order
        assert order == (VanishingOrder.exact(a) if a <= cap else VanishingOrder.at_least(cap + 1))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(one_variable_polynomials(2, 2), H_DIRECTIONS), min_size=1, max_size=4),
       st.integers(0, 8), st.booleans(), st.data())
def test_vanishing_order_matches_the_walk_on_products(factors, cap, perturb, data):
    # products of one-variable factors over distinct H blocks split and
    # add their orders; with one coefficient moved or one term dropped, a
    # product of two or more factors of two or more terms is no longer a
    # rank-one grid, so the split declines and the walk decides
    s = expand_product(H4, [
        [(x, h_block_class(block, *direction, e)) for e, x in poly.items()]
        for block, ((_, poly), direction) in enumerate(factors)])
    total = sum(a for (a, _), _ in factors)
    if not perturb:
        order = assert_engine_matches_the_walk(s, cap)
        assert series._factored_order(s, cap) == order
        assert order == (VanishingOrder.exact(total) if total <= cap
                         else VanishingOrder.at_least(cap + 1))
        return
    s = perturbed(s, data.draw)
    assert_engine_matches_the_walk(s, cap)
    if len(factors) >= 2 and all(len(poly) >= 2 for (_, poly), _ in factors):
        assert series._factored_order(s, cap) is None


DEGENERATE = IntegralLattice.from_blocks([HyperbolicBlock(), DiagonalBlock((1, 0, -2, 0))])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3).filter(bool),
                          st.lists(st.integers(-2, 2), min_size=6, max_size=6),
                          st.sampled_from((None, 1, -1, 2))),
                min_size=1, max_size=5),
       st.integers(0, 6))
def test_vanishing_order_matches_the_walk_on_degenerate_forms(raw, cap):
    # coordinates 3 and 5 are null in diag(1, 0, -2, 0): a class and its
    # twin moved along them share one covector, so the engine merges their
    # coefficients first, and a twin with the opposite coefficient cancels
    terms = []
    for a, v, twin in raw:
        terms.append((a, CohClass(tuple(v))))
        if twin is not None:
            moved = v[:3] + [v[3] + twin] + v[4:5] + [v[5] - 1]
            terms.append((-a if twin < 0 else a * twin, CohClass(tuple(moved))))
    assert_engine_matches_the_walk(ExpSum.build(DEGENERATE, terms), cap)


def test_a_sum_that_cancels_as_a_function_has_no_order():
    # e^<k, h> - e^<k + n, h> with n null is the zero function: no degree has
    # a nonzero coefficient, though the sum has two terms
    k, n = CohClass((1, 2, 1, 0, 1, 0)), CohClass((0, 0, 0, 1, 0, -1))
    s = ExpSum.build(DEGENERATE, [(2, k), (-2, k + n), (1, 3 * k), (-1, 3 * k - 2 * n)])
    assert len(s.terms) == 4
    assert vanishing_order(s, 5) == series._walk(s, 5) == VanishingOrder.at_least(6)
    t = ExpSum.build(DEGENERATE, [(2, k), (-2, k + n), (1, CohClass.zero(6)), (-1, n)])
    assert vanishing_order(t, 3) == series._walk(t, 3) == VanishingOrder.at_least(4)


def test_scaled_exponents_are_read_without_the_walk(monkeypatch):
    # (e^5x - e^-5x)^2 (e^3y - e^-6y): the gaps share 10 and 9, so after
    # dividing them by their gcd each factor is dense; undivided, the first
    # spans 21 exponents for 3 terms and the engine would decline it
    def refused(*args):
        raise AssertionError("the order engine walked a product of one-variable factors")

    g, h = CohClass.unit(8, 0), CohClass.unit(8, 2)
    s = expand_product(H4, [[(1, 5 * g), (-1, -5 * g)]] * 2 + [[(1, 3 * h), (-1, -6 * h)]])
    monkeypatch.setattr(series, "_power_sums", refused)
    assert vanishing_order(s, 5) == VanishingOrder.exact(3)
    assert vanishing_order(s, 2) == VanishingOrder.at_least(3)
    monkeypatch.undo()
    assert series._walk(s, 5) == VanishingOrder.exact(3)


def rational_solve(columns, target):
    """The coefficients c with sum_j c_j * columns[j] == target, or None.

    Plain Gauss-Jordan elimination over Fractions; the columns must be
    linearly independent.
    """
    w = len(columns)
    eqs = [[Fraction(col[i]) for col in columns] + [Fraction(target[i])]
           for i in range(len(target))]
    for j in range(w):
        p = next(i for i in range(j, len(eqs)) if eqs[i][j])
        eqs[j], eqs[p] = eqs[p], eqs[j]
        eqs[j] = [x / eqs[j][j] for x in eqs[j]]
        for i in range(len(eqs)):
            if i != j and eqs[i][j]:
                f = eqs[i][j]
                eqs[i] = [x - f * y for x, y in zip(eqs[i], eqs[j])]
    if any(row[w] for row in eqs[w:]):
        return None
    return tuple(eqs[j][w] for j in range(w))


def rational_span_reference(form, span_classes, expand_classes):
    """Pivots and rational rows of the span reduction, by rational solves
    against the dense Gram matrix; None for a row outside the span."""
    gram = dense_block_gram(form.blocks)

    def covector(k):
        return [sum(g * x for g, x in zip(row, k.coords)) for row in gram]

    pivots = []
    for k in span_classes:
        if rational_solve([covector(p) for p in pivots], covector(k)) is None:
            pivots.append(k)
    columns = [covector(p) for p in pivots]
    return pivots, [rational_solve(columns, covector(k)) for k in expand_classes]


BLOCKS = st.one_of(
    st.just(HyperbolicBlock()),
    st.builds(E8Block, st.sampled_from((1, -1))),
    st.builds(DiagonalBlock, st.lists(
        st.integers(-3, 3).filter(bool), min_size=1, max_size=3).map(tuple)),
)


@st.composite
def span_reduction_cases(draw):
    """A lattice of H, +-E8 and diagonal blocks with a shuffled class list.

    The list holds span classes: zero classes, repeats, integer multiples of
    earlier classes and multiples scale * c of fresh combinations c of at
    most rank - 1 generators.  It also holds the combinations c (a c whose
    multiple 2c or 3c comes first gets a row with that denominator) and
    integer combinations of the span classes.
    """
    form = draw(st.lists(BLOCKS, min_size=1, max_size=3)
                .map(IntegralLattice.from_blocks).filter(lambda f: f.rank > 1))
    n = form.rank
    small = st.integers(-2, 2)
    count = min(draw(st.sampled_from((1, 2, 3, 3))), n - 1)
    generators = draw(st.lists(
        st.lists(st.sampled_from((0, 0, 1, -1, 2)), min_size=n, max_size=n),
        min_size=count, max_size=count,
    ))
    span, parts = [], []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("zero", "repeat", "multiple", "fresh", "fresh", "fresh")))
        if kind == "zero" or (kind in ("repeat", "multiple") and not span):
            span.append(CohClass.zero(n))
        elif kind == "repeat":
            span.append(draw(st.sampled_from(span)))
        elif kind == "multiple":
            span.append(draw(st.sampled_from(span)) * draw(st.sampled_from((2, 3, -2))))
        else:
            cs = draw(st.lists(small, min_size=len(generators), max_size=len(generators)))
            c = CohClass(tuple(sum(x * g[i] for x, g in zip(cs, generators)) for i in range(n)))
            span.append(c * draw(st.sampled_from((1, -1, 2, -2, 3, -3))))
            parts.append(c)
    expand = span + parts
    for _ in range(draw(st.integers(0, 3))):
        cs = draw(st.lists(small, min_size=len(span), max_size=len(span)))
        expand.append(CohClass(tuple(
            sum(c * k.coords[i] for c, k in zip(cs, span)) for i in range(n)
        )))
    return form, draw(st.permutations(expand))


@settings(max_examples=200, deadline=None)
@given(span_reduction_cases())
def test_span_reduce_matches_rational_elimination(case):
    form, classes = case
    pivots, den, rows = _span_reduce(form, classes)
    ref_pivots, ref_rows = rational_span_reference(form, classes, classes)
    assert list(pivots) == ref_pivots
    assert den > 0
    assert den == math.lcm(*(x.denominator for row in ref_rows for x in row))
    assert all(isinstance(x, int) for row in rows for x in row)
    assert [tuple(Fraction(x, den) for x in row) for row in rows] == ref_rows


def test_span_reduce_reads_each_covector_once(monkeypatch):
    # one elimination pass: pivots, repeats, multiples, dependent sums and
    # the zero class each build their covector exactly once
    g, h, u = CohClass.unit(8, 0), CohClass.unit(8, 2), CohClass.unit(8, 5)
    classes = [CohClass.zero(8), 2 * g, g, g + h, -3 * h, u, g - h + u, 2 * g, -u]
    read = []
    cov = series.covector
    monkeypatch.setattr(series, "covector", lambda lattice, c: read.append(c) or cov(lattice, c))
    pivots, den, rows = _span_reduce(H4, classes)
    assert read == classes
    assert pivots == (2 * g, g + h, u) and den == 2  # g is half the pivot 2g
    assert rows[:3] == [(0, 0, 0), (2, 0, 0), (1, 0, 0)]


@pytest.mark.parametrize("call", [
    lambda: find_hyperbolic_pair(orthogonal_complement(H, []), 0),
    lambda: jet_expand(ExpSum.exponential(H, F_H), -1),
    lambda: evaluate_along(
        witten_series(FourManifold("empty", 4, 0, 2, H, ()), CohClass.zero(2)),
        Direction.of([1, 1]), -1),
    lambda: vanishing_order(ExpSum.exponential(H, F_H), -1),
    lambda: twist(ExpSum.exponential(H, F_H), F_H, 2),
], ids=["pair-radius", "jet-order", "evaluate-order", "vanishing-cap", "twist-sign"])
def test_library_preconditions_raise_swcalc_errors(call):
    with pytest.raises(SWCalcError) as caught:
        call()
    assert isinstance(caught.value, ValueError)


def test_parity_examples(catalog):
    assert parity(ExpSum.constant(H, 1)) == Parity.EVEN
    assert parity(ExpSum.build(H, [])) == Parity.ZERO
    e3 = catalog["E3"]
    f3 = CohClass((1, 1) + (0,) * 32)
    assert parity(sw_series(e3, f3)) == Parity.ODD
    assert predicted_parity(e3, f3) == Parity.ODD
    e4 = catalog["E4"]
    w0 = CohClass.zero(46)
    assert parity(sw_series(e4, w0)) == Parity.EVEN
    assert predicted_parity(e4, w0) == Parity.EVEN
    mixed = ExpSum.build(H, [(1, F_H), (2, -F_H)])
    assert parity(mixed) == Parity.NEITHER


def test_witten_series_k3(catalog):
    k3 = catalog["K3"]
    g = witten_series(k3, CohClass.zero(22))
    assert g.prefactor == 1 and g.quad_coeff == Fraction(1, 2)
    assert GaussianSeries._fields == ("prefactor", "core")  # 1/2 is a constant, not a field
    # direction with square 2: the first hyperbolic block diagonal
    d = Direction.of([1, 1] + [0] * 20)
    assert evaluate_along(g, d, 2) == [Fraction(1), Fraction(0), Fraction(1)]


def test_witten_series_empty_support():
    m = FourManifold("empty", 4, 0, 2, H, ())
    g = witten_series(m, CohClass.zero(2))
    d = Direction.of([1, 1])
    assert evaluate_along(g, d, 4) == [Fraction(0)] * 5


def test_witten_series_e3_direction(catalog):
    e3 = catalog["E3"]
    f3 = CohClass((1, 1) + (0,) * 32)
    g = witten_series(e3, f3)
    assert g.prefactor == Fraction(1, 2)
    # <f, d> = 1 and d.d = 0
    d = Direction.of([Fraction(1, 2), Fraction(-1, 2)] + [0] * 32)
    assert evaluate_along(g, d, 3) == [
        Fraction(0), Fraction(1), Fraction(0), Fraction(1, 6)
    ]


def witten_taylor_oracle(g, direction: Direction, order: int) -> list[Fraction]:
    """The t^n coefficients of prefactor * exp(v.v t^2/2) * sum_k a_k exp(<k, v> t),
    written out: prefactor * sum_k a_k sum_(j <= n/2) (v.v/2)^j <k, v>^(n-2j)
    / (j! (n-2j)!), each pairing read off the dense Gram."""
    gram = dense_block_gram(g.core.ambient.blocks)
    v = direction.coords

    def pair(a, b):
        return sum(x * gij * y for x, row in zip(a, gram) for gij, y in zip(row, b))

    half = Fraction(pair(v, v), 2)
    lins = [(a, pair(k.coords, v)) for a, k in g.core.terms]
    return [g.prefactor * sum(
        a * sum(half**j * x**(n - 2 * j) / (math.factorial(j) * math.factorial(n - 2 * j))
                for j in range(n // 2 + 1))
        for a, x in lins) for n in range(order + 1)]


@st.composite
def witten_cases(draw):
    """A Gaussian series over H, +-E8 and diagonal blocks with rational
    coefficients (the empty sum among them), and a rational direction (the
    zero direction among them)."""
    form = draw(st.lists(BLOCKS, min_size=1, max_size=2).map(IntegralLattice.from_blocks))
    n = form.rank
    coeff = st.fractions(-3, 3, max_denominator=4)
    terms = draw(st.lists(st.tuples(coeff, st.lists(st.integers(-2, 2), min_size=n, max_size=n)),
                          max_size=4))
    core = ExpSum.build(form, [(a, CohClass(tuple(k))) for a, k in terms])
    prefactor = Fraction(2) ** draw(st.integers(-3, 3))
    x = st.one_of(st.just(Fraction(0)), st.fractions(-2, 2, max_denominator=3))
    coords = draw(st.one_of(st.just([0] * n), st.lists(x, min_size=n, max_size=n)))
    return GaussianSeries(prefactor, core), Direction.of(coords)


@settings(max_examples=150, deadline=None)
@given(witten_cases(), st.integers(0, 20))
def test_evaluate_along_matches_the_written_out_definition(case, order):
    g, direction = case
    assert evaluate_along(g, direction, order) == witten_taylor_oracle(g, direction, order)


def test_witten_series_non_integral_c():
    m = FourManifold("frac", 1, 0, 1, H, ())
    with pytest.raises(NonIntegralC):
        witten_series(m, CohClass.zero(2))


def test_span_reduce_leaves_the_stored_covectors_unchanged():
    # _span_reduce tags a copy of each covector; the one kept on the class,
    # which every later reader gets, is left as it was
    g, h = CohClass.unit(8, 0), CohClass.unit(8, 2)
    classes = [2 * g, g + h, g, -h, CohClass.zero(8)]
    stored = [covector(H4, k) for k in classes]
    before = [dict(v) for v in stored]
    _span_reduce(H4, classes)
    assert [covector(H4, k) for k in classes] == before
    assert all(covector(H4, k) is v for k, v in zip(classes, stored))
