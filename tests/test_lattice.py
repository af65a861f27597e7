"""Lattice arithmetic: pairings, characteristic vectors, kernels, search."""

import json
import random
import sys
import threading
from copy import copy
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from swcalc.catalog import _elliptic
from swcalc.errors import DimensionMismatch, ParityError
from swcalc.manifest import parse_manifest
from swcalc.manifold import basic_class_set, validate
from swcalc.relations import dvanish_theorem_check, sst_check
from swcalc.series import Direction, evaluate_along, jet_expand, sw_series, witten_series
from swcalc import lattice
from swcalc.lattice import (
    E8_GRAM,
    CohClass,
    DiagonalBlock,
    E8Block,
    HyperbolicBlock,
    HyperbolicPair,
    IntegralLattice,
    Sublattice,
    _isotropic_vectors,
    _literal_pair,
    _minor_gcd,
    _xgcd,
    characteristic_vector,
    construct_abundance_classes,
    covector,
    find_hyperbolic_pair,
    integer_kernel,
    is_characteristic,
    orthogonal_complement,
    pairing,
    square,
)

from conftest import dense_block_gram

H = IntegralLattice.from_blocks([HyperbolicBlock()])
DIAG11 = IntegralLattice.from_blocks([DiagonalBlock((1, -1))])
K3FORM = IntegralLattice.from_blocks([HyperbolicBlock()] * 3 + [E8Block(-1)] * 2)


def exact_det(mat):
    a = [[Fraction(x) for x in row] for row in mat]
    n = len(a)
    d = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k] != 0), None)
        if p is None:
            return Fraction(0)
        if p != k:
            a[k], a[p] = a[p], a[k]
            d = -d
        d *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return d


def smith_diagonal(mat):
    """Naive diagonalization by integer row/column operations.

    The returned diagonal entries generate the same torsion quotient as
    the true invariant factors; all entries +-1 iff the row lattice is
    saturated.
    """
    a = [list(r) for r in mat]
    m = len(a)
    n = len(a[0]) if a else 0
    k = 0
    out = []
    while k < min(m, n):
        pivot = None
        for i in range(k, m):
            for j in range(k, n):
                if a[i][j] and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        a[k], a[i] = a[i], a[k]
        for row in a:
            row[k], row[j] = row[j], row[k]
        while True:
            done = True
            for i in range(k + 1, m):
                if a[i][k]:
                    q = a[i][k] // a[k][k]
                    a[i] = [x - q * y for x, y in zip(a[i], a[k])]
                    if a[i][k]:
                        a[k], a[i] = a[i], a[k]
                        done = False
            for j in range(k + 1, n):
                if a[k][j]:
                    q = a[k][j] // a[k][k]
                    for row in a:
                        row[j] -= q * row[k]
                    if a[k][j]:
                        for row in a:
                            row[k], row[j] = row[j], row[k]
                        done = False
            if done:
                break
        out.append(abs(a[k][k]))
        k += 1
    return out


def rational_rank(rows):
    """Rank over Q by Gaussian elimination on Fractions."""
    a = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        p = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if p is None:
            continue
        a[rank], a[p] = a[p], a[rank]
        for i in range(rank + 1, len(a)):
            f = a[i][col] / a[rank][col]
            a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def _solve_gf2(rows, rhs):
    """Solve M x = rhs over GF(2) densely; a 0/1 list, or None if unsolvable.

    Free variables are set to zero, so the solution is deterministic.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [[x & 1 for x in row] + [r & 1] for row, r in zip(rows, rhs)]
    pivots = []
    row = 0
    for col in range(n):
        pivot = next((i for i in range(row, m) if a[i][col]), None)
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        for i in range(m):
            if i != row and a[i][col]:
                a[i] = [(x + y) & 1 for x, y in zip(a[i], a[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    for i in range(row, m):
        if a[i][n]:
            return None
    x = [0] * n
    for i, col in enumerate(pivots):
        x[col] = a[i][n]
    return x


def test_e8_gram_is_even_unimodular():
    assert exact_det(E8_GRAM) == 1
    for i, row in enumerate(E8_GRAM):
        assert row[i] % 2 == 0
        for j in range(8):
            assert E8_GRAM[i][j] == E8_GRAM[j][i]


def test_block_assembly():
    lat = IntegralLattice.from_blocks(
        [HyperbolicBlock(), DiagonalBlock((3,)), E8Block(1)]
    )
    assert lat.rank == 11
    assert lat.column(0) == ((1, 1),) and lat.column(1) == ((0, 1),)
    assert lat.column(2) == ((2, 3),) and lat.column(3) == ((3, 2), (4, -1))


def test_pairing_examples():
    e1, e2 = CohClass((1, 0)), CohClass((0, 1))
    assert pairing(H, e1, e2) == 1
    assert pairing(K3FORM, CohClass((1,) * 22), CohClass.zero(22)) == 0
    assert square(H, CohClass((2, -3))) == -12


def test_unit_class_is_its_support_and_checks_its_index():
    assert CohClass.unit(3, 2).support == ((2, 1),)
    assert CohClass.unit(3, 0) == CohClass((1, 0, 0)) and CohClass.unit(3, 1).coords == (0, 1, 0)
    # an index outside [0, rank) names no coordinate
    for index in (5, 3, -1):
        with pytest.raises(DimensionMismatch, match=rf"unit index {index} is outside \[0, 3\)"):
            CohClass.unit(3, index)


def test_pairing_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        pairing(H, CohClass((1, 0, 0)), CohClass((0, 1)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=22, max_size=22),
       st.lists(st.integers(-9, 9), min_size=22, max_size=22),
       st.lists(st.integers(-9, 9), min_size=22, max_size=22),
       st.integers(-5, 5), st.integers(-5, 5))
def test_pairing_symmetric_bilinear(a, b, c, s, t):
    x, y, z = CohClass(tuple(a)), CohClass(tuple(b)), CohClass(tuple(c))
    assert pairing(K3FORM, x, y) == pairing(K3FORM, y, x)
    assert pairing(K3FORM, s * x + t * y, z) == s * pairing(K3FORM, x, z) + t * pairing(K3FORM, y, z)


def test_characteristic_vector_examples():
    assert characteristic_vector(H).coords == (0, 0)
    assert characteristic_vector(DIAG11).coords == (1, 1)
    assert characteristic_vector(K3FORM).coords == (0,) * 22
    # degenerate: the radical direction and the even entry get 0
    assert characteristic_vector(
        IntegralLattice.from_blocks([DiagonalBlock((0, 2, -3))])).coords == (0, 0, 1)


def test_characteristic_vector_satisfies_definition():
    # independent check straight from the definition
    for lat in (H, DIAG11, K3FORM,
                IntegralLattice.from_blocks([DiagonalBlock((3, -5, 2)), HyperbolicBlock()])):
        c = characteristic_vector(lat)
        for i in range(lat.rank):
            basis_vec = CohClass.unit(lat.rank, i)
            assert (pairing(lat, c, basis_vec) - square(lat, basis_vec)) % 2 == 0


# Diagonal entries in [-4, 4]: odd only, even only (zero included) and mixed.
gf2_block_lists = st.lists(
    st.one_of(
        st.just(HyperbolicBlock()),
        st.sampled_from([E8Block(1), E8Block(-1)]),
        *(st.lists(entries, min_size=1, max_size=4).map(lambda e: DiagonalBlock(tuple(e)))
          for entries in (st.sampled_from([-3, -1, 1, 3]), st.sampled_from([-4, -2, 0, 2, 4]),
                          st.integers(-4, 4))),
    ),
    min_size=1, max_size=5,
)


@settings(max_examples=80, deadline=None)
@given(gf2_block_lists)
def test_characteristic_vector_matches_the_dense_solve(blocks):
    g = dense_block_gram(blocks)
    oracle = _solve_gf2(g, [g[i][i] for i in range(len(g))])
    assert characteristic_vector(IntegralLattice.from_blocks(blocks)).coords == tuple(oracle)


def _dense_signature(gram) -> int:
    """Signature of a symmetric integer matrix by exact congruence
    diagonalisation (Sylvester's law of inertia): each step takes a nonzero
    pivot, making one by adding row and column j to i when the diagonal is
    zero, and clears its row and column."""
    a = [[Fraction(x) for x in row] for row in gram]
    signature = 0
    while a:
        k = next((i for i in range(len(a)) if a[i][i]), None)
        if k is None:
            i, j = next(((i, j) for i in range(len(a)) for j in range(len(a)) if a[i][j]),
                        (None, None))
            if i is None:
                break
            for row in a:
                row[i] += row[j]
            a[i] = [x + y for x, y in zip(a[i], a[j])]
            k = i
        p = a[k][k]
        signature += 1 if p > 0 else -1
        a = [[a[r][c] - a[r][k] * a[k][c] / p for c in range(len(a)) if c != k]
             for r in range(len(a)) if r != k]
    return signature


# Blocks built afresh for every draw, so that no fact kept on one is read twice.
fresh_block_lists = st.lists(
    st.one_of(
        st.builds(HyperbolicBlock),
        st.sampled_from([1, -1]).map(E8Block),
        st.lists(st.integers(-4, 4), min_size=1, max_size=4).map(lambda e: DiagonalBlock(tuple(e))),
    ),
    min_size=1, max_size=4,
)


def _descriptor(block) -> dict:
    if isinstance(block, HyperbolicBlock):
        return {"type": "H"}
    if isinstance(block, E8Block):
        return {"type": "E8", "sign": block.sign}
    return {"type": "diag", "entries": list(block.entries)}


@settings(max_examples=60, deadline=None)
@given(fresh_block_lists)
def test_block_facts_agree_on_shared_and_fresh_blocks(blocks):
    # parse_manifest hands out one shared H block and one E8 block per sign,
    # each keeping its (signature, odd positions) on itself; the facts read
    # through them are those of fresh blocks and of the dense Gram
    shared = parse_manifest(json.dumps({
        "name": "x", "chi": 0, "sigma": 0, "b_plus": 0, "basic_classes": [],
        "form": [_descriptor(b) for b in blocks],
    })).blocks
    assert shared == tuple(blocks)
    g = dense_block_gram(blocks)
    odd = frozenset(i for i in range(len(g)) if g[i][i] & 1)
    signature = _dense_signature(g)
    for lat in (IntegralLattice.from_blocks(shared), IntegralLattice.from_blocks(blocks)):
        assert lattice.block_signature(lat) == signature
        assert lat.odd_diagonal == odd
        assert characteristic_vector(lat).coords == tuple(int(i in odd) for i in range(len(g)))


def test_gf2_solver_detects_inconsistency():
    assert _solve_gf2([[0]], [1]) is None
    assert _solve_gf2([[1, 1], [1, 1]], [1, 0]) is None
    assert _solve_gf2([[1, 1], [1, 1]], [1, 1]) == [1, 0]


def test_is_characteristic_examples():
    assert is_characteristic(K3FORM, CohClass.zero(22))
    assert not is_characteristic(DIAG11, CohClass((1, 0)))
    assert is_characteristic(DIAG11, CohClass((1, 1)))


def test_orthogonal_complement_empty_set_is_full_lattice():
    sub = orthogonal_complement(K3FORM, [])
    assert len(sub.basis) == 22
    assert [list(row) for row in sub.restricted_gram] == dense_block_gram(K3FORM.blocks)


def test_orthogonal_complement_of_isotropic_generator():
    sub = orthogonal_complement(H, [CohClass((1, 0))])
    assert [b.coords for b in sub.basis] == [(1, 0)]
    assert sub.restricted_gram == ((0,),)


def test_orthogonal_complement_of_zero_class():
    sub = orthogonal_complement(K3FORM, [CohClass.zero(22)])
    assert len(sub.basis) == 22


def test_orthogonal_complement_properties():
    rng = random.Random(7)
    gram = dense_block_gram(K3FORM.blocks)
    for _ in range(20):
        classes = [
            CohClass(tuple(rng.randint(-3, 3) for _ in range(22)))
            for _ in range(rng.randint(1, 3))
        ]
        sub = orthogonal_complement(K3FORM, classes)
        rank = rational_rank([[sum(g * x for g, x in zip(row, s.coords)) for row in gram]
                              for s in classes])
        assert len(sub.basis) == 22 - rank
        for b in sub.basis:
            for s in classes:
                assert pairing(K3FORM, b, s) == 0
        # saturation: all diagonal invariants of the stacked basis are 1
        if sub.basis:
            diag = smith_diagonal([list(b.coords) for b in sub.basis])
            assert all(d == 1 for d in diag)
        # restricted gram really is the ambient pairing
        for i, bi in enumerate(sub.basis):
            for j, bj in enumerate(sub.basis):
                assert sub.restricted_gram[i][j] == pairing(K3FORM, bi, bj)


block_lists = st.lists(
    st.one_of(
        st.just(HyperbolicBlock()),
        st.sampled_from([E8Block(1), E8Block(-1)]),
        st.lists(st.integers(-4, 4), min_size=1, max_size=4).map(
            lambda e: DiagonalBlock(tuple(e))),
    ),
    min_size=1, max_size=4,
)
rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@settings(max_examples=80, deadline=None)
@given(block_lists, st.data())
def test_apply_matches_dense_block_gram(blocks, data):
    lat = IntegralLattice.from_blocks(blocks)
    g = dense_block_gram(blocks)
    n = len(g)
    assert lat.rank == n

    def dense(v):
        return [sum(g[i][j] * v[j] for j in range(n)) for i in range(n)]

    def form(u, v):
        return sum(x * y for x, y in zip(u, dense(v)))

    ints = st.lists(st.integers(-6, 6), min_size=n, max_size=n)
    fracs = st.lists(rationals, min_size=n, max_size=n)
    a, b = data.draw(ints), data.draw(ints)
    p, q = data.draw(fracs), data.draw(fracs)
    assert pairing(lat, CohClass(tuple(a)), CohClass(tuple(b))) == form(a, b)
    assert pairing(lat, Direction.of(p), Direction.of(q)) == form(p, q)
    assert pairing(lat, CohClass(tuple(a)), Direction.of(q)) == form(a, q)
    sub = orthogonal_complement(lat, [CohClass(tuple(a))])
    for i, bi in enumerate(sub.basis):
        assert form(bi.coords, a) == 0
        for j, bj in enumerate(sub.basis):
            assert sub.restricted_gram[i][j] == form(bi.coords, bj.coords)


@settings(max_examples=80, deadline=None)
@given(block_lists, st.data())
def test_sparse_core_matches_dense_block_gram(blocks, data):
    lat = IntegralLattice.from_blocks(blocks)
    g = dense_block_gram(blocks)
    n = len(g)
    ints = st.lists(st.integers(-6, 6), min_size=n, max_size=n)
    a, b = data.draw(ints), data.draw(ints)
    if data.draw(st.booleans()):  # a characteristic class, often enough to matter
        a = [c + 2 * x for c, x in zip(characteristic_vector(lat).coords, a)]
    c = CohClass(tuple(a))
    dense = [sum(g[i][j] * a[j] for j in range(n)) for i in range(n)]
    assert lat.odd_diagonal == {i for i in range(n) if g[i][i] % 2}
    assert c.support == tuple((t, x) for t, x in enumerate(a) if x)
    assert covector(lat, c) == {s: y for s, y in enumerate(dense) if y}
    characteristic = all((y - g[i][i]) % 2 == 0 for i, y in enumerate(dense))
    event("characteristic" if characteristic else "not characteristic")
    assert is_characteristic(lat, c) == characteristic
    assert pairing(lat, c, CohClass(tuple(b))) == sum(y * x for y, x in zip(dense, b))
    sub = orthogonal_complement(lat, [CohClass(tuple(b))])
    for i, bi in enumerate(sub.basis):
        for j, bj in enumerate(sub.basis):
            assert sub.entry(i, j) == pairing(lat, bi, bj)


@st.composite
def dense_class_pairs(draw):
    n = draw(st.integers(0, 6))
    coords = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    return n, draw(coords), draw(coords)


@settings(max_examples=200, deadline=None)
@given(dense_class_pairs(), st.integers(-3, 3), st.randoms(use_true_random=False))
def test_sparse_class_arithmetic_matches_the_dense_definition(case, scalar, rng):
    n, a, b = case

    def agrees(c, dense):
        want = CohClass(tuple(dense))
        assert c.coords == tuple(dense)
        assert c.support == tuple((t, x) for t, x in enumerate(dense) if x)
        assert c == want and hash(c) == hash(want)
        assert c.is_zero() == (not any(dense))
        assert c.is_even() == all(x % 2 == 0 for x in dense)

    pairs = list(enumerate(a))  # zeros included, in any order
    rng.shuffle(pairs)
    agrees(CohClass.from_support(n, pairs), a)
    # sparse classes and dense ones, their supports scanned, combine alike
    for x, y in ((CohClass.from_support(n, pairs), CohClass(tuple(b))),
                 (CohClass(tuple(a)), CohClass.from_support(n, enumerate(b)))):
        agrees(x + y, [p + q for p, q in zip(a, b)])
        agrees(x - y, [p - q for p, q in zip(a, b)])
        agrees(-x, [-p for p in a])
        agrees(scalar * x, [scalar * p for p in a])
        agrees(x * scalar, [scalar * p for p in a])
    with pytest.raises(DimensionMismatch, match="cannot add classes of different rank"):
        CohClass(tuple(a)) + CohClass.zero(n + 1)


def test_e40_pipelines_past_validate_build_no_dense_class(monkeypatch):
    # rank 478: past validate, whose details list the input classes, the
    # complement, the literal-block pair search, sst, dvanish and the series
    # along a sparse direction read every class through its support and read
    # no class's dense coordinates
    m = parse_manifest(json.dumps(_elliptic(40))).to_manifold()
    assert validate(m).passed
    views = []
    dense = CohClass.coords.func
    monkeypatch.setattr(CohClass, "coords", property(lambda c: views.append(c) or dense(c)))
    sub = orthogonal_complement(m.form, basic_class_set(m))
    assert find_hyperbolic_pair(sub, 3) is not None
    assert "restricted_gram" not in sub.__dict__
    w = characteristic_vector(m.form)
    assert sst_check(m, w).verdict == "pass"
    assert dvanish_theorem_check(m, w).verdict == "pass"
    # along d = e_1, <f, d> = 1 and d.d = 0: the series is (2 sinh t)^38,
    # and the Witten prefactor 2^(2-c) is 2^-38
    d = Direction.of([0, 1] + [0] * 476)
    assert evaluate_along(witten_series(m, w), d, 38) == [0] * 38 + [1]
    assert jet_expand(sw_series(m, w), 38).evaluate(d) == 2**38
    assert not views


def test_diagonal_block_columns_are_rank_linear():
    block = DiagonalBlock((3, 0, -2, 0, 5))
    assert [block.column(i) for i in range(5)] == [((0, 3),), (), ((2, -2),), (), ((4, 5),)]
    lat = IntegralLattice.from_blocks([HyperbolicBlock(), DiagonalBlock((1,) * 300)])
    assert sum(len(lat.column(t)) for t in range(302)) == 302
    assert [lat.column(2), lat.column(3)] == [((2, 1),), ((3, 1),)]


def pipelines_leave_the_dense_views_unbuilt(n):
    # validation, sst and dvanish read pairings through the columns they
    # touch, one at a time: at most four of the form's columns are built,
    # and the restricted Gram is not.  The complement builds its basis
    # classes on read, and the pair search reads three of them.
    m = parse_manifest(json.dumps(_elliptic(n))).to_manifold()
    assert m.form.rank == 12 * n - 2 and validate(m).passed
    w = characteristic_vector(m.form)
    assert sst_check(m, w).verdict == "pass"
    assert dvanish_theorem_check(m, w).verdict == "pass"
    assert len(m.form._columns) <= 4
    assert "restricted_gram" not in m.complement.__dict__
    assert len(m.complement.basis) == 12 * n - 3
    assert len(m.complement.basis._built) <= 4


def test_e40_pipelines_leave_the_dense_views_unbuilt():
    pipelines_leave_the_dense_views_unbuilt(40)


def test_e320_pipelines_leave_the_dense_views_unbuilt():
    # rank 3838: the complement has 3,837 basis classes
    pipelines_leave_the_dense_views_unbuilt(320)


def test_length_checks_keep_their_messages():
    with pytest.raises(DimensionMismatch, match="vector length 3 does not match lattice rank 2"):
        pairing(H, CohClass((1, 0, 0)), CohClass((0, 1, 0)))
    with pytest.raises(DimensionMismatch, match="cannot pair vectors of lengths 3 and 2"):
        pairing(H, Direction.of((1, 0, 0)), Direction.of((0, 1)))
    with pytest.raises(DimensionMismatch, match="vector length 3 does not match lattice rank 2"):
        is_characteristic(H, CohClass((1, 0, 0)))


def test_restricted_gram_on_non_unit_basis():
    lat = IntegralLattice.from_blocks(
        [HyperbolicBlock(), DiagonalBlock((1, -1, 3)), E8Block(-1)])
    classes = [CohClass((1, 2, 1, -1, 1) + (1, 0, 0, 2, 0, 0, -1, 0)),
               CohClass((0, 1, 3, 0, -2) + (0,) * 7 + (1,))]
    sub = orthogonal_complement(lat, classes)
    assert sum(1 for b in sub.basis if sum(map(bool, b.coords)) > 1) >= 3
    for i, bi in enumerate(sub.basis):
        for j, bj in enumerate(sub.basis):
            assert sub.restricted_gram[i][j] == pairing(lat, bi, bj)


def dense_rows(kernel, n):
    """integer_kernel's (r, touched rows) as the kernel rows r..n-1, length-n
    lists; an untouched row p is the unit vector at p."""
    r, touched = kernel
    return [[touched.get(p, {p: 1}).get(j, 0) for j in range(n)] for p in range(r, n)]


def test_integer_kernel_empty_constraints():
    assert dense_rows(integer_kernel([], 3), 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def reference_kernel(mat, n):
    """The kernel through a full row Hermite normal form of mat transposed,
    written out in full: positive pivots and entries above each pivot
    reduced into [0, pivot), with the unimodular transform u alongside.
    The rows of u past the rank span the kernel."""
    a = [[row[j] for row in mat] for j in range(n)]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    row = 0
    for col in range(len(mat)):
        if row >= n:
            break
        pivot = next((i for i in range(row, n) if a[i][col]), None)
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        u[row], u[pivot] = u[pivot], u[row]
        for i in range(row + 1, n):
            if not a[i][col]:
                continue
            p, q = a[row][col], a[i][col]
            x, y, g = _xgcd(p, q)
            for t in (a, u):
                t[row], t[i] = ([x * r + y * s for r, s in zip(t[row], t[i])],
                                [-(q // g) * r + (p // g) * s for r, s in zip(t[row], t[i])])
        if a[row][col] < 0:
            a[row], u[row] = [-x for x in a[row]], [-x for x in u[row]]
        for i in range(row):
            q = a[i][col] // a[row][col]
            a[i] = [r - q * s for r, s in zip(a[i], a[row])]
            u[i] = [r - q * s for r, s in zip(u[i], u[row])]
        row += 1
    return u[row:]


@st.composite
def constraint_matrices(draw):
    """0-4 constraint rows over n <= 8: fresh, zero, repeated and parallel rows."""
    n = draw(st.integers(0, 8))
    fresh = st.lists(st.integers(-4, 4), min_size=n, max_size=n)
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["fresh", "zero", "repeat", "parallel"][:4 if rows else 2]))
        if kind == "fresh":
            rows.append(draw(fresh))
        elif kind == "zero":
            rows.append([0] * n)
        else:
            base = draw(st.sampled_from(rows))
            scale = 1 if kind == "repeat" else draw(st.sampled_from([-3, -2, -1, 2, 3]))
            rows.append([scale * x for x in base])
    event("dependent rows" if rational_rank(rows) < len(rows) else "independent rows")
    return rows, n


def distinct_directions(rows):
    """The sparse rows without zero rows and without rows parallel to an
    earlier one (equal after dividing by the gcd and fixing the sign of the
    first entry)."""
    out = {}
    for r in rows:
        if r:
            items = sorted(r.items())
            g = gcd(*r.values()) * (1 if items[0][1] > 0 else -1)
            out.setdefault(tuple((j, x // g) for j, x in items), r)
    return list(out.values())


@settings(max_examples=200, deadline=None)
@given(constraint_matrices())
def test_dropping_parallel_constraint_rows_keeps_the_kernel(case):
    # the complement passes every constraint row to integer_kernel, the n - 1
    # parallel rows of E(n) included: a column in the rational span of
    # earlier ones finds no pivot, so it leaves the kernel as it is
    mat, n = case
    rows = [{j: x for j, x in enumerate(row) if x} for row in mat]
    kept = distinct_directions(rows)
    event(f"{len(rows) - len(kept)} rows dropped")
    assert all(any(r is k for r in rows) for k in kept)
    assert integer_kernel(kept, n) == integer_kernel(rows, n)


@settings(max_examples=200, deadline=None)
@given(constraint_matrices())
def test_integer_kernel_matches_the_full_hermite_reference(case):
    mat, n = case
    kernel = dense_rows(integer_kernel([{j: x for j, x in enumerate(row) if x} for row in mat], n), n)
    assert kernel == reference_kernel(mat, n)
    assert len(kernel) == n - rational_rank(mat)
    for v in kernel:
        assert all(sum(r * x for r, x in zip(row, v)) == 0 for row in mat)


def test_find_pair_on_hyperbolic_block():
    sub = orthogonal_complement(H, [])
    pair = find_hyperbolic_pair(sub, 1)
    assert pair.e1.coords == (1, 0) and pair.e2.coords == (0, 1)


def test_find_pair_none_on_odd_diagonal():
    # oracle: exhaustive double loop at radius 5.  e.f is even for any two
    # isotropic vectors of diag(1,-1) since isotropy forces |a| == |b|.
    sub = orthogonal_complement(DIAG11, [])
    assert find_hyperbolic_pair(sub, 5) is None
    box = range(-5, 6)
    for e in product(box, repeat=2):
        if e == (0, 0) or e[0] ** 2 != e[1] ** 2:
            continue
        for f in product(box, repeat=2):
            if f[0] ** 2 != f[1] ** 2:
                continue
            assert e[0] * f[0] - e[1] * f[1] != 1


def test_find_pair_k3_first_block():
    sub = orthogonal_complement(K3FORM, [])
    pair = find_hyperbolic_pair(sub, 1)
    assert pair.e1.coords == tuple(CohClass.unit(22, 0).coords)
    assert pair.e2.coords == tuple(CohClass.unit(22, 1).coords)


def test_find_pair_search_without_literal_block():
    # basis (1,1),(0,1) of H hides the hyperbolic block: restricted gram
    # [[2,1],[1,0]] has no zero-diagonal pair, so the search must run
    sub = Sublattice(H, (CohClass((1, 1)), CohClass((0, 1))))
    assert sub.restricted_gram == ((2, 1), (1, 0))
    pair = find_hyperbolic_pair(sub, 2)
    # lexicographically first witness, computed by hand
    assert pair.e1.coords == (-1, 0)
    assert pair.e2.coords == (0, -1)
    assert square(H, pair.e1) == 0
    assert square(H, pair.e2) == 0
    assert pairing(H, pair.e1, pair.e2) == 1


def test_find_pair_skips_e_with_non_primitive_covector(monkeypatch):
    # every pairing of diag(2,-2,2,-2,2,-2) is even, so no e.f is 1
    lat = IntegralLattice.from_blocks([DiagonalBlock((2, -2) * 3)])
    assert find_hyperbolic_pair(orthogonal_complement(lat, []), 2) is None
    # diag(1,1,1,-4) has 2x2 minors with gcd 1, so the box is walked; an
    # isotropic e has a^2 + b^2 + c^2 = 4d^2, so a, b and c are even, G.e is
    # not primitive and the e-loop skips each e at once, instead of scanning
    # the box for an f: the one scan of the box is the e-scan
    lat = IntegralLattice.from_blocks([DiagonalBlock((1, 1, 1, -4))])
    assert _minor_gcd(dense_block_gram(lat.blocks)) == 1
    scans = []
    monkeypatch.setattr(lattice, "copy", lambda it: scans.append(it) or copy(it))
    assert find_hyperbolic_pair(orthogonal_complement(lat, []), 3) is None
    assert len(scans) == 1


def test_find_pair_proves_absence_without_walking_the_box(monkeypatch):
    def no_walk(gram, radius):
        raise AssertionError("the box was walked")

    monkeypatch.setattr(lattice, "_isotropic_vectors", no_walk)
    # every pairing even: the 2x2 minors have gcd 4, which does not divide -1
    even = IntegralLattice.from_blocks([DiagonalBlock((2, -2) * 3)])
    assert find_hyperbolic_pair(orthogonal_complement(even, []), 3) is None
    # <1> + 3(<2> + <-2>) and <1> + 4(<2> + <-2>): pairings with gcd 1, but
    # minors with gcd 2; the radius-3 box of the rank-9 form holds 7^9 vectors
    for copies in (3, 4):
        odd = IntegralLattice.from_blocks([DiagonalBlock((1,) + (2, -2) * copies)])
        assert find_hyperbolic_pair(orthogonal_complement(odd, []), 3) is None
    # rank 2, det -1 but odd: not H
    assert find_hyperbolic_pair(orthogonal_complement(DIAG11, []), 3) is None
    # rank 2 with gcd 1, even, indefinite, det -5: the one minor is -5
    sub = Sublattice(IntegralLattice.from_blocks([HyperbolicBlock()] * 2),
                     (CohClass((1, 1, 0, 0)), CohClass((1, 2, 1, -1))))
    assert sub.restricted_gram == ((2, 3), (3, 2))
    assert find_hyperbolic_pair(sub, 3) is None
    # rank 1 and rank 0: no minor, and the gcd of nothing is 0
    assert find_hyperbolic_pair(orthogonal_complement(H, [CohClass((1, 0))]), 3) is None
    assert find_hyperbolic_pair(orthogonal_complement(H, [CohClass((1, 0)), CohClass((0, 1))]), 3) is None
    # [[2,1],[1,0]] is H without a literal block: no proof applies, so it walks
    walks = Sublattice(H, (CohClass((1, 1)), CohClass((0, 1))))
    with pytest.raises(AssertionError, match="the box was walked"):
        find_hyperbolic_pair(walks, 3)
    monkeypatch.undo()
    pair = find_hyperbolic_pair(walks, 3)
    assert square(H, pair.e1) == square(H, pair.e2) == 0 and pairing(H, pair.e1, pair.e2) == 1


def test_literal_block_hit_leaves_the_dense_gram_unbuilt(catalog):
    m = catalog["E4"]
    sub = orthogonal_complement(m.form, basic_class_set(m))
    pair = find_hyperbolic_pair(sub, 3)
    assert pair == HyperbolicPair(CohClass.unit(46, 2), CohClass.unit(46, 3))
    assert "restricted_gram" not in sub.__dict__


def test_e40_literal_pair_reads_three_covectors(monkeypatch):
    # rank 478: the block scan builds G.b_i only for the classes it reaches
    # (the pair sits at basis indices 1 and 2), not one per basis class.
    # b_0 is isotropic and pairs to zero with the whole basis, so a scan
    # of every j > 0 would read 476 pairings before reaching i = 1; the
    # scan reads only the touched rows and the unit classes that G.b_i reaches
    m = parse_manifest(json.dumps(_elliptic(40))).to_manifold()
    sub = orthogonal_complement(m.form, basic_class_set(m))
    assert len(sub.basis) == 477
    assert all(sub.entry(0, j) == 0 for j in range(477))
    # a fresh complement: its basis classes keep no covector yet
    sub = orthogonal_complement(m.form, basic_class_set(m))
    builds, dots = [], []
    apply, paired = lattice._gram_apply, lattice.dot

    def build(form, c):
        builds.append((c, apply(form, c)))
        return builds[-1][1]

    monkeypatch.setattr(lattice, "_gram_apply", build)
    monkeypatch.setattr(lattice, "dot", lambda *args: dots.append(args) or paired(*args))
    pair = find_hyperbolic_pair(sub, 3)
    monkeypatch.undo()
    assert pair == HyperbolicPair(sub.basis[1], sub.basis[2])
    assert 0 < len(builds) <= 3
    assert len(dots) <= 8
    assert "restricted_gram" not in sub.__dict__
    for c, gb in builds:
        assert any(c is b for b in sub.basis)
        assert covector(m.form, c) is gb


def test_find_pair_rejects_definite_forms_fast():
    neg = IntegralLattice.from_blocks([E8Block(-1), E8Block(-1)])
    sub = orthogonal_complement(neg, [])
    assert find_hyperbolic_pair(sub, 3) is None


def test_find_pair_radius_validation():
    sub = orthogonal_complement(H, [])
    with pytest.raises(ValueError):
        find_hyperbolic_pair(sub, 0)


def test_pair_invariants_whenever_found():
    rng = random.Random(11)
    lat = IntegralLattice.from_blocks([HyperbolicBlock(), HyperbolicBlock()])
    for _ in range(10):
        classes = [CohClass(tuple(rng.randint(-2, 2) for _ in range(4)))]
        sub = orthogonal_complement(lat, classes)
        pair = find_hyperbolic_pair(sub, 2)
        if pair is not None:
            assert square(lat, pair.e1) == 0
            assert square(lat, pair.e2) == 0
            assert pairing(lat, pair.e1, pair.e2) == 1


def test_find_pair_rank10_without_walking_the_box(fixtures_dir):
    # diag(1^5, (-1)^5) with basic classes +-(3,3,3,1,...,1): the complement
    # has rank 9 and no literal H block, and the box at radius 3 holds 7^9
    # candidates; the first hit comes long before the end of it.
    text = (fixtures_dir / "search_rank10.json").read_text()
    m = parse_manifest(text).to_manifold()
    assert validate(m).passed
    classes = basic_class_set(m)
    pair = find_hyperbolic_pair(orthogonal_complement(m.form, classes), 3)
    assert pair is not None
    assert square(m.form, pair.e1) == square(m.form, pair.e2) == 0
    assert pairing(m.form, pair.e1, pair.e2) == 1
    for k in classes:
        assert pairing(m.form, pair.e1, k) == pairing(m.form, pair.e2, k) == 0


@st.composite
def small_symmetric_grams(draw):
    """Symmetric integer k x k matrices, k <= 4, entries in [-3, 3]."""
    k = draw(st.integers(1, 4))
    g = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            g[i][j] = g[j][i] = draw(st.integers(-3, 3))
    return g


@settings(max_examples=150, deadline=None)
@given(small_symmetric_grams(), st.integers(1, 2))
def test_isotropic_vectors_walk_the_box_with_their_covectors(g, radius):
    # the odometer against the box in product order, each G.v a dense product;
    # the yielded pairs are compared as they stand, so a covector changed by a
    # later step would show
    k = len(g)
    expected = []
    for v in product(range(-radius, radius + 1), repeat=k):
        cov = [sum(g[i][j] * v[j] for j in range(k)) for i in range(k)]
        if any(v) and sum(x * y for x, y in zip(v, cov)) == 0:
            expected.append((v, cov))
    event("isotropic vectors" if expected else "no isotropic vector")
    assert list(_isotropic_vectors(g, radius)) == expected


def reference_pair_search(g, radius):
    """The box search written out in full: every isotropic vector of the box
    in product order, v.G.v from the dense restricted Gram g, then the first
    (e, f) hit.  The literal-block shortcut is left to the caller; definite
    forms need no special case, having no isotropic vector."""
    k = len(g)
    isotropic = [
        v for v in product(range(-radius, radius + 1), repeat=k)
        if any(v) and sum(v[i] * g[i][j] * v[j] for i in range(k) for j in range(k)) == 0
    ]
    for e in isotropic:
        cov = [sum(g[i][j] * e[j] for j in range(k)) for i in range(k)]
        if gcd(*e) != 1 or not any(cov):
            continue
        for f in isotropic:
            if sum(c * x for c, x in zip(cov, f)) == 1:
                return e, f
    return None


def first_literal_block(g):
    """The first (i, j), i < j, in row order of the dense Gram g with
    g[i][i] = g[j][j] = 0 and |g[i][j]| = 1, or None."""
    return next(((i, j) for i in range(len(g)) for j in range(i + 1, len(g))
                 if g[i][i] == 0 and g[j][j] == 0 and abs(g[i][j]) == 1), None)


@settings(max_examples=150, deadline=None)
@given(small_symmetric_grams().filter(lambda g: len(g) >= 2), st.integers(1, 2))
def test_minor_gcd_never_proves_absence_where_the_box_finds_a_pair(g, radius):
    # the running gcd stops early only at 1, so it is the gcd of all the
    # 2x2 minors; and a pair (e, f) gives P G P^T = H, so by Cauchy-Binet
    # that gcd divides det H = -1
    k = len(g)
    pairs = list(combinations(range(k), 2))
    minors = [g[i][s] * g[j][t] - g[i][t] * g[j][s] for i, j in pairs for s, t in pairs]
    assert _minor_gcd(g) == gcd(*minors)
    hit = reference_pair_search(g, radius)
    event("box search: " + ("exhausted" if hit is None else "found"))
    if hit is not None:
        assert _minor_gcd(g) == 1


def is_indefinite(blocks):
    g = dense_block_gram(blocks)
    signs = {(g[i][i] > 0) - (g[i][i] < 0) for i in range(len(g))}
    return any(isinstance(b, HyperbolicBlock) for b in blocks) or signs == {1, -1}


# Entries +-1 weigh double so that more of the complements hold a pair.
small_indefinite_blocks = st.lists(
    st.one_of(
        st.just(HyperbolicBlock()),
        st.lists(st.sampled_from([1, -1, 1, -1, 2, -2]), min_size=1, max_size=3).map(
            lambda e: DiagonalBlock(tuple(e))),
    ),
    min_size=2, max_size=4,
).filter(lambda bs: sum(b.rank for b in bs) <= 6 and is_indefinite(bs))


@settings(max_examples=100, deadline=None)
@given(small_indefinite_blocks, st.integers(0, 2), st.integers(1, 2), st.data())
def test_find_pair_matches_the_full_box_reference(blocks, n_classes, radius, data):
    lat = IntegralLattice.from_blocks(blocks)
    coords = st.lists(st.integers(-2, 2), min_size=lat.rank, max_size=lat.rank)
    classes = [CohClass(tuple(data.draw(coords))) for _ in range(n_classes)]
    sub = orthogonal_complement(lat, classes)
    pair = find_hyperbolic_pair(sub, radius)
    g = sub.restricted_gram
    literal = first_literal_block(g)
    if literal is not None:
        event("literal hyperbolic block")
        i, j = literal
        assert pair == HyperbolicPair(sub.basis[i], g[i][j] * sub.basis[j])
        return
    hit = reference_pair_search(g, radius)
    event("box search: " + ("exhausted" if hit is None else "found"))
    if hit is None:
        assert pair is None
        return

    def to_ambient(v):
        return sum((c * b for c, b in zip(v, sub.basis)), CohClass.zero(lat.rank))

    assert pair == HyperbolicPair(*map(to_ambient, hit))


def test_find_pair_starts_every_f_scan_at_the_first_vector():
    # at radius 2 the first isotropic e of this box whose covector is
    # primitive, (-2, -1, 0), has no partner f, and a later e has one: an
    # f-scan that went on from where the last one stopped would find nothing
    lat = IntegralLattice.from_blocks([DiagonalBlock((1, 1, 2, -1))])
    sub = Sublattice(lat, (CohClass((0, 0, -1, 1)), CohClass((1, 0, 0, 1)),
                           CohClass((0, -1, -1, 0))))
    g = sub.restricted_gram
    assert first_literal_block(g) is None
    first, cov = next((e, cov) for e, cov in _isotropic_vectors(g, 2) if gcd(*cov) == 1)
    assert first == (-2, -1, 0)
    assert not any(sum(c * x for c, x in zip(cov, f)) == 1 for f, _ in _isotropic_vectors(g, 2))
    assert reference_pair_search(g, 2) == ((-1, 0, 1), (0, 1, 0))
    assert find_hyperbolic_pair(sub, 2) == HyperbolicPair(
        -1 * sub.basis[0] + sub.basis[2], sub.basis[1])


@settings(max_examples=300, deadline=None)
@given(st.booleans(), st.data())
def test_literal_pair_is_the_first_block_of_the_dense_gram(complement, data):
    # The basis is either any list of classes, so several isotropic b_j can
    # pair to +-1 with one b_i and the order of the scan shows, or the
    # complement of 0-3 classes in a form that may be degenerate, its basis
    # classes built on read and its scan reading unit classes by arithmetic.
    # The complement's basis is the reference kernel, row for row, and the
    # scan finds on it what it finds on the same classes given as a tuple.
    if complement:
        lat = IntegralLattice.from_blocks(data.draw(block_lists.filter(
            lambda bs: sum(b.rank for b in bs) <= 12)))
        coords = st.lists(st.integers(-2, 2), min_size=lat.rank, max_size=lat.rank)
        classes = [CohClass(tuple(c)) for c in data.draw(st.lists(coords, max_size=3))]
        sub = orthogonal_complement(lat, classes)
        found = _literal_pair(sub)
        gram = dense_block_gram(lat.blocks)
        rows = [[sum(g * x for g, x in zip(row, k.coords)) for row in gram] for k in classes]
        assert [list(b.coords) for b in sub.basis] == reference_kernel(rows, lat.rank)
        assert all(b is sub.basis[i] for i, b in enumerate(sub.basis))
        basis = tuple(sub.basis)
        assert found == _literal_pair(Sublattice(lat, basis))
        event(f"complement of {len(classes)} classes")
    else:
        lat = IntegralLattice.from_blocks(data.draw(small_indefinite_blocks))
        coords = st.lists(st.sampled_from([0, 0, 0, 1, -1]), min_size=lat.rank, max_size=lat.rank)
        basis = tuple(CohClass(tuple(c)) for c in data.draw(st.lists(coords, min_size=1, max_size=6)))
    g = Sublattice(lat, basis).restricted_gram
    hit = first_literal_block(g)
    event("literal hyperbolic block" if hit else "no literal block")
    expected = None if hit is None else HyperbolicPair(basis[hit[0]], g[hit[0]][hit[1]] * basis[hit[1]])
    assert _literal_pair(Sublattice(lat, basis)) == expected


def test_literal_pair_takes_the_first_partner_j():
    # On H + H (coordinates e1, f1, e2, f2) the basis e1, f1, f1 + e2 is
    # isotropic and b0 pairs to 1 with both b1 and b2: the scan in ascending
    # j returns (b0, b1), where a descending one would return (b0, b2).
    e1, f1, f1_e2 = CohClass((1, 0, 0, 0)), CohClass((0, 1, 0, 0)), CohClass((0, 1, 1, 0))
    sub = Sublattice(IntegralLattice.from_blocks([HyperbolicBlock()] * 2), (e1, f1, f1_e2))
    assert [sub.entry(i, j) for i, j in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2))] == [0, 0, 0, 1, 1]
    assert _literal_pair(sub) == HyperbolicPair(e1, f1)


K3_PAIR = HyperbolicPair(CohClass((1, 0)), CohClass((0, 1)))


def test_abundance_classes_k3():
    ac = construct_abundance_classes(K3_PAIR, 24, -16)
    assert square(H, ac.lambda0) == -8
    assert square(H, ac.lambda1) == -4
    assert (ac.lambda0 - ac.lambda1).is_even()
    # h = 2 is even: the all-even class is 2*e1 - 2*e2 with square -8
    assert ac.lambda_even.coords == (2, -2)
    assert square(H, ac.lambda_even) == -8


def test_abundance_classes_zero():
    ac = construct_abundance_classes(K3_PAIR, 0, 0)
    assert square(H, ac.lambda0) == 0
    assert square(H, ac.lambda1) == 4
    assert ac.lambda_even.coords == (2, 0)


def test_abundance_classes_e4():
    ac = construct_abundance_classes(K3_PAIR, 48, -32)
    assert square(H, ac.lambda0) == -16
    assert square(H, ac.lambda1) == -12
    assert ac.lambda_even.coords == (2, -4)
    assert square(H, ac.lambda_even) == -16


def test_abundance_classes_parity_error():
    with pytest.raises(ParityError):
        construct_abundance_classes(K3_PAIR, 25, -16)


def test_abundance_classes_random_property():
    rng = random.Random(3)
    sub = orthogonal_complement(K3FORM, [])
    pair = find_hyperbolic_pair(sub, 1)
    for _ in range(200):
        chi = rng.randint(-200, 200)
        sigma = rng.randint(-200, 200)
        sigma -= (chi + sigma) % 4
        ac = construct_abundance_classes(pair, chi, sigma)
        cs = chi + sigma
        assert square(K3FORM, ac.lambda0) == -cs
        assert square(K3FORM, ac.lambda1) == -cs + 4
        assert (ac.lambda0 - ac.lambda1).is_even()
        assert ac.lambda_even.is_even()
        if (-cs) % 8 == 0:
            assert square(K3FORM, ac.lambda_even) == -cs
        else:
            assert (-cs) % 8 == 4
            assert square(K3FORM, ac.lambda_even) == -cs + 4


def test_complement_basis_classes_are_one_object_across_threads():
    # a complement builds basis class i on first read, and the covector memo
    # on it needs every read to return that one object.  Four threads over
    # two cores, switching every microsecond, read every class of fresh
    # complements, each starting at its own offset, so they race to build.
    m = parse_manifest(json.dumps(_elliptic(40))).to_manifold()
    classes = basic_class_set(m)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            sub = orthogonal_complement(m.form, classes)
            k = len(sub.basis)
            start = threading.Barrier(4)
            reads = [{} for _ in range(4)]

            def read_all(out, shift):
                start.wait()
                for i in range(k):
                    j = (i + shift) % k
                    out[j] = sub.basis[j]

            threads = [threading.Thread(target=read_all, args=(out, 7 * n))
                       for n, out in enumerate(reads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert all(r[j] is reads[0][j] for r in reads for j in range(k))
    finally:
        sys.setswitchinterval(interval)


def test_covector_memo_is_per_lattice():
    # one class paired in two lattices of one rank gets each lattice's own
    # G.c, in any order and from any thread; an equal lattice object builds
    # anew.  Four threads over two cores, switching every microsecond,
    # replace the memo under each other's reads.
    a = IntegralLattice.from_blocks([HyperbolicBlock(), DiagonalBlock((1, -1))])
    b = IntegralLattice.from_blocks([DiagonalBlock((1, 2, 3, -1))])
    c = CohClass((1, 2, 0, -1))
    want = {id(a): {0: 2, 1: 1, 3: 1}, id(b): {0: 1, 1: 4, 3: 1}}
    for lat in (a, b, a, a, b):
        assert covector(lat, c) == want[id(lat)]
        assert covector(lat, c) is covector(lat, c)
    twin = IntegralLattice(a.blocks)
    assert covector(twin, c) == want[id(a)] and c.__dict__["_covector"][0] is twin
    wrong = []

    def pair_often(lat):
        for _ in range(2000):
            if covector(lat, c) != want[id(lat)]:
                wrong.append(lat)

    threads = [threading.Thread(target=pair_often, args=(lat,)) for lat in (a, b, a, b)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not wrong
