"""Exact integer lattice arithmetic for intersection forms.

Everything here runs over plain Python integers (arbitrary precision) or
exact rationals; no floating point.  A lattice is a list of standard
blocks: the rank-two hyperbolic block, the E8 form with a sign, and
diagonal blocks.  The block list is the source of truth: the form acts
only through Gram columns, each read off the block holding it, walked over
the support of a class.  A class likewise is its rank and support (its
nonzero coordinates); the only dense views are `restricted_gram` and `coords`.
An orthogonal complement costs its constraints' support, not the rank: its
sparse xgcd kernel touches only that, and its basis classes are built on read.
"""

from bisect import bisect_right
from collections.abc import Sequence
from copy import copy
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, combinations, compress, tee
from math import gcd, prod

from .errors import DimensionMismatch, ParityError, PreconditionError
from .record import record

# E8 Cartan matrix: chain 0-1-2-3-4-5-6 with node 7 attached to node 4
# (arm lengths 4, 2, 1 from the trivalent node).  Even, determinant 1.
E8_GRAM = (
    (2, -1, 0, 0, 0, 0, 0, 0),
    (-1, 2, -1, 0, 0, 0, 0, 0),
    (0, -1, 2, -1, 0, 0, 0, 0),
    (0, 0, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, -1),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, 0),
    (0, 0, 0, 0, -1, 0, 0, 2),
)

# The columns of E8_GRAM as nonzero (s, g) pairs.
_E8_COLUMNS = tuple(tuple((s, g) for s, g in enumerate(row) if g) for row in E8_GRAM)


@record
class HyperbolicBlock:
    """The rank-two block [[0,1],[1,0]]."""

    rank = 2
    determinant = -1

    def column(self, i: int):  # column i of the block Gram as its nonzero (s, g)
        return ((1 - i, 1),)


@record
class E8Block:
    sign: int = -1
    rank = 8
    determinant = 1  # the E8 Cartan matrix has determinant 1, and (-1)^8 = 1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"E8 sign must be +1 or -1, got {self.sign}")

    def column(self, i: int):
        return tuple((s, self.sign * g) for s, g in _E8_COLUMNS[i])


@record
class DiagonalBlock:
    """The diagonal form with the given entries, a tuple of ints."""

    entries: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.entries)

    @property
    def determinant(self) -> int:
        return prod(self.entries)

    def column(self, i: int):
        return ((i, self.entries[i]),) if self.entries[i] else ()


Block = HyperbolicBlock | E8Block | DiagonalBlock


@record
class CohClass:
    """An integral cohomology class: its rank and its support, the nonzero
    coordinates in the fixed basis as (t, x) pairs sorted by t.  Equality,
    hashing, arithmetic, the parity and zero tests and the pairing read
    these two fields; the dense coordinates are a derived view."""

    rank: int
    support: tuple[tuple[int, int], ...]

    def __init__(self, coords):
        """The class with the given dense coordinates, scanned once."""
        object.__setattr__(self, "rank", len(coords))
        object.__setattr__(self, "support", tuple(zip(compress(range(len(coords)), coords),
                                                      compress(coords, coords))))

    @staticmethod
    def _of(rank: int, support: tuple) -> "CohClass":
        """The class with the given support, already sorted by t and nonzero."""
        c = object.__new__(CohClass)
        c.__dict__.update(rank=rank, support=support)
        return c

    @staticmethod
    def from_support(rank: int, support) -> "CohClass":
        """The class with the given (t, x) pairs, t distinct and below rank."""
        return CohClass._of(rank, tuple(sorted((t, x) for t, x in support if x)))

    @cached_property
    def coords(self) -> tuple[int, ...]:
        """The dense coordinate tuple, built on first use."""
        out = [0] * self.rank
        for t, x in self.support:
            out[t] = x
        return tuple(out)

    def _plus(self, other: "CohClass", sign: int) -> "CohClass":
        if self.rank != other.rank:
            raise DimensionMismatch("cannot add classes of different rank")
        out = dict(self.support)
        for t, x in other.support:
            out[t] = out.get(t, 0) + sign * x
        return CohClass.from_support(self.rank, out.items())

    def __add__(self, other: "CohClass") -> "CohClass":
        return self._plus(other, 1)

    def __sub__(self, other: "CohClass") -> "CohClass":
        return self._plus(other, -1)

    def __neg__(self) -> "CohClass":
        return self * -1

    def __mul__(self, scalar: int) -> "CohClass":
        return CohClass.from_support(self.rank, ((t, scalar * x) for t, x in self.support))

    __rmul__ = __mul__

    def is_even(self) -> bool:
        return all(x % 2 == 0 for _, x in self.support)

    def is_zero(self) -> bool:
        return not self.support

    @staticmethod
    def zero(rank: int) -> "CohClass":
        return CohClass.from_support(rank, ())

    @staticmethod
    def unit(rank: int, index: int) -> "CohClass":
        if not 0 <= index < rank:
            raise DimensionMismatch(f"unit index {index} is outside [0, {rank})")
        return CohClass._of(rank, ((index, 1),))


@record
class IntegralLattice:
    """A lattice with a fixed basis; its block list is the source of truth."""

    blocks: tuple[Block, ...]

    @staticmethod
    def from_blocks(blocks) -> "IntegralLattice":
        return IntegralLattice(tuple(blocks))

    @cached_property
    def _starts(self) -> tuple[int, ...]:  # each block's offset, then the rank
        return tuple(accumulate((b.rank for b in self.blocks), initial=0))

    @cached_property
    def rank(self) -> int:
        return self._starts[-1]

    @cached_property
    def _columns(self) -> dict:
        return {}

    def column(self, t: int) -> tuple[tuple[int, int], ...]:
        """Column t of the Gram as its nonzero (s, G_st): the column of the
        block holding t, shifted by its offset and kept per t."""
        col = self._columns.get(t)
        if col is None:
            k = bisect_right(self._starts, t) - 1
            start = self._starts[k]
            col = self._columns.setdefault(
                t, tuple((start + s, g) for s, g in self.blocks[k].column(t - start)))
        return col

    @cached_property
    def odd_diagonal(self) -> frozenset[int]:
        return frozenset(start + i for start, b in zip(self._starts, self.blocks)
                         for i in _block_diagonal(b)[1])


def _block_diagonal(block) -> tuple[int, tuple[int, ...]]:
    """(signature, odd positions) of a block, read off its columns once and
    kept on the block, as covector keeps G.c on a class; the signature is
    the signed count of the diagonal entries.  parse_manifest gives every
    form one shared H block and one E8 block per sign, so each is read once."""
    facts = block.__dict__.get("_diagonal")
    if facts is None:
        diagonal = [dict(block.column(i)).get(i, 0) for i in range(block.rank)]
        facts = (sum((d > 0) - (d < 0) for d in diagonal),
                 tuple(i for i, d in enumerate(diagonal) if d & 1))
        block.__dict__["_diagonal"] = facts
    return facts


def covector(lattice: IntegralLattice, c: CohClass) -> dict:
    """G.c as {s: (G.c)_s} for a class c.  It is kept on c as (lattice, G.c)
    and read back in one tuple load for the same lattice object, so threads
    never mix two lattices' values; readers must not mutate it."""
    if c.rank != lattice.rank:
        raise DimensionMismatch(f"vector length {c.rank} does not match lattice rank {lattice.rank}")
    memo = c.__dict__.get("_covector")
    if memo is not None and memo[0] is lattice:
        return memo[1]
    gc = _gram_apply(lattice, c)
    c.__dict__["_covector"] = lattice, gc
    return gc


def _gram_apply(lattice: IntegralLattice, c) -> dict:
    """G.c built from the Gram columns, walked over c's support."""
    out: dict = {}
    column = lattice.column
    for t, x in c.support:
        for s, g in column(t):
            out[s] = out.get(s, 0) + g * x
    return {s: y for s, y in out.items() if y}


def block_signature(lattice: IntegralLattice) -> int:
    """Signature of the form: the sum of the block signatures."""
    return sum(_block_diagonal(b)[0] for b in lattice.blocks)


def block_determinant(lattice: IntegralLattice) -> int:
    """Determinant of the form: the product of the block determinants."""
    return prod(b.determinant for b in lattice.blocks)


def dot(ga: dict, b) -> int:
    """The pairing a.b from ga = covector(lattice, a): ga read over b's
    support, so a caller that pairs one class with many looks ga up once."""
    return sum(ga.get(t, 0) * x for t, x in b.support)


def pairing(lattice: IntegralLattice, a: CohClass, b: CohClass) -> int:
    """The intersection pairing a.b of two classes: G.a read over b's support."""
    if a.rank != b.rank:
        raise DimensionMismatch(f"cannot pair vectors of lengths {a.rank} and {b.rank}")
    return dot(covector(lattice, a), b)


def square(lattice: IntegralLattice, a: CohClass) -> int:
    return pairing(lattice, a, a)


def characteristic_vector(lattice: IntegralLattice) -> CohClass:
    """A class c with c.x = x.x (mod 2) for every basis vector x: the
    diagonal mod 2, zero on H and +-E8.  It solves the mod-2 system with
    the free variables zero; the system is always solvable, since x -> x.x
    is linear mod 2 and vanishes on the radical."""
    return CohClass.from_support(lattice.rank, ((i, 1) for i in lattice.odd_diagonal))


def is_characteristic(lattice: IntegralLattice, c: CohClass) -> bool:
    """True iff c.x = x.x (mod 2) for every basis vector x: the odd entries
    of G.c are those of the diagonal."""
    return {s for s, y in covector(lattice, c).items() if y & 1} == lattice.odd_diagonal


def _xgcd(a: int, b: int):
    """Extended gcd: returns (x, y, g) with x*a + y*b == g."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    return x, y, g


def integer_kernel(rows, n: int):
    """A saturated basis for {x in Z^n : r.x == 0 for every r in rows}.

    Each row is a sparse {j: x} dict of nonzero entries, j < n.  The rows,
    read as columns, are row-echelonised by xgcd steps, tracking only the
    unimodular transform u; its rows r..n-1, r the rank, span the kernel
    (saturated, as for any integer map).  a and u are dicts over the rows'
    support and the r swap targets, the only rows the steps touch; any other
    row p of u is {p: 1}.  Returns r and u's touched rows p >= r, {p: {j: x}}.
    """
    a = {}
    for c, r in enumerate(rows):
        for j, x in r.items():
            a.setdefault(j, {})[c] = x
    u = {j: {j: 1} for j in a}
    row = 0
    for col in range(len(rows)):
        hits = sorted(i for i, v in a.items() if i >= row and col in v)
        if not hits:
            continue
        for t, blank in ((a, {}), (u, {row: 1})):
            t[row], t[hits[0]] = t[hits[0]], t.get(row, blank)
        for i in hits[1:]:
            p, q = a[row][col], a[i][col]
            x, y, g = _xgcd(p, q)
            pg, qg = p // g, q // g
            for t in (a, u):
                r, s = t[row], t[i]
                keys = r.keys() | s.keys()
                t[row] = {j: z for j in keys if (z := x * r.get(j, 0) + y * s.get(j, 0))}
                t[i] = {j: z for j in keys if (z := pg * s.get(j, 0) - qg * r.get(j, 0))}
        row += 1
    return row, {p: v for p, v in u.items() if p >= row}


class _Kernel(Sequence):
    """Rows start..rank-1 of an integer_kernel transform as classes: rows
    holds the touched rows as {j: x}, any other row p is the unit class at
    p.  Class i is built on first read and is that object on every later
    read, as the covector memo needs (setdefault keeps one under races)."""

    def __init__(self, rank: int, start: int, rows: dict):
        self.rank, self.start, self.rows, self._built = rank, start, rows, {}

    def __len__(self) -> int:
        return self.rank - self.start

    def __getitem__(self, i: int) -> CohClass:
        c = self._built.get(i)
        if c is None:
            p = self.start + range(len(self))[i]
            row = self.rows.get(p)
            c = self._built.setdefault(p - self.start, CohClass.unit(self.rank, p) if row is None
                                       else CohClass._of(self.rank, tuple(sorted(row.items()))))
        return c


@record
class Sublattice:
    """A saturated sublattice, its basis (a tuple, or a complement's _Kernel)
    in ambient coordinates.  Pairings are read lazily by entry(i, j);
    restricted_gram is the dense view."""

    ambient: IntegralLattice
    basis: Sequence[CohClass]

    def entry(self, i: int, j: int) -> int:
        """The pairing b_i . b_j."""
        return pairing(self.ambient, self.basis[i], self.basis[j])

    @cached_property
    def restricted_gram(self) -> tuple[tuple[int, ...], ...]:
        k = len(self.basis)
        return tuple(tuple(self.entry(i, j) for j in range(k)) for i in range(k))


def orthogonal_complement(lattice: IntegralLattice, classes) -> Sublattice:
    """The saturated sublattice {x : x.s == 0 for all s in classes}, its
    basis a _Kernel: it costs the constraints' support, not the rank."""
    rows = [covector(lattice, s) for s in classes]
    return Sublattice(lattice, _Kernel(lattice.rank, *integer_kernel(rows, lattice.rank)))


@record
class HyperbolicPair:
    """Classes e1, e2 with e1.e1 = e2.e2 = 0 and e1.e2 = 1."""

    e1: CohClass
    e2: CohClass


def _definiteness(gram):
    """Exact sign of a symmetric matrix: 'positive', 'negative' or None.

    Symmetric Gaussian elimination over the rationals: a zero pivot, or one
    of the other sign than the first, means the form is not definite.
    """
    a = [[Fraction(x) for x in row] for row in gram]
    for k, row in enumerate(a):
        if row[k] == 0 or (row[k] > 0) != (a[0][0] > 0):
            return None
        for lower in a[k + 1:]:
            f = lower[k] / row[k]
            if f:
                for j in range(k, len(a)):
                    lower[j] -= f * row[j]
    return None if not a else "positive" if a[0][0] > 0 else "negative"


def _minor_gcd(gram) -> int:
    """The gcd of the 2x2 minors of the matrix, a running gcd that stops at 1.

    If the lattice holds a pair (e, f), P G P^T = H for the 2 x k matrix P
    of their coordinates, and Cauchy-Binet writes det H = -1 as an integer
    combination of 2x2 minors of G: their gcd divides 1.  With k < 2 there
    is no minor, and the gcd of nothing is 0.
    """
    k, d = len(gram), 0
    for i, j in combinations(range(k), 2):
        gi, gj = gram[i], gram[j]
        for s, t in combinations(range(k), 2):
            d = gcd(d, gi[s] * gj[t] - gi[t] * gj[s])
            if d == 1:
                return 1
    return d


def _isotropic_vectors(gram, radius: int):
    """(v, G.v) for the nonzero v in [-radius, radius]^k with v.G.v == 0,
    lexicographically.

    An odometer over the box, last coordinate fastest: moving coordinate t
    by d updates q = v.G.v by 2d(G.v)_t + d^2 G_tt and G.v by d times
    column t, so each step costs O(k) rather than a fresh O(k^2) form.
    Every step binds G.v to a new list, so a yielded one never changes.
    G must be symmetric.
    """
    k = len(gram)
    v = [-radius] * k
    gv = [-radius * sum(row) for row in gram]
    q = -radius * sum(gv)
    while True:
        if q == 0 and any(v):
            yield tuple(v), gv
        # Coordinates at +radius wrap to -radius and carry to the left;
        # the first one below +radius steps up by one.
        t = k
        while True:
            t -= 1
            if t < 0:
                return
            d = 1 if v[t] < radius else -2 * radius
            q += d * (2 * gv[t] + d * gram[t][t])
            v[t] += d
            gv = [x + d * c for x, c in zip(gv, gram[t])]
            if d == 1:
                break


def _literal_pair(sub: Sublattice) -> HyperbolicPair | None:
    """(b_i, x*b_j) for the first i < j, in lexicographic order, with
    b_i.b_i = b_j.b_j = 0 and x = b_i.b_j = +-1: a literal hyperbolic block
    of the restricted pairing, or None.

    The walk takes i upward and skips each i with b_i.b_i != 0.  For an
    isotropic i, b_i.b_j = 0 for every unit class b_j whose coordinate
    misses the keys of G.b_i, so the candidates j > i are every touched
    row and the unit class at each key, found by arithmetic (a tuple basis
    is read as all touched rows).  They are read in ascending order, and
    the first with |b_i.b_j| = 1 and b_j isotropic is returned.  Every
    skipped (i, j) fails the test, and so does a touched row that misses
    G.b_i, so this is the first hit of the scan over all isotropic (i, j)
    in lexicographic order.  Each square is computed once, and a class and
    its G.b_i are built only for the i the walk reaches, so on a complement
    the scan costs the constraints' support, not the rank.
    """
    basis = sub.basis
    start, rows = ((basis.start, basis.rows) if isinstance(basis, _Kernel)
                   else (0, range(len(basis))))
    squares = {}

    def isotropic(i):
        if i not in squares:
            squares[i] = sub.entry(i, i)
        return squares[i] == 0

    for i, b in enumerate(basis):
        if not isotropic(i):
            continue
        gb = covector(sub.ambient, b)
        near = {p - start for p in rows}
        near.update(s - start for s in gb if s not in rows and 0 <= s - start < len(basis))
        for j in sorted(j for j in near if j > i):
            x = dot(gb, basis[j])
            if abs(x) == 1 and isotropic(j):
                return HyperbolicPair(b, x * basis[j])
    return None


DEFAULT_RADIUS = 3  # the pair search's box radius when none is given


def find_hyperbolic_pair(sub: Sublattice, radius: int = DEFAULT_RADIUS) -> HyperbolicPair | None:
    """Search the sublattice for a hyperbolic pair, ambient coordinates.

    A literal hyperbolic block between two basis vectors is returned at
    once.  Otherwise it enumerates isotropic vectors e with basis
    coordinates in [-radius, radius] (lexicographic order, most negative
    first) and for each looks for an isotropic f with e.f = 1 in the same
    order; the first hit wins.  Definite forms are rejected without enumeration, and
    so is every sublattice that provably holds no pair: one whose 2x2
    restricted minors have a gcd other than 1 (by Cauchy-Binet it divides
    det H = -1; this covers rank below 2, a common factor of all pairings
    and a rank-2 determinant other than -1), or rank 2 with an odd diagonal
    entry (a rank-2 lattice holds a pair iff it is H; Milnor-Husemoller,
    ch. I).  The dense restricted Gram is built only for these and the box.

    The enumeration is lazy: isotropic vectors and their covectors G.v are
    generated in that order only as far as some scan has reached, and kept
    for the scans that follow.  An e whose covector G.e has gcd != 1 is
    skipped without an f-scan, since no f can reach e.f = 1; a
    non-primitive e is one of them.  The cost grows with the number of
    candidates scanned before the first hit; when no pair exists it is
    still the whole box, (2*radius+1)^k candidates.  Past the proofs of
    absence, None only means the bounded search was exhausted.
    """
    if radius < 1:
        raise PreconditionError("radius must be at least 1")
    pair = _literal_pair(sub)
    if pair is not None:
        return pair
    g = sub.restricted_gram
    if _minor_gcd(g) != 1 or _definiteness(g) is not None:
        return None
    if len(g) == 2 and (g[0][0] | g[1][1]) & 1:
        return None

    # origin stays at the first vector; each scan is a copy of it, and the
    # copies share what any of them has generated.
    origin, = tee(_isotropic_vectors(g, radius), 1)

    def to_ambient(v):
        return sum((c * b for c, b in zip(v, sub.basis) if c), CohClass.zero(sub.ambient.rank))

    for e, cov in copy(origin):
        if gcd(*cov) != 1:
            continue
        for f, _ in copy(origin):
            if sum(c * x for c, x in zip(cov, f)) == 1:
                return HyperbolicPair(to_ambient(e), to_ambient(f))
    return None


@record
class AbundanceClasses:
    """The output of the abundance construction: lambda0 and lambda1 are
    congruent mod 2 with squares -(chi+sigma) and -(chi+sigma)+4;
    lambda_even, twice a class of the same sublattice, has the first square
    when -(chi+sigma) = 0 mod 8 and the second when it is 4."""

    lambda0: CohClass
    lambda1: CohClass
    lambda_even: CohClass


def construct_abundance_classes(pair: HyperbolicPair, chi: int, sigma: int) -> AbundanceClasses:
    """Build the standard classes on a hyperbolic pair inside B-perp.

    With h = (chi+sigma)/4:

        lambda0 = e1 - 2h*e2          (square -4h)
        lambda1 = e1 + (2-2h)*e2      (square -4h+4, lambda0 - lambda1 = -2*e2)
        lambda_even = 2*e1 - h*e2     if h is even (square -4h)
                      2*e1 + (1-h)*e2 if h is odd  (square -4h+4)
    """
    if (chi + sigma) % 4 != 0:
        raise ParityError(f"chi + sigma = {chi + sigma} is not divisible by 4")
    h = (chi + sigma) // 4
    e1, e2 = pair.e1, pair.e2
    return AbundanceClasses(e1 + (-2 * h) * e2, e1 + (2 - 2 * h) * e2,
                            2 * e1 + (1 - h if h % 2 else -h) * e2)
