"""Exact formal arithmetic for finite exponential sums and their jets.

An ExpSum is a finite sum  sum_i a_i * exp(<K_i, h>)  with exact rational
coefficients a_i and integral classes K_i.  The argument h is represented
by its Poincare dual, so both <K, h> and h.h are Gram-matrix pairings in
one coordinate system; rational coordinate vectors are allowed for h.

Jets are truncated Taylor expansions at h = 0.  Before expanding we pick
a basis of the span of the pairing covectors of the K_i, so a sum over a
rank-46 lattice with three terms expands in one or two variables.  The
chosen covectors are linearly independent as forms, hence a jet is
identically zero as a function exactly when all its coefficients vanish.
"""

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm

from .errors import DimensionMismatch, NonIntegralC, OddExponent
from .lattice import CohClass, IntegralLattice, apply, pairing, pairing_rational, square
from .manifold import FourManifold, characteristic_number


@dataclass(frozen=True)
class Direction:
    """A rational direction for h, given by Poincare-dual coordinates."""

    coords: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(Fraction(x) for x in self.coords))

    @staticmethod
    def of(values) -> "Direction":
        return Direction(tuple(Fraction(v) for v in values))


@dataclass(frozen=True)
class ExpSum:
    """Merged exponential sum; terms are sorted by class coordinates."""

    ambient: IntegralLattice
    terms: tuple[tuple[Fraction, CohClass], ...]

    @staticmethod
    def build(ambient: IntegralLattice, pairs) -> "ExpSum":
        merged: dict[tuple[int, ...], Fraction] = {}
        for coeff, k in pairs:
            if len(k.coords) != ambient.rank:
                raise DimensionMismatch("term class length does not match lattice rank")
            merged[k.coords] = merged.get(k.coords, Fraction(0)) + Fraction(coeff)
        terms = tuple(
            (merged[c], CohClass(c)) for c in sorted(merged) if merged[c] != 0
        )
        return ExpSum(ambient, terms)

    @staticmethod
    def constant(ambient: IntegralLattice, value) -> "ExpSum":
        return ExpSum.build(ambient, [(Fraction(value), CohClass.zero(ambient.rank))])

    @staticmethod
    def exponential(ambient: IntegralLattice, k: CohClass) -> "ExpSum":
        return ExpSum.build(ambient, [(Fraction(1), k)])

    def is_zero(self) -> bool:
        return not self.terms


class Parity(Enum):
    EVEN = "even"
    ODD = "odd"
    NEITHER = "neither"
    ZERO = "zero"


@dataclass(frozen=True)
class VanishingOrder:
    """Result of a bounded vanishing-order search."""

    kind: str  # "exact", "at_least" or "zero_series"
    value: int | None

    @staticmethod
    def exact(v: int) -> "VanishingOrder":
        return VanishingOrder("exact", v)

    @staticmethod
    def at_least(v: int) -> "VanishingOrder":
        return VanishingOrder("at_least", v)

    @staticmethod
    def zero_series() -> "VanishingOrder":
        return VanishingOrder("zero_series", None)

    def satisfies(self, bound) -> bool:
        """True when the order is provably >= bound."""
        if self.kind == "zero_series":
            return True
        return self.value >= bound


@dataclass(frozen=True)
class Jet:
    """A truncated polynomial in the variables x_j = <variables[j], h>."""

    ambient: IntegralLattice
    variables: tuple[CohClass, ...]
    coefficients: dict
    order: int

    def is_zero(self) -> bool:
        return not self.coefficients

    def min_total_degree(self) -> int | None:
        if not self.coefficients:
            return None
        return min(sum(alpha) for alpha in self.coefficients)

    def homogeneous_part(self, degree: int) -> "Jet":
        part = {a: c for a, c in self.coefficients.items() if sum(a) == degree}
        return Jet(self.ambient, self.variables, part, self.order)

    def scale(self, factor) -> "Jet":
        f = Fraction(factor)
        if f == 0:
            return Jet(self.ambient, self.variables, {}, self.order)
        return Jet(
            self.ambient,
            self.variables,
            {a: c * f for a, c in self.coefficients.items()},
            self.order,
        )

    def add(self, other: "Jet") -> "Jet":
        if self.variables != other.variables:
            raise ValueError("jets expanded over different variable bases")
        out = dict(self.coefficients)
        for a, c in other.coefficients.items():
            v = out.get(a, Fraction(0)) + c
            if v:
                out[a] = v
            else:
                out.pop(a, None)
        return Jet(self.ambient, self.variables, out, min(self.order, other.order))

    def mul(self, other: "Jet", order: int | None = None) -> "Jet":
        if self.variables != other.variables:
            raise ValueError("jets expanded over different variable bases")
        cap = min(self.order, other.order) if order is None else order
        out: dict[tuple[int, ...], Fraction] = {}
        for a, ca in self.coefficients.items():
            da = sum(a)
            for b, cb in other.coefficients.items():
                if da + sum(b) > cap:
                    continue
                key = tuple(x + y for x, y in zip(a, b))
                v = out.get(key, Fraction(0)) + ca * cb
                if v:
                    out[key] = v
                else:
                    out.pop(key, None)
        return Jet(self.ambient, self.variables, out, cap)

    def evaluate(self, direction: Direction) -> Fraction:
        xs = [
            pairing_rational(self.ambient, v.coords, direction.coords)
            for v in self.variables
        ]
        total = Fraction(0)
        for alpha, c in self.coefficients.items():
            term = c
            for x, e in zip(xs, alpha):
                term *= x**e
            total += term
        return total


def _span_reduce(lattice: IntegralLattice, span_classes, expand_classes):
    """Pick pivot classes with independent pairing covectors; express the rest.

    Returns (pivots, rows) where pivots is a tuple of classes drawn from
    span_classes in order of first appearance and rows[i] expresses the
    covector of expand_classes[i] as a rational combination of the pivot
    covectors.
    """
    n = lattice.rank
    echelon = []  # (normalized row, pivot col, expression over pivots)
    pivots = []

    def reduce(k):
        """Reduce the pairing covector of k against the echelon rows."""
        used = [Fraction(0)] * len(echelon)
        v = [Fraction(x) for x in apply(lattice, k.coords)]
        for t, (row, pc, _) in enumerate(echelon):
            f = v[pc]
            if f:
                used[t] = f
                for j in range(n):
                    if row[j]:
                        v[j] -= f * row[j]
        return v, used

    for k in span_classes:
        v, used = reduce(k)
        pc = next((j for j in range(n) if v[j] != 0), None)
        if pc is None:
            continue
        lead = v[pc]
        row = [x / lead for x in v]
        expr = [Fraction(0)] * (len(pivots) + 1)
        expr[len(pivots)] = Fraction(1) / lead
        for t, u in enumerate(used):
            if u:
                for s, c in enumerate(echelon[t][2]):
                    expr[s] -= u * c / lead
        echelon.append((row, pc, expr))
        pivots.append(k)

    rows = []
    for k in expand_classes:
        v, used = reduce(k)
        if any(x != 0 for x in v):
            raise ValueError("class lies outside the provided span")
        coords = [Fraction(0)] * len(pivots)
        for t, u in enumerate(used):
            if u:
                for s, c in enumerate(echelon[t][2]):
                    coords[s] += u * c
        rows.append(tuple(coords))
    return tuple(pivots), rows


def _integer_scaled(values) -> tuple[int, list[int]]:
    """(D, [D * x for x in values]) with D the least common denominator."""
    den = lcm(*(x.denominator for x in values))
    return den, [x.numerator * (den // x.denominator) for x in values]


def jet_expand(s: ExpSum, order: int, span=None) -> Jet:
    """Expand the sum through total degree <= order, exactly.

    The optional span argument lists extra classes to include when the
    variable basis is chosen, so that jets of related sums can share a
    coordinate system and be combined.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    classes = [k for _, k in s.terms]
    span_classes = list(span) if span is not None else classes
    pivots, rows = _span_reduce(s.ambient, span_classes, classes)
    width = len(pivots)
    coeffs: dict[tuple[int, ...], Fraction] = {}

    alpha = [0] * width
    for (a, _), row in zip(s.terms, rows):
        support = [(j, c) for j, c in enumerate(row) if c]

        def rec(idx, remaining, weight):
            if idx == len(support):
                key = tuple(alpha)
                v = coeffs.get(key, Fraction(0)) + a * weight
                if v:
                    coeffs[key] = v
                else:
                    coeffs.pop(key, None)
                return
            j, c = support[idx]
            power = Fraction(1)
            fact = 1
            for e in range(remaining + 1):
                if e:
                    power *= c
                    fact *= e
                alpha[j] = e
                rec(idx + 1, remaining - e, weight * power / fact)
            alpha[j] = 0

        rec(0, order, Fraction(1))
    return Jet(s.ambient, pivots, coeffs, order)


def twist(s: ExpSum, lam: CohClass, sign: int) -> ExpSum:
    """Multiply by exp(sign * <lam, h>): every term class shifts by sign*lam."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return ExpSum.build(
        s.ambient, [(a, k + sign * lam) for a, k in s.terms]
    )


def vanishing_order(s: ExpSum, cap: int) -> VanishingOrder:
    """Smallest total degree with a nonzero Taylor coefficient, up to cap.

    No jet is built: the degrees are walked upward and the walk stops at the
    first nonzero coefficient.  Over the span pivots the coefficient of
    x^alpha is sum_i a_i R_i^alpha / alpha!, with R_i the row of term i.
    Scaling the a_i by their common denominator A and the rows by theirs, D,
    turns it into the integer sum_i a'_i R'_i^alpha divided by the positive
    A * D^n * alpha!, so the zero test is exact on that integer sum.
    """
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    if s.is_zero():
        return VanishingOrder.zero_series()
    classes = [k for _, k in s.terms]
    pivots, rows = _span_reduce(s.ambient, classes, classes)
    width = len(pivots)
    _, coeffs = _integer_scaled([a for a, _ in s.terms])
    _, flat = _integer_scaled([x for row in rows for x in row])
    columns = [flat[j::width] for j in range(width)]  # columns[j][i] = R'_ij
    if not width:  # every class pairs trivially: only the constant term
        return VanishingOrder.exact(0) if sum(coeffs) else VanishingOrder.at_least(cap + 1)

    def nonzero(j, n, products):
        """Some degree-n monomial in the variables j.. has a nonzero sum."""
        if j == width - 1:
            return sum(p * c**n for p, c in zip(products, columns[j])) != 0
        for e in range(n + 1):
            if nonzero(j + 1, n - e, products):
                return True
            products = [p * c for p, c in zip(products, columns[j])]
        return False

    for n in range(cap + 1):
        if nonzero(0, n, coeffs):
            return VanishingOrder.exact(n)
    return VanishingOrder.at_least(cap + 1)


def parity(s: ExpSum) -> Parity:
    """Compare s(h) with s(-h) termwise."""
    if s.is_zero():
        return Parity.ZERO
    table = {k.coords: a for a, k in s.terms}
    even = all(table.get(tuple(-x for x in c)) == a for c, a in table.items())
    odd = all(table.get(tuple(-x for x in c)) == -a for c, a in table.items())
    if even:
        return Parity.EVEN
    if odd:
        return Parity.ODD
    return Parity.NEITHER


def sw_series(m: FourManifold, w: CohClass) -> ExpSum:
    """The signed exponential sum attached to the basic classes and w.

    Each class k contributes (-1)^((w.w + k.w)/2) * sw * exp(<k, h>).
    The exponent is an integer whenever k is characteristic; data that
    fails this raises OddExponent.
    """
    wsq = square(m.form, w)
    pairs = []
    for entry in m.basic_classes:
        e = wsq + pairing(m.form, entry.k, w)
        if e % 2:
            raise OddExponent(
                f"w.w + k.w = {e} is odd for k = {list(entry.k.coords)}"
            )
        sign = -1 if (e // 2) % 2 else 1
        pairs.append((Fraction(sign * entry.sw), entry.k))
    return ExpSum.build(m.form, pairs)


def predicted_parity(m: FourManifold, w: CohClass) -> Parity:
    """Even when -w.w + (3/4)(chi+sigma) is even, odd otherwise."""
    value = -square(m.form, w) + 3 * (m.chi + m.sigma) // 4
    return Parity.EVEN if value % 2 == 0 else Parity.ODD


@dataclass(frozen=True)
class GaussianSeries:
    """prefactor * exp(quad_coeff * h.h) * core."""

    prefactor: Fraction
    quad_coeff: Fraction
    core: ExpSum


def witten_series(m: FourManifold, w: CohClass) -> GaussianSeries:
    """The Gaussian-twisted series 2^(2-c) * exp(h.h/2) * sw_series."""
    c = characteristic_number(m)
    if c.denominator != 1:
        raise NonIntegralC(f"characteristic number {c} is not an integer")
    prefactor = Fraction(2) ** (2 - int(c))
    return GaussianSeries(prefactor, Fraction(1, 2), sw_series(m, w))


def evaluate_along(g: GaussianSeries, direction: Direction, order: int) -> list[Fraction]:
    """Substitute h = t * direction; exact univariate jet in t through order."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    ambient = g.core.ambient
    q = g.quad_coeff * pairing_rational(ambient, direction.coords, direction.coords)

    quad = [Fraction(0)] * (order + 1)
    power = Fraction(1)
    fact = 1
    for j in range(order // 2 + 1):
        if j:
            power *= q
            fact *= j
        quad[2 * j] = power / fact

    core = [Fraction(0)] * (order + 1)
    for a, k in g.core.terms:
        lin = pairing_rational(ambient, k.coords, direction.coords)
        power = Fraction(1)
        fact = 1
        for d in range(order + 1):
            if d:
                power *= lin
                fact *= d
            core[d] += a * power / fact

    out = [Fraction(0)] * (order + 1)
    for i in range(order + 1):
        if quad[i] == 0:
            continue
        for j in range(order + 1 - i):
            out[i + j] += quad[i] * core[j]
    return [g.prefactor * x for x in out]
