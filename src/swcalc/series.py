"""Exact formal arithmetic for finite exponential sums and their jets.

An ExpSum is a finite sum  sum_i a_i * exp(<K_i, h>)  with integer
coefficients a_i (Seiberg-Witten invariants are integers; the Donaldson
side's rational factors sit in GaussianSeries.prefactor and Jet.scale) and
integral classes K_i.  The argument h is represented by its Poincare dual,
so both <K, h> and h.h are Gram-matrix pairings in one coordinate system.
A rational direction for h is any sequence of rationals, read once as
D and the integral class u = D * direction.

Jets are truncated Taylor expansions at h = 0.  Before expanding we pick
a basis of the span of the pairing covectors of the K_i, so a sum over a
rank-46 lattice with three terms expands in one or two variables.  The
chosen covectors are linearly independent as forms, hence a jet is
identically zero as a function exactly when all its coefficients vanish.

The span reduction is fraction-free: every class gets an integer row over
the pivots, with one common denominator.  One lazy power-sum kernel reads
every Taylor coefficient that the degree walk and power_sums need; jet_expand
is its Fraction oracle.  vanishing_order walks only sums that do not split
into one-variable factors, whose orders it reads by division at t = 1.
evaluate_along runs an integer three-term recurrence.
"""

from enum import Enum
from fractions import Fraction
from itertools import accumulate
from math import factorial, gcd, lcm, prod
from operator import mul

from .errors import DimensionMismatch, NonIntegralC, OddExponent, PreconditionError
from .lattice import CohClass, IntegralLattice, covector, dot, pairing, square
from .manifold import FourManifold, characteristic_number
from .record import record


def _scaled_direction(direction) -> tuple[int, CohClass]:
    """(D, u) for a sequence of rationals: D is the least positive integer
    that makes u = D * direction integral, and u is that class."""
    xs = list(map(Fraction, direction))
    den = lcm(*(x.denominator for x in xs))
    return den, CohClass(tuple(int(x * den) for x in xs))


def _dense_order(support) -> tuple:
    """Sorts supports of one rank as sorted() sorts their dense tuples: (t, x)
    is (1, -t, x) if x > 0, else (-1, t, x); (0,) is the zeros past the last."""
    return (*((1, -t, x) if x > 0 else (-1, t, x) for t, x in support), (0,))


@record
class ExpSum:
    """Merged exponential sum with int coefficients; terms are sorted by their
    classes' dense coordinates, and each keeps the first class object given
    for its support."""

    ambient: IntegralLattice
    terms: tuple[tuple[int, CohClass], ...]

    @staticmethod
    def build(ambient: IntegralLattice, pairs) -> "ExpSum":
        """Merge the (coefficient, class) pairs per support; a coefficient is
        an int or an integral Fraction, and is kept as an int."""
        merged: dict[tuple, list] = {}
        for coeff, k in pairs:
            if not isinstance(coeff, (int, Fraction)) or coeff.denominator != 1:
                raise PreconditionError(f"coefficient {coeff} is not an integer")
            if k.rank != ambient.rank:
                raise DimensionMismatch("term class length does not match lattice rank")
            if (entry := merged.get(k.support)) is None:
                merged[k.support] = [int(coeff), k]
            else:
                entry[0] += int(coeff)
        order = sorted(merged, key=_dense_order)
        return ExpSum(ambient, tuple((a, k) for a, k in map(merged.get, order) if a))

    def is_zero(self) -> bool:
        return not self.terms


class Parity(Enum):
    EVEN = "even"
    ODD = "odd"
    NEITHER = "neither"
    ZERO = "zero"


@record
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


@record
class Jet:
    """A truncated polynomial in the variables x_j = <variables[j], h>."""

    ambient: IntegralLattice
    variables: tuple[CohClass, ...]
    coefficients: dict
    order: int

    def is_zero(self) -> bool:
        return not self.coefficients

    def scale(self, factor) -> "Jet":
        f = Fraction(factor)
        return Jet(
            self.ambient,
            self.variables,
            {a: c * f for a, c in self.coefficients.items()},
            self.order,
        )

    def evaluate(self, direction) -> Fraction:
        """The value at h = direction, a sequence of rationals."""
        den, u = _scaled_direction(direction)
        xs = [Fraction(pairing(self.ambient, v, u), den) for v in self.variables]
        total = Fraction(0)
        for alpha, c in self.coefficients.items():
            term = c
            for x, e in zip(xs, alpha):
                term *= x**e
            total += term
        return total

    def to_dict(self) -> dict:
        """Report fields; a coefficient is keyed by its exponents, as in "2,0"."""
        return {
            "variables": self.variables,
            "order": self.order,
            "coefficients": {
                ",".join(map(str, alpha)): c for alpha, c in sorted(self.coefficients.items())
            },
            "is_zero": self.is_zero(),
        }


def _span_reduce(lattice: IntegralLattice, classes):
    """Pick pivot classes with independent pairing covectors; express all.

    Returns (pivots, den, rows): pivots are drawn from classes in order of
    first appearance, and den > 0 is the least integer with
    den * covector(classes[i]) = sum_j rows[i][j] * covector(pivots[j])
    for integer rows.  The elimination is fraction-free over sparse
    covectors {col: x}; tag column n + s counts pivot s, so every row also
    records which integer combination of pivot covectors it is.  It is one
    pass that reads each covector once: a pivot's row is its unit vector,
    and a dependent class, once reduced, is zero on every lattice column,
    so no later echelon row can change its tags.
    """
    n = lattice.rank
    echelon = []  # (row, pivot col); later rows are zero in earlier pivot cols
    pivots = []
    scaled = []  # (mu, e) with mu * covector(k) = sum_s e[s] * covector(pivots[s])
    for k in classes:
        tag = n + len(pivots)
        v = {**covector(lattice, k), tag: 1}
        for row, pc in echelon:
            f = v.get(pc)
            if f:
                g = gcd(row[pc], f)
                a, b = row[pc] // g, f // g
                v = {j: y for j in v.keys() | row.keys()
                     if (y := a * v.get(j, 0) - b * row.get(j, 0))}
        pc = min(v)
        if pc < n:
            g = gcd(*v.values())
            echelon.append(({j: x // g for j, x in v.items()}, pc))
            scaled.append((1, {len(pivots): 1}))
            pivots.append(k)
        else:
            mu = v.pop(tag)
            g = gcd(mu, *v.values())
            scaled.append((mu // g, {j - n: -x // g for j, x in v.items()}))
    den = lcm(*(mu for mu, _ in scaled))
    rows = [tuple(e.get(s, 0) * (den // mu) for s in range(len(pivots))) for mu, e in scaled]
    return tuple(pivots), den, rows


def _integer_terms(s: ExpSum):
    """(pivots, D, a, columns): the sum in the integers over its span.

    Term i is a_i exp(<K_i, h>) with <K_i, h> = sum_j R'_ij x_j / D over
    the pivot variables x_j; columns[j][i] = R'_ij.
    """
    pivots, den, rows = _span_reduce(s.ambient, [k for _, k in s.terms])
    return pivots, den, [a for a, _ in s.terms], list(zip(*rows))


def _power_sums(columns, products, n, powers):
    """Yield (alpha, sum_i products[i] * prod_j columns[j][i]^alpha_j), |alpha| = n.

    An odometer runs the exponents of the columns but the last in
    lexicographic order, keeping the running product of each prefix; the
    last column takes the rest of n and reads its powers off the caller's
    table powers[e][i] = columns[-1][i]^e, which starts as [], is shared by
    every degree of a walk and grows as they need.  The walk is lazy, so a
    caller can stop at the first nonzero sum.  With no columns only the
    constant monomial exists: ((), sum(products)) at n = 0, nothing above.
    """
    if not columns:
        if not n:
            yield (), sum(products)
        return
    while len(powers) <= n:
        powers.append(list(map(mul, powers[-1], columns[-1])) if powers else [1] * len(products))
    front = columns[:-1]
    m = len(front)
    alpha = [0] * m
    prods = [products] * (m + 1)  # prods[j] = products * prod_{i<j} front[i]^alpha[i]
    rest = n
    while True:
        yield (*alpha, rest), sum(map(mul, prods[m], powers[rest]))
        j = m - 1
        while j >= 0 and not rest:
            rest += alpha[j]
            alpha[j] = 0
            j -= 1
        if j < 0:
            return
        alpha[j] += 1
        rest -= 1
        prods[j + 1:] = [list(map(mul, prods[j + 1], front[j]))] * (m - j)


def power_sums(s: ExpSum, degrees) -> dict[int, Jet]:
    """{d: sum_i a_i <K_i, h>^d} for each d in degrees, over the span pivots.

    This is d! times the degree-d Taylor part of the sum: the coefficient of
    x^alpha is d!/alpha! times the kernel's integer sum, divided by D^d.
    """
    pivots, den, coeffs, columns = _integer_terms(s)
    powers = []
    return {
        d: Jet(s.ambient, pivots, {
            alpha: Fraction(factorial(d) // prod(map(factorial, alpha)) * v, den**d)
            for alpha, v in _power_sums(columns, coeffs, d, powers) if v
        }, d)
        for d in degrees
    }


def jet_expand(s: ExpSum, order: int) -> Jet:
    """Expand the sum through total degree <= order, exactly, over its pivots."""
    if order < 0:
        raise PreconditionError("order must be nonnegative")
    pivots, den, rows = _span_reduce(s.ambient, [k for _, k in s.terms])
    width = len(pivots)
    coeffs: dict[tuple[int, ...], Fraction] = {}

    alpha = [0] * width
    for (a, _), row in zip(s.terms, rows):
        support = [(j, Fraction(c, den)) for j, c in enumerate(row) if c]

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
    """Multiply by exp(sign * <lam, h>): each term class k becomes k + sign*lam."""
    if sign not in (1, -1):
        raise PreconditionError("sign must be +1 or -1")
    if lam.rank != s.ambient.rank:
        raise DimensionMismatch("twist class length does not match lattice rank")
    shift = sign * lam
    return ExpSum.build(s.ambient, [(a, k + shift) for a, k in s.terms])


def vanishing_order(s: ExpSum, cap: int) -> VanishingOrder:
    """Smallest total degree with a nonzero Taylor coefficient, up to cap.

    e^<K, h> depends on G.K only, so terms with one covector merge first,
    over integer coefficients a(x).  Covector columns that induce one
    partition of the terms form a group g.  When the terms are the full
    grid of their projections x_g and a(x) a(x0)^(m-1) = prod_g a(x0[g <- x_g])
    for the first term x0 and m groups, s = a(x0)^(1-m) prod_g F_g with
    F_g = sum_y a(x0[g <- y]) e^<y, h> on disjoint coordinates, so the
    orders add.  A factor whose projections are multiples of one vector u is
    P(t) = sum_y b_y t^(e_y) in t = e^<u, h>, and t - 1 is <u, h> times a
    unit, so its order is the multiplicity of t = 1 in P.  Shifting the
    exponents and dividing their gaps by their gcd keep it, and P = (t - 1) Q
    while P(1) = 0, with -Q's coefficients P's running sums.  Any other sum,
    or one with a factor whose dense span passes 4 times its terms, is
    walked degree by degree (_walk), which gives the same results.
    """
    if cap < 0:
        raise PreconditionError("cap must be nonnegative")
    if s.is_zero():
        return VanishingOrder.zero_series()
    return _factored_order(s, cap) or _walk(s, cap)


def _factored_order(s: ExpSum, cap: int) -> VanishingOrder | None:
    """The order of s as the sum of its factors' orders (see vanishing_order),
    or None when s does not split into one-variable factors of small span."""
    merged: dict[frozenset, list] = {}
    for a, k in s.terms:
        gk = covector(s.ambient, k)
        merged.setdefault(frozenset(gk.items()), [gk, 0])[1] += a
    terms = [(gk, a) for gk, a in merged.values() if a]
    if not terms:
        return VanishingOrder.at_least(cap + 1)
    groups: dict[tuple, list] = {}  # partition, as first-seen labels -> its columns' values
    for j in dict.fromkeys(j for gk, _ in terms for j in gk):
        column = [gk.get(j, 0) for gk, _ in terms]
        label = {x: i for i, x in enumerate(dict.fromkeys(column))}
        groups.setdefault(tuple(map(label.__getitem__, column)), []).append(column)
    keys = list(zip(*(zip(*g) for g in groups.values()))) or [()]  # no column: one term
    coeff = dict(zip(keys, (a for _, a in terms)))
    x0, a0, m = keys[0], terms[0][1], len(groups)
    if prod(len(set(ys)) for ys in zip(*keys)) != len(terms):
        return None
    lines = [{y: coeff[(*x0[:g], y, *x0[g + 1:])] for y in set(ys)}
             for g, ys in enumerate(zip(*keys))]
    if any(a * a0**m != a0 * prod(map(dict.__getitem__, lines, x)) for x, a in coeff.items()):
        return None
    order = 0
    for line in lines:
        z = next(y for y in line if y[0])  # the group's first column is nonzero somewhere
        if any(z[0] * y[j] != y[0] * z[j] for y in line for j in range(1, len(z))):
            return None
        low = min(y[0] for y in line)
        step = gcd(*(y[0] - low for y in line)) or 1
        span = (max(y[0] for y in line) - low) // step + 1
        if span > 4 * len(line):
            return None
        dense = [0] * span
        for y, b in line.items():
            dense[(y[0] - low) // step] = b
        while not (sums := list(accumulate(dense)))[-1]:
            order += 1
            if order > cap:
                return VanishingOrder.at_least(cap + 1)
            dense = sums[:-1]
    return VanishingOrder.exact(order)


def _walk(s: ExpSum, cap: int) -> VanishingOrder:
    """The order of a nonzero sum, walked degree by degree up to cap.

    No jet is built: the degrees are walked upward through the power-sum
    kernel, and the walk stops at the first nonzero integer sum, inside a
    degree as well as across degrees.  The coefficient of x^alpha is its
    sum divided by the positive integer D^n * alpha!, so the zero test
    is exact.  An even (odd) sum has no odd (even) part, so only degrees of
    its parity are walked, and over one term per conjugate pair: a<k, h>^n
    and +-a<-k, h>^n add up to 2a<k, h>^n there.  Term i and term -1-i are
    the pair (see parity); the zero class is the middle term, kept as it is.
    """
    first, step = 0, 1
    p = parity(s)
    if p is not Parity.NEITHER:
        half = len(s.terms) // 2
        folded = tuple((2 * a, k) for a, k in s.terms[:half]) + s.terms[half:len(s.terms) - half]
        s = ExpSum(s.ambient, folded)
        first, step = (1 if p is Parity.ODD else 0), 2
    _, _, coeffs, columns = _integer_terms(s)
    powers = []
    for n in range(first, cap + 1, step):
        if any(v for _, v in _power_sums(columns, coeffs, n, powers)):
            return VanishingOrder.exact(n)
    return VanishingOrder.at_least(cap + 1)


def parity(s: ExpSum) -> Parity:
    """Compare s(h) with s(-h) termwise.  Negation reverses the order of the
    terms, that of their dense coordinates, so term i pairs with term -1-i."""
    if s.is_zero():
        return Parity.ZERO
    pairs = list(zip(s.terms, reversed(s.terms)))
    if any(l.support != tuple((t, -x) for t, x in k.support) for (_, k), (_, l) in pairs):
        return Parity.NEITHER
    if all(b == a for (a, _), (b, _) in pairs):
        return Parity.EVEN
    if all(b == -a for (a, _), (b, _) in pairs):
        return Parity.ODD
    return Parity.NEITHER


def sw_series(m: FourManifold, w: CohClass) -> ExpSum:
    """The signed exponential sum attached to the basic classes and w.

    Each class k contributes (-1)^((w.w + k.w)/2) * sw * exp(<k, h>).
    The exponent is an integer whenever k is characteristic; data that
    fails this raises OddExponent.
    """
    gw = covector(m.form, w)
    wsq = dot(gw, w)
    pairs = []
    for entry in m.basic_classes:
        e = wsq + dot(gw, entry.k)
        if e % 2:
            raise OddExponent(
                f"w.w + k.w = {e} is odd for k = {list(entry.k.coords)}"
            )
        sign = -1 if (e // 2) % 2 else 1
        pairs.append((sign * entry.sw, entry.k))
    return ExpSum.build(m.form, pairs)


def predicted_parity(m: FourManifold, w: CohClass) -> Parity:
    """Even when -w.w + (3/4)(chi+sigma) is even, odd otherwise."""
    value = -square(m.form, w) + 3 * (m.chi + m.sigma) // 4
    return Parity.EVEN if value % 2 == 0 else Parity.ODD


@record
class GaussianSeries:
    """prefactor * exp(quad_coeff * h.h) * core."""

    prefactor: Fraction
    core: ExpSum
    quad_coeff = Fraction(1, 2)  # not a field: evaluate_along's recurrence assumes 1/2


def witten_series(m: FourManifold, w: CohClass) -> GaussianSeries:
    """The Gaussian-twisted series 2^(2-c) * exp(h.h/2) * sw_series."""
    c = characteristic_number(m)
    if c.denominator != 1:
        raise NonIntegralC(f"characteristic number {c} is not an integer")
    prefactor = Fraction(2) ** (2 - int(c))
    return GaussianSeries(prefactor, sw_series(m, w))


def evaluate_along(g: GaussianSeries, direction, order: int) -> list[Fraction]:
    """Substitute h = t * direction, a sequence of rationals; exact
    univariate jet in t through order.

    With u = D * direction integral (D the least such) and l = <k, u>, the
    term exp(h.h/2 + <k, h>) is f(t/D) for f(s) = exp((u.u) s^2/2 + l s).
    As f' = ((u.u) s + l) f, f = sum_n e_n s^n/n! with e_0 = 1, e_1 = l and
    e_(n+1) = l e_n + n (u.u) e_(n-1), all integers; so the t^n coefficient
    is prefactor * sum_k a_k e_n(l_k) / (n! D^n), one division per n."""
    if order < 0:
        raise PreconditionError("order must be nonnegative")
    den, u = _scaled_direction(direction)
    gu = covector(g.core.ambient, u)
    q, lins = dot(gu, u), [dot(gu, k) for _, k in g.core.terms]
    coeffs = [a for a, _ in g.core.terms]
    num, scale = g.prefactor.numerator, g.prefactor.denominator  # times n! D^n at n
    prev, cur, out = [0] * len(lins), [1] * len(lins), []
    for n in range(order + 1):
        out.append(Fraction(num * sum(map(mul, coeffs, cur)), scale))
        prev, cur = cur, [l * e + n * q * p for l, e, p in zip(lins, cur, prev)]
        scale *= (n + 1) * den
    return out
