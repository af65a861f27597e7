"""The validated input datum: topology, intersection form, basic classes."""

from fractions import Fraction
from functools import cached_property

from .lattice import (
    CohClass,
    IntegralLattice,
    Sublattice,
    block_determinant,
    block_signature,
    construct_abundance_classes,
    covector,
    dot,
    find_hyperbolic_pair,
    is_characteristic,
    orthogonal_complement,
    square,
)
from .record import record


@record
class BasicClassEntry:
    """A basic class k together with its integer invariant value."""

    k: CohClass
    sw: int


@record
class FourManifold:
    name: str
    chi: int
    sigma: int
    b_plus: int
    form: IntegralLattice
    basic_classes: tuple[BasicClassEntry, ...]
    assume_conjecture: bool = True

    @cached_property
    def complement(self) -> Sublattice:
        """The orthogonal complement of the basic classes, built once per
        manifold object and shared by every pipeline run on it."""
        return orthogonal_complement(self.form, basic_class_set(self))

    @cached_property
    def _pairs(self) -> dict:
        return {}

    def hyperbolic_pair(self, radius: int):
        """The complement's find_hyperbolic_pair, searched once per radius and object."""
        if radius not in self._pairs:
            self._pairs[radius] = find_hyperbolic_pair(self.complement, radius)
        return self._pairs[radius]

    @cached_property
    def _abundance(self) -> dict:
        return {}

    def abundance_classes(self, radius: int):
        """The abundance classes on hyperbolic_pair(radius), or None when there
        is no pair; built once per radius and object, so every pipeline run on
        the object shares them and the covectors kept on them."""
        classes = self._abundance.get(radius)
        if classes is None:
            pair = self.hyperbolic_pair(radius)
            if pair is None:
                return None
            classes = self._abundance.setdefault(
                radius, construct_abundance_classes(pair, self.chi, self.sigma))
        return classes

    @cached_property
    def series_orders(self) -> dict:
        """w -> the vanishing order of the SW series at w up to cap c + 4,
        computed once by relations."""
        return {}

    @cached_property
    def characteristic_number(self) -> Fraction:
        """The invariant -(7*chi + 11*sigma)/4, equal to chi_h - c1^2; the
        identity is asserted once per object."""
        c = characteristic_number_of(self.chi, self.sigma)
        assert c == holomorphic_euler_of(self.chi, self.sigma) - c1_squared_of(self.chi, self.sigma)
        return c


@record
class CheckResult:
    """One check and its detail text."""

    name: str
    ok: bool
    detail: str


# The checks on the topology and the form, in order: name, test, detail.
_FORM_CHECKS = (
    ("b_plus", lambda m: m.b_plus > 1, lambda m: f"b_plus = {m.b_plus}, must exceed 1"),
    ("euler_number", lambda m: m.chi == 2 + m.form.rank,
     lambda m: f"chi = {m.chi}, form rank = {m.form.rank}, need chi = 2 + rank"),
    ("chi_plus_sigma_mod_4", lambda m: (m.chi + m.sigma) % 4 == 0,
     lambda m: f"chi + sigma = {m.chi + m.sigma}, must be 0 mod 4"),
    ("signature", lambda m: m.sigma == 2 * m.b_plus - m.form.rank,
     lambda m: f"sigma = {m.sigma}, expected {2 * m.b_plus - m.form.rank} from b_plus and rank"),
    ("form_signature", lambda m: m.sigma == block_signature(m.form),
     lambda m: f"sigma = {m.sigma}, block form signature {block_signature(m.form)}"),
    ("unimodular", lambda m: abs(block_determinant(m.form)) == 1,
     lambda m: f"block form determinant {block_determinant(m.form)}, must be 1 or -1"),
)


@record
class ValidationReport:
    """validate's facts in check order, which passed reads; the CheckResults,
    details included, are built from them on first read.  classes: per basic
    class, its facts (sw nonzero, length[, distinct, characteristic, simple
    type]) and k.k; unpaired: (k, sw, required, found) of the first unpaired class."""

    manifold: FourManifold
    head: tuple[bool, ...]
    classes: tuple[tuple[tuple[bool, ...], int | None], ...]
    unpaired: tuple | None

    @property
    def passed(self) -> bool:
        return all(self.head) and all(all(f) for f, _ in self.classes) and self.unpaired is None

    @cached_property
    def checks(self) -> tuple[CheckResult, ...]:
        m, st = self.manifold, c1_squared(self.manifold)
        out = [CheckResult(name, ok, text(m))
               for (name, _, text), ok in zip(_FORM_CHECKS, self.head)]
        for idx, (entry, (facts, sq)) in enumerate(zip(m.basic_classes, self.classes)):
            label, k = f"basic_classes[{idx}]", entry.k
            sw_ok, length_ok, *rest = facts
            out.append(CheckResult(f"{label}.sw_nonzero", sw_ok, "sw must be nonzero"))
            out.append(CheckResult(f"{label}.coords_length", length_ok, "" if length_ok else
                                   f"coords length {k.rank} != rank {m.form.rank}"))
            if rest:
                distinct, characteristic, simple_type = rest
                if not distinct:
                    out.append(CheckResult(f"{label}.distinct", False,
                                           f"duplicate class {list(k.coords)}"))
                out.append(CheckResult(f"{label}.characteristic", characteristic,
                                       f"class {list(k.coords)} is not characteristic"))
                out.append(CheckResult(f"{label}.sw_simple_type", simple_type,
                                       f"k.k = {sq}, simple type requires {st}"))
        if self.head[2]:
            k, sw, required, found = self.unpaired or (None,) * 4
            out.append(CheckResult("conjugation_symmetry", k is None, "" if k is None else (
                f"entry ({list(k.coords)}, {sw}) needs partner "
                f"({list((-k).coords)}, {required}), found {found}")))
        return tuple(out)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.ok)

    def to_list(self) -> list:
        """The checks as report entries, in the order they ran."""
        return [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in self.checks]


def validate(m: FourManifold) -> ValidationReport:
    """Run every internal-consistency check; failures are reported, not raised."""
    rank, st = m.form.rank, c1_squared(m)
    classes = []
    seen = {}  # support -> (class, sw), first entry per class
    for entry in m.basic_classes:
        k, sq = entry.k, None
        facts = entry.sw != 0, k.rank == rank
        if facts[1]:
            distinct = k.support not in seen
            if distinct:
                seen[k.support] = k, entry.sw
            sq = square(m.form, k)
            facts += distinct, is_characteristic(m.form, k), sq == st
        classes.append((facts, sq))
    head = tuple(test(m) for _, test, _ in _FORM_CHECKS)
    unpaired = None
    if head[2]:
        sign = -1 if ((m.chi + m.sigma) // 4) % 2 else 1
        for support, (k, sw) in seen.items():
            found = seen.get(tuple((t, -x) for t, x in support), (None, None))[1]
            if found != sign * sw:
                unpaired = k, sw, sign * sw, found
                break
    return ValidationReport(m, head, tuple(classes), unpaired)


def characteristic_number_of(chi: int, sigma: int) -> Fraction:
    return Fraction(-(7 * chi + 11 * sigma), 4)


def holomorphic_euler_of(chi: int, sigma: int) -> Fraction:
    return Fraction(chi + sigma, 4)


def c1_squared_of(chi: int, sigma: int) -> int:
    return 2 * chi + 3 * sigma


def characteristic_number(m: FourManifold) -> Fraction:
    """The invariant -(7*chi + 11*sigma)/4, equal to chi_h - c1^2, computed
    once per manifold object."""
    return m.characteristic_number


def holomorphic_euler(m: FourManifold) -> Fraction:
    return holomorphic_euler_of(m.chi, m.sigma)


def c1_squared(m: FourManifold) -> int:
    return c1_squared_of(m.chi, m.sigma)


def basic_class_count(m: FourManifold) -> int:
    """Number of basic classes up to sign; the zero class counts once."""
    return len({max(e.k.support, (-e.k).support) for e in m.basic_classes})


def basic_class_set(m: FourManifold) -> tuple[CohClass, ...]:
    return tuple(e.k for e in m.basic_classes)


def orthogonality_defect(m: FourManifold, lam: CohClass):
    """First basic class not orthogonal to lam, or None."""
    glam = covector(m.form, lam)
    for entry in m.basic_classes:
        if dot(glam, entry.k) != 0:
            return entry.k
    return None
