"""The validated input datum: topology, intersection form, basic classes."""

from collections.abc import Callable
from fractions import Fraction
from functools import cached_property

from .lattice import (
    CohClass,
    IntegralLattice,
    Sublattice,
    block_determinant,
    block_signature,
    covector,
    dot,
    find_hyperbolic_pair,
    is_characteristic,
    orthogonal_complement,
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


@record
class CheckResult:
    """One check; describe() builds its detail text, only when it is read."""

    name: str
    ok: bool
    describe: Callable[[], str] = str

    @property
    def detail(self) -> str:
        return self.describe()


@record
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.ok)

    def to_list(self) -> list:
        """The checks as report entries, in the order they ran."""
        return [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in self.checks]


def validate(m: FourManifold) -> ValidationReport:
    """Run every internal-consistency check; failures are reported, not raised."""
    checks = []

    def check(name, ok, describe=str):
        checks.append(CheckResult(name, bool(ok), describe))

    rank = m.form.rank
    check("b_plus", m.b_plus > 1, lambda: f"b_plus = {m.b_plus}, must exceed 1")
    check("euler_number", m.chi == 2 + rank,
          lambda: f"chi = {m.chi}, form rank = {rank}, need chi = 2 + rank")
    mod4_ok = (m.chi + m.sigma) % 4 == 0
    check("chi_plus_sigma_mod_4", mod4_ok,
          lambda: f"chi + sigma = {m.chi + m.sigma}, must be 0 mod 4")
    check("signature", m.sigma == 2 * m.b_plus - rank,
          lambda: f"sigma = {m.sigma}, expected {2 * m.b_plus - rank} from b_plus and rank")
    form_sig = block_signature(m.form)
    check("form_signature", m.sigma == form_sig,
          lambda: f"sigma = {m.sigma}, block form signature {form_sig}")
    det = block_determinant(m.form)
    check("unimodular", abs(det) == 1,
          lambda: f"block form determinant {det}, must be 1 or -1")

    st = 2 * m.chi + 3 * m.sigma
    seen = {}  # support -> (class, sw), first entry per class
    for idx, entry in enumerate(m.basic_classes):
        label, k = f"basic_classes[{idx}]", entry.k
        check(f"{label}.sw_nonzero", entry.sw != 0, lambda: "sw must be nonzero")
        if k.rank != rank:
            check(f"{label}.coords_length", False, lambda r=k.rank: f"coords length {r} != rank {rank}")
            continue
        check(f"{label}.coords_length", True)
        if k.support in seen:
            check(f"{label}.distinct", False, lambda k=k: f"duplicate class {list(k.coords)}")
        else:
            seen[k.support] = k, entry.sw
        gk = covector(m.form, k)
        check(f"{label}.characteristic", is_characteristic(m.form, k, gk),
              lambda k=k: f"class {list(k.coords)} is not characteristic")
        sq = dot(gk, k)
        check(f"{label}.sw_simple_type", sq == st,
              lambda sq=sq: f"k.k = {sq}, simple type requires {st}")

    if mod4_ok:
        eps = -1 if ((m.chi + m.sigma) // 4) % 2 else 1
        ok = True
        detail = ""
        for k, sw in seen.values():
            neg = -k
            partner = seen.get(neg.support, (None, None))[1]
            if partner != eps * sw:
                ok = False
                detail = (f"entry ({list(k.coords)}, {sw}) needs partner "
                          f"({list(neg.coords)}, {eps * sw}), found {partner}")
                break
        check("conjugation_symmetry", ok, lambda: detail)

    return ValidationReport(tuple(checks))


def characteristic_number_of(chi: int, sigma: int) -> Fraction:
    return Fraction(-(7 * chi + 11 * sigma), 4)


def holomorphic_euler_of(chi: int, sigma: int) -> Fraction:
    return Fraction(chi + sigma, 4)


def c1_squared_of(chi: int, sigma: int) -> int:
    return 2 * chi + 3 * sigma


def characteristic_number(m: FourManifold) -> Fraction:
    """The invariant -(7*chi + 11*sigma)/4, equal to chi_h - c1^2."""
    c = characteristic_number_of(m.chi, m.sigma)
    assert c == holomorphic_euler_of(m.chi, m.sigma) - c1_squared_of(m.chi, m.sigma)
    return c


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
