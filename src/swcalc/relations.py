"""Executable relations between the basic-class data and Donaldson degrees.

The two governing quantities for a class lam are

    r(lam) = -lam.lam - (11*chi + 15*sigma)/4     (depth parameter)
    i(lam) =  lam.lam - (3*chi + 7*sigma)/4       (index parameter)

They satisfy r + i = 2c where c is the characteristic number, and they
agree exactly when lam.lam = -(chi+sigma).  Degrees delta strictly below
both force vanishing of the degree-delta invariants; delta = r(lam) with
delta < i(lam) gives an explicit finite formula, implemented here as an
exact homogeneous polynomial.
"""

from fractions import Fraction

from .errors import (
    AbundanceInconsistent,
    AbundanceUndetermined,
    ConjectureNotAssumed,
    HypothesisViolation,
    InadmissibleParity,
    NonIntegralC,
    NotCharacteristic,
)
from .lattice import (
    DEFAULT_RADIUS,
    AbundanceClasses,
    CohClass,
    construct_abundance_classes,
    is_characteristic,
    pairing,
    square,
)
from .manifold import (
    FourManifold,
    basic_class_count,
    characteristic_number,
    c1_squared,
    holomorphic_euler,
    orthogonality_defect,
)
from .record import record
from .report import (  # all four stay importable from here
    VERDICT_FAIL,
    VERDICT_PASS,
    VERDICT_PASS_VACUOUS,
    VERDICT_UNDETERMINED,
)
from .series import Jet, power_sums, sw_series, twist, vanishing_order


def depth_value(chi: int, sigma: int, lam_square: int) -> Fraction:
    return Fraction(-(11 * chi + 15 * sigma), 4) - lam_square


def index_value(chi: int, sigma: int, lam_square: int) -> Fraction:
    return Fraction(-(3 * chi + 7 * sigma), 4) + lam_square


def r_lambda(m: FourManifold, lam: CohClass) -> Fraction:
    return depth_value(m.chi, m.sigma, square(m.form, lam))


def i_lambda(m: FourManifold, lam: CohClass) -> Fraction:
    return index_value(m.chi, m.sigma, square(m.form, lam))


def _degree_residue(m: FourManifold, w: CohClass) -> int | None:
    """The residue mod 4 of the deltas that the mod-8 degree rule admits, or None:
    2*delta = rhs (mod 8) holds exactly when rhs is even and delta = rhs/2 (mod 4)."""
    rhs = -2 * square(m.form, w) - 3 * (m.chi + m.sigma) // 2
    return None if rhs % 2 else rhs // 2 % 4


def degree_admissible(m: FourManifold, w: CohClass, delta: int) -> bool:
    """Mod-8 degree rule: 2*delta = -2*w.w - (3/2)(chi+sigma) (mod 8)."""
    return delta % 4 == _degree_residue(m, w)


def dvanish_applies(m: FourManifold, lam: CohClass, delta: int) -> bool:
    """True when delta < r(lam) and delta < i(lam), under the conjecture flag."""
    if not m.assume_conjecture:
        raise ConjectureNotAssumed(
            "the vanishing branch is conditional on the multiplicity conjecture"
        )
    return delta < r_lambda(m, lam) and delta < i_lambda(m, lam)


@record
class RelationQuery:
    """Query for the degree-(delta-2m) invariant with m point insertions."""

    w: CohClass
    lam: CohClass
    delta: int
    m: int

    def __post_init__(self):
        if self.m < 0:
            raise HypothesisViolation("m_nonnegative", f"m = {self.m}")
        if self.delta < 2 * self.m:
            raise HypothesisViolation(
                "delta_at_least_2m", f"delta = {self.delta}, m = {self.m}"
            )

    @property
    def d(self) -> int:
        return self.delta - 2 * self.m


def dswrel_value(m: FourManifold, q: RelationQuery) -> Jet:
    """The exact degree-(delta-2m) homogeneous polynomial in h.

    Value: 2^(1-(c+delta)/2) * (-1)^(m-1+lam.lam/2-lam.w) *
    sum over basic classes of the signed invariant times <k-lam, h>^(delta-2m).
    That sum is (delta-2m)! times the degree-(delta-2m) Taylor part of the
    series twisted by exp(-<lam, h>), read off series.power_sums.
    The sign prefactor is cross-checked against (-1)^((sigma-w.w)/2).
    """
    w, lam, delta = q.w, q.lam, q.delta
    if not m.assume_conjecture:
        raise ConjectureNotAssumed(
            "the relation formula is conditional on the multiplicity conjecture"
        )
    defect = orthogonality_defect(m, lam)
    if defect is not None:
        raise HypothesisViolation(
            "lambda_in_basic_class_complement",
            f"lam pairs with basic class {list(defect.coords)}",
        )
    if not is_characteristic(m.form, w - lam):
        raise HypothesisViolation(
            "w_minus_lambda_characteristic", "w - lam is not an integral lift of w2"
        )
    r = r_lambda(m, lam)
    i = i_lambda(m, lam)
    if delta != r:
        raise HypothesisViolation("delta_equals_r_lambda", f"delta = {delta}, r = {r}")
    if not delta < i:
        raise HypothesisViolation("delta_below_i_lambda", f"delta = {delta}, i = {i}")

    c = characteristic_number(m)
    if (c + delta) % 2 != 0:
        raise InadmissibleParity(f"(c + delta)/2 = {(c + delta) / 2} is not an integer")
    lam_sq = square(m.form, lam)
    lam_dot_w = pairing(m.form, lam, w)
    if lam_sq % 2:
        raise InadmissibleParity(f"lam.lam = {lam_sq} is odd")
    sign_base = lam_sq // 2 - lam_dot_w  # the sign exponent is m - 1 + sign_base

    wsq = square(m.form, w)
    assert (m.sigma - wsq) % 2 == 0
    assert (lam_sq // 2 - lam_dot_w - (m.sigma - wsq) // 2) % 2 == 0
    assert (lam_sq - 2 * lam_dot_w - (m.sigma - wsq)) % 8 == 0

    power_of_two = Fraction(2) ** int(1 - (c + delta) / 2)
    sign = -1 if (q.m - 1 + sign_base) % 2 else 1
    return power_sums(twist(sw_series(m, w), lam, -1), (q.d,))[q.d].scale(sign * power_of_two)


def _opening(m: FourManifold, w: CohClass, what: str, mod8: bool) -> Fraction:
    """The hypotheses sst and dvanish share, in order: the conjecture flag,
    w characteristic (and w.w = sigma mod 8 when mod8), c integral, and
    chi + sigma != 4 (b_plus = 1), so that the square 4 - (chi+sigma) of
    their relation classes is nonzero; returns c."""
    if not m.assume_conjecture:
        raise ConjectureNotAssumed(f"the vanishing {what} is conditional on the conjecture")
    if not is_characteristic(m.form, w):
        raise NotCharacteristic(f"w = {list(w.coords)} is not an integral lift of w2")
    if mod8 and (square(m.form, w) - m.sigma) % 8 != 0:
        raise NotCharacteristic(
            f"w.w = {square(m.form, w)} is not congruent to sigma = {m.sigma} mod 8"
        )
    c = characteristic_number(m)
    if c.denominator != 1:
        raise NonIntegralC(f"characteristic number {c} is not an integer")
    if m.chi + m.sigma == 4:
        raise HypothesisViolation("chi_plus_sigma_not_4", "chi + sigma = 4, so b_plus = 1")
    return c


def _abundance_classes(m: FourManifold, radius: int) -> AbundanceClasses:
    """The abundance classes on m's pair at radius, built once per radius and kept on m."""
    classes = m.abundance_classes.get(radius)
    if classes is None:
        pair = m.hyperbolic_pair(radius)
        if pair is None:
            raise AbundanceUndetermined(
                f"no hyperbolic pair found in the basic-class complement at radius {radius}"
            )
        classes = m.abundance_classes.setdefault(
            radius, construct_abundance_classes(pair, m.chi, m.sigma))
    return classes


def _series_order(m: FourManifold, w: CohClass, cap: int):
    """vanishing_order(sw_series(m, w), cap), with the last order computed
    for w kept on m.  A kept order is returned only where a fresh call
    would return an equal one: an exact order within cap, or an order kept
    at cap."""
    kept = m.series_orders.get(w)
    if kept is not None:
        kept_cap, order = kept
        if kept_cap == cap or (order.kind == "exact" and order.value <= cap):
            return order
    order = vanishing_order(sw_series(m, w), cap)
    m.series_orders[w] = cap, order
    return order


def _series_flags(m: FourManifold, w: CohClass, cap: int):
    """An order whose satisfies(k) for every k <= cap + 1 is that of
    _series_order(m, w, cap).  An order computed at cap C answers
    satisfies(k) truly for every k <= C + 1, so any order kept for w at a
    cap of at least cap will do."""
    kept = m.series_orders.get(w)
    return kept[1] if kept is not None and kept[0] >= cap else _series_order(m, w, cap)


def _verify_supplied_pair(m, lambda0, lambda1):
    cs = m.chi + m.sigma
    if square(m.form, lambda0) != -cs:
        raise HypothesisViolation("lambda0_square", f"need {-cs}")
    if square(m.form, lambda1) != -cs + 4:
        raise HypothesisViolation("lambda1_square", f"need {-cs + 4}")
    if not (lambda0 - lambda1).is_even():
        raise HypothesisViolation("lambda0_lambda1_congruent_mod_2", "")
    for lam, name in ((lambda0, "lambda0"), (lambda1, "lambda1")):
        defect = orthogonality_defect(m, lam)
        if defect is not None:
            raise HypothesisViolation(
                f"{name}_in_basic_class_complement",
                f"pairs with {list(defect.coords)}",
            )


@record
class SstEntry:
    d: int
    m: int
    delta: int
    vanishing_applies: bool
    relation_is_zero: bool


@record
class SstReport:
    verdict: str
    w: CohClass
    c: Fraction
    order: object | None  # VanishingOrder, absent in the vacuous branch
    lambda0: CohClass | None
    lambda1: CohClass | None
    entries: tuple[SstEntry, ...] = ()
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        """Report fields from the verdict on; the trace only when not vacuous,
        with the required order and the (r, i) that sst_check's checks fix."""
        out = {
            "verdict": self.verdict,
            "w": self.w,
            "c": self.c,
            "notes": self.notes,
        }
        if self.order is not None:
            out["required_order"] = int(self.c) - 2
            out["vanishing_order"] = {"kind": self.order.kind, "value": self.order.value}
            out["trace"] = {
                "lambda0": self.lambda0,
                "lambda1": self.lambda1,
                "r_lambda0": self.c,
                "i_lambda0": self.c,
                "r_lambda1": self.c - 4,
                "i_lambda1": self.c + 4,
                "entries": [
                    {
                        "d": e.d,
                        "m": e.m,
                        "delta": e.delta,
                        "vanishing_applies": e.vanishing_applies,
                        "relation_sum_is_zero": e.relation_is_zero,
                    }
                    for e in self.entries
                ],
            }
        return out


def sst_check(
    m: FourManifold,
    w: CohClass,
    lambda0: CohClass | None = None,
    lambda1: CohClass | None = None,
    radius: int = DEFAULT_RADIUS,
) -> SstReport:
    """Test the superconformal vanishing bound and replay its derivation.

    Verdict is pass-vacuous when c - 3 < 0.  Otherwise the series must
    vanish to order at least c - 2.  The trace pins, for every m >= 0 with
    d = c - 4 - 2m >= 0, the vanishing branch for the square -(chi+sigma)
    class and the relation sum for the square -(chi+sigma)+4 class, which
    must be zero.

    Lemma: k.lambda1 = 0 for each basic class k (checked below), and
    lambda1.lambda1 = 4 - (chi+sigma) is divisible by 4 since c is an
    integer, and nonzero (see _opening).  So sw_series(m, w + lambda1) = +-S
    with S = sw_series(m, w), and the degree-d relation sum is +-d! times
    the degree-d part of exp(-l) S, l = <lambda1, h>.  That part is zero
    below o = ord S, since exp(-l) is a unit.  For d >= o its l^(d-o)
    coefficient is +-S_o/(d-o)!, and l is free of S's variables: lambda1 =
    sum c_j k_j would give lambda1.lambda1 = sum c_j lambda1.k_j = 0.  So
    each sum is zero exactly when S vanishes to order > d.
    """
    c = _opening(m, w, "bound", mod8=True)
    notes = []
    if c - 3 < 0:
        return SstReport(
            VERDICT_PASS_VACUOUS, w, c, None, None, None,
            notes=(f"c = {c}: c - 3 < 0, nothing to check",),
        )
    if (lambda0 is None) != (lambda1 is None):
        raise HypothesisViolation("lambda_pair_supplied_together", "")
    c_int = int(c)
    required = c_int - 2
    order = _series_order(m, w, c_int + 4)

    if lambda0 is None:
        classes = _abundance_classes(m, radius)
        lambda0, lambda1 = classes.lambda0, classes.lambda1
    _verify_supplied_pair(m, lambda0, lambda1)

    r0, i0 = r_lambda(m, lambda0), i_lambda(m, lambda0)
    r1, i1 = r_lambda(m, lambda1), i_lambda(m, lambda1)
    if not (r0 == c == i0 and r1 == c - 4 and i1 == c + 4):
        raise AbundanceInconsistent(
            f"(r, i) of lambda0 and lambda1 are ({r0}, {i0}) and ({r1}, {i1});"
            f" need ({c}, {c}) and ({c - 4}, {c + 4})"
        )

    delta = c_int - 4
    ms = range(delta // 2 + 1)  # every m >= 0 with d = delta - 2m >= 0
    applies = delta < r0 and delta < i0  # the vanishing branch for lambda0
    entries = [SstEntry(delta - 2 * mm, mm, delta, applies,
                        order.satisfies(delta - 2 * mm + 1)) for mm in ms]
    all_zero = all(e.relation_is_zero for e in entries)

    ok = order.satisfies(required) and all_zero
    if not order.satisfies(required):
        notes.append(f"series vanishing order {order} is below required {required}")
    if not all_zero:
        notes.append("a relation sum failed to vanish; data inconsistent with the conjectures")
    return SstReport(
        VERDICT_PASS if ok else VERDICT_FAIL,
        w, c, order, lambda0, lambda1, tuple(entries), tuple(notes),
    )


@record
class DvanishEntry:
    d: int
    m: int
    route: str  # "vanishing" or "relation"
    value_is_zero: bool


@record
class DvanishReport:
    verdict: str
    manifold: str
    w: CohClass
    c: Fraction
    case_mod_8: int
    lam: CohClass
    lam_square: int
    admissible_d: tuple[int, ...]
    entries: tuple[DvanishEntry, ...]
    notes: tuple[str, ...]

    def to_dict(self) -> dict:
        """Report fields from the verdict on; the trace holds exact values,
        with the (r, i) of lambda that dvanish_theorem_check's square check fixes."""
        trace = {
            "manifold": self.manifold,
            "w": self.w,
            "case_mod_8": self.case_mod_8,
            "case": f"-(chi+sigma) = {self.case_mod_8} (mod 8)",
            "c": self.c,
            "lambda": self.lam,
            "lambda_square": self.lam_square,
            "r_lambda": self.c - self.case_mod_8,
            "i_lambda": self.c + self.case_mod_8,
            "d_max": int(self.c) - 1,
            "admissible_d": self.admissible_d,
            "w_shift_sign": -1 if self.lam_square // 4 % 2 else 1,
            "entries": [
                {"d": e.d, "m": e.m, "route": e.route, "value": "0" if e.value_is_zero else "nonzero"}
                for e in self.entries
            ],
            "verdict": self.verdict,
        }
        return {"verdict": self.verdict, "trace": trace, "notes": self.notes}


def dvanish_theorem_check(m: FourManifold, w: CohClass,
                          radius: int = DEFAULT_RADIUS) -> DvanishReport:
    """Replay the degree-sweep vanishing argument for all d <= c - 1.

    Splits on -(chi+sigma) mod 8.  In the 0 case a single all-even class
    of square -(chi+sigma) covers every admissible degree through the
    vanishing branch; in the 4 case degrees up to c-8 use the vanishing
    branch and d = c-4 by the relation sums, asserted to vanish: lam is
    orthogonal to every basic class with lam.lam = 4 - (chi+sigma) != 0, so
    each is read off the order of sw_series(m, w), by sst_check's lemma.
    """
    c = _opening(m, w, "sweep", mod8=False)
    case = (-(m.chi + m.sigma)) % 8
    if case not in (0, 4):
        raise HypothesisViolation("chi_plus_sigma_mod_4", f"-(chi+sigma) = {case} mod 8")

    lam = _abundance_classes(m, radius).lambda_even
    lam_sq = square(m.form, lam)
    expected_sq = -(m.chi + m.sigma) if case == 0 else -(m.chi + m.sigma) + 4
    if lam_sq != expected_sq or not lam.is_even():
        raise AbundanceInconsistent(
            f"lambda_even = {list(lam.coords)} has square {lam_sq};"
            f" need an all-even class of square {expected_sq}"
        )
    r = r_lambda(m, lam)
    i = i_lambda(m, lam)
    # chi + sigma = 0 mod 4 here, so the rule's right side is even
    admissible = range(_degree_residue(m, w), int(c), 4)
    entries = []
    notes = []
    for d in admissible:  # the route depends on d alone: one choice per degree
        ms = range(d // 2 + 1)
        if d < r and d < i:
            entries += [DvanishEntry(d, mm, "vanishing", True) for mm in ms]
        elif d == r:
            order = _series_flags(m, w, d)
            entries += [DvanishEntry(d, mm, "relation", order.satisfies(d - 2 * mm + 1))
                        for mm in ms]
        else:
            entries += [DvanishEntry(d, mm, "uncovered", False) for mm in ms]
            notes += [f"degree d = {d} not covered by either branch"] * len(ms)
    return DvanishReport(
        VERDICT_PASS if all(e.value_is_zero for e in entries) else VERDICT_FAIL,
        m.name, w, c, case, lam, lam_sq, tuple(admissible), tuple(entries), tuple(notes),
    )


@record
class BoundReport:
    applicable: bool
    b: int
    c: Fraction
    strict_holds: bool | None
    nonstrict_holds: bool | None
    slope_lhs: int | None   # c1^2
    slope_rhs: Fraction | None  # chi_h - 2b - 1
    slope_holds: bool | None
    verdict: str
    notes: tuple[str, ...]
    strict: bool = True  # which count bound decides the verdict

    def to_dict(self) -> dict:
        """Report fields from the verdict on."""
        return {
            "verdict": self.verdict,
            "applicable": self.applicable,
            "b": self.b,
            "c": self.c,
            "count_bound": {
                "strict": self.strict_holds,
                "non_strict": self.nonstrict_holds,
                "mode": "strict" if self.strict else "non-strict",
            },
            "slope_bound": None if not self.applicable else {
                "c1_squared": self.slope_lhs,
                "chi_h_minus_2b_minus_1": self.slope_rhs,
                "holds": self.slope_holds,
            },
            "notes": self.notes,
        }


def basic_class_bound(m: FourManifold, strict: bool = True) -> BoundReport:
    """Count bound b > c/2 (or >= with strict=False) and the slope bound.

    The slope inequality is evaluated exactly as printed,
    c1^2 >= chi_h - 2b - 1, which is weaker than the direct rearrangement
    c1^2 > chi_h - 2b of the count bound; the discrepancy is noted.
    """
    b = basic_class_count(m)
    c = characteristic_number(m)
    notes = ("the printed slope bound is weaker than the rearranged count bound by 2",)
    if b == 0:
        return BoundReport(
            False, 0, c, None, None, None, None, None,
            VERDICT_PASS_VACUOUS, notes + ("no basic classes: hypothesis b > 0 fails",), strict,
        )
    strict_holds = b > c / 2
    nonstrict_holds = b >= c / 2
    lhs = c1_squared(m)
    rhs = holomorphic_euler(m) - 2 * b - 1
    slope_holds = lhs >= rhs
    chosen = strict_holds if strict else nonstrict_holds
    return BoundReport(
        True, b, c, strict_holds, nonstrict_holds, lhs, rhs, slope_holds,
        VERDICT_PASS if chosen else VERDICT_FAIL, notes, strict,
    )


@record
class Window:
    lam_min: int
    lam_max: int
    delta_min: int
    delta_max: int


@record
class RegionDescription:
    """The admissible-degree picture in the (lam.lam, delta) plane."""

    w_characteristic: bool
    intercept_r: Fraction  # r(lam.lam) = -lam.lam + intercept_r
    intercept_i: Fraction  # i(lam.lam) =  lam.lam + intercept_i
    intersection: tuple[int, Fraction]
    triangle: tuple[tuple[Fraction, Fraction], ...]
    window: Window
    delta_congruence: int  # marked deltas are this value mod 4
    lam_congruence: int    # marked squares are this value mod 4
    marked: tuple[tuple[int, int], ...]
    white: tuple[tuple[int, int], ...]


def default_window(m: FourManifold) -> Window:
    c = characteristic_number(m)
    center = -(m.chi + m.sigma)
    half = int(c) + 4 if c.denominator == 1 else 8
    return Window(center - half, center + half, 0, max(int(c) + 4, 4))


def region_data(m: FourManifold, w: CohClass, window: Window | None = None) -> RegionDescription:
    if window is None:
        window = default_window(m)
    c = characteristic_number(m)
    intercept_r = depth_value(m.chi, m.sigma, 0)
    intercept_i = index_value(m.chi, m.sigma, 0)
    intersection = (-(m.chi + m.sigma), c)
    # vertices left foot, apex, right foot: the feet are where the r- and
    # i-lines meet delta = 0, and the apex lies midway between them
    left, right = sorted((intercept_r, -intercept_i))
    triangle = ((left, Fraction(0)), (Fraction(intersection[0]), c), (right, Fraction(0)))
    w_char = is_characteristic(m.form, w)
    residue = _degree_residue(m, w)
    lam_cong = (square(m.form, w) - m.sigma) % 4
    deltas = () if residue is None else range(
        window.delta_min + (residue - window.delta_min) % 4, window.delta_max + 1, 4)
    lam_sqs = range(window.lam_min + (lam_cong - window.lam_min) % 4, window.lam_max + 1, 4)
    marked = tuple((lam_sq, delta) for lam_sq in lam_sqs for delta in deltas)
    white = tuple(p for p in marked if w_char and p[0] % 8 == 0)
    return RegionDescription(
        w_char, intercept_r, intercept_i, intersection, triangle, window,
        -1 if residue is None else residue, lam_cong, marked, white,
    )
