"""Input validation and derived scalar invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from swcalc.lattice import (
    CohClass,
    DiagonalBlock,
    E8Block,
    HyperbolicBlock,
    IntegralLattice,
    block_determinant,
    block_signature,
    covector,
    dot,
    is_characteristic,
)
from swcalc.manifest import load_catalog, parse_manifest
from swcalc.manifold import (
    BasicClassEntry,
    CheckResult,
    FourManifold,
    basic_class_count,
    c1_squared,
    c1_squared_of,
    characteristic_number,
    characteristic_number_of,
    holomorphic_euler,
    holomorphic_euler_of,
    validate,
)
from swcalc.record import replace


def failed_names(m):
    return {c.name.split(".")[-1] for c in validate(m).failures()}


def test_catalog_entries_validate(catalog):
    for name, m in catalog.items():
        report = validate(m)
        assert report.passed, (name, report.failures())


def test_k3_chi_corruption(catalog):
    m = replace(catalog["K3"], chi=25)
    names = failed_names(m)
    assert "euler_number" in names
    assert "chi_plus_sigma_mod_4" in names


def test_k3_single_field_corruptions(catalog):
    k3 = catalog["K3"]
    mutations = (
        replace(k3, chi=k3.chi + 4),     # euler_number
        replace(k3, sigma=k3.sigma + 4),  # signature
        replace(k3, sigma=k3.sigma + 1),  # mod 4 and signature
        replace(k3, b_plus=k3.b_plus + 1),
        replace(
            k3, basic_classes=(BasicClassEntry(CohClass((1,) + (0,) * 21), 1),)
        ),  # not characteristic, wrong square
        replace(
            k3, basic_classes=(BasicClassEntry(CohClass.zero(22), 0),)
        ),  # sw = 0
    )
    for mutant in mutations:
        assert not validate(mutant).passed


def test_conjugation_asymmetry_detected(catalog):
    # unequal values on a +- pair with chi_h even must fail
    e4 = catalog["E4"]
    f2 = CohClass((2,) + (0,) * 45)
    entries = (
        BasicClassEntry(f2, 1),
        BasicClassEntry(CohClass.zero(46), -2),
        BasicClassEntry(-f2, 2),
    )
    m = replace(e4, basic_classes=entries)
    assert "conjugation_symmetry" in failed_names(m)


def test_form_signature_mismatch_flagged():
    # topology claiming sigma = -8 over a signature -16 form
    form = IntegralLattice.from_blocks([HyperbolicBlock()] * 7 + [E8Block(-1)] * 2)
    m = FourManifold("skew", 32, -8, 12, form, ())
    assert "form_signature" in failed_names(m)


def _diagonal_topology(entries):
    """chi 8, sigma 0, b+ 3 and no basic classes over diag(entries)."""
    form = IntegralLattice.from_blocks([DiagonalBlock(entries)])
    return FourManifold("diag", 8, 0, 3, form, ())


def test_degenerate_form_flagged():
    # determinant 0: every other check passes, so only unimodularity rejects it
    assert failed_names(_diagonal_topology((1, 1, 0, 0, -1, -1))) == {"unimodular"}


def test_non_unimodular_form_flagged():
    # nondegenerate, determinant 3*5*7*(-2)^3 = -840
    m = _diagonal_topology((3, 5, 7, -2, -2, -2))
    assert failed_names(m) == {"unimodular"}
    assert block_determinant(m.form) == -840


def test_block_determinant_is_the_product_over_blocks():
    blocks = [HyperbolicBlock(), E8Block(1), E8Block(-1), DiagonalBlock((1, -1, -1))]
    assert block_determinant(IntegralLattice.from_blocks(blocks)) == -1
    assert block_determinant(IntegralLattice.from_blocks([HyperbolicBlock()] * 2)) == 1
    assert block_determinant(IntegralLattice.from_blocks([E8Block(-1)])) == 1


def test_non_simple_type_flagged():
    form = IntegralLattice.from_blocks([HyperbolicBlock()] * 3 + [E8Block(-1)] * 2)
    k = CohClass((2, 2) + (0,) * 20)  # k.k = 8 != 0 = 2chi+3sigma
    m = FourManifold("bad", 24, -16, 3, form,
                     (BasicClassEntry(k, 1), BasicClassEntry(-k, 1)))
    assert "sw_simple_type" in failed_names(m)


def test_duplicate_class_flagged(catalog):
    k3 = catalog["K3"]
    m = replace(
        k3,
        basic_classes=(BasicClassEntry(CohClass.zero(22), 1),
                       BasicClassEntry(CohClass.zero(22), 1)),
    )
    assert "distinct" in failed_names(m)


def test_characteristic_number_examples():
    assert characteristic_number_of(24, -16) == 2
    assert characteristic_number_of(0, 0) == 0
    assert characteristic_number_of(48, -32) == 4


def test_derived_scalar_examples(catalog):
    k3 = catalog["K3"]
    assert holomorphic_euler(k3) == 2
    assert c1_squared(k3) == 0
    e3 = catalog["E3"]
    assert holomorphic_euler(e3) == 3
    assert c1_squared(e3) == 0
    assert characteristic_number(e3) == 3


def test_characteristic_number_identity_random():
    # c = chi_h - c1^2 for every (chi, sigma), not only geometric ones
    rng = random.Random(5)
    for _ in range(500):
        chi = rng.randint(-300, 300)
        sigma = rng.randint(-300, 300)
        assert characteristic_number_of(chi, sigma) == (
            holomorphic_euler_of(chi, sigma) - c1_squared_of(chi, sigma)
        )


def test_basic_class_count(catalog):
    assert basic_class_count(catalog["K3"]) == 1
    assert basic_class_count(catalog["E3"]) == 1
    assert basic_class_count(catalog["E4"]) == 2
    assert basic_class_count(catalog["E5"]) == 2
    assert basic_class_count(catalog["E6"]) == 3


def test_basic_class_count_negation_invariance(catalog):
    for m in catalog.values():
        flipped = replace(
            m,
            basic_classes=tuple(
                BasicClassEntry(-e.k, e.sw) for e in m.basic_classes
            ),
        )
        assert basic_class_count(flipped) == basic_class_count(m)


def test_validate_builds_details_only_when_rendered(catalog, monkeypatch):
    # the details name the input classes: validate reads no class's dense
    # coordinates, and to_list builds each detail from its own class
    views = []
    dense = CohClass.coords.func
    monkeypatch.setattr(CohClass, "coords", property(lambda c: views.append(c) or dense(c)))
    e4 = catalog["E4"]
    report = validate(e4)
    assert report.passed and not views
    details = {c["name"]: c["detail"] for c in report.to_list()}
    for idx, entry in enumerate(e4.basic_classes):
        assert details[f"basic_classes[{idx}].characteristic"] == (
            f"class {list(entry.k.coords)} is not characteristic")

    a, b = CohClass((1, 1) + (0,) * 20), CohClass((1,) + (0,) * 21)
    k3 = replace(catalog["K3"], basic_classes=(
        BasicClassEntry(a, 1), BasicClassEntry(b, 1), BasicClassEntry(a, 1)))
    details = {c["name"]: c["detail"] for c in validate(k3).to_list()}
    assert details["basic_classes[0].characteristic"] == f"class {list(a.coords)} is not characteristic"
    assert details["basic_classes[1].characteristic"] == f"class {list(b.coords)} is not characteristic"
    assert details["basic_classes[2].distinct"] == f"duplicate class {list(a.coords)}"
    assert details["basic_classes[0].sw_simple_type"] == "k.k = 2, simple type requires 0"
    assert details["basic_classes[1].sw_simple_type"] == "k.k = 0, simple type requires 0"


def reference_validate(m):
    """The eager validate, the oracle of the one in swcalc.manifold: it
    builds every check record, label and detail as it runs."""
    checks = []

    def check(name, ok, describe=str):
        checks.append(CheckResult(name, bool(ok), describe()))

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
        check(f"{label}.characteristic", is_characteristic(m.form, k),
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
    return tuple(checks)


CATALOG = {name: load_catalog(name).to_manifold() for name in ("K3", "E3", "E4", "E5", "E6")}


@st.composite
def corrupted_manifolds(draw):
    """A catalog manifold, as it is or with one field corrupted."""
    m = CATALOG[draw(st.sampled_from(sorted(CATALOG)))]
    entries = list(m.basic_classes)
    kind = draw(st.sampled_from(("none", "sw_sign", "sw_zero", "drop", "duplicate", "chi",
                                 "sigma", "b_plus", "wrong_length", "shifted_class")))
    i = draw(st.integers(0, len(entries) - 1))
    delta = draw(st.integers(-5, 5).filter(bool))
    if kind == "sw_sign":
        entries[i] = BasicClassEntry(entries[i].k, -entries[i].sw)
    elif kind == "sw_zero":
        entries[i] = BasicClassEntry(entries[i].k, 0)
    elif kind == "drop":
        del entries[i]
    elif kind == "duplicate":
        entries.insert(draw(st.integers(0, len(entries))), entries[i])
    elif kind in ("chi", "sigma", "b_plus"):
        return replace(m, **{kind: getattr(m, kind) + delta})
    elif kind == "wrong_length":
        coords = entries[i].k.coords
        k = CohClass(coords + (delta,) if delta > 0 else coords[:delta])
        entries.insert(i, BasicClassEntry(k, entries[i].sw))
    elif kind == "shifted_class":
        t = draw(st.integers(0, m.form.rank - 1))
        entries[i] = BasicClassEntry(entries[i].k + delta * CohClass.unit(m.form.rank, t),
                                     entries[i].sw)
    return replace(m, basic_classes=tuple(entries))


@settings(max_examples=150, deadline=None)
@given(corrupted_manifolds())
def test_validate_matches_the_eager_reference(m):
    # the facts-first validate against the eager one: the same verdict, the
    # same failing names and the same report entries, details included
    ref = reference_validate(m)
    report = validate(m)
    assert report.passed == all(c.ok for c in ref)
    assert [c.name for c in report.failures()] == [c.name for c in ref if not c.ok]
    assert report.to_list() == [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in ref]


def test_passing_validate_builds_no_check_record(fixtures_dir, monkeypatch):
    # 81 basic classes: a passing validate records facts only; the check
    # records are built when the report is rendered, once
    m = parse_manifest((fixtures_dir / "wide_e10_2222.json").read_text()).to_manifold()
    built = []
    init = CheckResult.__init__
    monkeypatch.setattr(CheckResult, "__init__",
                        lambda self, *args: built.append(args[0]) or init(self, *args))
    report = validate(m)
    assert report.passed and not built and "checks" not in vars(report)
    entries = report.to_list()
    assert len(m.basic_classes) == 81
    assert built == [e["name"] for e in entries] and len(entries) == 6 + 4 * 81 + 1
    report.to_list()
    assert len(built) == len(entries)
