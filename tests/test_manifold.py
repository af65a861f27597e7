"""Input validation and derived scalar invariants."""

import random

from swcalc.lattice import (
    CohClass,
    DiagonalBlock,
    E8Block,
    HyperbolicBlock,
    IntegralLattice,
    block_determinant,
)
from swcalc.manifold import (
    BasicClassEntry,
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
