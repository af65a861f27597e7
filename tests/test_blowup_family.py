"""Blow-ups of K3 and E(n) as a theory oracle.

By the blow-up formula (Fintushel-Stern, Turkish J. Math. 19, 1995),
X # CP2-bar has the basic classes k + E and k - E for each basic class k of
X, where E is the exceptional class (E.E = -1), with SW(k +- E) = SW(k).
The generator below appends a diag(-1) block for E and builds the manifest
from that rule alone; it shares no code with swcalc.

chi grows by 1 and sigma drops by 1, so chi + sigma, b+ and the dvanish
case are unchanged, while c = chi_h - c1^2 grows by 1.  A characteristic w
has an odd E coordinate, so w.(k + E) and w.(k - E) differ by an odd
number and the two classes enter the series with opposite signs: the series
gains the factor +-(e^y - e^-y), y = <E, h>.  So it vanishes to one order
more and its parity flips, and the sst verdict is unchanged, except that
pass-vacuous (c < 3) becomes pass once c >= 3.
"""

import json

import pytest

import swcalc.series as series
from swcalc.catalog import catalog_entry
from swcalc.lattice import characteristic_vector
from swcalc.manifest import parse_manifest
from swcalc.manifold import validate
from swcalc.relations import dvanish_theorem_check, sst_check
from swcalc.series import Parity, VanishingOrder, parity, sw_series, vanishing_order

from conftest import relation_flag_pairs

FLIPPED = {Parity.EVEN: Parity.ODD, Parity.ODD: Parity.EVEN}


def blowup(manifest):
    """X # CP2-bar: a diag(-1) block for E, and each basic class k replaced
    by k + E and k - E with the same SW."""
    return dict(
        manifest, name=manifest["name"] + "#-CP2", chi=manifest["chi"] + 1,
        sigma=manifest["sigma"] - 1, form=manifest["form"] + [{"type": "diag", "entries": [-1]}],
        basic_classes=[{"coords": entry["coords"] + [e], "sw": entry["sw"]}
                       for entry in manifest["basic_classes"] for e in (1, -1)],
    )


def blown_up(name, times):
    manifest = catalog_entry(name)
    for _ in range(times):
        manifest = blowup(manifest)
    return manifest


def facts(manifest):
    """(c, order, parity, sst verdict, dvanish case) of a manifest that
    validates, with every relation flag checked against relate's polynomial."""
    m = parse_manifest(json.dumps(manifest)).to_manifold()
    assert validate(m).passed
    w = characteristic_vector(m.form)
    c = m.characteristic_number
    s = sw_series(m, w)
    order = vanishing_order(s, int(c) + 4)
    assert order.kind == "exact"
    assert all(reported == polynomial for reported, polynomial in relation_flag_pairs(m, w))
    return c, order.value, parity(s), sst_check(m, w).verdict, dvanish_theorem_check(m, w).case_mod_8


def test_a_blowup_doubles_the_classes_on_a_diag_block():
    e3 = catalog_entry("E3")
    once = blowup(e3)
    assert (once["chi"], once["sigma"], once["b_plus"]) == (37, -25, 5)
    assert once["form"] == e3["form"] + [{"type": "diag", "entries": [-1]}]
    assert [(c["coords"][0], c["coords"][-1], c["sw"]) for c in once["basic_classes"]] == [
        (1, 1, 1), (1, -1, 1), (-1, 1, -1), (-1, -1, -1)]


@pytest.mark.parametrize("name", ["K3", "E3", "E4", "E5", "E6"])
def test_each_blowup_keeps_the_verdicts_and_raises_c_and_the_order(name):
    c, order, sign, sst, case = facts(blown_up(name, 0))
    for times in (1, 2):
        expected_sst = "pass" if sst == "pass-vacuous" and c + times >= 3 else sst
        assert facts(blown_up(name, times)) == (
            c + times, order + times, sign if times % 2 == 0 else FLIPPED[sign], expected_sst, case)


def test_nine_blowups_of_e4_split_into_ten_factors(monkeypatch):
    # 3 * 2^9 = 1,536 classes on rank 55: the series is E(4)'s times nine
    # factors e^y - e^-y on distinct diag blocks, so the order engine reads
    # order 2 + 9 = 11 by splitting and division, with no walk and no
    # relation kernel, and sst passes at c = 13
    def refused(*args):
        raise AssertionError("sst walked the series or ran the relation kernel")

    manifest = blown_up("E4", 9)
    assert len(manifest["basic_classes"]) == 1536
    m = parse_manifest(json.dumps(manifest)).to_manifold()
    assert validate(m).passed
    with monkeypatch.context() as patch:
        for name in ("_power_sums", "power_sums", "twist"):
            patch.setattr(series, name, refused)
        sst = sst_check(m, characteristic_vector(m.form))
    assert (sst.verdict, sst.c, sst.order) == ("pass", 13, VanishingOrder.exact(11))
