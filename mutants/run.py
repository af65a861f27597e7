"""Mutation checks: each entry breaks the package on purpose, and its tests must fail.

Run from anywhere:

    python3 mutants/run.py

An entry names a file, an exact text in it, the replacement and the tests
that must catch it.  The runner first runs every named test on an unmutated
copy, which must pass.  Then, for each entry, it copies src/, tests/ and
pyproject.toml into a fresh temporary directory, applies the replacement
there and runs pytest -x on the entry's tests in that directory.  The copy
is needed: pytest's `pythonpath = ["src"]` would otherwise import the
unmutated package.  Hypothesis runs with one fixed seed, so a kill that
rests on a property test is reproducible.

An entry is killed when pytest reports a failed test (exit code 1).  The run
fails when an entry survives, when pytest ends any other way, when an entry's
tests take longer than TIMEOUT_FACTOR times the unmutated run of all the
tests (a mutant that loops forever is a failure of the run, not a kill), or
when an entry's text does not occur exactly once in its file: a refactor that
moves the code must rewrite the entry, not drop it silently.

A change that adds a guard adds the mutation that the guard catches here.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_FACTOR = 3


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str   # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]


# The body of lattice._block_diagonal: the facts it keeps on each block.
_BLOCK_FACTS = """\
    facts = block.__dict__.get("_diagonal")
    if facts is None:
        diagonal = [dict(block.column(i)).get(i, 0) for i in range(block.rank)]
        facts = (sum((d > 0) - (d < 0) for d in diagonal),
                 tuple(i for i, d in enumerate(diagonal) if d & 1))
        block.__dict__["_diagonal"] = facts
"""

MUTANTS = (
    Mutant("sst-required-order", "src/swcalc/relations.py",
           "required = c_int - 2", "required = c_int - 1",
           ("tests/test_relations.py", "tests/test_product_family.py")),
    Mutant("degree-residue-off-by-2", "src/swcalc/relations.py",
           "return None if rhs % 2 else rhs // 2 % 4",
           "return None if rhs % 2 else (rhs // 2 + 2) % 4",
           ("tests/test_relations.py",)),
    Mutant("region-white-rule-mod-4", "src/swcalc/relations.py",
           "p[0] % 8 == 0", "p[0] % 4 == 0",
           ("tests/test_relations.py",)),
    Mutant("region-triangle-feet-swapped", "src/swcalc/relations.py",
           "left, right = sorted(", "right, left = sorted(",
           ("tests/test_relations.py",)),
    Mutant("dvanish-vanishing-below-either", "src/swcalc/relations.py",
           "if d < r and d < i:", "if d < r or d < i:",
           ("tests/test_relations.py",)),
    Mutant("region-ascii-r-line-slope", "src/swcalc/region.py",
           "if -lam + r.intercept_r == delta:", "if lam + r.intercept_r == delta:",
           ("tests/test_cli_golden.py",)),
    Mutant("parity-fold-without-doubling", "src/swcalc/series.py",
           "folded = tuple((2 * a, k) for a, k in s.terms[:half])",
           "folded = tuple((a, k) for a, k in s.terms[:half])",
           ("tests/test_series.py", "tests/test_product_family.py")),
    Mutant("division-skips-gap-gcd", "src/swcalc/series.py",
           "step = gcd(*(y[0] - low for y in line)) or 1", "step = 1",
           ("tests/test_series.py::test_scaled_exponents_are_read_without_the_walk",)),
    Mutant("division-counts-one-too-many", "src/swcalc/series.py",
           "    order = 0\n    for line in lines:", "    order = 1\n    for line in lines:",
           ("tests/test_series.py",)),
    Mutant("factor-split-skips-rank-one-test", "src/swcalc/series.py",
           "if any(a * a0**m != a0 * prod(map(dict.__getitem__, lines, x)) for x, a in coeff.items()):",
           "if False:",
           ("tests/test_series.py",)),
    Mutant("factor-split-skips-covector-merge", "src/swcalc/series.py",
           "[gk, 0])[1] += a.numerator", "[gk, 0])[1] = a.numerator",
           ("tests/test_series.py",)),
    Mutant("sw-series-sign-forced-to-1", "src/swcalc/series.py",
           "sign = -1 if (e // 2) % 2 else 1", "sign = 1",
           ("tests/test_series.py",)),
    Mutant("span-reduce-tags-kept-covector", "src/swcalc/series.py",
           "v = {**covector(lattice, k), tag: 1}", "v = covector(lattice, k); v[tag] = 1",
           ("tests/test_series.py",)),
    Mutant("covector-memo-any-lattice", "src/swcalc/lattice.py",
           "if memo is not None and memo[0] is lattice:", "if memo is not None:",
           ("tests/test_lattice.py",)),
    Mutant("literal-pair-descending-j", "src/swcalc/lattice.py",
           "for j in sorted(j for j in near if j > i):",
           "for j in sorted((j for j in near if j > i), reverse=True):",
           ("tests/test_lattice.py",)),
    Mutant("literal-pair-partner-not-isotropic", "src/swcalc/lattice.py",
           "if abs(x) == 1 and isotropic(j):", "if abs(x) == 1:",
           ("tests/test_lattice.py",)),
    Mutant("odometer-wrap-to-zero", "src/swcalc/lattice.py",
           "d = 1 if v[t] < radius else -2 * radius", "d = 1 if v[t] < radius else -radius",
           ("tests/test_lattice.py",)),
    Mutant("odometer-form-step-undoubled", "src/swcalc/lattice.py",
           "q += d * (2 * gv[t] + d * gram[t][t])", "q += d * (gv[t] + d * gram[t][t])",
           ("tests/test_lattice.py",)),
    Mutant("pair-search-f-scan-after-every-e", "src/swcalc/lattice.py",
           "if gcd(*cov) != 1:", "if gcd(*cov) == 0:",
           ("tests/test_lattice.py::test_find_pair_skips_e_with_non_primitive_covector",)),
    Mutant("characteristic-vector-reads-every-column", "src/swcalc/lattice.py",
           "((i, 1) for i in lattice.odd_diagonal)",
           "((i, 1) for i in range(lattice.rank) if dict(lattice.column(i)).get(i, 0) & 1)",
           ("tests/test_lattice.py",)),
    Mutant("validate-passed-builds-checks", "src/swcalc/manifold.py",
           "return all(self.head) and all(all(f) for f, _ in self.classes) and self.unpaired is None",
           "return all(c.ok for c in self.checks)",
           ("tests/test_manifold.py",)),
    Mutant("deferred-run-without-lock", "src/swcalc/__init__.py",
           "with _LOADING:", "if True:",
           ("tests/test_lazy_imports.py",)),
    Mutant("record-hash-first-field-only", "src/swcalc/record.py",
           "return hash(key(self))", "return hash(key(self)[:1])",
           ("tests/test_record.py",)),
    Mutant("record-assignment-allowed", "src/swcalc/record.py",
           "raise AttributeError(f\"cannot assign to field {name!r}\")",
           "object.__setattr__(self, name, value)",
           ("tests/test_record.py",)),
    Mutant("record-eq-across-classes", "src/swcalc/record.py",
           "if other.__class__ is self.__class__:", "if True:",
           ("tests/test_record.py",)),
    Mutant("record-compare-false-ignored", "src/swcalc/record.py",
           "if not isinstance(spec, field) or spec.compare:",
           "if not isinstance(spec, field) or True:",
           ("tests/test_record.py",)),
    Mutant("record-post-init-not-run", "src/swcalc/record.py",
           "post_init = getattr(cls, \"__post_init__\", None)", "post_init = None",
           ("tests/test_record.py",)),
    Mutant("record-own-init-overwritten", "src/swcalc/record.py",
           "if method.__name__ not in cls.__dict__:",
           "if method is __init__ or method.__name__ not in cls.__dict__:",
           ("tests/test_record.py",)),
    Mutant("pair-search-inner-scan-advances-origin", "src/swcalc/lattice.py",
           "for f, _ in copy(origin):", "for f, _ in origin:",
           ("tests/test_lattice.py",)),
    Mutant("power-sums-coefficients-unscaled", "src/swcalc/series.py",
           "coeffs = [a.numerator * (den_a // a.denominator) for a, _ in s.terms]",
           "coeffs = [a.numerator for a, _ in s.terms]",
           ("tests/test_series.py",)),
    Mutant("span-denominator-max-not-lcm", "src/swcalc/series.py",
           "den = lcm(*(mu for mu, _ in scaled))", "den = max(mu for mu, _ in scaled)",
           ("tests/test_series.py",)),
    Mutant("vanishing-order-degree-loop-one-short", "src/swcalc/series.py",
           "for n in range(first, cap + 1, step):", "for n in range(first, cap, step):",
           ("tests/test_series.py",)),
    Mutant("power-sums-last-power-off-by-one", "src/swcalc/series.py",
           "sum(map(mul, prods[m], powers[rest]))", "sum(map(mul, prods[m], powers[rest - 1]))",
           ("tests/test_series.py",)),
    Mutant("vanishing-order-reported-one-high", "src/swcalc/series.py",
           "return VanishingOrder.exact(n)", "return VanishingOrder.exact(n + 1)",
           ("tests/test_series.py",)),
    Mutant("dvanish-trace-i-lambda-below-c", "src/swcalc/relations.py",
           "\"i_lambda\": self.c + self.case_mod_8,", "\"i_lambda\": self.c - self.case_mod_8,",
           ("tests/test_relations.py",)),
    Mutant("sst-report-required-order", "src/swcalc/relations.py",
           "out[\"required_order\"] = int(self.c) - 2", "out[\"required_order\"] = int(self.c) - 1",
           ("tests/test_relations.py",)),
    Mutant("sst-reads-the-order-degree-as-zero", "src/swcalc/relations.py",
           "order.satisfies(delta - 2 * mm + 1)", "order.satisfies(delta - 2 * mm)",
           ("tests/test_relations.py",)),
    Mutant("dvanish-reads-the-order-degree-as-zero", "src/swcalc/relations.py",
           "order.satisfies(d - 2 * mm + 1)", "order.satisfies(d - 2 * mm)",
           ("tests/test_relations.py",)),
    Mutant("opening-accepts-chi-plus-sigma-4", "src/swcalc/relations.py",
           "if m.chi + m.sigma == 4:", "if False:",
           ("tests/test_relations.py::test_sst_and_dvanish_need_chi_plus_sigma_not_4",)),
    Mutant("cli-undetermined-drops-the-manifold", "src/swcalc/cli.py",
           "        fields = {\"verdict\": VERDICT_UNDETERMINED, \"error\": str(e)}",
           "        head, fields = {}, {\"verdict\": VERDICT_UNDETERMINED, \"error\": str(e)}",
           ("tests/test_manifest_cli.py",)),
    Mutant("witten-recurrence-index-one-high", "src/swcalc/series.py",
           "l * e + n * q * p", "l * e + (n + 1) * q * p",
           ("tests/test_series.py",)),
    Mutant("witten-direction-scale-dropped", "src/swcalc/series.py",
           "scale *= (n + 1) * den", "scale *= n + 1",
           ("tests/test_series.py::test_witten_series_e3_direction",
            "tests/test_series.py::test_evaluate_along_matches_the_written_out_definition")),
    Mutant("sst-half-pair-checked-after-the-walk", "src/swcalc/relations.py",
           "    if (lambda0 is None) != (lambda1 is None):\n", "    if False:\n",
           ("tests/test_relations.py::test_sst_rejects_a_half_pair_before_the_series_walk",)),
    Mutant("parse-builds-fresh-blocks", "src/swcalc/manifest.py",
           "        return shared\n",
           "        return shared.__class__(*map(shared.__getattribute__, shared._fields))\n",
           ("tests/test_manifest_cli.py::test_parsed_forms_share_one_block_per_kind_and_sign",)),
    Mutant("block-facts-kept-per-class", "src/swcalc/lattice.py", _BLOCK_FACTS,
           _BLOCK_FACTS.replace("block.__dict__.get(", "type(block).__dict__.get(").replace(
               "block.__dict__[\"_diagonal\"] = facts", "type(block)._diagonal = facts"),
           ("tests/test_lattice.py::test_block_facts_agree_on_shared_and_fresh_blocks",)),
    Mutant("parse-shares-one-e8-for-both-signs", "src/swcalc/manifest.py",
           "(\"sign\", 1)): _E8[1],", "(\"sign\", 1)): _E8[-1],",
           ("tests/test_lattice.py::test_block_facts_agree_on_shared_and_fresh_blocks",)),
    Mutant("parse-block-sign-tested-by-value", "src/swcalc/manifest.py",
           "if shared is not None and type(obj.get(\"sign\", -1)) is int:",
           "if shared is not None:",
           ("tests/test_manifest_cli.py::test_block_descriptor_messages",)),
    Mutant("parse-class-sw-tested-by-value", "src/swcalc/manifest.py",
           "type(sw := entry[\"sw\"]) is int", "isinstance(sw := entry[\"sw\"], int)",
           ("tests/test_manifest_cli.py::test_non_integer_behind_a_well_formed_entry",)),
    Mutant("parse-class-short-coords-accepted", "src/swcalc/manifest.py",
           "len(coords) == rank", "len(coords) <= rank",
           ("tests/test_manifest_cli.py::test_short_coords_and_extra_key_behind_a_well_formed_entry",)),
    Mutant("abundance-classes-not-kept", "src/swcalc/relations.py",
           "classes = m.abundance_classes.get(radius)", "classes = None",
           ("tests/test_relations.py::test_sst_and_dvanish_share_the_abundance_classes_and_their_covectors",)),
    Mutant("series-order-reused-at-any-cap", "src/swcalc/relations.py",
           "if kept_cap == cap or (order.kind == \"exact\" and order.value <= cap):", "if True:",
           ("tests/test_relations.py::test_dvanish_then_sst_walks_a_fresh_order_for_sst",)),
    Mutant("series-flags-never-reuse", "src/swcalc/relations.py",
           "return kept[1] if kept is not None and kept[0] >= cap else _series_order(m, w, cap)",
           "return _series_order(m, w, cap)",
           ("tests/test_relations.py::test_sst_then_dvanish_walk_the_series_order_once",)),
    Mutant("report-str-fallback", "src/swcalc/report.py",
           "raise TypeError(f\"no exact JSON form for {type(value).__name__}\")",
           "return str(value)",
           ("tests/test_report.py",)),
)


def run_tests(tests, mutant=None, timeout=None) -> tuple[int, float]:
    """pytest -x over tests in a fresh copy of the tree, with mutant applied;
    its exit code and wall time.  Raises subprocess.TimeoutExpired after
    timeout seconds."""
    with tempfile.TemporaryDirectory(prefix="swcalc-mutant-") as tmp:
        work = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")
        if mutant is not None:
            target = work / mutant.path
            text = target.read_text()
            count = text.count(mutant.old)
            if count != 1:
                raise LookupError(f"{mutant.name}: {mutant.old!r} occurs {count} times in {mutant.path}")
            target.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *tests],
            cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=timeout,
        )
        return done.returncode, time.perf_counter() - start


def main() -> int:
    tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    code, seconds = run_tests(tests)
    print(f"baseline  exit {code}  {seconds:5.1f} s  {' '.join(tests)}")
    if code != 0:
        print("the unmutated tree fails its tests; no kill would mean anything", file=sys.stderr)
        return 1
    limit = TIMEOUT_FACTOR * seconds
    bad = []
    for mutant in MUTANTS:
        try:
            code, seconds = run_tests(mutant.tests, mutant, limit)
        except LookupError as missing:
            print(f"stale     {missing}")
            bad.append(mutant.name)
            continue
        except subprocess.TimeoutExpired:
            print(f"timeout   {limit:5.1f} s  {mutant.name}  ({' '.join(mutant.tests)})")
            bad.append(mutant.name)
            continue
        verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"exit {code}")
        print(f"{verdict:<9} {seconds:5.1f} s  {mutant.name}  ({' '.join(mutant.tests)})")
        if code != 1:
            bad.append(mutant.name)
    print(f"{len(MUTANTS) - len(bad)} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
