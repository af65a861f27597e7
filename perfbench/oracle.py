"""Exact correctness oracle for benchmark results.

The checks here re-derive every witness from the manifest with their own
integer arithmetic (block-sparse Gram rows, no swcalc code), so a wrong
answer from the program under test cannot also pass its own check:

- a hyperbolic pair has e.e = f.f = 0, e.f = 1 and is orthogonal to every
  basic class;
- lambda0 and lambda1 have squares -(chi+sigma) and -(chi+sigma)+4, are
  congruent mod 2 and orthogonal to every basic class;
- the series order and every relation-sum zero claim agree with power sums
  sum_k s_k <k - lam, h>^d evaluated exactly at seeded random points h;
- the verdicts agree with those checks and with the reference verdicts
  recorded at the commit that introduced the benchmark.

An ``undetermined`` reference may be met by a ``pass`` whose witness checks.
Each check returns a list of problems; an empty list means the result holds.
"""

import json
import random
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# The manifest format's E8 block: the Cartan matrix of the chain 0-1-2-3-4-5-6
# with node 7 attached to node 4, times the block's sign.
_E8_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7))


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


class Form:
    """The intersection form of a manifest, as sparse integer rows."""

    def __init__(self, manifest: dict):
        rows = []
        for block in manifest["form"]:
            base = len(rows)
            if block["type"] == "H":
                rows += [{base + 1: 1}, {base: 1}]
            elif block["type"] == "E8":
                sign = block.get("sign", -1)
                local = [{base + i: 2 * sign} for i in range(8)]
                for i, j in _E8_EDGES:
                    local[i][base + j] = -sign
                    local[j][base + i] = -sign
                rows += local
            else:
                rows += [{base + i: e} for i, e in enumerate(block["entries"])]
        self.rows = rows
        self.rank = len(rows)
        self.chi = manifest["chi"]
        self.sigma = manifest["sigma"]
        self.classes = [(list(e["coords"]), e["sw"]) for e in manifest["basic_classes"]]

    def pair(self, a, b) -> int:
        return sum(
            ai * sum(g * b[j] for j, g in self.rows[i].items())
            for i, ai in enumerate(a) if ai
        )

    def square(self, a) -> int:
        return self.pair(a, a)

    def is_characteristic(self, c) -> bool:
        return all(
            (sum(g * c[j] for j, g in row.items()) - row.get(i, 0)) % 2 == 0
            for i, row in enumerate(self.rows)
        )

    @property
    def c(self) -> int:
        return -(7 * self.chi + 11 * self.sigma) // 4

    def signs(self, w):
        """s_k = sw * (-1)^((w.w + k.w)/2) for every basic class."""
        wsq = self.square(w)
        return [sw * (-1 if ((wsq + self.pair(k, w)) // 2) % 2 else 1) for k, sw in self.classes]


def _orthogonal(form: Form, name: str, v) -> list[str]:
    return [f"{name} pairs with basic class {i}"
            for i, (k, _) in enumerate(form.classes) if form.pair(v, k)]


def check_pair(form: Form, e, f) -> list[str]:
    problems = []
    if form.square(e) or form.square(f) or form.pair(e, f) != 1:
        problems.append("hyperbolic pair: need e.e = f.f = 0 and e.f = 1")
    return problems + _orthogonal(form, "e", e) + _orthogonal(form, "f", f)


def check_lambdas(form: Form, lam0, lam1) -> list[str]:
    cs = form.chi + form.sigma
    problems = []
    if form.square(lam0) != -cs:
        problems.append(f"lambda0.lambda0 = {form.square(lam0)}, need {-cs}")
    if form.square(lam1) != -cs + 4:
        problems.append(f"lambda1.lambda1 = {form.square(lam1)}, need {-cs + 4}")
    if any((a - b) % 2 for a, b in zip(lam0, lam1)):
        problems.append("lambda0 and lambda1 are not congruent mod 2")
    return problems + _orthogonal(form, "lambda0", lam0) + _orthogonal(form, "lambda1", lam1)


def check_lambda_even(form: Form, lam) -> list[str]:
    h = (form.chi + form.sigma) // 4
    want = -4 * h if h % 2 == 0 else -4 * h + 4
    problems = [] if form.square(lam) == want else [f"lambda_even square != {want}"]
    if any(x % 2 for x in lam):
        problems.append("lambda_even is not even")
    return problems + _orthogonal(form, "lambda_even", lam)


def _points(form: Form, rng: random.Random, count: int = 3):
    return [[rng.randint(-10**6, 10**6) for _ in range(form.rank)] for _ in range(count)]


def _power_sums(form: Form, w, lam, degrees, points):
    """For each point h, [sum_k s_k(w) <k - lam, h>^d for d in degrees]."""
    signs = form.signs(w)
    out = []
    for h in points:
        lam_h = form.pair(lam, h)
        t = [form.pair(k, h) - lam_h for k, _ in form.classes]
        out.append([sum(s * x ** d for s, x in zip(signs, t)) for d in degrees])
    return out


def _zero_claim(values, claimed_zero, what) -> list[str]:
    """A zero claim is refuted by any nonzero value.  A nonzero claim is
    refuted when every random point gives zero: for a nonzero polynomial of
    degree d that happens with chance below (d / 2e6)^3 at three points."""
    if claimed_zero and any(values):
        return [f"{what}: claimed zero, but the sum is nonzero"]
    if not claimed_zero and not any(values):
        return [f"{what}: claimed nonzero, but the sum vanishes at random points"]
    return []


def check_zero_claim(form: Form, w, lam, d, claimed_zero, rng, what) -> list[str]:
    """sum_k s_k(w) <k - lam, h>^d is the zero polynomial iff claimed_zero."""
    values = [row[0] for row in _power_sums(form, w, lam, [d], _points(form, rng))]
    return _zero_claim(values, claimed_zero, what)


def check_order(form: Form, w, order, rng) -> list[str]:
    """The series sum_k s_k e^<k,h> vanishes to the reported order: its degree-j
    Taylor term is the j-th power sum over j!, so power sums below the order
    vanish and, for an exact order, the power sum at the order does not."""
    kind, value = order
    if kind == "zero_series":
        return []
    top = value + 1 if kind == "exact" else value
    sums = _power_sums(form, w, [0] * form.rank, range(top), _points(form, rng))
    problems = []
    for j in range(top):
        problems += _zero_claim([row[j] for row in sums], j < value, f"order term {j}")
    return problems


def check_sst(form: Form, w, r: dict, rng) -> list[str]:
    c = form.c
    if c - 3 < 0:
        return [] if r["verdict"] == "pass-vacuous" else ["sst: c - 3 < 0 must be vacuous"]
    lam0, lam1 = r["lambda0"], r["lambda1"]
    problems = check_lambdas(form, lam0, lam1) + check_order(form, w, r["order"], rng)
    sq0 = form.square(lam0)
    r0 = -sq0 - (11 * form.chi + 15 * form.sigma) // 4
    i0 = sq0 - (3 * form.chi + 7 * form.sigma) // 4
    delta = c - 4
    expected = [(c - 4 - 2 * m, m) for m in range((c - 4) // 2 + 1)] if c >= 4 else []
    if [(e[0], e[1]) for e in r["entries"]] != expected:
        problems.append("sst: trace entries do not cover every m with d = c - 4 - 2m >= 0")
    w1 = [a + b for a, b in zip(w, lam1)]
    ok = True
    for d, m, entry_delta, applies, is_zero in r["entries"]:
        if entry_delta != delta or applies != (delta < r0 and delta < i0):
            problems.append(f"sst: entry m={m} has the wrong vanishing-branch flag")
        problems += check_zero_claim(form, w1, lam1, d, is_zero, rng, f"sst relation m={m}")
        ok = ok and applies and is_zero
    kind, value = r["order"]
    ok = ok and (kind == "zero_series" or value >= c - 2)
    if r["verdict"] != ("pass" if ok else "fail"):
        problems.append(f"sst: verdict {r['verdict']} disagrees with its trace")
    return problems


def check_dvanish(form: Form, w, r: dict, rng) -> list[str]:
    lam = r["lambda"]
    problems = check_lambda_even(form, lam)
    c = form.c
    cs = form.chi + form.sigma
    rhs = -2 * form.square(w) - 3 * cs // 2
    admissible = [d for d in range(max(c, 0)) if (2 * d - rhs) % 8 == 0]
    if r["admissible_d"] != admissible:
        problems.append("dvanish: admissible degrees differ from the mod-8 rule")
    sq = form.square(lam)
    rl = -sq - (11 * form.chi + 15 * form.sigma) // 4
    il = sq - (3 * form.chi + 7 * form.sigma) // 4
    wl = [a + b for a, b in zip(w, lam)]
    want, ok = [], True
    for d in admissible:
        for m in range(d // 2 + 1):
            route = "vanishing" if d < rl and d < il else "relation" if d == rl else "uncovered"
            want.append((d, m, route))
            ok = ok and route != "uncovered"
    got = [(e[0], e[1], e[2]) for e in r["entries"]]
    if got != want:
        problems.append("dvanish: trace entries differ from the degree sweep")
    for d, m, route, is_zero in r["entries"]:
        if route == "relation":
            problems += check_zero_claim(form, wl, lam, d - 2 * m, is_zero, rng,
                                         f"dvanish relation d={d} m={m}")
        ok = ok and is_zero
    if r["verdict"] != ("pass" if ok else "fail"):
        problems.append(f"dvanish: verdict {r['verdict']} disagrees with its trace")
    return problems


def check_abundance(form: Form, r: dict) -> list[str]:
    if r["verdict"] != "pass":
        return []
    return (check_pair(form, r["e1"], r["e2"])
            + check_lambdas(form, r["lambda0"], r["lambda1"])
            + check_lambda_even(form, r["lambda_even"]))


def compare_verdict(got: str, want: str, what: str) -> list[str]:
    if got == want or (want == "undetermined" and got == "pass"):
        return []
    return [f"{what}: verdict {got}, reference {want}"]


def check_item(manifest: dict, result: dict, reference: dict, rng) -> list[str]:
    """Verify one library-pipeline result against the oracle and the reference."""
    form = Form(manifest)
    problems = compare_verdict(result["validate"], reference["validate"], "validate")
    if result["validate"] != "pass":
        return problems
    if "abundance" in result:
        r = result["abundance"]
        problems += compare_verdict(r["verdict"], reference["abundance"], "abundance")
        return problems + check_abundance(form, r)
    w = result["w"]
    if not form.is_characteristic(w):
        problems.append("w is not characteristic")
    sst, dv = result["sst"], result["dvanish"]
    problems += compare_verdict(sst["verdict"], reference["sst"], "sst")
    if sst["order"] != reference["order"]:
        problems.append(f"sst: order {sst['order']}, reference {reference['order']}")
    problems += compare_verdict(dv["verdict"], reference["dvanish"], "dvanish")
    return problems + check_sst(form, w, sst, rng) + check_dvanish(form, w, dv, rng)


# ---- CLI reports --------------------------------------------------------------

def cli_facts(argv, code: int, out: str) -> dict:
    """Exact, layout-independent facts of one CLI call's output."""
    cmd = argv[0]
    facts = {"exit": code}
    if cmd == "region" and "svg" in argv:
        facts["dots"] = out.count("<circle")
        return facts
    if cmd == "region" and "ascii" in argv:
        facts["marked"] = sum(line.count("*") + line.count("o") for line in out.splitlines()[1:-2])
        return facts
    if cmd == "catalog" and argv[1] == "show":
        shown = json.loads(out)
        facts["manifest"] = {k: shown[k] for k in ("chi", "sigma", "b_plus", "form", "basic_classes")}
        return facts
    if not out.strip():
        return facts
    report = json.loads(out)
    facts["verdict"] = report.get("verdict")
    if cmd == "invariants":
        facts.update({k: report[k] for k in ("c", "chi_h", "c1_squared", "b", "parity")})
    elif cmd == "witten":
        facts.update({k: report[k] for k in ("prefactor", "coefficients")})
    elif cmd == "bound":
        facts["count_bound"] = report["count_bound"]
    elif cmd == "region":
        region = report["region"]
        facts.update(marked=len(region["marked"]), white=len(region["white"]),
                     intersection=region["intersection"])
    elif cmd == "relate":
        facts["is_zero"] = report["polynomial"]["is_zero"]
        if "value_at" in report:
            facts["value_at"] = report["value_at"]["value"]
    elif cmd == "sst" and "vanishing_order" in report:
        order = report["vanishing_order"]
        facts["order"] = [order["kind"], order["value"]]
    elif cmd == "catalog":
        facts["names"] = report["names"]
    return facts


def _sst_from_report(report: dict) -> dict:
    trace = report["trace"]
    order = report["vanishing_order"]
    return {
        "verdict": report["verdict"], "order": [order["kind"], order["value"]],
        "lambda0": trace["lambda0"], "lambda1": trace["lambda1"],
        "entries": [[e["d"], e["m"], e["delta"], e["vanishing_applies"],
                     e["relation_sum_is_zero"]] for e in trace["entries"]],
    }


def _dvanish_from_report(report: dict) -> dict:
    trace = report["trace"]
    return {
        "verdict": report["verdict"], "lambda": trace["lambda"],
        "admissible_d": trace["admissible_d"],
        "entries": [[e["d"], e["m"], e["route"], e["value"] == "0"] for e in trace["entries"]],
    }


def check_cli(argv, code: int, out: str, err: str, manifest, reference: dict, rng) -> list[str]:
    """Verify one CLI call: exit code, traceback-free stderr, facts and witnesses."""
    if "Traceback" in err:
        return ["traceback on stderr: " + err.strip().splitlines()[-1]]
    try:
        facts = cli_facts(argv, code, out)
    except (ValueError, KeyError, IndexError, TypeError) as e:
        return [f"unreadable output ({type(e).__name__}: {e})"]
    upgraded = reference.get("verdict") == "undetermined" and facts.get("verdict") == "pass"
    problems = []
    for key, want in reference.items():
        if upgraded and key in ("exit", "verdict"):
            continue
        if facts.get(key) != want:
            problems.append(f"{key}: got {facts.get(key)!r}, reference {want!r}")
    if problems or manifest is None or code != 0:
        return problems
    form = Form(manifest)
    report = json.loads(out) if argv[0] in ("abundance", "sst", "dvanish") else None
    if argv[0] == "abundance":
        flat = {"verdict": report["verdict"]}
        if report["verdict"] == "pass":
            flat.update(e1=report["pair"]["e1"], e2=report["pair"]["e2"], **report["classes"])
        problems += check_abundance(form, flat)
    elif argv[0] == "sst" and "trace" in report:
        problems += check_sst(form, report["w"], _sst_from_report(report), rng)
    elif argv[0] == "dvanish":
        problems += check_dvanish(form, report["trace"]["w"], _dvanish_from_report(report), rng)
    return problems
