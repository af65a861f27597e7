"""Manifest grammar, catalog round-trips, CLI exit codes and payloads."""

import json
import sys

import pytest

from swcalc.catalog import catalog_names
from swcalc.cli import COMMANDS, main
from swcalc.errors import ParseError, ValidationError
from swcalc.lattice import E8Block, HyperbolicBlock
from swcalc.manifest import load_catalog, parse_manifest, serialize_manifest
from swcalc.record import replace


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalog_round_trip():
    for name in catalog_names():
        m = load_catalog(name)
        again = parse_manifest(serialize_manifest(m))
        assert again == m
        assert parse_manifest(serialize_manifest(again)) == again


def test_parsed_forms_share_one_block_per_kind_and_sign():
    # every H block of every parsed form is one object, and so is every E8
    # block of one sign, whatever the key order of its descriptor
    signed = parse_manifest(json.dumps({
        "name": "x", "chi": 0, "sigma": 0, "b_plus": 0, "basic_classes": [],
        "form": [{"type": "E8", "sign": 1}, {"sign": 1, "type": "E8"}, {"type": "E8"},
                 {"sign": -1, "type": "E8"}, {"type": "H"}],
    }))
    blocks = load_catalog("E3").blocks + load_catalog("E4").blocks + signed.blocks
    for kind in (HyperbolicBlock(), E8Block(-1), E8Block(1)):
        assert len({id(b) for b in blocks if b == kind}) == 1
    # equal manifests compare and hash equal, shared blocks or fresh ones
    e4 = load_catalog("E4")
    fresh = replace(e4, blocks=tuple(E8Block(b.sign) if isinstance(b, E8Block) else HyperbolicBlock()
                                     for b in e4.blocks))
    assert all(a is not b for a, b in zip(fresh.blocks, e4.blocks))
    assert load_catalog("E4") == e4 == fresh
    assert hash(load_catalog("E4")) == hash(e4) == hash(fresh)


def test_unknown_field_strict_vs_lenient():
    base = json.loads(serialize_manifest(load_catalog("K3")))
    base["frobnicate"] = 1
    text = json.dumps(base)
    with pytest.raises(ParseError):
        parse_manifest(text)
    lenient = parse_manifest(text, strict=False)
    assert lenient.warnings and "frobnicate" in lenient.warnings[0]


def test_sw_zero_rejected():
    base = json.loads(serialize_manifest(load_catalog("K3")))
    base["basic_classes"][0]["sw"] = 0
    with pytest.raises(ValidationError) as e:
        parse_manifest(json.dumps(base))
    assert "sw must be nonzero" in str(e.value)


def test_coords_length_rejected():
    base = json.loads(serialize_manifest(load_catalog("K3")))
    base["basic_classes"][0]["coords"] = [0, 0]
    with pytest.raises(ValidationError) as e:
        parse_manifest(json.dumps(base))
    assert e.value.invariant == "coords_length"


@pytest.mark.parametrize("position", [0, 11, 21])
@pytest.mark.parametrize("bad, shown", [(True, "True"), (1.5, "1.5"), ("1", "'1'"),
                                        (None, "None")])
def test_non_integer_coordinate_message(bad, shown, position):
    # the first bad entry is named, whatever follows it
    base = json.loads(serialize_manifest(load_catalog("K3")))
    coords = base["basic_classes"][0]["coords"]
    coords[position] = bad
    if position < 21:
        coords[21] = 2.5
    with pytest.raises(ParseError) as e:
        parse_manifest(json.dumps(base))
    assert str(e.value) == f"basic_classes[0].coords: expected an integer, got {shown}"


@pytest.mark.parametrize("bad, shown", [(True, "True"), (1.0, "1.0"), ("1", "'1'")])
@pytest.mark.parametrize("field", ["coords", "sw"])
def test_non_integer_behind_a_well_formed_entry(field, bad, shown):
    # True and 1.0 equal 1, so a test by value would let them through;
    # entry 0 is well formed and entry 1 is named
    base = json.loads(serialize_manifest(load_catalog("E3")))
    entry = base["basic_classes"][1]
    if field == "coords":
        entry["coords"][0] = bad
    else:
        entry["sw"] = bad
    with pytest.raises(ParseError) as e:
        parse_manifest(json.dumps(base))
    assert str(e.value) == f"basic_classes[1].{field}: expected an integer, got {shown}"


def test_short_coords_and_extra_key_behind_a_well_formed_entry():
    base = json.loads(serialize_manifest(load_catalog("E3")))
    short = json.loads(json.dumps(base))
    short["basic_classes"][1]["coords"].pop()
    with pytest.raises(ValidationError) as e:
        parse_manifest(json.dumps(short))
    assert str(e.value) == "coords_length: basic_classes[1].coords: length 33 != form rank 34"
    base["basic_classes"][1]["note"] = 1
    with pytest.raises(ParseError) as e:
        parse_manifest(json.dumps(base))
    assert str(e.value) == "basic_classes[1]: expected an object with 'coords' and 'sw'"


@pytest.mark.parametrize("block, message", [
    ({"type": "H", "sign": -1}, "form[1]: unknown block fields ['sign']"),
    ({"type": "E8", "sign": -1, "entries": [1], "x": 0},
     "form[1]: unknown block fields ['entries', 'x']"),
    ({"type": "diag", "entries": [1], "sign": 1}, "form[1]: unknown block fields ['sign']"),
    ({"type": "Q"}, "form[1]: unknown block type 'Q'"),
    ({"type": []}, "form[1]: unknown block type []"),
    ({"type": {}}, "form[1]: unknown block type {}"),
    ({"sign": -1}, "form[1]: block descriptors are objects with a 'type' field"),
    ("H", "form[1]: block descriptors are objects with a 'type' field"),
    ({"type": "E8", "sign": 2}, "form[1].sign: must be 1 or -1"),
    ({"type": "E8", "sign": True}, "form[1].sign: expected an integer, got True"),
    ({"type": "E8", "sign": 1.0}, "form[1].sign: expected an integer, got 1.0"),
    ({"type": "E8", "sign": -1.0}, "form[1].sign: expected an integer, got -1.0"),
    ({"type": "diag", "entries": []}, "form[1].entries: expected a nonempty integer array"),
    ({"type": "diag", "entries": [1, "a"]}, "form[1].entries: expected an integer, got 'a'"),
], ids=["H-extra", "E8-extra", "diag-extra", "unknown-type", "list-type", "object-type",
        "missing-type", "non-object", "E8-sign-2", "E8-sign-true", "E8-sign-float",
        "E8-sign-negative-float", "diag-empty",
        "diag-non-integer"])
def test_block_descriptor_messages(block, message):
    with pytest.raises(ParseError) as e:
        parse_manifest(json.dumps({
            "name": "x", "chi": 4, "sigma": 0, "b_plus": 1,
            "form": [{"type": "H"}, block], "basic_classes": [],
        }))
    assert str(e.value) == message


def test_bad_block_and_syntax_errors():
    with pytest.raises(ParseError):
        parse_manifest(json.dumps({
            "name": "x", "chi": 4, "sigma": 0, "b_plus": 1,
            "form": [{"type": "Q"}], "basic_classes": [],
        }))
    with pytest.raises(ParseError) as e:
        parse_manifest("{ not json")
    assert e.value.line == 1


def test_schema_version_rejected(capsys, tmp_path):
    # True and 1.0 both equal 1 in Python, and are still not the integer 1
    base = json.loads(serialize_manifest(load_catalog("K3")))
    p = tmp_path / "versioned.json"
    for version, message in ((99, "unsupported schema_version 99"),
                             (True, "schema_version: expected an integer, got True"),
                             (1.0, "schema_version: expected an integer, got 1.0")):
        base["schema_version"] = version
        with pytest.raises(ParseError) as e:
            parse_manifest(json.dumps(base))
        assert str(e.value) == message
        p.write_text(json.dumps(base))
        code, out, err = run_cli(capsys, "validate", str(p))
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"


def test_cli_catalog_list(capsys):
    code, out, _ = run_cli(capsys, "catalog", "list")
    assert code == 0
    assert json.loads(out)["names"] == ["K3", "E3", "E4", "E5", "E6"]


def test_cli_catalog_show_round_trip(capsys):
    code, out, _ = run_cli(capsys, "catalog", "show", "E4")
    assert code == 0
    assert parse_manifest(out) == load_catalog("E4")


def test_cli_validate_catalog(capsys):
    code, out, _ = run_cli(capsys, "validate", "K3")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert all(c["ok"] for c in report["checks"])


def test_cli_invariants(capsys):
    code, out, _ = run_cli(capsys, "invariants", "E4")
    assert code == 0
    report = json.loads(out)
    assert report["c"] == "4"
    assert report["chi_h"] == "4"
    assert report["c1_squared"] == 0
    assert report["b"] == 2
    assert report["parity"] == {"predicted": "even", "series": "even"}


def test_cli_sst_exit_codes(capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "sst", "K3")
    assert code == 0
    assert json.loads(out)["verdict"] == "pass-vacuous"
    code, out, _ = run_cli(capsys, "sst", "E4")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert report["vanishing_order"] == {"kind": "exact", "value": 2}
    code, out, _ = run_cli(capsys, "sst", str(fixtures_dir / "e4_corrupted.json"))
    assert code == 2
    report = json.loads(out)
    assert report["verdict"] == "fail"
    assert report["vanishing_order"] == {"kind": "exact", "value": 0}


def test_cli_abundance(capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "abundance", "E5")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    code, out, _ = run_cli(capsys, "abundance",
                           str(fixtures_dir / "definite_complement.json"))
    assert code == 3
    assert json.loads(out)["verdict"] == "undetermined"


def test_cli_dvanish(capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "dvanish", "E4")
    assert code == 0
    report = json.loads(out)
    expected = json.loads((fixtures_dir / "e4_dvanish_trace.json").read_text())
    assert report["trace"] == expected


def test_cli_undetermined_report_names_the_manifold(capsys, fixtures_dir, tmp_path):
    # an undetermined pipeline starts its report with the command and
    # manifold names, as every other report does.  E4 with every hyperbolic
    # block used by a basic class leaves a negative definite complement, so
    # sst, which DC22 (c = 2) passes vacuously, is undetermined there.
    rigid = json.loads(serialize_manifest(load_catalog("E4")))
    rigid["name"] = "E4-rigid"
    rigid["basic_classes"] = [
        {"coords": [s if j == i else 0 for j in range(46)], "sw": 1}
        for i in range(14) for s in (2, -2)
    ]
    (tmp_path / "rigid.json").write_text(json.dumps(rigid))
    cases = ((fixtures_dir / "definite_complement.json", "DC22", ("abundance", "dvanish")),
             (tmp_path / "rigid.json", "E4-rigid", ("sst", "dvanish")))
    for path, name, commands in cases:
        for cmd in commands:
            code, out, _ = run_cli(capsys, cmd, str(path))
            assert code == 3
            report = json.loads(out)
            assert list(report)[:4] == ["schema_version", "command", "manifold", "verdict"]
            assert (report["command"], report["manifold"], report["verdict"]) == (
                cmd, name, "undetermined")


def test_cli_relate_spot(capsys):
    lam = ["0"] * 46
    lam[2], lam[3] = "2", "-3"
    w = ["0"] * 46
    w[2], w[3] = "2", "-1"
    code, out, _ = run_cli(
        capsys, "relate", "E4",
        "--lambda", ",".join(lam), "--w", ",".join(w),
        "--delta", "0", "-m", "0",
    )
    assert code == 0
    report = json.loads(out)
    assert report["polynomial"]["is_zero"] is True
    assert report["query"]["d"] == 0


def test_cli_relate_nonzero_with_evaluation(capsys):
    lam = ["0"] * 46
    lam[2], lam[3] = "1", "-7"
    at = ["0"] * 46
    at[1] = "1"
    code, out, _ = run_cli(
        capsys, "relate", "E4",
        "--lambda", ",".join(lam), "--w", ",".join(lam),
        "--delta", "2", "-m", "0", "--at", ",".join(at),
    )
    assert code == 0
    report = json.loads(out)
    assert report["value_at"]["value"] == "-2"


def test_cli_relate_bad_query_is_usage_error(capsys):
    lam = ["0"] * 46
    lam[2], lam[3] = "2", "-3"
    code, _, err = run_cli(
        capsys, "relate", "E4",
        "--lambda", ",".join(lam), "--w", ",".join(lam),
        "--delta", "5", "-m", "0",
    )
    assert code == 1
    assert "delta_equals_r_lambda" in err


def test_cli_witten(capsys):
    direction = ["1/2", "-1/2"] + ["0"] * 32
    code, out, _ = run_cli(
        capsys, "witten", "E3", "--direction", ",".join(direction), "--order", "3"
    )
    assert code == 0
    report = json.loads(out)
    assert report["coefficients"] == ["0", "1", "0", "1/6"]
    assert report["prefactor"] == "1/2"


def test_cli_bound(capsys):
    code, out, _ = run_cli(capsys, "bound", "E6")
    assert code == 2
    report = json.loads(out)
    assert report["count_bound"]["strict"] is False
    assert report["count_bound"]["non_strict"] is True
    code, out, _ = run_cli(capsys, "bound", "E6", "--non-strict")
    assert code == 0


def test_cli_region_json(capsys):
    code, out, _ = run_cli(capsys, "region", "K3", "--w", "0", "--format", "json")
    assert code == 0
    region = json.loads(out)["region"]
    assert region["intersection"] == [-8, "2"]
    assert [-8, 2] in region["marked"]


def test_cli_region_svg_dot_count(capsys):
    code, out, _ = run_cli(capsys, "region", "K3", "--w", "0", "--format", "svg")
    assert code == 0
    # brute-force count over the default window
    expected = 0
    for lam_sq in range(-14, -1):
        for delta in range(0, 7):
            if (2 * delta + 12) % 8 == 0 and (lam_sq + 16) % 4 == 0:
                expected += 1
    assert out.count('class="dot') == expected
    assert out.count("white-dot") == sum(
        1 for lam_sq in range(-14, -1) for delta in range(0, 7)
        if (2 * delta + 12) % 8 == 0 and (lam_sq + 16) % 4 == 0 and lam_sq % 8 == 0
    )


def test_cli_region_ascii(capsys):
    code, out, _ = run_cli(capsys, "region", "K3", "--format", "ascii")
    assert code == 0
    assert "legend" in out


def test_cli_region_window(capsys):
    code, out, _ = run_cli(capsys, "region", "E4", "--w", "0",
                           "--window=-24:-8:0:8", "--format", "json")
    assert code == 0
    region = json.loads(out)["region"]
    assert region["window"] == {"lam_min": -24, "lam_max": -8,
                                "delta_min": 0, "delta_max": 8}


def test_cli_validate_failure_exit_code(capsys, tmp_path):
    bad = json.loads(serialize_manifest(load_catalog("K3")))
    bad["chi"] = 25
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    code, out, _ = run_cli(capsys, "validate", str(p))
    assert code == 2
    assert json.loads(out)["verdict"] == "fail"


def test_cli_usage_errors(capsys, tmp_path):
    code, _, err = run_cli(capsys, "sst", "NOPE")
    assert code == 1
    code, _, err = run_cli(capsys, "sst", "E4", "--w", "1,2")
    assert code == 1
    code, _, err = run_cli(capsys, "region", "K3", "--window", "bogus")
    assert code == 1
    for argv in (("abundance", "E4", "--radius", "0"),
                 ("sst", "E4", "--radius", "0"),
                 ("dvanish", "E4", "--radius", "0"),
                 ("witten", "E3", "--direction", "0", "--order=-1")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err.startswith("usage error:") and err.count("\n") == 1, argv
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"name": "caf\xe9"}')
    for path in (tmp_path, not_utf8):
        code, out, err = run_cli(capsys, "validate", str(path))
        assert code == 1, path
        assert out == ""
        assert err.startswith("error: cannot read") and err.count("\n") == 1, err


E4_LAMBDA = ",".join(["0", "0", "2", "-3"] + ["0"] * 42)
E4_W = ",".join(["0", "0", "2", "-1"] + ["0"] * 42)
INTEGERS = "expected comma-separated integers, got ''"


@pytest.mark.parametrize("argv, message", [
    pytest.param(("sst", "E4", "--w="), INTEGERS, id="sst-w"),
    pytest.param(("sst", "E4", "--lambda0="), INTEGERS, id="sst-lambda0"),
    pytest.param(("sst", "E4", "--lambda1="), INTEGERS, id="sst-lambda1"),
    pytest.param(("invariants", "E4", "--w="), INTEGERS, id="invariants-w"),
    pytest.param(("region", "E4", "--w="), INTEGERS, id="region-w"),
    pytest.param(("region", "E4", "--window="), "window must be LMIN:LMAX:DMIN:DMAX, got ''",
                 id="region-window"),
    pytest.param(("relate", "E4", "--lambda=0", "--w=", "--delta=0", "-m=0"), INTEGERS,
                 id="relate-w"),
    pytest.param(("relate", "E4", f"--lambda={E4_LAMBDA}", f"--w={E4_W}", "--delta=0", "-m=0",
                  "--at="), "expected comma-separated rationals, got ''", id="relate-at"),
])
def test_cli_empty_option_value_is_usage_error(capsys, argv, message):
    # an empty value is parsed like any other, never taken for an absent option
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"usage error: {message}\n"


HUGE = "1e10000000"  # Fraction alone takes seconds to minutes on this


@pytest.mark.parametrize("argv, text", [
    pytest.param(("witten", "K3", f"--direction={HUGE}" + ",0" * 21, "--order=1"),
                 HUGE + ",0" * 21, id="witten-direction"),
    pytest.param(("witten", "K3", "--direction=0,0,1E2" + ",0" * 19, "--order=1"),
                 "0,0,1E2" + ",0" * 19, id="witten-direction-upper"),
    pytest.param(("relate", "E4", f"--lambda={E4_LAMBDA}", f"--w={E4_W}", "--delta=0", "-m=0",
                  f"--at={HUGE}" + ",0" * 45), HUGE + ",0" * 45, id="relate-at"),
])
def test_cli_exponent_notation_is_usage_error(capsys, argv, text):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"usage error: expected comma-separated rationals, got {text!r}\n"


def test_cli_direction_takes_integers_fractions_and_decimals(capsys):
    code, out, _ = run_cli(capsys, "witten", "E3", "--direction",
                           ",".join(["0.5", "-1/2", "-0"] + ["0"] * 31), "--order", "3")
    assert code == 0
    assert json.loads(out)["direction"][:3] == ["1/2", "-1/2", "0"]


def test_cli_parse_error_exit_code(capsys, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{ nope")
    code, _, err = run_cli(capsys, "validate", str(p))
    assert code == 1


@pytest.mark.parametrize("text, message", [
    ("[" * 100_000, "error: JSON nested too deeply\n"),
    ("1" * 5000, None),  # past the interpreter's digit limit, whose wording varies
])
def test_cli_unreadable_json_is_a_one_line_parse_error(capsys, tmp_path, text, message):
    p = tmp_path / "unreadable.json"
    p.write_text(text)
    code, out, err = run_cli(capsys, "validate", str(p))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert message in (None, err)


def test_cli_radius_env_is_ignored(capsys, monkeypatch):
    # the radius decides verdicts, so only --radius sets it; an environment
    # variable of the old name is ignored
    monkeypatch.setenv("SWCALC_RADIUS", "1")
    code, out, _ = run_cli(capsys, "abundance", "K3")
    assert code == 0
    assert json.loads(out)["radius"] == 3
    code, out, _ = run_cli(capsys, "abundance", "K3", "--radius", "1")
    assert code == 0
    assert json.loads(out)["radius"] == 1


def test_cli_exit_codes_match_verdicts_on_catalog_sweep(capsys):
    mapping = {"pass": 0, "pass-vacuous": 0, "fail": 2, "undetermined": 3}
    for name in catalog_names():
        for argv in (["validate", name], ["sst", name],
                     ["dvanish", name], ["bound", name]):
            code = main(argv)
            out = capsys.readouterr().out
            verdict = json.loads(out)["verdict"]
            assert code == mapping[verdict], (name, argv)


def test_cli_conjecture_flag_respected(capsys, tmp_path):
    base = json.loads(serialize_manifest(load_catalog("E4")))
    base["assume_conjecture"] = False
    p = tmp_path / "e4_noconj.json"
    p.write_text(json.dumps(base))
    code, _, err = run_cli(capsys, "sst", str(p))
    assert code == 1
    assert "conjecture" in err


@pytest.mark.parametrize("name", [*COMMANDS, "catalog"])
def test_help_names_every_declared_option(name, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([name, "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: swcalc {name} ")
    if name == "catalog":
        assert "{list,show}" in out
        return
    for flag in ["--lenient", *(flag for flag, _ in COMMANDS[name][2])]:
        assert flag in out.split(), flag
    for flag, spec in COMMANDS[name][2]:
        assert spec.get("help", "").strip(), flag


def _big_integer_manifests():
    """(argv after the path, manifest, exit code): integers of 4,300 digits,
    which parse, whose sums, products and series coefficients pass the
    interpreter's integer-to-string digit limit."""
    big = int("9" * 4300)
    k3 = json.loads(serialize_manifest(load_catalog("K3")))
    det = dict(k3, form=k3["form"][:4] + [{"type": "diag", "entries": [big, big] + [-1] * 6}])
    e3 = json.loads(serialize_manifest(load_catalog("E3")))
    for entry in e3["basic_classes"]:
        entry["sw"] = (1 if entry["sw"] > 0 else -1) * 10**4299
    direction = ",".join(["10"] + ["0"] * 33)
    return [
        pytest.param(("validate",), dict(k3, chi=big, sigma=big), 2, id="validate-chi-sigma"),
        pytest.param(("validate",), dict(k3, b_plus=big), 2, id="validate-b-plus"),
        pytest.param(("validate",), det, 2, id="validate-determinant"),
        pytest.param(("witten", f"--direction={direction}", "--order", "3"), e3, 0,
                     id="witten-sw"),
    ]


@pytest.mark.parametrize("argv, manifest, expected", _big_integer_manifests())
def test_cli_reports_integers_past_the_digit_limit(capsys, tmp_path, argv, manifest, expected):
    # the digit limit guards parsing; a report on parsed data is not cut off
    # by it, and main restores it for the rest of the process
    p = tmp_path / "big.json"
    p.write_text(json.dumps(manifest))
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)  # absent on older 3.10 builds
    before = limit()
    code, out, err = run_cli(capsys, argv[0], str(p), *argv[1:])
    assert limit() == before
    assert (code, err) == (expected, "")
    assert f'"verdict": "{"pass" if expected == 0 else "fail"}"' in out
