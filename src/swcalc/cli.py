"""Command-line interface.

Every subcommand prints a JSON report (region can also emit SVG or an
ASCII sketch).  Exit codes: 0 when every verdict is pass or vacuous,
2 when any verdict is fail, 3 when a result is undetermined, 1 for
usage, parse or precondition errors.
"""

import argparse
import sys
from fractions import Fraction
from pathlib import Path

# series, relations and region run on first use (see swcalc/__init__.py): a
# command reaches them through the module objects, never through names bound here.
from . import region, relations, series
from .catalog import catalog_names
from .errors import AbundanceUndetermined, ParseError, SWCalcError
from .lattice import DEFAULT_RADIUS, CohClass, characteristic_vector, construct_abundance_classes
from .manifest import load_catalog, parse_manifest, serialize_manifest
from .manifold import (basic_class_count, c1_squared, characteristic_number, holomorphic_euler,
                       validate)
from .report import (VERDICT_FAIL, VERDICT_PASS, VERDICT_PASS_VACUOUS, VERDICT_UNDETERMINED,
                     render)

_EXIT_BY_VERDICT = {
    VERDICT_PASS: 0,
    VERDICT_PASS_VACUOUS: 0,
    VERDICT_FAIL: 2,
    VERDICT_UNDETERMINED: 3,
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_vector(text: str, rank: int, kind: str, parse) -> list:
    """Comma-separated values of length ``rank``; a bare "0" is the zero vector."""
    text = text.strip()
    if text == "0":
        return [0] * rank
    try:
        values = [parse(x) for x in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"expected comma-separated {kind}, got {text!r}") from None
    if len(values) != rank:
        raise UsageError(f"expected {rank} coordinates, got {len(values)}")
    return values


def _parse_coords(text: str, rank: int) -> CohClass:
    return CohClass(tuple(_parse_vector(text, rank, "integers", int)))


def _rational(text: str) -> Fraction:
    """An integer, p/q or plain decimal; exponent notation is refused, since
    Fraction would spend unbounded time on a value like 1e10000000."""
    if "e" in text.lower():
        raise ValueError(text)
    return Fraction(text)


def _parse_direction(text: str, rank: int) -> "series.Direction":
    return series.Direction.of(_parse_vector(text, rank, "rationals", _rational))


def _parse_window(text: str) -> "relations.Window":
    try:
        parts = [int(x) for x in text.split(":")]
    except ValueError:
        raise UsageError(f"window must be LMIN:LMAX:DMIN:DMAX, got {text!r}") from None
    if len(parts) != 4 or parts[0] > parts[1] or parts[2] > parts[3]:
        raise UsageError(f"window must be LMIN:LMAX:DMIN:DMAX, got {text!r}")
    return relations.Window(*parts)


def _load(path_or_name: str, lenient: bool):
    """The manifest in the file at ``path_or_name``, else the catalog entry of that name."""
    path = Path(path_or_name)
    try:
        text = path.read_text(encoding="utf-8") if path.exists() else None
    except (OSError, UnicodeDecodeError) as e:
        reason = getattr(e, "strerror", None) or e
        raise SWCalcError(f"cannot read {path_or_name!r}: {reason}") from None
    if text is not None:
        return parse_manifest(text, strict=not lenient)
    try:
        return load_catalog(path_or_name)
    except ParseError:
        raise UsageError(f"{path_or_name!r} is neither a file nor a catalog name") from None


def _default_radius(args) -> int:
    if args.radius is None:
        return DEFAULT_RADIUS
    if args.radius < 1:
        raise UsageError(f"--radius must be at least 1, got {args.radius}")
    return args.radius


def _resolve_w(args, manifest, manifold) -> CohClass:
    if args.w is not None:
        return _parse_coords(args.w, manifold.form.rank)
    if manifest.w is not None:
        return CohClass(manifest.w)
    return characteristic_vector(manifold.form)


# Each command maps a validated manifold to its report fields, from
# "verdict" on, or to a string that is printed as it is.

def cmd_invariants(args, manifest, manifold) -> dict:
    w = _resolve_w(args, manifest, manifold)
    sums = series.sw_series(manifold, w)
    return {
        "verdict": VERDICT_PASS,
        "c": characteristic_number(manifold),
        "chi_h": holomorphic_euler(manifold),
        "c1_squared": c1_squared(manifold),
        "b": basic_class_count(manifold),
        "identity_c_equals_chi_h_minus_c1_squared": True,
        "w": w,
        "parity": {
            "predicted": series.predicted_parity(manifold, w).value,
            "series": series.parity(sums).value,
        },
    }


def cmd_abundance(args, manifest, manifold) -> dict:
    radius = _default_radius(args)
    pair = manifold.hyperbolic_pair(radius)
    fields = {
        "verdict": VERDICT_UNDETERMINED if pair is None else VERDICT_PASS,
        "radius": radius,
        "complement_rank": len(manifold.complement.basis),
    }
    if pair is None:
        fields["note"] = "no hyperbolic pair found at this radius; abundance undetermined"
        return fields
    classes = construct_abundance_classes(pair, manifold.chi, manifold.sigma)
    fields["pair"] = {"e1": pair.e1, "e2": pair.e2}
    fields["classes"] = {"lambda0": classes.lambda0, "lambda1": classes.lambda1,
                         "lambda_even": classes.lambda_even}
    return fields


def cmd_sst(args, manifest, manifold) -> dict:
    w = _resolve_w(args, manifest, manifold)
    lambda0, lambda1 = (None if t is None else _parse_coords(t, manifold.form.rank)
                        for t in (args.lambda0, args.lambda1))
    radius = _default_radius(args)
    return relations.sst_check(manifold, w, lambda0, lambda1, radius=radius).to_dict()


def cmd_relate(args, manifest, manifold) -> dict:
    rank = manifold.form.rank
    w = _parse_coords(args.w, rank)
    lam = _parse_coords(args.lam, rank)
    query = relations.RelationQuery(w, lam, args.delta, args.m)
    value = relations.dswrel_value(manifold, query)
    fields = {
        "verdict": VERDICT_PASS,
        "query": {"w": w, "lambda": lam, "delta": args.delta, "m": args.m, "d": query.d},
        "polynomial": value.to_dict(),
    }
    if args.at is not None:
        direction = _parse_direction(args.at, rank)
        fields["value_at"] = {"direction": direction.coords, "value": value.evaluate(direction)}
    return fields


def cmd_witten(args, manifest, manifold) -> dict:
    if args.order < 0:
        raise UsageError(f"--order must be nonnegative, got {args.order}")
    w = _resolve_w(args, manifest, manifold)
    direction = _parse_direction(args.direction, manifold.form.rank)
    twisted = series.witten_series(manifold, w)
    return {
        "verdict": VERDICT_PASS,
        "w": w,
        "direction": direction.coords,
        "order": args.order,
        "prefactor": twisted.prefactor,
        "quad_coeff": twisted.quad_coeff,
        "coefficients": series.evaluate_along(twisted, direction, args.order),
    }


def cmd_region(args, manifest, manifold):
    w = _resolve_w(args, manifest, manifold)
    window = None if args.window is None else _parse_window(args.window)
    description = relations.region_data(manifold, w, window)
    if args.format == "svg":
        return region.region_to_svg(description)
    if args.format == "ascii":
        return region.region_to_ascii(description)
    return {"verdict": VERDICT_PASS, "w": w, "region": region.region_to_dict(description)}


def cmd_catalog(args):
    if args.action == "list":
        return {"verdict": VERDICT_PASS, "names": catalog_names()}
    if not args.name:
        raise UsageError("catalog show requires a NAME")
    return serialize_manifest(load_catalog(args.name))


_W = ("--w", {"help": "integral class, comma-separated coordinates "
                      "(default: the manifest's w, else a characteristic vector)"})
_RADIUS = ("--radius", {"type": int, "help": f"pair search radius (default {DEFAULT_RADIUS})"})

# name -> (help, command, options after FILE and --lenient); argparse keeps
# this order.  The validate report is built in main.
COMMANDS = {
    "validate": ("run every input-consistency check", None, ()),
    "invariants": ("derived numerical invariants", cmd_invariants, (_W,)),
    "abundance": ("search the basic-class complement for a hyperbolic pair", cmd_abundance,
                  (_RADIUS,)),
    "sst": ("superconformal vanishing bound with proof trace", cmd_sst,
            (_W, ("--lambda0", {"help": "override the square -(chi+sigma) class"}),
             ("--lambda1", {"help": "override the square -(chi+sigma)+4 class"}), _RADIUS)),
    "dvanish": ("degree-sweep vanishing pipeline",
                lambda args, manifest, manifold: relations.dvanish_theorem_check(
                    manifold, _resolve_w(args, manifest, manifold), radius=_default_radius(args),
                ).to_dict(),
                (_W, _RADIUS)),
    "relate": ("evaluate the boundary-degree relation formula", cmd_relate,
               (("--lambda", {"dest": "lam", "required": True,
                              "help": "integral class orthogonal to every basic class"}),
                ("--w", {"required": True,
                         "help": "integral class with w - lambda characteristic"}),
                ("--delta", {"type": int, "required": True,
                             "help": "degree with delta = r(lambda) < i(lambda)"}),
                ("-m", {"type": int, "required": True, "help": "integer m with 0 <= 2m <= delta"}),
                ("--at", {"help": "optional rational direction to evaluate at"}))),
    "witten": ("Gaussian-twisted series along a direction", cmd_witten,
               (_W, ("--direction", {"required": True,
                                     "help": "rational direction, comma-separated coordinates"}),
                ("--order", {"type": int, "required": True,
                             "help": "highest Taylor degree along the direction (>= 0)"}))),
    "bound": ("basic-class count bound",
              lambda args, manifest, manifold:
                  relations.basic_class_bound(manifold, strict=not args.non_strict).to_dict(),
              (("--non-strict", {"action": "store_true",
                                 "help": "decide by b >= c/2 instead of b > c/2"}),)),
    "region": ("admissible-degree region figure", cmd_region,
               (_W, ("--format", {"choices": ("svg", "ascii", "json"), "default": "json",
                                  "help": "output format (default json)"}),
                ("--window", {"help": "LMIN:LMAX:DMIN:DMAX"}))),
}


def build_parser(argv=()) -> _Parser:
    """The parser; for argv that starts with a subcommand, only its subparser."""
    parser = _Parser(prog="swcalc", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)
    only = argv[0] if argv and argv[0] in (*COMMANDS, "catalog") else None
    for name, (help, _, options) in COMMANDS.items():
        if only in (None, name):
            p = sub.add_parser(name, help=help, description=help)
            p.add_argument("file", metavar="FILE", help="manifest path or catalog name")
            p.add_argument("--lenient", action="store_true",
                           help="warn on unknown manifest fields instead of rejecting them")
            for flag, spec in options:
                p.add_argument(flag, **spec)
    if only in (None, "catalog"):
        p = sub.add_parser("catalog", help="list or show built-in manifests")
        p.add_argument("action", choices=("list", "show"))
        p.add_argument("name", nargs="?")
    return parser


def main(argv=None) -> int:
    """Run one command, print its report and return the exit code of its verdict.

    A command other than catalog first loads and validates the manifest;
    input that fails validation gets the validation report instead of the
    command's.  The report starts with the command and manifold names,
    followed by the command's fields.  Usage, parse and precondition errors
    print one line on standard error and return 1.

    The interpreter's integer-to-string digit limit guards the parsing of
    input only: it is lifted once the manifest is loaded, so that no check
    detail or report on parsed data runs into it, and restored on return.
    """
    digits = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    try:
        return _run(argv)
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)


def _run(argv) -> int:
    head = {}
    try:
        argv = sys.argv[1:] if argv is None else argv
        args = build_parser(argv).parse_args(argv)
        if args.cmd == "catalog":
            fields = cmd_catalog(args)
        else:
            manifest = _load(args.file, args.lenient)
            if hasattr(sys, "set_int_max_str_digits"):  # absent on older 3.10 builds
                sys.set_int_max_str_digits(0)  # 0: no limit
            manifold = manifest.to_manifold()
            head["manifold"] = manifold.name
            checks = validate(manifold)
            if args.cmd == "validate":
                fields = {
                    "verdict": VERDICT_PASS if checks.passed else VERDICT_FAIL,
                    "checks": checks.to_list(),
                    "warnings": manifest.warnings,
                }
            elif not checks.passed:
                fields = {
                    "verdict": VERDICT_FAIL,
                    "validation": checks.to_list(),
                    "error": "input fails validation",
                }
            else:
                fields = COMMANDS[args.cmd][1](args, manifest, manifold)
    except AbundanceUndetermined as e:
        fields = {"verdict": VERDICT_UNDETERMINED, "error": str(e)}
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except SWCalcError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if isinstance(fields, str):
        sys.stdout.write(fields)
        return 0
    sys.stdout.write(render(args.cmd, **head, **fields))
    return _EXIT_BY_VERDICT[fields["verdict"]]


if __name__ == "__main__":
    sys.exit(main())
