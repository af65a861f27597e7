"""Command-line interface.

Every subcommand prints a JSON report (region can also emit SVG or an
ASCII sketch).  Exit codes: 0 when every verdict is pass or vacuous,
2 when any verdict is fail, 3 when a result is undetermined, 1 for
usage, parse or precondition errors.
"""

import argparse
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import report as rp
from .catalog import catalog_names
from .errors import (
    AbundanceUndetermined,
    ParseError,
    SWCalcError,
    ValidationError,
)
from .lattice import CohClass, characteristic_vector, find_hyperbolic_pair, orthogonal_complement, square
from .manifest import load_catalog, parse_manifest, serialize_manifest
from .manifold import (
    basic_class_count,
    basic_class_set,
    c1_squared,
    characteristic_number,
    holomorphic_euler,
    validate,
)
from .relations import (
    RelationQuery,
    VERDICT_FAIL,
    VERDICT_PASS,
    VERDICT_PASS_VACUOUS,
    VERDICT_UNDETERMINED,
    basic_class_bound,
    construct_abundance_classes,
    dswrel_value,
    dvanish_theorem_check,
    region_data,
    sst_check,
    Window,
)
from .region import region_to_ascii, region_to_dict, region_to_svg
from .series import Direction, evaluate_along, parity, predicted_parity, sw_series, witten_series

RADIUS_ENV = "SWCALC_RADIUS"

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


def _parse_coords(text: str, rank: int) -> CohClass:
    text = text.strip()
    if text == "0":
        return CohClass.zero(rank)
    try:
        values = [int(x) for x in text.split(",")]
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from None
    if len(values) != rank:
        raise UsageError(f"expected {rank} coordinates, got {len(values)}")
    return CohClass(tuple(values))


def _parse_direction(text: str, rank: int) -> Direction:
    text = text.strip()
    if text == "0":
        return Direction.of([0] * rank)
    try:
        values = [Fraction(x) for x in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"expected comma-separated rationals, got {text!r}") from None
    if len(values) != rank:
        raise UsageError(f"expected {rank} coordinates, got {len(values)}")
    return Direction.of(values)


def _load(path_or_name: str, lenient: bool):
    p = Path(path_or_name)
    if p.exists():
        return parse_manifest(p.read_text(encoding="utf-8"), strict=not lenient)
    manifest = None
    try:
        manifest = load_catalog(path_or_name)
    except ParseError:
        pass
    if manifest is None:
        raise UsageError(f"{path_or_name!r} is neither a file nor a catalog name")
    return manifest


def _default_radius(args) -> int:
    if getattr(args, "radius", None) is not None:
        if args.radius < 1:
            raise UsageError(f"--radius must be at least 1, got {args.radius}")
        return args.radius
    env = os.environ.get(RADIUS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise UsageError(f"{RADIUS_ENV} must be an integer, got {env!r}") from None
    return 3


def _resolve_w(args, manifest, manifold) -> CohClass:
    if getattr(args, "w", None):
        return _parse_coords(args.w, manifold.form.rank)
    if manifest.w is not None:
        return CohClass(manifest.w)
    return characteristic_vector(manifold.form)


def _validation_payload(reportobj) -> list:
    return [
        {"name": c.name, "ok": c.ok, "detail": c.detail}
        for c in reportobj.checks
    ]


def _emit(report: dict) -> None:
    sys.stdout.write(rp.render(report))


def _prevalidate(manifest, command):
    """Shared guard: reject inconsistent input before running a pipeline."""
    manifold = manifest.to_manifold()
    vr = validate(manifold)
    if not vr.passed:
        _emit(rp.new_report(
            command,
            manifold=manifold.name,
            verdict=VERDICT_FAIL,
            validation=_validation_payload(vr),
            error="input fails validation",
        ))
        return manifold, 2
    return manifold, None


def cmd_validate(args) -> int:
    manifest = _load(args.file, args.lenient)
    manifold = manifest.to_manifold()
    vr = validate(manifold)
    verdict = VERDICT_PASS if vr.passed else VERDICT_FAIL
    _emit(rp.new_report(
        "validate",
        manifold=manifold.name,
        verdict=verdict,
        checks=_validation_payload(vr),
        warnings=list(manifest.warnings),
    ))
    return _EXIT_BY_VERDICT[verdict]


def cmd_invariants(args) -> int:
    manifest = _load(args.file, args.lenient)
    manifold, code = _prevalidate(manifest, "invariants")
    if code is not None:
        return code
    w = _resolve_w(args, manifest, manifold)
    series = sw_series(manifold, w)
    _emit(rp.new_report(
        "invariants",
        manifold=manifold.name,
        verdict=VERDICT_PASS,
        c=rp.frac(characteristic_number(manifold)),
        chi_h=rp.frac(holomorphic_euler(manifold)),
        c1_squared=c1_squared(manifold),
        b=basic_class_count(manifold),
        identity_c_equals_chi_h_minus_c1_squared=True,
        w=rp.coords(w),
        parity={
            "predicted": predicted_parity(manifold, w).value,
            "series": parity(series).value,
        },
    ))
    return 0


def cmd_abundance(args) -> int:
    manifest = _load(args.file, args.lenient)
    manifold, code = _prevalidate(manifest, "abundance")
    if code is not None:
        return code
    radius = _default_radius(args)
    complement = orthogonal_complement(manifold.form, basic_class_set(manifold))
    pair = find_hyperbolic_pair(complement, radius)
    if pair is None:
        _emit(rp.new_report(
            "abundance",
            manifold=manifold.name,
            verdict=VERDICT_UNDETERMINED,
            radius=radius,
            complement_rank=len(complement.basis),
            note="no hyperbolic pair found at this radius; abundance undetermined",
        ))
        return 3
    classes = construct_abundance_classes(pair, manifold.chi, manifold.sigma)
    _emit(rp.new_report(
        "abundance",
        manifold=manifold.name,
        verdict=VERDICT_PASS,
        radius=radius,
        complement_rank=len(complement.basis),
        pair={"e1": rp.coords(pair.e1), "e2": rp.coords(pair.e2)},
        classes={
            "lambda0": rp.coords(classes.lambda0),
            "lambda1": rp.coords(classes.lambda1),
            "lambda_even": rp.coords(classes.lambda_even),
        },
    ))
    return 0


def cmd_sst(args) -> int:
    manifest = _load(args.file, args.lenient)
    manifold, code = _prevalidate(manifest, "sst")
    if code is not None:
        return code
    w = _resolve_w(args, manifest, manifold)
    rank = manifold.form.rank
    lambda0 = _parse_coords(args.lambda0, rank) if args.lambda0 else None
    lambda1 = _parse_coords(args.lambda1, rank) if args.lambda1 else None
    result = sst_check(
        manifold, w, lambda0=lambda0, lambda1=lambda1,
        radius=_default_radius(args),
    )
    body = {
        "manifold": manifold.name,
        "verdict": result.verdict,
        "w": rp.coords(result.w),
        "c": rp.frac(result.c),
        "notes": list(result.notes),
    }
    if result.order is not None:
        body["required_order"] = result.required_order
        body["vanishing_order"] = rp.vanishing_order_to_dict(result.order)
        body["trace"] = {
            "lambda0": rp.coords(result.lambda0),
            "lambda1": rp.coords(result.lambda1),
            "r_lambda0": rp.frac(result.r0),
            "i_lambda0": rp.frac(result.i0),
            "r_lambda1": rp.frac(result.r1),
            "i_lambda1": rp.frac(result.i1),
            "entries": [
                {
                    "d": e.d,
                    "m": e.m,
                    "delta": e.delta,
                    "vanishing_applies": e.vanishing_applies,
                    "relation_sum_is_zero": e.relation_is_zero,
                }
                for e in result.entries
            ],
        }
    _emit(rp.new_report("sst", **body))
    return _EXIT_BY_VERDICT[result.verdict]


def cmd_dvanish(args) -> int:
    manifest = _load(args.file, args.lenient)
    manifold, code = _prevalidate(manifest, "dvanish")
    if code is not None:
        return code
    w = _resolve_w(args, manifest, manifold)
    result = dvanish_theorem_check(manifold, w, radius=_default_radius(args))
    _emit(rp.new_report(
        "dvanish",
        manifold=manifold.name,
        verdict=result.verdict,
        trace=result.trace_dict(),
        notes=list(result.notes),
    ))
    return _EXIT_BY_VERDICT[result.verdict]


def cmd_relate(args) -> int:
    manifest = _load(args.file, args.lenient)
    manifold, code = _prevalidate(manifest, "relate")
    if code is not None:
        return code
    rank = manifold.form.rank
    w = _parse_coords(args.w, rank)
    lam = _parse_coords(args.lam, rank)
    query = RelationQuery(w, lam, args.delta, args.m)
    value = dswrel_value(manifold, query)
    body = {
        "manifold": manifold.name,
        "verdict": VERDICT_PASS,
        "query": {
            "w": rp.coords(w),
            "lambda": rp.coords(lam),
            "delta": args.delta,
            "m": args.m,
            "d": query.d,
        },
        "polynomial": rp.jet_to_dict(value),
    }
    if args.at:
        direction = _parse_direction(args.at, rank)
        body["value_at"] = {
            "direction": [rp.frac(x) for x in direction.coords],
            "value": rp.frac(value.evaluate(direction)),
        }
    _emit(rp.new_report("relate", **body))
    return 0


def cmd_witten(args) -> int:
    manifest = _load(args.file, args.lenient)
    manifold, code = _prevalidate(manifest, "witten")
    if code is not None:
        return code
    if args.order < 0:
        raise UsageError(f"--order must be nonnegative, got {args.order}")
    rank = manifold.form.rank
    w = _resolve_w(args, manifest, manifold)
    direction = _parse_direction(args.direction, rank)
    series = witten_series(manifold, w)
    coeffs = evaluate_along(series, direction, args.order)
    _emit(rp.new_report(
        "witten",
        manifold=manifold.name,
        verdict=VERDICT_PASS,
        w=rp.coords(w),
        direction=[rp.frac(x) for x in direction.coords],
        order=args.order,
        prefactor=rp.frac(series.prefactor),
        quad_coeff=rp.frac(series.quad_coeff),
        coefficients=[rp.frac(x) for x in coeffs],
    ))
    return 0


def cmd_bound(args) -> int:
    manifest = _load(args.file, args.lenient)
    manifold, code = _prevalidate(manifest, "bound")
    if code is not None:
        return code
    result = basic_class_bound(manifold, strict=not args.non_strict)
    _emit(rp.new_report(
        "bound",
        manifold=manifold.name,
        verdict=result.verdict,
        applicable=result.applicable,
        b=result.b,
        c=rp.frac(result.c),
        count_bound={
            "strict": result.strict_holds,
            "non_strict": result.nonstrict_holds,
            "mode": "non-strict" if args.non_strict else "strict",
        },
        slope_bound=None if not result.applicable else {
            "c1_squared": result.slope_lhs,
            "chi_h_minus_2b_minus_1": rp.frac(result.slope_rhs),
            "holds": result.slope_holds,
        },
        notes=list(result.notes),
    ))
    return _EXIT_BY_VERDICT[result.verdict]


def _parse_window(text: str) -> Window:
    try:
        parts = [int(x) for x in text.split(":")]
    except ValueError:
        raise UsageError(f"window must be LMIN:LMAX:DMIN:DMAX, got {text!r}") from None
    if len(parts) != 4 or parts[0] > parts[1] or parts[2] > parts[3]:
        raise UsageError(f"window must be LMIN:LMAX:DMIN:DMAX, got {text!r}")
    return Window(*parts)


def cmd_region(args) -> int:
    manifest = _load(args.file, args.lenient)
    manifold, code = _prevalidate(manifest, "region")
    if code is not None:
        return code
    w = _resolve_w(args, manifest, manifold)
    window = _parse_window(args.window) if args.window else None
    description = region_data(manifold, w, window)
    if args.format == "svg":
        sys.stdout.write(region_to_svg(description))
        return 0
    if args.format == "ascii":
        sys.stdout.write(region_to_ascii(description))
        return 0
    _emit(rp.new_report(
        "region",
        manifold=manifold.name,
        verdict=VERDICT_PASS,
        w=rp.coords(w),
        region=region_to_dict(description),
    ))
    return 0


def cmd_catalog(args) -> int:
    if args.action == "list":
        _emit(rp.new_report("catalog", verdict=VERDICT_PASS, names=list(catalog_names())))
        return 0
    if not args.name:
        raise UsageError("catalog show requires a NAME")
    manifest = load_catalog(args.name)
    sys.stdout.write(serialize_manifest(manifest))
    return 0


def _add_common(p):
    p.add_argument("file", metavar="FILE", help="manifest path or catalog name")
    p.add_argument("--lenient", action="store_true",
                   help="warn on unknown manifest fields instead of rejecting them")


def build_parser() -> _Parser:
    parser = _Parser(prog="swcalc", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("validate", help="run every input-consistency check")
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("invariants", help="derived numerical invariants")
    _add_common(p)
    p.add_argument("--w", help="integral class, comma-separated coordinates")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("abundance", help="search the basic-class complement for a hyperbolic pair")
    _add_common(p)
    p.add_argument("--radius", type=int, help="search radius (default 3 or $SWCALC_RADIUS)")
    p.set_defaults(func=cmd_abundance)

    p = sub.add_parser("sst", help="superconformal vanishing bound with proof trace")
    _add_common(p)
    p.add_argument("--w", help="integral lift of w2, comma-separated coordinates")
    p.add_argument("--lambda0", help="override the square -(chi+sigma) class")
    p.add_argument("--lambda1", help="override the square -(chi+sigma)+4 class")
    p.add_argument("--radius", type=int)
    p.set_defaults(func=cmd_sst)

    p = sub.add_parser("dvanish", help="degree-sweep vanishing pipeline")
    _add_common(p)
    p.add_argument("--w", help="integral lift of w2")
    p.add_argument("--radius", type=int)
    p.set_defaults(func=cmd_dvanish)

    p = sub.add_parser("relate", help="evaluate the boundary-degree relation formula")
    _add_common(p)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--at", help="optional rational direction to evaluate at")
    p.set_defaults(func=cmd_relate)

    p = sub.add_parser("witten", help="Gaussian-twisted series along a direction")
    _add_common(p)
    p.add_argument("--w", help="integral class (defaults like sst)")
    p.add_argument("--direction", required=True)
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(func=cmd_witten)

    p = sub.add_parser("bound", help="basic-class count bound")
    _add_common(p)
    p.add_argument("--non-strict", action="store_true")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("region", help="admissible-degree region figure")
    _add_common(p)
    p.add_argument("--w", help="integral class (defaults like sst)")
    p.add_argument("--format", choices=("svg", "ascii", "json"), default="json")
    p.add_argument("--window", help="LMIN:LMAX:DMIN:DMAX")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("catalog", help="list or show built-in manifests")
    p.add_argument("action", choices=("list", "show"))
    p.add_argument("name", nargs="?")
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (ParseError, ValidationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except AbundanceUndetermined as e:
        _emit(rp.new_report(args.cmd, verdict=VERDICT_UNDETERMINED, error=str(e)))
        return 3
    except SWCalcError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
