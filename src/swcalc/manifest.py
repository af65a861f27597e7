"""Manifest parsing and serialization.

Manifests are JSON with the fixed field names below; coordinates are
plain integer arrays in block-concatenation order (the first hyperbolic
block contributes coordinates 0 and 1, and so on).  Unknown fields are
rejected in strict mode and collected as warnings in lenient mode.
"""

import json

from .catalog import catalog_entry
from .errors import ParseError, ValidationError
from .lattice import (
    Block,
    CohClass,
    DiagonalBlock,
    E8Block,
    HyperbolicBlock,
    IntegralLattice,
)
from .manifold import BasicClassEntry, FourManifold
from .record import field, record

SCHEMA_VERSION = 1

_KNOWN_FIELDS = {
    "schema_version",
    "name",
    "provenance",
    "chi",
    "sigma",
    "b_plus",
    "form",
    "basic_classes",
    "assume_conjecture",
    "w",
}


@record
class Manifest:
    name: str
    chi: int
    sigma: int
    b_plus: int
    blocks: tuple[Block, ...]
    basic_classes: tuple[tuple[tuple[int, ...], int], ...]
    assume_conjecture: bool = True
    w: tuple[int, ...] | None = None
    provenance: str | None = None
    schema_version: int = SCHEMA_VERSION
    warnings: tuple[str, ...] = field(default=(), compare=False)

    def to_manifold(self) -> FourManifold:
        form = IntegralLattice.from_blocks(self.blocks)
        entries = tuple(
            BasicClassEntry(CohClass(coords), sw) for coords, sw in self.basic_classes
        )
        return FourManifold(
            self.name, self.chi, self.sigma, self.b_plus, form, entries,
            self.assume_conjecture,
        )


def _want_int(obj, where, *args):
    """obj if it is an integer; the label is where % args, formatted only
    when the check fails."""
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ParseError(f"{where % args}: expected an integer, got {obj!r}")
    return obj


_BLOCK_FIELDS = {"H": {"type"}, "E8": {"type", "sign"}, "diag": {"type", "entries"}}

# Every parsed form shares one H block and one E8 block per sign, so the
# facts a block keeps on itself are read once.
_H, _E8 = HyperbolicBlock(), {-1: E8Block(-1), 1: E8Block(1)}


def _parse_block(obj, i: int) -> Block:
    """The block that form[i] describes: the shared H or E8 block of its
    sign, or a fresh diagonal block."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise ParseError(f"form[{i}]: block descriptors are objects with a 'type' field")
    kind = obj["type"]
    if not isinstance(kind, str) or kind not in _BLOCK_FIELDS:
        raise ParseError(f"form[{i}]: unknown block type {kind!r}")
    fields = _BLOCK_FIELDS[kind]
    if not obj.keys() <= fields:
        raise ParseError(f"form[{i}]: unknown block fields {sorted(obj.keys() - fields)}")
    if kind == "H":
        return _H
    if kind == "E8":
        sign = _want_int(obj.get("sign", -1), "form[%d].sign", i)
        if sign not in (1, -1):
            raise ParseError(f"form[{i}].sign: must be 1 or -1")
        return _E8[sign]
    entries = obj.get("entries")
    if not isinstance(entries, list) or not entries:
        raise ParseError(f"form[{i}].entries: expected a nonempty integer array")
    return DiagonalBlock(tuple(_want_int(x, "form[%d].entries", i) for x in entries))


def _parse_coords(obj, rank, where, *args) -> tuple[int, ...]:
    """obj as a coordinate tuple of length rank, labelled where % args."""
    if not isinstance(obj, list):
        raise ParseError(f"{where % args}: expected an integer array")
    if not set(map(type, obj)) <= {int}:  # one C-level test; the walk names the first bad entry
        for x in obj:
            _want_int(x, where, *args)
    if len(obj) != rank:
        raise ValidationError(
            "coords_length", f"{where % args}: length {len(obj)} != form rank {rank}"
        )
    return tuple(obj)


def _parse_class(entry, rank: int, i: int) -> tuple[tuple[int, ...], int]:
    """basic_classes[i] as (coords, sw)."""
    if not isinstance(entry, dict) or entry.keys() != {"coords", "sw"}:
        raise ParseError(f"basic_classes[{i}]: expected an object with 'coords' and 'sw'")
    coords = _parse_coords(entry["coords"], rank, "basic_classes[%d].coords", i)
    sw = _want_int(entry["sw"], "basic_classes[%d].sw", i)
    if sw == 0:
        raise ValidationError("sw_nonzero", "sw must be nonzero")
    return coords, sw


def parse_manifest(text: str, strict: bool = True) -> Manifest:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, e.lineno, e.colno) from None
    except RecursionError:
        raise ParseError("JSON nested too deeply") from None
    except ValueError:  # an integer literal past the interpreter's digit limit
        raise ParseError("integer literal has too many digits") from None
    if not isinstance(raw, dict):
        raise ParseError("manifest must be a JSON object")

    warnings = []
    unknown = set(raw) - _KNOWN_FIELDS
    if unknown:
        if strict:
            raise ParseError(f"unknown fields: {sorted(unknown)}")
        warnings.append(f"ignoring unknown fields: {sorted(unknown)}")

    version = _want_int(raw.get("schema_version", SCHEMA_VERSION), "schema_version")
    if version != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema_version {version!r}")

    for key in ("name", "chi", "sigma", "b_plus", "form", "basic_classes"):
        if key not in raw:
            raise ParseError(f"missing required field {key!r}")
    name = raw["name"]
    if not isinstance(name, str):
        raise ParseError("name: expected a string")
    chi = _want_int(raw["chi"], "chi")
    sigma = _want_int(raw["sigma"], "sigma")
    b_plus = _want_int(raw["b_plus"], "b_plus")
    if not isinstance(raw["form"], list) or not raw["form"]:
        raise ParseError("form: expected a nonempty array of block descriptors")
    blocks = tuple(_parse_block(b, i) for i, b in enumerate(raw["form"]))
    rank = sum(b.rank for b in blocks)

    if not isinstance(raw["basic_classes"], list):
        raise ParseError("basic_classes: expected an array")
    classes = tuple(_parse_class(entry, rank, i) for i, entry in enumerate(raw["basic_classes"]))

    assume = raw.get("assume_conjecture", True)
    if not isinstance(assume, bool):
        raise ParseError("assume_conjecture: expected a boolean")
    w = None
    if "w" in raw and raw["w"] is not None:
        w = _parse_coords(raw["w"], rank, "w")
    provenance = raw.get("provenance")
    if provenance is not None and not isinstance(provenance, str):
        raise ParseError("provenance: expected a string")

    return Manifest(
        name, chi, sigma, b_plus, blocks, classes, assume, w,
        provenance, version, tuple(warnings),
    )


def _block_to_dict(block: Block) -> dict:
    if isinstance(block, HyperbolicBlock):
        return {"type": "H"}
    if isinstance(block, E8Block):
        return {"type": "E8", "sign": block.sign}
    return {"type": "diag", "entries": list(block.entries)}


def manifest_to_dict(m: Manifest) -> dict:
    out = {
        "schema_version": m.schema_version,
        "name": m.name,
    }
    if m.provenance is not None:
        out["provenance"] = m.provenance
    out.update(
        chi=m.chi,
        sigma=m.sigma,
        b_plus=m.b_plus,
        form=[_block_to_dict(b) for b in m.blocks],
        basic_classes=[
            {"coords": list(coords), "sw": sw} for coords, sw in m.basic_classes
        ],
        assume_conjecture=m.assume_conjecture,
    )
    if m.w is not None:
        out["w"] = list(m.w)
    return out


def serialize_manifest(m: Manifest) -> str:
    return json.dumps(manifest_to_dict(m), indent=2) + "\n"


def load_catalog(name: str) -> Manifest:
    entry = catalog_entry(name)
    if entry is None:
        raise ParseError(f"no catalog entry named {name!r}")
    return parse_manifest(json.dumps(entry))
