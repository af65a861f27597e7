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


def _want_int(obj, where):
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ParseError(f"{where}: expected an integer, got {obj!r}")
    return obj


_BLOCK_FIELDS = {"H": {"type"}, "E8": {"type", "sign"}, "diag": {"type", "entries"}}

# Every parsed form shares one H block and one E8 block per sign, so the
# facts a block keeps on itself are read once.  The keys are the item tuples
# of the well-formed H and E8 descriptors.
_H, _E8 = HyperbolicBlock(), {-1: E8Block(-1), 1: E8Block(1)}
_SHARED_BLOCKS = {
    (("type", "H"),): _H,
    (("type", "E8"),): _E8[-1],
    (("type", "E8"), ("sign", -1)): _E8[-1],
    (("type", "E8"), ("sign", 1)): _E8[1],
}


def _parse_block(obj, i: int) -> Block:
    """The block that form[i] describes.  A well-formed H or E8 descriptor
    is one dict lookup on its items (True, 1.0 and -1.0 equal 1 and -1, so
    the sign's type is tested too); any other is checked field by field,
    and only then is its label formatted."""
    try:
        shared = _SHARED_BLOCKS.get(tuple(obj.items()))
    except (AttributeError, TypeError):  # not an object, or an unhashable value
        shared = None
    if shared is not None and type(obj.get("sign", -1)) is int:
        return shared
    where = f"form[{i}]"
    if not isinstance(obj, dict) or "type" not in obj:
        raise ParseError(f"{where}: block descriptors are objects with a 'type' field")
    kind = obj["type"]
    if not isinstance(kind, str) or kind not in _BLOCK_FIELDS:
        raise ParseError(f"{where}: unknown block type {kind!r}")
    extra = set(obj) - _BLOCK_FIELDS[kind]
    if extra:
        raise ParseError(f"{where}: unknown block fields {sorted(extra)}")
    if kind == "H":
        return _H
    if kind == "E8":
        sign = _want_int(obj.get("sign", -1), f"{where}.sign")
        if sign not in (1, -1):
            raise ParseError(f"{where}.sign: must be 1 or -1")
        return _E8[sign]
    entries = obj.get("entries")
    if not isinstance(entries, list) or not entries:
        raise ParseError(f"{where}.entries: expected a nonempty integer array")
    return DiagonalBlock(tuple(_want_int(x, f"{where}.entries") for x in entries))


def _parse_coords(obj, rank, where) -> tuple[int, ...]:
    if not isinstance(obj, list):
        raise ParseError(f"{where}: expected an integer array")
    # One C-level type check; the walk runs only to name the first bad entry.
    coords = tuple(obj if set(map(type, obj)) <= {int} else (_want_int(x, where) for x in obj))
    if len(coords) != rank:
        raise ValidationError(
            "coords_length", f"{where}: length {len(coords)} != form rank {rank}"
        )
    return coords


def _parse_class(entry, rank: int, i: int) -> tuple[tuple[int, ...], int]:
    """basic_classes[i] as (coords, sw).  A well-formed entry passes one
    chain of C-level tests; any other is checked in the order below, and
    only then is its label formatted."""
    if (type(entry) is dict and entry.keys() == {"coords", "sw"}
            and type(coords := entry["coords"]) is list and len(coords) == rank
            and type(sw := entry["sw"]) is int and sw and set(map(type, coords)) <= {int}):
        return tuple(coords), sw
    where = f"basic_classes[{i}]"
    if not isinstance(entry, dict) or set(entry) != {"coords", "sw"}:
        raise ParseError(f"{where}: expected an object with 'coords' and 'sw'")
    coords = _parse_coords(entry["coords"], rank, f"{where}.coords")
    sw = _want_int(entry["sw"], f"{where}.sw")
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
