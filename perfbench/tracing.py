"""Spans around swcalc's public entry points, recorded from outside the package.

``Tracer.installed()`` rebinds each entry point in every swcalc module that
holds a reference to it (the defining module, the package namespace and every
module that imported the name), so calls made inside the library nest: an
``sst_check`` span contains the ``orthogonal_complement``,
``find_hyperbolic_pair`` and ``vanishing_order`` spans, which contain
``jet_expand`` and so on.  Nothing under ``src/`` is edited; leaving the
context restores the original functions.
"""

import functools
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def _parse_sizes(args, kwargs, result):
    return {"input_bytes": len(args[0].encode("utf-8"))}


def _complement_sizes(args, kwargs, result):
    ambient, complement = args[0].rank, len(result.basis)
    return {"complement_rank": complement, "constraint_rank": ambient - complement}


def _pair_sizes(args, kwargs, result):
    return {"found": int(result is not None)}


def _jet_sizes(args, kwargs, result):
    return {"width": len(result.variables), "monomials": len(result.coefficients)}


# (module, attribute, span name, size recorder)
ENTRY_POINTS = (
    ("swcalc.manifest", "parse_manifest", "manifest.parse", _parse_sizes),
    ("swcalc.manifest", "Manifest.to_manifold", "manifold.to_manifold", None),
    ("swcalc.manifold", "validate", "manifold.validate", None),
    ("swcalc.lattice", "characteristic_vector", "lattice.characteristic_vector", None),
    ("swcalc.lattice", "orthogonal_complement", "lattice.complement", _complement_sizes),
    ("swcalc.lattice", "find_hyperbolic_pair", "lattice.pair_search", _pair_sizes),
    ("swcalc.series", "sw_series", "series.sw_series", None),
    ("swcalc.series", "vanishing_order", "series.vanishing_order", None),
    ("swcalc.series", "jet_expand", "series.jet", _jet_sizes),
    ("swcalc.relations", "dswrel_value", "relations.dswrel", None),
    ("swcalc.relations", "sst_check", "relations.sst", None),
    ("swcalc.relations", "dvanish_theorem_check", "relations.dvanish", None),
    ("swcalc.relations", "region_data", "relations.region", None),
    ("swcalc.region", "region_to_dict", "region.render", None),
    ("swcalc.region", "region_to_svg", "region.render", None),
    ("swcalc.region", "region_to_ascii", "region.render", None),
)


class Span:
    __slots__ = ("parent", "name", "item", "start", "end", "sizes")

    def __init__(self, parent, name, item):
        self.parent, self.name, self.item = parent, name, item
        self.start = self.end = 0.0
        self.sizes = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; ``item`` tags the spans of the current item."""

    def __init__(self):
        self.spans: list[Span] = []
        self.item = None
        self._stack: list[int] = []

    def _wrap(self, fn, name, sizer):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(stack[-1] if stack else None, name, self.item)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if sizer is not None:
                span.sizes = sizer(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "swcalc" or n.startswith("swcalc.")]
        undo = []
        try:
            for module_name, attr, name, sizer in ENTRY_POINTS:
                owner = sys.modules[module_name]
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                    original = owner.__dict__[attr]
                    setattr(owner, attr, self._wrap(original, name, sizer))
                    undo.append((owner, attr, original))
                    continue
                original = getattr(owner, attr)
                wrapped = self._wrap(original, name, sizer)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)
                            undo.append((module, key, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def rollup(self) -> dict:
        """Per span name: calls, inclusive and self seconds, summed sizes.

        Self time is a span's duration minus the time its child spans cover;
        spans nest strictly (one thread), so children never overlap."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "sizes": defaultdict(int)})
        for index, span in enumerate(self.spans):
            row = out[span.name]
            row["calls"] += 1
            row["total_s"] += span.duration
            row["self_s"] += span.duration - child_time[index]
            for key, value in (span.sizes or {}).items():
                row["sizes"][key] += value
        return {name: dict(row, sizes=dict(row["sizes"])) for name, row in out.items()}

    def by_item(self, name: str) -> dict:
        """Inclusive seconds of the named span, summed per item."""
        out = defaultdict(float)
        for span in self.spans:
            if span.name == name:
                out[span.item] += span.duration
        return dict(out)
