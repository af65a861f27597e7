"""Exact-arithmetic calculator for basic-class invariant relations on
smooth four-manifolds: lattice arithmetic, exponential-sum jets, the
vanishing and relation pipelines, and a manifest-driven CLI.

``series``, ``relations`` and ``region`` are registered in ``sys.modules``
when the package is imported, but each module's body is compiled and run
only on the first use of one of its attributes; the package serves its
re-exports of their names through ``__getattr__``.
"""

import sys
import threading
import types
from importlib.util import find_spec, module_from_spec

from .errors import PreconditionError, SWCalcError
from .lattice import (
    AbundanceClasses,
    CohClass,
    DiagonalBlock,
    E8Block,
    HyperbolicBlock,
    HyperbolicPair,
    IntegralLattice,
    Sublattice,
    characteristic_vector,
    construct_abundance_classes,
    find_hyperbolic_pair,
    is_characteristic,
    orthogonal_complement,
    pairing,
    square,
)
from .manifold import (
    BasicClassEntry,
    FourManifold,
    ValidationReport,
    basic_class_count,
    c1_squared,
    characteristic_number,
    holomorphic_euler,
    validate,
)
from .manifest import Manifest, load_catalog, parse_manifest, serialize_manifest
_LOADING = threading.RLock()
_running = set()


class _Deferred(types.ModuleType):
    """A submodule registered in ``sys.modules`` whose body runs on the first
    access to, assignment or deletion of any of its attributes."""

    def __getattribute__(self, attr):
        _execute(self)
        return types.ModuleType.__getattribute__(self, attr)

    def __setattr__(self, attr, value):
        _execute(self)
        types.ModuleType.__setattr__(self, attr, value)

    def __delattr__(self, attr):
        _execute(self)
        types.ModuleType.__delattr__(self, attr)


def _execute(module) -> None:
    """Run a deferred body once.  The body runs under one lock, so a second
    thread waits for all of it; the running body's own accesses to its
    module pass through, as in any import."""
    with _LOADING:
        spec = types.ModuleType.__getattribute__(module, "__spec__")
        if type(module) is not _Deferred or spec.name in _running:
            return
        _running.add(spec.name)
        try:
            spec.loader.exec_module(module)
        finally:
            types.ModuleType.__setattr__(module, "__class__", types.ModuleType)
            _running.discard(spec.name)


def _defer(name: str) -> types.ModuleType:
    spec = find_spec(f"{__name__}.{name}")
    module = module_from_spec(spec)
    module.__class__ = _Deferred
    sys.modules[spec.name] = module
    return module


# A call compiles and runs only the pipelines it uses: validate, abundance
# and catalog need none of these, invariants and witten need series only.
series, relations, region = (_defer(name) for name in ("series", "relations", "region"))

# The names the package re-exports from those two modules.
_REEXPORTS = dict.fromkeys((
    "RelationQuery", "basic_class_bound", "degree_admissible", "dswrel_value", "dvanish_applies",
    "dvanish_theorem_check", "i_lambda", "r_lambda", "region_data", "sst_check",
), relations) | dict.fromkeys((
    "ExpSum", "GaussianSeries", "Jet", "Parity", "VanishingOrder", "evaluate_along", "jet_expand",
    "parity", "predicted_parity", "sw_series", "twist", "vanishing_order", "witten_series",
), series)


def __getattr__(name):
    """A re-exported series or relations name, read off its module."""
    try:
        module = _REEXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(module, name)


__version__ = "0.1.0"
