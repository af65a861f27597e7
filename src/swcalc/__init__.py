"""Exact-arithmetic calculator for basic-class invariant relations on
smooth four-manifolds: lattice arithmetic, exponential-sum jets, the
vanishing and relation pipelines, and a manifest-driven CLI."""

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
from .relations import (
    RelationQuery,
    basic_class_bound,
    degree_admissible,
    dswrel_value,
    dvanish_applies,
    dvanish_theorem_check,
    i_lambda,
    r_lambda,
    region_data,
    sst_check,
)
from .series import (
    Direction,
    ExpSum,
    GaussianSeries,
    Jet,
    Parity,
    VanishingOrder,
    evaluate_along,
    jet_expand,
    parity,
    predicted_parity,
    sw_series,
    twist,
    vanishing_order,
    witten_series,
)

__version__ = "0.1.0"
