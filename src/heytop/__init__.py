"""Saturations, reductions and basic topologies over finite Heyting-valued
subset spaces, with the compatibility calculus that connects them."""

from .errors import (
    CapExceeded,
    CertificateFailure,
    ContextMismatch,
    HeytopError,
    NotALattice,
    NotCompatible,
    NotHeyting,
    ParseError,
    UnknownCommand,
    UnknownEntry,
    UnknownName,
    ValidationError,
)
from .heyting import HeytingAlgebra, boolean2, build_from_order, chain, downset_algebra
from .hset import Carrier, HSubset, empty, enumerate_all, from_degrees, from_points, full, incl, overlap, subset_cap
from .optable import (
    LL,
    RR,
    Operator,
    OperatorProfile,
    bottom_op,
    classify,
    compat_degree,
    complement_op,
    compose,
    const_op,
    double_complement_op,
    identity_op,
    pointwise_join,
    pointwise_meet,
    splits_degree,
    tabulated_op,
    top_op,
    weak_compat_degree,
)
from .galois import (
    AA,
    JJ,
    Reduction,
    Saturation,
    from_family_red,
    from_family_sat,
    galois_check,
    join_reductions,
    join_saturations,
    meet_reductions,
    meet_saturations,
    positivity_law,
)
from .btop import BasicTopology, adjunction_check, coarser, five_node_diagram, is_reduced, is_saturated, join_family, make
from .gen import AxiomSet, axioms_from_saturation, fulfills_degree, generate_red, generate_sat, splits_axioms_degree
from .rep import HRelation, dir_image, inv_image, inv_right_adjoint, represent_reduction, representable, right_adjoint, symmetry_check
from .catalog import CatalogEntry, load as load_counterexample
from .reports import LawReport

__version__ = "0.1.0"
