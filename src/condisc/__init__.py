"""Exact conductor/discriminant analyzer for split hyperelliptic equations.

Given the roots of a monic split Weierstrass polynomial over a discretely
valued base (odd residue characteristic), or just the ultrametric matrix of
their pairwise valuations, this package builds the combinatorial shadow of
a proper regular model of the curve, computes the Artin conductor and the
equation discriminant by two independent routes each, and certifies the
conductor-discriminant inequality together with every intermediate identity
along the way.  All arithmetic is exact.
"""

from .cluster import (
    ClusterTree,
    ClusterVertex,
    build_cluster_tree,
    check_tree_invariants,
    equation_discriminant,
)
from .conductor import (
    EVEN_ALL_EVEN_CHILDREN_WT2,
    ODD_WT2,
    ODD_WT3_NO_EVEN_CHILDREN,
    STRICT,
    Report,
    VertexLedger,
    analyze,
    compare_vertex,
    local_artin,
)
from .dualgraph import (
    XComponent,
    XGraph,
    YGraph,
    YVertex,
    artin_conductor,
    build_tx,
    build_ty,
    detect_nonminimal,
    genus_check,
    self_intersections,
)
from .errors import (
    CondiscError,
    DuplicateRootsError,
    InstanceError,
    InternalInvariantViolation,
    TooFewRootsError,
    UltrametricViolationError,
)
from .instancefile import load_instance, parse_instance_dict
from .render import dot_cover, dot_model, dot_tree, render_text, write_dot
from .valuation import (
    INFINITY,
    Instance,
    ValuationMatrix,
    build_matrix,
    matrix_from_rows,
    val,
    validate_ultrametric,
)

__version__ = "0.1.0"

__all__ = [
    "INFINITY",
    "Instance",
    "ValuationMatrix",
    "val",
    "build_matrix",
    "matrix_from_rows",
    "validate_ultrametric",
    "ClusterTree",
    "ClusterVertex",
    "build_cluster_tree",
    "check_tree_invariants",
    "equation_discriminant",
    "YGraph",
    "YVertex",
    "XGraph",
    "XComponent",
    "build_ty",
    "build_tx",
    "artin_conductor",
    "self_intersections",
    "genus_check",
    "detect_nonminimal",
    "analyze",
    "Report",
    "VertexLedger",
    "compare_vertex",
    "local_artin",
    "EVEN_ALL_EVEN_CHILDREN_WT2",
    "ODD_WT2",
    "ODD_WT3_NO_EVEN_CHILDREN",
    "STRICT",
    "load_instance",
    "parse_instance_dict",
    "render_text",
    "dot_tree",
    "dot_cover",
    "dot_model",
    "write_dot",
    "CondiscError",
    "InstanceError",
    "DuplicateRootsError",
    "TooFewRootsError",
    "UltrametricViolationError",
    "InternalInvariantViolation",
]
