"""Exact certification toolkit for Peisert-type Cayley graphs.

Builds Cayley graphs on the additive group of GF(q^2) whose connection
set is a union of multiplicative cosets of GF(q)*, realizes them as
block graphs of point-line orthogonal arrays, and certifies their
strongly regular parameters, clique structure, Erdos-Ko-Rado behaviour,
chromatic number, and weakly Hadamard diagonalizability with integer
and rational arithmetic, save one exact float64 step: the column Gram
of a {-1, 0, 1} matrix (whd.nonorthogonality_edges), all sums < 2^53.
"""

from .errors import PeisertError, SearchTimeout, VerificationFailed
from .field import FieldCtx, ORDER_CAP, create
from .graphs import (
    DEFAULT_BUDGET,
    Graph,
    SrgParams,
    build_cayley,
    connection_set,
    enumerate_max_cliques,
    enumerate_maximal_cliques,
    family_cosets,
    from_dimacs,
    srg_certify,
    to_dimacs,
    verify_coloring,
)
from .oa import (
    INFINITY_SLOPE,
    OrthogonalArray,
    SubarraySelection,
    block_graph,
    build_pointline_oa,
    canonical_correspondence,
    certify_clique_bound,
    certify_coset_lines,
    default_alpha,
    noncanonical_clique_bound,
    oa_from_csv,
    oa_to_csv,
    subarray_for_connection_set,
    unused_slope_coloring,
    verify_isomorphism,
)
from .ekr import (
    AuditReport,
    CanonicalClique,
    Counterexample,
    Decomposition,
    EkrBasis,
    build_counterexample,
    build_ekr_basis,
    canonical_cliques,
    decompose_clique,
    decompose_cliques,
    strict_ekr_audit,
)
from .whd import (
    WeakHadamardResult,
    WhdCertificate,
    build_whd,
    check_ordering,
    is_weakly_hadamard,
    whd_from_csv,
    whd_to_csv,
)
from .survey import GraphReport, analyze_graph, ambient_field, run_sweep

__version__ = "0.1.0"

__all__ = [
    "AuditReport", "CanonicalClique", "Counterexample", "Decomposition",
    "DEFAULT_BUDGET", "EkrBasis", "FieldCtx",
    "Graph", "GraphReport", "INFINITY_SLOPE", "ORDER_CAP", "OrthogonalArray",
    "PeisertError", "SearchTimeout", "SrgParams", "SubarraySelection",
    "VerificationFailed", "WeakHadamardResult", "WhdCertificate",
    "ambient_field", "analyze_graph", "block_graph", "build_cayley",
    "build_counterexample", "build_ekr_basis", "build_pointline_oa",
    "build_whd", "canonical_cliques", "canonical_correspondence",
    "certify_clique_bound", "certify_coset_lines", "check_ordering", "connection_set",
    "create", "decompose_clique", "decompose_cliques", "default_alpha", "enumerate_max_cliques",
    "enumerate_maximal_cliques", "family_cosets", "from_dimacs", "is_weakly_hadamard",
    "noncanonical_clique_bound", "oa_from_csv", "oa_to_csv", "run_sweep",
    "srg_certify", "strict_ekr_audit", "subarray_for_connection_set",
    "to_dimacs", "unused_slope_coloring", "verify_coloring",
    "verify_isomorphism", "whd_from_csv", "whd_to_csv",
]
