"""Exact certificates for copositive matrices over the rationals.

The package decides copositivity of rational symmetric matrices with a
witness or falsifier, enumerates minimal zeros, certifies extremality
through the nullity of the minimal-zero linear system, analyses the entry
graph that the pair-supported case induces, extracts diagonal-scaling
decompositions, and runs a census of unit-diagonal {-1,0,1} matrices up to
simultaneous permutation.  All arithmetic is exact (integers and Fractions);
no floating point is used anywhere in a verdict.
"""

from .census import (
    Candidate,
    CensusRecord,
    EquivalenceReport,
    PairSupportReport,
    check_pair_supports,
    read_records,
    run_census,
    verify_pair_scaling_equivalence,
    write_records,
)
from .copositivity import (
    CopositivityVerdict,
    is_copositive,
    subdivision_falsifier,
)
from .errors import (
    AmbiguousPatternError,
    CandidateBudgetError,
    CensusInvariantError,
    CopocertError,
    InconsistentDiagonalError,
    MatrixFormatError,
    NotCopositiveError,
    NotExtremalError,
    NotUnitDiagonalError,
    ScalingConditionError,
    SupportCardinalityError,
)
from .extremality import (
    ExtremalityCertificate,
    ExtremalitySystem,
    build_system,
    extremality_certificate,
)
from .linalg import (
    AffineSolutionSet,
    SymMatrix,
    eval_quadratic,
    horn_matrix,
    kernel_basis,
    solve_affine,
)
from .scaling import (
    DiagonalScaling,
    ScalingDecomposition,
    extract_pattern,
    has_sign_pattern_scaling,
    scale,
)
from .structure_graph import (
    ComponentReport,
    GraphComponent,
    StructureGraph,
    build_graph,
    component_analysis,
    dimension_via_graph,
    reconstruct_pattern,
    to_dot,
)
from .zeros import MinimalZeroList, Zero, minimal_zeros

__all__ = [
    "AffineSolutionSet",
    "AmbiguousPatternError",
    "Candidate",
    "CandidateBudgetError",
    "CensusInvariantError",
    "CensusRecord",
    "ComponentReport",
    "CopocertError",
    "CopositivityVerdict",
    "DiagonalScaling",
    "EquivalenceReport",
    "ExtremalityCertificate",
    "ExtremalitySystem",
    "GraphComponent",
    "InconsistentDiagonalError",
    "MatrixFormatError",
    "MinimalZeroList",
    "NotCopositiveError",
    "NotExtremalError",
    "NotUnitDiagonalError",
    "PairSupportReport",
    "ScalingConditionError",
    "ScalingDecomposition",
    "StructureGraph",
    "SupportCardinalityError",
    "SymMatrix",
    "Zero",
    "build_graph",
    "build_system",
    "check_pair_supports",
    "component_analysis",
    "dimension_via_graph",
    "eval_quadratic",
    "extract_pattern",
    "extremality_certificate",
    "has_sign_pattern_scaling",
    "horn_matrix",
    "is_copositive",
    "kernel_basis",
    "minimal_zeros",
    "read_records",
    "reconstruct_pattern",
    "run_census",
    "scale",
    "solve_affine",
    "subdivision_falsifier",
    "to_dot",
    "verify_pair_scaling_equivalence",
    "write_records",
]

__version__ = "0.1.0"
