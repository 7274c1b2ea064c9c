"""Exact certificates for copositive matrices over the rationals.

The package decides copositivity of rational symmetric matrices with a
witness or falsifier, enumerates minimal zeros, certifies extremality
through the nullity of the minimal-zero linear system, analyses the entry
graph that the pair-supported case induces, extracts diagonal-scaling
decompositions, and runs a census of unit-diagonal {-1,0,1} matrices up to
simultaneous permutation.  All arithmetic is exact (integers and Fractions);
no floating point is used anywhere in a verdict.

The names below are the README quick start and the function behind each
command of ``copocert.cli``; everything else is reached through its module.
"""

# No library path uses lp or zeros; they are imported so that the
# benchmark tracer, which looks up ``copocert.lp`` and ``copocert.zeros``
# by module name, finds them loaded.
from . import lp, zeros  # noqa: F401
from .census import run_census, verify_pair_scaling_equivalence
from .copositivity import is_copositive, minimal_zeros
from .errors import CopocertError
from .extremality import extremality_certificate
from .linalg import SymMatrix, horn_matrix
from .scaling import extract_pattern
from .structure_graph import build_graph, component_analysis

__all__ = [
    "CopocertError",
    "SymMatrix",
    "build_graph",
    "component_analysis",
    "extract_pattern",
    "extremality_certificate",
    "horn_matrix",
    "is_copositive",
    "minimal_zeros",
    "run_census",
    "verify_pair_scaling_equivalence",
]

__version__ = "0.1.0"
