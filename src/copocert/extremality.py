"""Extremality certificates from the minimal-zero linear system.

For a copositive matrix A with minimal zeros u^1, ..., u^m, consider the
homogeneous linear system on a symmetric unknown X:

    (X u^j)_k = 0    for every j and every k with (A u^j)_k = 0,

over the n(n+1)/2 upper-triangle entries of X (row-major, the global unknown
ordering of this package).  A spans an extreme ray of the copositive cone
exactly when the solution space of this system is one-dimensional, in which
case that line is spanned by A itself.  The gate ``(A u^j)_k = 0`` is tested
exactly; there is no tolerance anywhere.  The nullity is the number of
unknowns minus the pivot count of one fraction-free elimination; a kernel
vector is back-substituted only for nullity 1, where it must be a multiple
of A.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantError
from .linalg import (
    SymMatrix,
    _primitive_int_row,
    dot,
    echelon,
    is_proportional,
    upper_index,
    upper_size,
)
from .zeros import MinimalZeroList, minimal_zeros


@dataclass(frozen=True)
class ExtremalitySystem:
    """The assembled constraint rows, one per fired gate.

    ``gates[r] = (j, k)`` records that row ``r`` encodes ``(X u^j)_k = 0``;
    row ``r`` holds the primitive integer multiple of u^j at the unknowns
    X_kl, so elimination takes it as it is.
    """

    order: int
    gates: tuple[tuple[int, int], ...]
    rows: tuple[tuple[int, ...], ...]

    def __len__(self):
        return len(self.rows)


@dataclass(frozen=True)
class ExtremalityCertificate:
    """Verdict plus the data needed to re-derive it."""

    nullity: int
    extremal: bool
    system: ExtremalitySystem
    minimal_zeros: MinimalZeroList


def build_system(A: SymMatrix, Z: MinimalZeroList) -> ExtremalitySystem:
    """Rows ``(X u^j)_k = 0`` for every j, k with ``(A u^j)_k = 0`` exactly."""
    n = A.n
    if Z.matrix.n != n:
        raise ValueError("zero list order does not match matrix order")
    M, _ = A.integer_form
    gates = []
    rows = []
    for j, zero in enumerate(Z.zeros):
        p = _primitive_int_row(zero.coordinates)
        support = [l for l, c in enumerate(p) if c]
        for k in range(n):
            # (A u)_k = 0 exactly iff (M p)_k = 0
            if sum(M[k][l] * p[l] for l in support):
                continue
            row = [0] * upper_size(n)
            for l in support:
                row[upper_index(n, k, l)] = p[l]
            gates.append((j, k))
            rows.append(tuple(row))
    return ExtremalitySystem(n, tuple(gates), tuple(rows))


def extremality_certificate(A: SymMatrix, *,
                            cache: dict | None = None) -> ExtremalityCertificate:
    """Decide extremality of a copositive matrix via the system's nullity.

    The system is eliminated once and the nullity is its column count minus
    its pivot count.  Only a one-dimensional solution space is
    back-substituted, to check that it is spanned by A; a larger one is
    reported by its dimension alone (``kernel_basis(cert.system.rows)``
    recovers a basis).  ``cache`` is handed to the copositivity scan (see
    ``stationary_candidates``).  Raises NotCopositiveError (from
    ``minimal_zeros``) when A is not copositive.
    """
    zeros = minimal_zeros(A, cache=cache)
    system = build_system(A, zeros)
    if any(dot(row, A.upper) != 0 for row in system.rows):
        raise InvariantError("input matrix must satisfy its own system")
    reduced = echelon(system.rows, upper_size(A.n))
    nullity = reduced.nullity
    if nullity == 0 and not A.is_zero():
        raise InvariantError("a nonzero matrix lies in its own solution space")
    extremal = nullity == 1
    if extremal and not is_proportional(reduced.kernel()[0], A.upper):
        raise InvariantError("one-dimensional solution space must be "
                             "spanned by a multiple of the matrix")
    return ExtremalityCertificate(nullity, extremal, system, zeros)
