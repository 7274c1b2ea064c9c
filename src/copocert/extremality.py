"""Extremality certificates from the minimal-zero linear system.

For a copositive matrix A with minimal zeros u^1, ..., u^m, consider the
homogeneous linear system on a symmetric unknown X:

    (X u^j)_k = 0    for every j and every k with (A u^j)_k = 0,

over the n(n+1)/2 upper-triangle entries of X (row-major, the global unknown
ordering of this package).  A spans an extreme ray of the copositive cone
exactly when the solution space of this system is one-dimensional, in which
case that line is spanned by A itself.  The gate ``(A u^j)_k = 0`` is tested
exactly; there is no tolerance anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantError
from .linalg import (
    SymMatrix,
    _primitive_int_row,
    dot,
    is_proportional,
    kernel_basis,
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
    basis: tuple[SymMatrix, ...]
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


def extremality_certificate(A: SymMatrix) -> ExtremalityCertificate:
    """Decide extremality of a copositive matrix via the system's nullity.

    Raises NotCopositiveError (from ``minimal_zeros``) when A is not
    copositive.
    """
    zeros = minimal_zeros(A)
    system = build_system(A, zeros)
    n = A.n
    size = upper_size(n)
    if any(dot(row, A.upper) != 0 for row in system.rows):
        raise InvariantError("input matrix must satisfy its own system")
    kern = kernel_basis(list(system.rows), size)
    nullity = len(kern)
    if nullity == 0 and not A.is_zero():
        raise InvariantError("a nonzero matrix lies in its own solution space")
    extremal = nullity == 1
    basis = tuple(SymMatrix.from_upper(n, v) for v in kern)
    if extremal and not is_proportional(basis[0].upper, A.upper):
        raise InvariantError("one-dimensional solution space must be "
                             "spanned by a multiple of the matrix")
    return ExtremalityCertificate(nullity, extremal, basis, system, zeros)
