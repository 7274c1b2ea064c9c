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

from .linalg import (
    ZERO,
    SymMatrix,
    Vector,
    canonical_vector,
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
    rows are cleared to primitive integer coefficients before elimination to
    control growth.
    """

    order: int
    gates: tuple[tuple[int, int], ...]
    rows: tuple[Vector, ...]

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
    gates = []
    rows = []
    for j, zero in enumerate(Z.zeros):
        image = A.apply(zero.coordinates)
        for k in range(n):
            if image[k] != 0:
                continue
            row = [ZERO] * upper_size(n)
            for l, ul in enumerate(zero.coordinates):
                if ul != 0:
                    row[upper_index(n, k, l)] += ul
            gates.append((j, k))
            rows.append(canonical_vector(row))
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
    for row in system.rows:
        assert dot(row, A.upper) == 0, "input matrix must satisfy its own system"
    kern = kernel_basis(list(system.rows), size)
    nullity = len(kern)
    if not A.is_zero():
        assert nullity >= 1, "a nonzero matrix lies in its own solution space"
    extremal = nullity == 1
    basis = tuple(SymMatrix.from_upper(n, v) for v in kern)
    if extremal:
        assert is_proportional(basis[0].upper, A.upper), \
            "one-dimensional solution space must be spanned by a multiple of the matrix"
    return ExtremalityCertificate(nullity, extremal, basis, system, zeros)
