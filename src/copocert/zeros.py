"""Zeros and minimal zeros of a copositive matrix.

A zero of a copositive A is a nonzero nonnegative vector u with
``u^T A u = 0``; its support is the set of strictly positive coordinates.  A
zero is minimal when no other zero has a support strictly contained in its
own.  Up to positive scaling there are finitely many minimal zeros, and each
support carries at most one.  That uniqueness is structural here: the
copositivity scan only visits supports whose stationarity system has a
unique solution, and every minimal zero's support is one of them.

Support characterization used throughout: for copositive A, the zeros with
support exactly S are precisely the embeddings of strictly positive vectors
in the kernel of the principal submatrix A_S.  Indeed, a zero u minimizes
the form over the nonnegative orthant (the minimum is 0 by copositivity), so
the first-order conditions give (A u)_i >= 0 with equality wherever u_i > 0,
i.e. A_S u_S = 0; conversely A_S u_S = 0 with u_S > 0 makes
``u^T A u = u_S^T A_S u_S = 0``.  This equivalence needs copositivity, which
is why ``minimal_zeros`` checks it.  The zeros themselves are read off the
copositivity scan (see ``copositivity``), which visits every support once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotCopositiveError
from .linalg import SymMatrix, Vector
from .copositivity import is_copositive


@dataclass(frozen=True)
class Zero:
    """A sum-normalized zero together with its support and its primitive
    integer multiple ``integer_point``."""

    coordinates: Vector
    support: frozenset[int]
    integer_point: tuple[int, ...]

    def sorted_support(self) -> tuple[int, ...]:
        return tuple(sorted(self.support))


@dataclass(frozen=True)
class MinimalZeroList:
    """The minimal zeros of a matrix; supports form an antichain."""

    matrix: SymMatrix
    zeros: tuple[Zero, ...]

    def supports(self) -> tuple[tuple[int, ...], ...]:
        return tuple(z.sorted_support() for z in self.zeros)

    def __iter__(self):
        return iter(self.zeros)

    def __len__(self):
        return len(self.zeros)


def minimal_zeros(A: SymMatrix, *, cache: dict | None = None) -> MinimalZeroList:
    """All minimal zeros of a copositive matrix, sum-normalized.

    They are collected by the copositivity scan, which visits supports by
    cardinality then lexicographically, so strict subsets are always seen
    before their supersets.  Every zero of A has its support containing some
    support returned here.  The scan's points are taken as they are: it
    yields only points positive on their support, and checks on integers
    that their coordinates sum to 1.  ``cache`` is handed to the scan (see
    ``stationary_candidates``).
    """
    verdict = is_copositive(A, cache=cache)
    if not verdict.copositive:
        raise NotCopositiveError(violator=verdict.violator)
    return MinimalZeroList(A, tuple(
        Zero(point, frozenset(i for i, c in enumerate(p) if c), p)
        for point, p in zip(verdict.zeros, verdict.zero_points)))
