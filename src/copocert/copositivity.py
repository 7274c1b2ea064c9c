"""Exact copositivity decisions at desk scale.

A symmetric matrix is copositive iff its quadratic form is nonnegative on the
nonnegative orthant, which by homogeneity is equivalent to a nonnegative
minimum over the standard simplex.  That minimum is computed exactly by
enumerating supports:

  Every simplex point lies in the relative interior of the face given by its
  support S, and a minimizer restricted to that open face satisfies the
  stationarity conditions of the equality-constrained problem there,
      A_S u = mu * 1,   sum(u) = 1,   u > 0 on S,
  with the attained value u^T A u equal to mu.  Scanning every nonempty
  support therefore visits a system solved by the global minimizer.  If that
  system is degenerate, solutions along any line through the minimizer have
  affinely varying mu; a nonzero slope would let the value decrease inside
  the open face, contradicting minimality, so all solutions of the
  minimizer's system share the minimal value and it does not matter which
  positive solution the search returns for that support.  Singleton supports
  are always feasible (u_i = 1, mu = A_ii), so the candidate set is never
  empty and contains every vertex value.

The same scan yields the minimal zeros of a copositive matrix, because a zero
with support S is exactly a positive solution of S's system with value 0.
There mu is affine on the solution set and every positive solution has
mu >= 0, so if mu were not constant some positive point near the zero would
have mu < 0; hence mu = 0 on the whole set, which is then the sum-normalized
kernel of A_S, of dimension dim ker A_S - 1.

Membership testing is co-NP-complete in general; the 2^n - 1 support scan is
deliberate and fine for the orders this package targets (n <= 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .linalg import ONE, ZERO, SymMatrix, Vector, eval_quadratic, solve_affine
from .lp import strictly_positive_point


@dataclass(frozen=True)
class CopositivityVerdict:
    """Outcome of the membership test.

    ``violator`` is a nonnegative rational vector with negative form value,
    present exactly when the matrix is not copositive.  ``simplex_minimum``
    is the exact minimum of the form over the standard simplex when the
    matrix is copositive; on the negative side the scan stops at the first
    negative stationary value found, so the field then holds that certified
    negative value (an upper bound for the true minimum, attained by the
    violator).

    ``zeros`` pairs each value-0 stationary point whose support contains no
    earlier one's with the dimension of its support's solution set, in scan
    order; it is empty when the matrix is not copositive.  On a copositive
    matrix these points are the sum-normalized minimal zeros.
    """

    copositive: bool
    violator: Vector | None
    simplex_minimum: Fraction
    zeros: tuple[tuple[Vector, int], ...] = ()


def _embed(values, support, n):
    x = [ZERO] * n
    for v, i in zip(values, support):
        x[i] = v
    return tuple(x)


def stationary_candidates(A: SymMatrix):
    """Yield ``(value, point, dimension)`` for every support whose
    stationarity system has a solution that is strictly positive on the
    support; ``dimension`` is that system's solution-set dimension.

    Supports are scanned by cardinality, then lexicographically, so strict
    subsets come before their supersets.  Values are recomputed with the
    quadratic form itself rather than read off the multiplier, so each
    candidate is an attained simplex value by construction.
    """
    n = A.n
    for k in range(1, n + 1):
        for support in combinations(range(n), k):
            # unknowns: u over the support, then the multiplier
            rows = []
            for i in support:
                rows.append([A.get(i, j) for j in support] + [-ONE])
            rows.append([ONE] * k + [ZERO])
            sol = solve_affine(rows, [ZERO] * k + [ONE], ncols=k + 1)
            if not sol.feasible:
                continue
            point = strictly_positive_point(sol, positive=range(k))
            if point is None:
                continue
            x = _embed(point[:k], support, n)
            yield eval_quadratic(A, x), x, sol.dimension


def min_on_simplex(A: SymMatrix) -> tuple[Fraction, Vector]:
    """Exact minimum of ``x^T A x`` over the standard simplex, with minimizer."""
    best = None
    arg = None
    for value, point, _ in stationary_candidates(A):
        if best is None or value < best:
            best, arg = value, point
    return best, arg


def _prefilter_violator(A: SymMatrix):
    # Cheap certified violations, checked before the exponential scan:
    # a negative diagonal entry, or a 2x2 principal submatrix with zero
    # diagonal and a negative coupling.
    n = A.n
    for i in range(n):
        if A.get(i, i) < 0:
            return _embed([ONE], (i,), n), A.get(i, i)
    for i in range(n):
        if A.get(i, i) != 0:
            continue
        for j in range(i + 1, n):
            if A.get(j, j) == 0 and A.get(i, j) < 0:
                x = _embed([Fraction(1, 2), Fraction(1, 2)], (i, j), n)
                return x, eval_quadratic(A, x)
    return None


def is_copositive(A: SymMatrix) -> CopositivityVerdict:
    """Exact membership test with a witness on failure.

    Stops at the first negative stationary value (census throughput); when
    the matrix is copositive the full scan has run, the reported minimum is
    exact and the minimal zeros have been collected on the way.
    """
    hit = _prefilter_violator(A)
    if hit is not None:
        return CopositivityVerdict(False, hit[0], hit[1])
    best = None
    zeros = []
    supports = []
    for value, point, dimension in stationary_candidates(A):
        if value < 0:
            return CopositivityVerdict(False, point, value)
        if best is None or value < best:
            best = value
        if value == 0:
            support = frozenset(i for i, c in enumerate(point) if c)
            if not any(s < support for s in supports):
                supports.append(support)
                zeros.append((point, dimension))
    return CopositivityVerdict(True, None, best, tuple(zeros))


def _split_simplex(corners, depth, seen, A):
    if depth == 0 or len(corners) < 2:
        return None
    # bisect the longest edge; ties resolved by index order for determinism
    best_pair = None
    best_len = None
    for a, b in combinations(range(len(corners)), 2):
        d = sum((x - y) ** 2 for x, y in zip(corners[a], corners[b]))
        if best_len is None or d > best_len:
            best_len = d
            best_pair = (a, b)
    a, b = best_pair
    mid = tuple((x + y) / 2 for x, y in zip(corners[a], corners[b]))
    if mid not in seen:
        seen.add(mid)
        if eval_quadratic(A, mid) < 0:
            return mid
    for drop, keep in ((a, b), (b, a)):
        child = list(corners)
        child[drop] = mid
        hit = _split_simplex(tuple(child), depth - 1, seen, A)
        if hit is not None:
            return hit
    return None


def subdivision_falsifier(A: SymMatrix, depth: int) -> Vector | None:
    """One-sided copositivity falsifier, independent of the support scan.

    Recursively bisects the standard simplex (longest edge first) and returns
    the first subdivision vertex with negative form value, or ``None`` after
    exhausting ``depth`` levels.  ``None`` does not certify copositivity.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    n = A.n
    corners = tuple(_embed([ONE], (i,), n) for i in range(n))
    seen = set()
    for c in corners:
        seen.add(c)
        if eval_quadratic(A, c) < 0:
            return c
    return _split_simplex(corners, depth, seen, A)
