"""Exact copositivity decisions at desk scale.

A symmetric matrix is copositive iff its quadratic form is nonnegative on the
nonnegative orthant, which by homogeneity is equivalent to a nonnegative
minimum over the standard simplex.  That minimum is computed exactly by
enumerating supports:

  Every simplex point lies in the relative interior of the face given by its
  support S, and a minimizer restricted to that open face satisfies the
  stationarity conditions of the equality-constrained problem there,
      A_S u = mu * 1,   sum(u) = 1,   u > 0 on S,
  with the attained value u^T A u equal to mu.  Singleton supports always
  have the unique solution u_i = 1, mu = A_ii, so the candidate set is never
  empty and contains every vertex value.

Only supports whose system has a unique solution are scanned, and this loses
nothing.  Let (v, nu) span a kernel direction of the system matrix
[A_S, -1; 1^T, 0], so A_S v = nu * 1 and sum(v) = 0; then v != 0, since
v = 0 forces nu = 0.  From any positive solution (u, mu), move along
+(v, nu) or -(v, nu), whichever does not increase mu, until a coordinate of
u reaches 0 (one does, because the entries of v sum to 0).  The end point is
positive on a proper subset S' of S, solves the system of S', and has value
at most mu.  By induction on |S|:

  1. the simplex minimum is attained on a support with a unique solution;
  2. supports are scanned by cardinality, so a support with a
     positive-dimensional solution set is never the first to show a negative
     value: a smaller support with a unique solution, scanned earlier, shows
     one too;
  3. on a copositive matrix, a value-0 point on a support with a
     positive-dimensional solution set implies a zero on a proper subset, so
     no minimal zero comes from such a support.

The same scan therefore yields the minimal zeros of a copositive matrix: a
zero with support S is exactly a positive solution of S's system with value
0, and by (3) a minimal one is the unique solution of its support's system.

Membership testing is co-NP-complete in general; the 2^n - 1 support scan is
deliberate and fine for the orders this package targets (n <= 8).  The
tests cross-check it against an independent one-sided falsifier that bisects
the simplex (``tests/oracles.py``).
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

    ``zeros`` holds each value-0 stationary point whose support contains no
    earlier one's, in scan order; it is empty when the matrix is not
    copositive.  On a copositive matrix these points are the sum-normalized
    minimal zeros.
    """

    copositive: bool
    violator: Vector | None
    simplex_minimum: Fraction
    zeros: tuple[Vector, ...] = ()


_UNSEEN = object()  # a support-system cache miss (None caches "no point")


def _embed(values, support, n):
    x = [ZERO] * n
    for v, i in zip(values, support):
        x[i] = v
    return tuple(x)


def stationary_candidates(A: SymMatrix, *, cache: dict | None = None):
    """Yield ``(value, point)`` for every support whose stationarity system
    has a unique solution, strictly positive on the support.

    Supports are scanned by cardinality, then lexicographically, so strict
    subsets come before their supersets.  Each system is built on integers
    from ``A = M / d``: the rows ``A_S u - mu 1 = 0`` are multiplied by
    ``d``, a row scaling that leaves the solution set unchanged.  Values are
    recomputed with the quadratic form (on integer numerators) rather than
    read off the multiplier, so each candidate is an attained simplex value
    by construction.

    The system of support S, its point and its value depend only on
    ``A_S = M_S / d``.  A caller that scans many matrices (the census) may
    pass one dict as ``cache``: it is keyed by ``d`` and the upper triangle
    of ``M_S``, and maps to ``None`` (no unique positive solution) or to the
    point on S with its value, so each distinct principal submatrix is
    solved once.  Without a cache no key is built.
    """
    n = A.n
    M, d = A.integer_form
    for k in range(1, n + 1):
        # unknowns: u over the support, then the multiplier
        sum_row = [1] * k + [0]
        rhs = [0] * k + [1]
        for support in combinations(range(n), k):
            if cache is not None:
                key = (d, tuple([M[i][j] for p, i in enumerate(support)
                                 for j in support[p:]]))
                hit = cache.get(key, _UNSEEN)
                if hit is not _UNSEEN:
                    if hit is not None:
                        yield hit[1], _embed(hit[0], support, n)
                    continue
            rows = [[M[i][j] for j in support] + [-d] for i in support]
            rows.append(sum_row)
            sol = solve_affine(rows, rhs, ncols=k + 1)
            point = None
            if sol.feasible and not sol.dimension:
                point = strictly_positive_point(sol, positive=range(k))
            if point is None:
                if cache is not None:
                    cache[key] = None
                continue
            u = point[:k]
            x = _embed(u, support, n)
            value = eval_quadratic(A, x)
            if cache is not None:
                cache[key] = (u, value)
            yield value, x


def _prefilter_violator(A: SymMatrix):
    # Cheap certified violations, checked before the exponential scan:
    # a negative diagonal entry, or a 2x2 principal submatrix with zero
    # diagonal and a negative coupling.  Signs are read off the integer
    # numerators, which share them with the entries.
    n = A.n
    M, _ = A.integer_form
    for i in range(n):
        if M[i][i] < 0:
            return _embed([ONE], (i,), n), A.get(i, i)
    for i in range(n):
        if M[i][i]:
            continue
        for j in range(i + 1, n):
            if M[j][j] == 0 and M[i][j] < 0:
                x = _embed([Fraction(1, 2), Fraction(1, 2)], (i, j), n)
                return x, eval_quadratic(A, x)
    return None


def is_copositive(A: SymMatrix, *, cache: dict | None = None) -> CopositivityVerdict:
    """Exact membership test with a witness on failure.

    Stops at the first negative stationary value (census throughput); when
    the matrix is copositive the full scan has run, the reported minimum is
    exact and the minimal zeros have been collected on the way.  ``cache``
    is handed to ``stationary_candidates``.
    """
    hit = _prefilter_violator(A)
    if hit is not None:
        return CopositivityVerdict(False, hit[0], hit[1])
    values = []
    zeros = []
    supports = []
    for value, point in stationary_candidates(A, cache=cache):
        # signs are read off numerators and the minimum is taken only once
        # the scan is through, because Fraction comparisons are slow
        if value.numerator < 0:
            return CopositivityVerdict(False, point, value)
        values.append(value)
        if not value:
            support = frozenset(i for i, c in enumerate(point) if c)
            if not any(s < support for s in supports):
                supports.append(support)
                zeros.append(point)
    return CopositivityVerdict(True, None, min(values), tuple(zeros))

