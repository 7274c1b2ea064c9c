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
nothing.  Let (v, eta) span a kernel direction of the system matrix
[A_S, -1; 1^T, 0], so A_S v = eta * 1 and sum(v) = 0; then v != 0, since
v = 0 forces eta = 0.  From any positive solution (u, mu), move along
+(v, eta) or -(v, eta), whichever does not increase mu, until a coordinate of
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

Each system is solved on integers.  With ``A = M / d`` and ``nu = -d mu``,
the system of S reads ``K_S (nu, u) = e_0`` for the symmetric bordered matrix

    K_S = [[0, 1^T], [1, M_S]],

so it has a unique solution iff ``det K_S != 0``, and that solution is the
first column of ``adj K_S`` over ``det K_S``.  Supports are scanned level by
level, and a support S with largest index i is its parent ``S' = S - {i}``
plus one bordered row and column: ``b = (1, M_si for s in S')`` and
``c = M_ii``.  From the parent's adjugate and determinant D, with
``w = adj(K_S') b``,

    det K_S = c D - b^T w,
    adj K_S = [[(det K_S adj K_S' + w w^T) / D, -w], [-w^T, D]]

(Sylvester's identity, as in fraction-free elimination).  The divisions are
exact because ``adj K_S`` is an integer matrix, and each is checked.  So one
level keeps, for every support with a nonsingular system and a child (its
largest index is not n - 1), its adjugate and determinant, and the next
level borders them: O(k^2) integer operations per support instead of an
elimination.  Size 1 is closed form: ``det = -1`` and
``adj = [[c, -1], [-1, 0]]``.  A support whose parent's system is singular,
or whose parent came from a support-system cache hit (which keeps no
adjugate), takes one fraction-free elimination instead, and is rejected by
its pivot count when singular.  Positivity is read off integer signs, and
``Fraction``s are built only for the points that are yielded.

Membership testing is co-NP-complete in general; the 2^n - 1 support scan is
deliberate and fine for the orders this package targets (n <= 8).  The
adjugates kept per level grow like C(n, n/2) (n/2)^2, so the scan refuses
orders above ``MAX_SCAN_ORDER``.  The tests cross-check it against the
general elimination and sign check it replaced, against the exact LP on
every feasible support, and against an independent one-sided falsifier
that bisects the simplex (``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import OrderTooLargeError
from .linalg import (
    ONE,
    ZERO,
    SymMatrix,
    Vector,
    bordered_adjugate,
    eval_quadratic,
    inverse_rows,
)

MAX_SCAN_ORDER = 16


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


def _support_system(M, support, parent, full):
    """``(D, rows)`` for the system of ``support``: ``D`` is ``det K_S`` up
    to a sign shared with ``rows``, the first row of ``D K_S^-1`` (all rows
    when ``full``); ``(0, None)`` when ``K_S`` is singular.  ``parent`` is
    the ``(rows, D)`` kept for ``support[:-1]``, or ``None``."""
    i = support[-1]
    c = M[i][i]
    if len(support) == 1:
        return -1, [[c, -1], [-1, 0]]
    if parent is not None:
        row = M[i]
        b = [1] + [row[s] for s in support[:-1]]
        return bordered_adjugate(*parent, b, c, full=full)
    k = len(support)
    rows = [[0] + [1] * k] + [[1] + [M[r][s] for s in support] for r in support]
    return inverse_rows(rows, k + 1 if full else 1)


def stationary_candidates(A: SymMatrix, *, cache: dict | None = None):
    """Yield ``(value, point)`` for every support whose stationarity system
    has a unique solution, strictly positive on the support.

    Supports are scanned by cardinality, then lexicographically, so strict
    subsets come before their supersets.  Each system is solved on the
    integer numerators of ``A = M / d`` by bordering its parent's (see the
    module docstring).  With ``p`` the first column of ``adj K_S`` on the
    unknowns u, the point is ``p / det K_S`` and the value is recomputed as
    ``p^T M_S p / (det K_S^2 d)``, so each candidate is an attained simplex
    value by construction.  Raises OrderTooLargeError for orders above
    ``MAX_SCAN_ORDER`` when the scan starts.

    The system of support S, its point and its value depend only on
    ``A_S = M_S / d``.  A caller that scans many matrices (the census) may
    pass one dict as ``cache``: it is keyed by ``d`` and the upper triangle
    of ``M_S``, and maps to ``None`` (no unique positive solution) or to the
    point on S with its value, so each distinct principal submatrix is
    solved once.  Without a cache no key is built.
    """
    n = A.n
    if n > MAX_SCAN_ORDER:
        raise OrderTooLargeError(
            f"order {n} exceeds the support scan's limit of {MAX_SCAN_ORDER}")
    M, d = A.integer_form
    parents = {}
    for k in range(1, n + 1):
        kept = {}  # support -> (adjugate rows, determinant), for the next level
        for support in combinations(range(n), k):
            if cache is not None:
                key = (d, tuple([M[i][j] for p, i in enumerate(support)
                                 for j in support[p:]]))
                hit = cache.get(key, _UNSEEN)
                if hit is not _UNSEEN:
                    if hit is not None:
                        yield hit[1], _embed(hit[0], support, n)
                    continue
            full = support[-1] < n - 1
            det, adj = _support_system(M, support, parents.get(support[:-1]),
                                       full)
            found = None
            if det:
                if full:
                    kept[support] = (adj, det)
                p = adj[0][1:]
                if det < 0:
                    det, p = -det, [-x for x in p]
                if all(x > 0 for x in p):
                    total = 0
                    for x, i in zip(p, support):
                        row = M[i]
                        total += x * sum(row[j] * y for j, y in zip(support, p))
                    found = (tuple([Fraction(x, det) for x in p]),
                             Fraction(total, det * det * d))
            if cache is not None:
                cache[key] = found
            if found is not None:
                yield found[1], _embed(found[0], support, n)
        parents = kept


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

