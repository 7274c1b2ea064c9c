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
level, and a support S is each of its parents ``S' = S - {s}`` plus one
bordered row and column: ``b = (1, M_st for t in S')`` and ``c = M_ss``.
From the parent's adjugate and determinant D, with ``w = adj(K_S') b``,

    det K_S = c D - b^T w,
    adj K_S = [[(det K_S adj K_S' + w w^T) / D, -w], [-w^T, D]]

(Sylvester's identity, as in fraction-free elimination).  The divisions are
exact because ``adj K_S`` is an integer matrix, and each is checked.  When
``det K_S`` is 0, ``(w, -D)`` spans a kernel vector of ``K_S``, since
``K_S' w = D b`` and ``b^T w = c D``.  Size 1 is closed form: ``det = -1``
and ``adj = [[c, -1], [-1, 0]]``.  Each support takes the first of these
routes that applies:

  1. "bordered": border ``S[:-1]`` (s the largest index, so the new row
     and column come last, in sorted order) when its system is nonsingular;
  2. "other parent": else border another nonsingular parent ``S - {s}``
     and move the row and column of s to its sorted place (a symmetric
     permutation, which keeps the determinant);
  3. "kernel vector": else, when a singular parent carries a kernel vector
     z with ``b^T z = 0``, S is singular without further work, and its
     kernel vector is z with a 0 inserted at s.  For ``z`` in
     ``ker K_S'``, ``(z, 0)`` lies in ``ker K_S`` iff ``b^T z = 0``: the
     first rows of ``K_S (z, 0)`` are ``K_S' z = 0`` and its last entry is
     ``b^T z``;
  4. "eliminated": else one fraction-free elimination, rejected by its
     pivot count when singular (no kernel vector is kept then).

A parent can be bordered only if its full adjugate was kept, and a full
adjugate costs O(k^2) against O(k) for the first row, so the scan keeps
one only where a child will border it: for nonsingular supports whose
largest index is not n - 1 (route 1), and for the supports
``(P - {p}) + {n - 1}`` of each singular P without n - 1, which are the
other parents that ``P + {n - 1}`` borders by route 2.  Without a cache
route 4 is thus taken only when every parent is singular and no carried
kernel vector extends; rank-one ``v v^T``, singular on every support of
size 3 or more, is decided by routes 1-3 alone.

The scan hands out integers only: each point as its numerators ``p`` over
``q = |det K_S|``, with its value's numerator ``p^T M_S p`` over ``q^2 d``.
``is_copositive`` decides on the signs of those numerators and compares
values by cross-multiplying.  ``Fraction``s are built only for what it
returns: the violator and its value, the zeros it keeps, and the minimum.

Membership testing is co-NP-complete in general; the 2^n - 1 support scan is
deliberate and fine for the orders this package targets (n <= 8).  The
adjugates kept per level grow like C(n, n/2) (n/2)^2, so the scan refuses
orders above ``MAX_SCAN_ORDER``.  The tests cross-check it against the
general elimination and sign check it replaced, against the exact LP on
every feasible support, and against an independent one-sided falsifier
that bisects the simplex (``tests/oracles.py``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd
from operator import itemgetter, mul

from .errors import InvariantError, OrderTooLargeError
from .linalg import (
    ONE,
    ZERO,
    SymMatrix,
    Vector,
    bordered_adjugate,
    inverse_rows,
    upper_index,
    upper_size,
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
    minimal zeros.  ``zero_points`` holds the primitive integer multiple of
    each of them, in the same order.
    """

    copositive: bool
    violator: Vector | None
    simplex_minimum: Fraction
    zeros: tuple[Vector, ...] = ()
    zero_points: tuple[tuple[int, ...], ...] = ()


def _embed(values, support, n, fill=ZERO):
    x = [fill] * n
    for v, i in zip(values, support):
        x[i] = v
    return tuple(x)


def _point(support, p, q, n):
    """The simplex point ``p / q`` on ``support``, embedded in order n."""
    return _embed([Fraction(x, q) for x in p], support, n)


@functools.lru_cache(maxsize=None)
def _key_getters(n):
    """Per support size k, one ``itemgetter`` per k-support in scan order.

    Each picks the upper triangle of ``M_S`` followed by ``d`` out of the
    upper triangle of ``M`` followed by ``d``, which is the support's
    cache key."""
    last = upper_size(n)
    return tuple(
        tuple(itemgetter(*[upper_index(n, i, j) for p, i in enumerate(s)
                           for j in s[p:]], last)
              for s in combinations(range(n), k))
        for k in range(1, n + 1))


def _support_system(M, support, parents, full):
    """``(D, rows, route)`` for the system of ``support``.

    When ``D`` is nonzero it is ``det K_S`` up to a sign shared with
    ``rows``, the first row of ``D K_S^-1`` (all rows when ``full``).  When
    it is 0, ``rows`` is an integer kernel vector of ``K_S``, or ``None``
    when the system was eliminated.  ``parents`` maps supports one smaller
    to their ``(D, full adjugate)`` or ``(0, kernel vector or None)``;
    ``route`` names the branch taken (see the module docstring).
    """
    k = len(support)
    if k == 1:
        c = M[support[0]][support[0]]
        return -1, [[c, -1], [-1, 0]], "size 1"
    rest = support[:-1]
    parent = parents.get(rest)
    if parent is not None and parent[0]:
        row = M[support[-1]]
        det, rows = bordered_adjugate(parent[1], parent[0],
                                      [1] + [row[t] for t in rest],
                                      row[support[-1]], full=full)
        return det, rows, "bordered"
    singular = []
    if parent is not None and parent[1] is not None:
        singular.append((k - 1, rest, parent[1]))
    for j in range(k - 1):
        rest = support[:j] + support[j + 1:]
        parent = parents.get(rest)
        if parent is None:
            continue
        if not parent[0]:
            if parent[1] is not None:
                singular.append((j, rest, parent[1]))
            continue
        row = M[support[j]]
        det, rows = bordered_adjugate(parent[1], parent[0],
                                      [1] + [row[t] for t in rest],
                                      row[support[j]], full=full)
        # support[j] was bordered last: move its row and column to j + 1
        order = [*range(j + 1), k, *range(j + 1, k)]
        if not det:
            return 0, [rows[q] for q in order], "other parent"
        rows = [[r[q] for q in order]
                for r in ([rows[q] for q in order] if full else rows)]
        return det, rows, "other parent"
    for j, rest, z in singular:
        row = M[support[j]]
        if z[0] + sum(row[t] * x for t, x in zip(rest, z[1:])) == 0:
            return 0, z[:j + 1] + [0] + z[j + 1:], "kernel vector"
    rows = [[0] + [1] * k] + [[1] + [M[r][s] for s in support] for r in support]
    return (*inverse_rows(rows, k + 1 if full else 1), "eliminated")


def stationary_candidates(A: SymMatrix, *, cache: dict | None = None):
    """Yield ``(support, p, q, total)`` for every support whose
    stationarity system has a unique solution, strictly positive on the
    support, all in integers: the point is ``p / q`` on ``support`` (0
    elsewhere) and its form value is ``total / (q^2 d)``.

    Supports are scanned by cardinality, then lexicographically, so strict
    subsets come before their supersets.  Each system is solved on the
    integer numerators of ``A = M / d`` from a parent's (see the module
    docstring).  ``p`` is the first column of ``adj K_S`` on the unknowns
    u and ``q = |det K_S|``, signs matched so that ``p > 0``; ``total`` is
    recomputed as ``p^T M_S p``, so each candidate is an attained simplex
    value by construction, and ``sum(p) == q`` is checked (InvariantError).
    Raises OrderTooLargeError for orders above ``MAX_SCAN_ORDER`` when the
    scan starts.

    The system of support S, its point and its value depend only on
    ``A_S = M_S / d``.  A caller that scans many matrices (the census) may
    pass one dict as ``cache``: it is keyed by the upper triangle of
    ``M_S`` followed by ``d``, and maps to ``(found, D, rows)``, where
    ``found`` is ``None`` (no unique positive solution) or ``(p, q, total)``
    as yielded, and ``(D, rows)`` is what ``_support_system`` returned,
    so each distinct principal submatrix is solved once.  Every support
    smaller than the order then keeps its full adjugate, so that a hit can
    be bordered like a solved support wherever its key recurs (a hit that
    kept only a first row, from a scan of a smaller order, borders
    nothing).  Without a cache no key is built.
    """
    n = A.n
    if n > MAX_SCAN_ORDER:
        raise OrderTooLargeError(
            f"order {n} exceeds the support scan's limit of {MAX_SCAN_ORDER}")
    M, d = A.integer_form
    if cache is not None:
        flat = (*[x for i, row in enumerate(M) for x in row[i:]], d)
        getters = _key_getters(n)
    parents = {}
    for k in range(1, n + 1):
        level = {}  # parents of the next level, as _support_system reads them
        # supports with largest index n - 1 that a child borders in place
        # of its singular S[:-1]
        wanted = set()
        if cache is not None:
            keys = iter(getters[k - 1])
        for support in combinations(range(n), k):
            if cache is None:
                full = support[-1] < n - 1 or bool(wanted) and support in wanted
            else:
                key = next(keys)(flat)
                hit = cache.get(key)
                if hit is not None:
                    found, det, rows = hit
                    if not det or len(rows) > 1:
                        level[support] = det, rows
                    if found is not None:
                        yield (support, *found)
                    continue
                full = k < n
            det, rows, _ = _support_system(M, support, parents, full)
            found = None
            if not det:
                level[support] = 0, rows
                if support[-1] < n - 1:
                    # the other parents (S - {s}) + {n - 1} of S + {n - 1}
                    wanted.update([(*support[:j], *support[j + 1:], n - 1)
                                   for j in range(k)])
            else:
                if full:
                    level[support] = det, rows
                p = rows[0][1:]
                q = det
                if q < 0:
                    q, p = -q, [-x for x in p]
                if min(p) > 0:
                    if sum(p) != q:  # the row sum(u) = 1 of the system
                        raise InvariantError(
                            "stationary point must have coordinate sum 1")
                    total = 0
                    for x, i in zip(p, support):
                        row = M[i]
                        total += x * sum(map(mul, [row[j] for j in support], p))
                    found = tuple(p), q, total
            if cache is not None:
                cache[key] = found, det, rows
            if found is not None:
                yield (support, *found)
        parents = level


def _prefilter_violator(A: SymMatrix):
    # Cheap certified violations, checked before the exponential scan:
    # a negative diagonal entry, or a 2x2 principal submatrix with zero
    # diagonal and a negative coupling.  Signs are read off the integer
    # numerators, which share them with the entries.  The form's values
    # are M_ii / d at e_i and M_ij / 2d at (e_i + e_j) / 2.
    n = A.n
    M, d = A.integer_form
    for i in range(n):
        if M[i][i] < 0:
            return _embed([ONE], (i,), n), Fraction(M[i][i], d)
    for i in range(n):
        if M[i][i]:
            continue
        for j in range(i + 1, n):
            if M[j][j] == 0 and M[i][j] < 0:
                x = _embed([Fraction(1, 2), Fraction(1, 2)], (i, j), n)
                return x, Fraction(M[i][j], 2 * d)
    return None


def is_copositive(A: SymMatrix, *, cache: dict | None = None) -> CopositivityVerdict:
    """Exact membership test with a witness on failure.

    Stops at the first negative stationary value (census throughput); when
    the matrix is copositive the full scan has run, the reported minimum is
    exact and the minimal zeros have been collected on the way.  Values
    ``total / (q^2 d)`` share ``d``, so their signs are those of ``total``
    and they are compared as ``total / q^2`` by cross-multiplying; the
    minimum is compared only if no zero turns up.  ``cache`` is handed to
    ``stationary_candidates``.
    """
    hit = _prefilter_violator(A)
    if hit is not None:
        return CopositivityVerdict(False, hit[0], hit[1])
    n = A.n
    d = A.integer_form[1]
    values = []
    zeros = []
    points = []
    supports = []
    for support, p, q, total in stationary_candidates(A, cache=cache):
        if total < 0:
            return CopositivityVerdict(False, _point(support, p, q, n),
                                       Fraction(total, q * q * d))
        if total:
            values.append((total, q * q))
            continue
        s = frozenset(support)
        if not any(t < s for t in supports):
            supports.append(s)
            zeros.append(_point(support, p, q, n))
            g = gcd(*p)
            points.append(_embed([x // g for x in p], support, n, 0))
    if zeros:
        return CopositivityVerdict(True, None, ZERO, tuple(zeros),
                                   tuple(points))
    total, qq = values[0]
    for t, r in values:
        if t * qq < total * r:
            total, qq = t, r
    return CopositivityVerdict(True, None, Fraction(total, qq * d))
