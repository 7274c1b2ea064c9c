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

Three facts say which supports matter.  Let (v, eta) span a kernel direction
of the system matrix [A_S, -1; 1^T, 0], so A_S v = eta * 1 and sum(v) = 0;
then v != 0, since v = 0 forces eta = 0.  From any positive solution
(u, mu), move along +(v, eta) or -(v, eta), whichever does not increase mu,
until a coordinate of u reaches 0 (one does, because the entries of v sum
to 0).  The end point is positive on a proper subset S' of S, solves the
system of S', and has value at most mu.  By induction on |S|:

  1. the minimum over the closed face of any support is attained on a
     subset of it whose system has a unique solution (so is the simplex
     minimum);
  2. supports are scanned by cardinality, so a support with a
     positive-dimensional solution set is never the first to show a negative
     value: a smaller support with a unique solution, scanned earlier, shows
     one too;
  3. on a copositive matrix, a value-0 point on a support with a
     positive-dimensional solution set implies a zero on a proper subset, so
     no minimal zero comes from such a support.

A zero with support S is exactly a positive solution of S's system with
value 0, and by (3) a minimal one is the unique solution of its support's
system.  Conversely, every value-0 point u on a support with a unique
solution is a minimal zero.  Let z be a zero of a copositive A with support
inside u's support S.  z minimizes the form over the orthant, so
``(A z)_k >= 0`` for every k, and ``A_S u = 0``, so
``0 = z^T A u = sum over k in S of u_k (A z)_k`` forces ``(A z)_k = 0`` on
S.  Then ``z / sum(z)`` solves S's system with value 0, and by uniqueness
it is u: no zero sits on a proper subset of S.

Only supports that can hold a local minimum are solved.  Call S
*conditionally positive definite* (PD) when A_S is positive definite on
{v : sum(v) = 0}.  With ``A = M / d``, S's system is ``K_S (nu, u) = e_0``
for ``nu = -d mu`` and the symmetric bordered matrix

    K_S = [[0, 1^T], [1, M_S]],

so it has a unique solution iff ``det K_S != 0``, and that solution is the
first column of ``adj K_S`` over ``det K_S``.  By the bordered-minor test
(Debreu, Econometrica 20, 1952) S is PD iff ``det K_T < 0`` for every
leading ``T = S[:j]``, ``j >= 2``; as ``det K_S = -1`` for a singleton, S
is PD iff ``S[:-1]`` is and ``det K_S < 0``.  A subset of a PD support is
PD, since its subspace lies in S's.  The scan solves S only when every
parent ``S - {s}`` is PD, and keeps S as a parent iff ``det K_S < 0``.
This loses nothing:

  * *The minimum and the zeros.*  A global minimizer on a support with a
    unique solution (fact 1), and a minimal zero, are local minima of the
    form on their open face, so A_S is positive semidefinite on
    ``sum(v) = 0``; ``K_S`` is nonsingular, so A_S is definite there and S
    is PD, and so is each of its subsets.  So the simplex minimum and every
    minimal zero are still found, in the same scan order.  Every value-0
    point the pruned scan yields was yielded by the full scan too, so it is
    still a minimal zero.
  * *The violator.*  Let S0 be the first support, in scan order, with a
    negative value.  By fact 1 the minimum over the closed face of S0 sits
    on a support T within S0 with a unique solution and a negative value.
    A T smaller than S0 would have been scanned first, so T = S0: S0 holds
    the minimum over its closed face, which makes it PD.  The pruned scan
    solves a subsequence of the full scan that contains S0, so it stops at
    the same support, with the same violator and the same
    ``simplex_minimum``.

The scan keeps 2k + 2 integers for each PD support Y of size k:
``D_Y = det K_Y``; ``f_Y``, the first column of ``adj K_Y``, whose tail
over ``D_Y`` is Y's point; and ``v_Y = adj(K_Y') b_Y`` for ``Y' = Y[:-1]``,
where ``b_Y`` is the last column of ``K_Y`` above its diagonal (the new
row and column come last, as indices are sorted).  Bordering a
nonsingular symmetric K' with a column b and a corner c gives, with
``w = adj(K') b`` and ``D' = det K'``,

    det K = c D' - b^T w,
    adj K = [[(det K adj K' + w w^T) / D', -w], [-w^T, D']]

(Sylvester's identity, as in fraction-free elimination).  A visited X of
size k >= 3 is ``S + (s, t)``, ``s < t``, and joins two PD parents that
differ in their last index, ``X1 = S + (s,)`` and ``X2 = S + (t,)``; S is
PD as a subset of X1.  With ``b = (1, M_tu for u in S)``, ``b_X`` is
``(b, M_st)`` and ``adj(K_S) b = v_X2``, so the identity for ``K_X1``
(``K' = K_S``, ``w = v_X1``) times ``b_X``, and then for ``K_X`` read at
column 0, give

    v_X = ((D_X1 v_X2 + (v_X1 . b) v_X1) / D_S - M_st v_X1,
           D_S M_st - v_X1 . b),
    D_X = M_tt D_X1 - b_X . v_X,
    f_X = ((D_X f_X1 + v_X[0] v_X) / D_X1, -v_X[0]),

each in O(k).  Both divisions are exact: the first numerator is ``D_S``
times a block of the integer matrix ``adj K_X1`` times b, the second
``D_X1`` times the head of column 0 of the integer ``adj K_X``; each is
checked.  Singletons and pairs are closed forms: ``D = -1``,
``f = (M_ii, -1)``, ``v = (1,)`` (``adj`` of the 1 x 1 ``K_()`` is
``[[1]]``), and ``D = 2 M_st - M_ss - M_tt``,
``f = (M_ss M_tt - M_st^2, M_st - M_tt, M_st - M_ss)``,
``v = (M_ss - M_st, -1)``.  Every determinant comes from those closed
forms through exact integer steps, so its sign, which decides PD, is
exact.  ``D_X``, ``f_X`` and ``v_X``, like the point and its value's
numerator, are functions of ``M_X`` alone (``K_X`` and ``K_X1`` are its
bordered matrices), so the cache key of ``stationary_candidates``, the
upper triangle of ``M_X`` followed by ``d``, still determines everything
the scan keeps for X, whichever matrix the entry came from.

The scan hands out integers only: each point as its numerators ``p`` over
``q = |det K_S|``, with its value's numerator ``p^T M_S p`` over ``q^2 d``.
``is_copositive`` decides on the signs of those numerators and compares
values by cross-multiplying.  ``Fraction``s are built only for what it
returns: the violator and its value, and the minimum.  A zero it keeps is
the primitive integer multiple of ``p``.

Membership testing is co-NP-complete in general; the support scan, up to
2^n - 1 supports, is deliberate and fine for the orders this package
targets (n <= 8).  The states kept per level grow like C(n, n/2) n,
and a full scan visits all 2^n - 1 supports, so the scan refuses orders
above ``MAX_SCAN_ORDER``: a ``check`` at order 16, where every support is
PD, takes seconds, and each order above it doubles the supports.  The tests
cross-check it against the general elimination and sign check it replaced,
against the unpruned scan and the exact LP on every feasible support, and
against an independent one-sided falsifier that bisects the simplex
(``tests/oracles.py``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, groupby
from math import gcd
from operator import itemgetter, mul

from .errors import InvariantError, OrderTooLargeError
from .linalg import ONE, ZERO, SymMatrix, Vector, upper_index, upper_size

MAX_SCAN_ORDER = 16


@dataclass(frozen=True)
class Zero:
    """A zero stored as its primitive integer multiple ``point``:
    nonnegative ints with gcd 1.  ``support`` and the sum-normalized
    ``coordinates`` are read off it."""

    point: tuple[int, ...]

    @property
    def support(self) -> tuple[int, ...]:
        """The indices of the nonzero coordinates, ascending."""
        return tuple(i for i, x in enumerate(self.point) if x)

    @property
    def coordinates(self) -> Vector:
        total = sum(self.point)
        return tuple(Fraction(x, total) for x in self.point)


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

    ``zeros`` holds a ``Zero`` for each value-0 stationary point, in scan
    order; it is empty when the matrix is not copositive.  On a copositive
    matrix these are exactly the minimal zeros (see the module docstring).
    """

    copositive: bool
    violator: Vector | None
    simplex_minimum: Fraction
    zeros: tuple[Zero, ...] = ()


def _embed(values, support, n, fill=ZERO):
    x = [fill] * n
    for v, i in zip(values, support):
        x[i] = v
    return tuple(x)


@functools.lru_cache(maxsize=None)
def _key_getters(n):
    """One ``itemgetter`` per support of order n, which picks the upper
    triangle of ``M_S`` followed by ``d`` out of the upper triangle of
    ``M`` followed by ``d``: the support's cache key."""
    last = upper_size(n)
    return {s: itemgetter(*[upper_index(n, i, j) for p, i in enumerate(s)
                            for j in s[p:]], last)
            for k in range(1, n + 1) for s in combinations(range(n), k)}


def _children(parents, grand):
    """``(X, det K_S, first, second)`` for each support ``X = S + (s, t)``,
    ``s < t``, whose parents are all in ``parents``, in lexicographic order
    when ``parents`` is: ``first`` and ``second`` are the entries of the two
    siblings it joins, ``S + (s,)`` and ``S + (t,)``, and ``det K_S`` is
    read from ``grand``, the level of S (None for pairs, whose S is
    empty).

    Siblings share their prefix S, so in lexicographic order they are
    consecutive, and joining each with the later ones in order keeps the
    order.  The other parents, X without an element of S, are looked up."""
    for prefix, group in groupby(parents.items(), key=lambda kv: kv[0][:-1]):
        group = list(group)
        det = grand[prefix][1] if prefix else None
        for a, (first, entry) in enumerate(group):
            for second, sibling in group[a + 1:]:
                support = first + second[-1:]
                for j in range(len(prefix)):
                    if support[:j] + support[j + 1:] not in parents:
                        break
                else:
                    yield support, det, entry, sibling


def _support_state(M, support, det, first, second):
    """``(D, f, v)`` for ``X = support``: ``D = det K_X``, ``f`` the first
    column of ``adj K_X`` and ``v = adj(K_X1) b``, where ``X1 = X[:-1]``
    and ``b`` is the last column of ``K_X`` above its diagonal.  Sizes 1
    and 2 are closed forms; a larger X is computed in O(k) from
    ``det = det K_S``, ``S = X[:-2]``, and the entries ``first`` of ``X1``
    and ``second`` of its sibling ``S + X[-1:]`` (see the module
    docstring).  Each division is checked exact (InvariantError): floor
    remainders share the sign of the divisor, so they sum to 0 only if
    each is 0, and one comparison of sums checks them all."""
    if len(support) == 1:
        i = support[0]
        return -1, [M[i][i], -1], [1]
    s = support[-2]
    row = M[support[-1]]
    mss, mst, mtt = M[s][s], row[s], row[support[-1]]
    if len(support) == 2:
        return (2 * mst - mss - mtt, [mss * mtt - mst * mst, mst - mtt,
                                      mst - mss], [mss - mst, -1])
    _, d1, f1, v1 = first
    b = [1]
    b += map(row.__getitem__, support[:-2])
    c = sum(map(mul, v1, b)) - mst * det
    num = [d1 * y + c * x for x, y in zip(v1, second[3])]
    v = [x // det for x in num]
    if sum(num) != det * sum(v):
        raise InvariantError("bordered recurrence division must be exact")
    D = mtt * d1 - sum(map(mul, b, v)) + mst * c
    v.append(-c)
    w = v[0]
    num = [D * x + w * y for x, y in zip(f1, v)]
    f = [x // d1 for x in num]
    if sum(num) != d1 * sum(f):
        raise InvariantError("bordered recurrence division must be exact")
    f.append(-w)
    return D, f, v


def stationary_candidates(A: SymMatrix, *, cache: dict | None = None):
    """Yield ``(support, p, q, total)`` for every support whose parents are
    all conditionally positive definite and whose stationarity system has
    a unique solution, strictly positive on the support, all in integers:
    the point is ``p / q`` on ``support`` (0 elsewhere) and its form value
    is ``total / (q^2 d)``.  These include the simplex minimum, the first
    negative value of an unpruned scan and every minimal zero (see the
    module docstring).

    Supports are scanned by cardinality, then lexicographically, so strict
    subsets come before their supersets.  Each system is solved on the
    integer numerators of ``A = M / d`` from the states of its two parents
    ``S[:-1]`` and ``S[:-2] + S[-1:]`` in O(k).  ``p`` is ``f[1:]``, the
    first column of ``adj K_S`` on the unknowns u, and
    ``q = |det K_S|``, signs matched so that ``p > 0``; ``total`` is
    recomputed as ``p^T M_S p``, so each candidate is an attained simplex
    value by construction, and ``sum(p) == q`` is checked (InvariantError).
    Raises OrderTooLargeError for orders above ``MAX_SCAN_ORDER`` when the
    scan starts.

    The system of support S, its point and its value depend only on
    ``A_S = M_S / d``, and so do ``D``, ``f`` and ``v``.  A caller that
    scans many matrices (the census) may pass one dict as ``cache``: it is
    keyed by the upper triangle of ``M_S`` followed by ``d``, built only
    for the supports the scan visits, and maps to ``(found, D, f, v)``,
    where ``found`` is ``None`` (no unique positive solution) or
    ``(p, q, total)`` as yielded.  Each distinct principal submatrix is
    solved once, whatever order the matrix that first met it had: a hit
    with ``D < 0`` serves as a parent as stored, and a hit with ``D >= 0``
    prunes its supersets like a solve.  Without a cache no key is built.
    """
    n = A.n
    if n > MAX_SCAN_ORDER:
        raise OrderTooLargeError(
            f"order {n} exceeds the support scan's limit of {MAX_SCAN_ORDER}")
    M, d = A.integer_form
    if cache is not None:
        flat = (*[x for i, row in enumerate(M) for x in row[i:]], d)
        getters = _key_getters(n)
    grand = parents = {}
    for k in range(1, n + 1):
        level = {}  # the conditionally positive definite supports of size k
        if k == 1:
            visits = [((i,), None, None, None) for i in range(n)]
        else:
            visits = _children(parents, grand)
        for support, det, first, second in visits:
            if cache is not None:
                key = getters[support](flat)
                entry = cache.get(key)
                if entry is not None:
                    if entry[1] < 0:
                        level[support] = entry
                    if entry[0] is not None:
                        yield (support, *entry[0])
                    continue
            D, f, v = _support_state(M, support, det, first, second)
            found = None
            p = f[1:]
            if D < 0 and max(p) < 0 or D > 0 and min(p) > 0:
                q = D
                if q < 0:
                    q, p = -q, [-x for x in p]
                if sum(p) != q:  # the row sum(u) = 1 of the system
                    raise InvariantError(
                        "stationary point must have coordinate sum 1")
                total = 0
                for x, i in zip(p, support):
                    row = M[i]
                    total += x * sum(map(mul, [row[j] for j in support], p))
                found = tuple(p), q, total
            entry = found, D, f, v
            if D < 0:
                level[support] = entry
            if cache is not None:
                cache[key] = entry
            if found is not None:
                yield (support, *found)
        grand, parents = parents, level


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
    the matrix is copositive the whole pruned scan has run, the reported
    minimum is exact and the minimal zeros have been collected on the way.
    Pruning the supports that cannot hold a local minimum changes none of
    these: the verdict equals that of a scan of every support with a unique
    positive solution (see the module docstring).  Values
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
    for support, p, q, total in stationary_candidates(A, cache=cache):
        if total < 0:
            violator = _embed([Fraction(x, q) for x in p], support, n)
            return CopositivityVerdict(False, violator,
                                       Fraction(total, q * q * d))
        if total:
            values.append((total, q * q))
        else:  # a minimal zero, by the module docstring
            g = gcd(*p)
            zeros.append(Zero(_embed([x // g for x in p], support, n, 0)))
    if zeros:
        return CopositivityVerdict(True, None, ZERO, tuple(zeros))
    total, qq = values[0]
    for t, r in values:
        if t * qq < total * r:
            total, qq = t, r
    return CopositivityVerdict(True, None, Fraction(total, qq * d))
