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

A second cut needs only the signs of ``M``.  Let G- be the graph on the
indices that joins i and j when ``M_ij < 0``, and call a support
*connected* when G- restricted to it is connected; a connected support lies
inside one component of G-.

  *Lemma C.*  If ``x1, x2 >= 0`` and no negative entry ``M_ij`` has i in
  the support of x1 and j in that of x2, then, for ``q(x) = x^T M x``,
  ``q(x1 + x2) >= q(x1) + q(x2)``.  Indeed
  ``q(x1 + x2) = q(x1) + q(x2) + 2 x1^T M x2``, and each term
  ``x1_i M_ij x2_j`` of the last sum is nonnegative.

Split a support S that is not connected into nonempty S1 and S2 with no
negative entry between them, and a point u on S into its parts u1 on S1
and u2 on S2, so that ``q(u) >= q(u1) + q(u2)``.

  * *The violator is connected.*  Let S0 be the first support, in scan
    order, with a negative value, at u.  Were S0 not connected, q would be
    negative at u1 or u2, so the minimum over the closed face of S1 or S2
    would be negative, and by fact 1 it would sit on a support with a
    unique solution, smaller than S0 and so scanned before it.
  * *Every minimal zero is connected.*  On a copositive matrix, a zero u
    on S gives ``0 = q(u) >= q(u1) + q(u2) >= 0``, so u1 is a zero on a
    proper subset of S.

Given one label per index that names its component
(``_negative_components``), the scan drops each pair whose two indices
carry different labels.  A larger support is visited only if each of its
parents is kept, and two parents share all but one index, so every
support it visits lies inside one component.  A support inside one
component has all its subsets inside it, so the scan visits exactly the
supports of the PD-pruned scan that lie inside one component, in the same
order, with the same states.  That subsequence holds S0 and every minimal
zero: it stops at S0 with the same violator and value, and on a
copositive matrix it yields the same zeros in the same order.  A positive
minimum is another matter.  It may sit on a support that is not connected
(on the identity, at the barycentre, with every vertex a component of its
own), so when G- has more than one component and the scan inside them
meets neither a violator nor a zero, ``is_copositive`` runs the whole scan
once more for the exact minimum.  By the two points above that scan can
meet no value ``<= 0``; meeting one is an InvariantError.  Only a split
matrix with no zero pays for the second scan: when G- is connected there
are no labels and a single scan.

The scan keeps 2k + 2 integers for each PD support Y of size k:
``D_Y = det K_Y``; ``f_Y``, the first column of ``adj K_Y``, whose tail
over ``D_Y`` is Y's point; and ``v_Y = adj(K_Y') b_Y`` for ``Y' = Y[:-1]``,
where ``b_Y`` is the last column of ``K_Y`` above its diagonal (the new
row and column come last, as indices are sorted), and ``D`` alone for
a visited support that is not PD, which is never a parent.  Bordering a
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

The scan hands out integers only, and only on PD supports, as no other
support holds the violator, the minimum or a minimal zero: each point as
its numerators ``p = -f[1:]`` over ``q = -D > 0``, with its value's
numerator ``total`` over ``q^2 d``.  ``total`` is read off ``f[0]`` in
O(1).  The value at u is ``u^T A_S u = mu sum(u) = mu``, and
``nu = f[0] / D = -d mu``, so

    p^T M_S p = q^2 d mu = -q^2 f[0] / D = f[0] q.

Where a verdict reports a value, at each ``total <= 0`` (every zero and
violator) and at a positive minimum, ``p^T M_S p`` is also summed in
O(k^2) and must equal ``f[0] q``, which cross-checks ``f[0]`` against
``f[1:]``: every reported value is attained at the reported point.
``is_copositive`` decides on the signs of those numerators and compares
values by cross-multiplying.  ``Fraction``s are built only for what it
returns: the violator and its value, and the minimum.  A zero it keeps is
the primitive integer multiple of ``p``.

Membership testing is co-NP-complete in general; the support scan, up to
2^n - 1 supports, is deliberate and fine for the orders this package
targets (n <= 8).  The states kept per level grow like C(n, n/2) n,
and a full scan visits all 2^n - 1 supports, so the scan refuses orders
above ``MAX_SCAN_ORDER``: a scan at order 16 that visits every support
takes seconds, and each order above it doubles the supports.  The tests
cross-check it against the general elimination and sign check it replaced,
against the unpruned scan and the exact LP on every feasible support, and
against an independent one-sided falsifier that bisects the simplex
(``tests/oracles.py``).

The scan's worst case is the convex case: when the whole index set is PD,
so is every support, and the scan visits all 2^n - 1.  But then q, the
form of A, is strictly convex on the simplex: for ``sum(v) = 0``,
``v != 0``, ``q(x + v) = q(x) + 2 v^T A x + q(v)`` with ``q(v) > 0``.  Let
x be a point of the simplex that satisfies the KKT conditions

    x >= 0,  sum(x) = 1,  (A x)_i = mu on the support of x,
    (A x)_i >= mu off it.

Then ``q(x) = sum_i x_i (A x)_i = mu``, and for any other point z of the
simplex, with ``v = z - x``, ``v^T A x = sum_i z_i (A x)_i - mu >= 0``, so
``q(z) > mu``: x is the only minimizer, and mu the simplex minimum.  So:

  * mu > 0: A is copositive with minimum mu and has no zeros.
  * mu = 0: a zero u of A makes ``u / sum(u)`` a point of value 0 = mu on
    the simplex, which is x: x is the one zero up to scaling, so the one
    minimal zero, and the scan, which yields exactly the minimal zeros,
    yields x alone.
  * mu < 0: A is not copositive, but the violator a verdict prints is the
    scan's first negative stationary point, which need not be x, so the
    scan runs; it stops at that point.

``_convex`` is this route, for orders 2 to ``MAX_SCAN_ORDER``.  Its gate is
``_pair_screen`` and then one fraction-free elimination of ``Z^T M Z`` for
the basis ``Z = [e_i - e_n]`` of {v : sum(v) = 0}: positive definite iff
the whole index set is PD, the property the scan reads off bordered
minors.  A pair that fails the screen has a value ``<= 0``, so the inputs
with a zero on a pair (the census classes with a -1, the Horn matrix, the
D S D scalings) are turned away there, with no elimination.  x comes from
an exact primal active-set method in integers (``_convex_minimum``), and
is re-checked against the KKT conditions in integers before anything is
answered, so a wrong step ends in an InvariantError, never in a wrong
verdict.  The answer is the scan's: the same exact minimum, or the same
primitive zero.

A strictly copositive matrix has no zeros, yet the scan finds that out only
by visiting every support whose parents are PD, all 2^n - 1 of them when
every support is PD.  ``_strictly_copositive`` certifies strict
copositivity exactly in O(n^3): a pair screen, then one fraction-free
elimination for M and, if that fails, one for its Z-part (the proof is in
its docstring).  ``minimal_zeros`` asks it first and returns no zeros
without a scan when it holds, then asks the convex route, then scans; it
asks only up to ``MAX_SCAN_ORDER``, so larger orders are still refused.
``is_copositive`` asks the convex route and then scans, but never the
certificate, which says nothing of the minimum it reports.  The scan stays
the oracle that both are tested against.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import combinations
from math import gcd
from operator import itemgetter, mul

from .errors import InvariantError, OrderTooLargeError
from .linalg import ONE, ZERO, SymMatrix, Vector, unknowns, upper_size
from .records import record

MAX_SCAN_ORDER = 16


@record
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


@record
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
    zeros: tuple[Zero, ...]


def _embed(values, support, n, fill=ZERO):
    x = [fill] * n
    for v, i in zip(values, support):
        x[i] = v
    return tuple(x)


@functools.lru_cache(maxsize=None)
def _key_getters(n):
    """One ``itemgetter`` per support S of order n, at index
    ``sum(1 << i for i in S)``, which picks the upper triangle of ``M_S``
    followed by ``d`` out of the upper triangle of ``M`` followed by ``d``:
    the support's cache key."""
    columns = unknowns(n)[1]
    getters = [None] * (1 << n)
    for k in range(1, n + 1):
        for s in combinations(range(n), k):
            getters[sum(1 << i for i in s)] = itemgetter(
                *[columns[i][j] for p, i in enumerate(s) for j in s[p:]],
                upper_size(n))
    return getters


def _children(groups, kept, out):
    """``(X, mask, det K_S, first, second, sink)`` for each support
    ``X = S + (s, t)``, ``s < t``, whose parents are all kept, in
    lexicographic order.  ``groups`` holds, for each prefix S of the level
    below, in lexicographic order, ``(bits, det, members)``: the bits
    ``1 << u`` of the elements u of S, ``det K_S`` (None for pairs, whose
    S is empty) and ``(support, mask, entry)`` for each kept parent
    ``S + (s,)``, in order of s, with ``mask`` the bits of its elements.
    ``kept`` holds the masks of all the kept parents; ``first`` and
    ``second`` are the entries of the two siblings X joins, ``S + (s,)``
    and ``S + (t,)``.

    Siblings share their prefix S, so joining each with the later ones in
    order keeps the order.  The other parents, X without an element of S,
    are looked up by mask.  Each ``S + (s,)`` starts a group of the next
    level, appended to ``out`` as it is reached; ``sink`` is that group's
    member list, to which the caller appends X if it keeps X."""
    for bits, det, members in groups:
        for a, (first, mask, entry) in enumerate(members):
            sink = []
            out.append((bits + (1 << first[-1],), entry[1], sink))
            for second, other, sibling in members[a + 1:]:
                union = mask | other
                for bit in bits:
                    if union ^ bit not in kept:
                        break
                else:
                    yield first + second[-1:], union, det, entry, sibling, sink


def _support_state(M, support, det, first, second):
    """``(D, f, v)`` for ``X = support``: ``D = det K_X``, ``f`` the first
    column of ``adj K_X`` and ``v = adj(K_X1) b``, where ``X1 = X[:-1]``
    and ``b`` is the last column of ``K_X`` above its diagonal; when
    ``D >= 0``, X is not conditionally positive definite, never a parent,
    and only ``(D, None, None)`` is returned.  Sizes 1 and 2 are closed
    forms; a larger X is computed in O(k) from ``det = det K_S``,
    ``S = X[:-2]``, and the entries ``first`` of ``X1`` and ``second`` of
    its sibling ``S + X[-1:]`` (see the module docstring).  Each division
    is checked exact (InvariantError): floor remainders share the sign of
    the divisor, so they sum to 0 only if each is 0, and one comparison of
    sums checks them all."""
    if len(support) == 1:
        i = support[0]
        return -1, [M[i][i], -1], [1]
    s = support[-2]
    row = M[support[-1]]
    mss, mst, mtt = M[s][s], row[s], row[support[-1]]
    if len(support) == 2:
        D = 2 * mst - mss - mtt
        if D >= 0:
            return D, None, None
        return (D, [mss * mtt - mst * mst, mst - mtt, mst - mss],
                [mss - mst, -1])
    _, d1, f1, v1 = first
    b = [1]
    b += map(row.__getitem__, support[:-2])
    c = sum(map(mul, v1, b)) - mst * det
    num = [d1 * y + c * x for x, y in zip(v1, second[3])]
    v = [x // det for x in num]
    if sum(num) != det * sum(v):
        raise InvariantError("bordered recurrence division must be exact")
    D = mtt * d1 - sum(map(mul, b, v)) + mst * c
    if D >= 0:
        return D, None, None
    v.append(-c)
    w = v[0]
    num = [D * x + w * y for x, y in zip(f1, v)]
    f = [x // d1 for x in num]
    if sum(num) != d1 * sum(f):
        raise InvariantError("bordered recurrence division must be exact")
    f.append(-w)
    return D, f, v


def _check_attained(M, support, p, total):
    """Raise InvariantError unless ``total``, read off ``f[0]``, is
    ``p^T M_S p`` summed row by row: the value a verdict reports must be
    attained at the point it reports."""
    form = 0
    for x, i in zip(p, support):
        row = M[i]
        form += x * sum(map(mul, [row[j] for j in support], p))
    if form != total:
        raise InvariantError("stationary value must be attained at its point")


def _negative_components(M):
    """One label per index of the integer matrix ``M``, equal for two
    indices exactly when a path of negative entries joins them: the
    components of G-, found in O(n^2).  None when G- is connected, as the
    scan then has nothing to drop."""
    n = len(M)
    labels = [None] * n
    count = 0
    for root in range(n):
        if labels[root] is not None:
            continue
        labels[root] = count
        stack = [root]
        while stack:
            row = M[stack.pop()]
            for j in range(n):
                if labels[j] is None and row[j] < 0:
                    labels[j] = count
                    stack.append(j)
        count += 1
    return labels if count > 1 else None


def stationary_candidates(A: SymMatrix, *, cache: dict | None = None,
                          labels: list | None = None):
    """Yield ``(support, p, q, total)`` for every conditionally positive
    definite support whose parents are all conditionally positive definite
    and whose stationarity system has a solution strictly positive on the
    support, all in integers: the point is ``p / q`` on ``support`` (0
    elsewhere) and its form value is ``total / (q^2 d)``.  These include
    the simplex minimum, the first negative value of an unpruned scan and
    every minimal zero (see the module docstring); no other support can
    hold one.

    Supports are scanned by cardinality, then lexicographically, so strict
    subsets come before their supersets.  Each system is solved on the
    integer numerators of ``A = M / d`` from the states of its two parents
    ``S[:-1]`` and ``S[:-2] + S[-1:]`` in O(k).  ``p`` is ``-f[1:]``, the
    first column of ``adj K_S`` on the unknowns u, negated, and
    ``q = -det K_S > 0``; ``total`` is ``f[0] q``, read in O(1).
    ``sum(p) == q`` is checked, and so is ``total == p^T M_S p`` wherever
    ``total <= 0``, at every zero and every violator (InvariantError):
    each value a verdict reports is attained at its point (a positive
    minimum is checked by ``is_copositive``).  Raises OrderTooLargeError
    for orders above ``MAX_SCAN_ORDER`` when the scan starts.

    The system of support S, its point and its value depend only on
    ``A_S = M_S / d``, and so do ``D``, ``f`` and ``v``.  A caller that
    scans many matrices (the census) may pass one dict as ``cache``: it is
    keyed by the upper triangle of ``M_S`` followed by ``d``, built only
    for the supports the scan visits, and maps to ``(found, D, f, v)``,
    where ``found`` is ``None`` (no positive solution, or ``D >= 0``, when
    ``f`` and ``v`` are ``None`` too) or ``(p, q, total)`` as yielded and
    checked when solved.  Each distinct principal submatrix is solved
    once, whatever order the matrix that first met it had: a hit with
    ``D < 0`` serves as a parent as stored, and a hit with ``D >= 0``
    prunes its supersets like a solve.  Without a cache no key is built.

    ``labels``, one per index (``_negative_components``), restricts the
    scan to the supports inside one component of G-: pairs whose indices
    carry different labels are dropped, and no larger support is tested,
    as one that straddles two components has a dropped parent.  What is
    yielded is then the subsequence of the whole scan on those supports,
    which holds the first negative value and every minimal zero, but not
    always the positive minimum (Lemma C in the module docstring).
    """
    n = A.n
    if n > MAX_SCAN_ORDER:
        raise OrderTooLargeError(
            f"order {n} exceeds the support scan's limit of {MAX_SCAN_ORDER}")
    M, d = A.integer_form
    if cache is not None:
        flat = (*[M[i][j] for i, j in unknowns(n)[0]], d)
        getters = _key_getters(n)
    sink = []
    groups = [((), None, sink)]
    visits = [((i,), 1 << i, None, None, None, sink) for i in range(n)]
    for level in range(n):
        kept = set()  # the conditionally positive definite supports' masks
        for support, mask, det, first, second, sink in visits:
            if cache is not None:
                key = getters[mask](flat)
                entry = cache.get(key)
                if entry is not None:
                    if entry[1] < 0:
                        sink.append((support, mask, entry))
                        kept.add(mask)
                    if entry[0] is not None:
                        yield (support, *entry[0])
                    continue
            D, f, v = _support_state(M, support, det, first, second)
            found = None
            if D < 0 and max(f[1:]) < 0:
                q = -D
                p = [-x for x in f[1:]]
                if sum(p) != q:  # the row sum(u) = 1 of the system
                    raise InvariantError(
                        "stationary point must have coordinate sum 1")
                total = f[0] * q
                if total <= 0:  # a zero or a violator
                    _check_attained(M, support, p, total)
                found = tuple(p), q, total
            entry = found, D, f, v
            if D < 0:
                sink.append((support, mask, entry))
                kept.add(mask)
            if cache is not None:
                cache[key] = entry
            if found is not None:
                yield (support, *found)
        out = []
        visits = _children(groups, kept, out)
        if not level and labels is not None:  # the pairs
            visits = (visit for visit in visits
                      if labels[visit[0][0]] == labels[visit[0][1]])
        groups = out


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


def _eliminate(rows):
    """Fraction-free (Bareiss) elimination without row swaps of a symmetric
    integer matrix stored as its upper triangle, ``rows[i][j - i]`` for
    entry (i, j), each row optionally followed by right-hand sides; the
    list is overwritten and returned, or None at the first pivot that is
    not positive.  Step k turns each entry (i, j), ``i, j > k``, and each
    right-hand side of row i into ``(a_kk a_ij - a_ik a_kj) / a'``, with
    ``a'`` the pivot of step ``k - 1`` (1 at step 0).  Each pivot ``a_kk``
    is then the leading principal minor of order ``k + 1`` (Sylvester's
    identity), so the matrix is positive definite iff every pivot is
    positive (Sylvester's criterion).  Every division is by a positive
    pivot, so floor remainders are nonnegative and sum to 0 only if each is
    0; it is checked exact (InvariantError), as in ``_support_state``."""
    n = len(rows)
    last = 1
    for k in range(n):
        top = rows[k]
        pivot = top[0]
        if pivot <= 0:
            return None
        for i in range(k + 1, n):
            a = top[i - k]
            num = [pivot * x - a * y for x, y in zip(rows[i], top[i - k:])]
            new = [x // last for x in num]
            if sum(num) != last * sum(new):
                raise InvariantError("Bareiss division must be exact")
            rows[i] = new
        last = pivot
    return rows


def _positive_definite(M) -> bool:
    """Whether the symmetric integer matrix ``M`` is positive definite: one
    ``_eliminate`` of its upper triangle."""
    return _eliminate([row[i:] for i, row in enumerate(M)]) is not None


def _pair_screen(M) -> bool:
    """Whether every ``M_ii > 0`` and no negative ``M_ij`` has
    ``M_ij^2 >= M_ii M_jj``, in O(n^2).  A pair that fails is a 2 x 2
    principal minor that is not positive, on which the form takes a value
    ``<= 0`` (at ``e_i``, or at a multiple of ``M_jj e_i - M_ij e_j``).
    ``_strictly_copositive`` and the convex route both ask it first.  It
    reads row by row and stops at the first pair that fails, so a diagonal
    entry ``M_jj <= 0`` is met at row j unless a pair fails before it."""
    n = len(M)
    for i, row in enumerate(M):
        mii = row[i]
        if mii <= 0:
            return False
        for j in range(i + 1, n):
            x = row[j]
            if x < 0 and x * x >= mii * M[j][j]:
                return False
    return True


def _strictly_copositive(M) -> bool:
    """An exact certificate that the symmetric integer matrix ``M`` is
    strictly copositive: ``u^T M u > 0`` for every ``u >= 0``, ``u != 0``.
    When it holds, M has no zeros, and ``minimal_zeros`` needs no scan; when
    it fails, nothing follows.  It holds when M is positive definite, or
    else when its Z-part P is: P keeps the diagonal and the negative
    off-diagonal entries of M, and puts 0 elsewhere.

    Proof.  If M is positive definite, ``u^T M u > 0`` for every
    ``u != 0``.  Otherwise ``M = P + N``, where N holds the positive
    off-diagonal entries of M, so ``N >= 0`` entrywise and
    ``u^T N u >= 0`` for ``u >= 0``; then
    ``u^T M u >= u^T P u > 0`` for every ``u >= 0``, ``u != 0``.

    ``_pair_screen`` runs first: a pair that fails it is a 2 x 2 principal
    minor that is not positive in both M and P, so neither is positive
    definite and the certificate fails without an elimination.  It turns
    away every matrix with a zero on a pair.  Each test of definiteness is
    one O(n^3) elimination (``_positive_definite``)."""
    return _pair_screen(M) and (_positive_definite(M) or _positive_definite(
        [[x if x < 0 or i == j else 0 for j, x in enumerate(row)]
         for i, row in enumerate(M)]))


def _face_minimizer(M, support):
    """``(Y, R)``: the minimizer of ``x^T M x`` on ``sum(x) = 1`` with
    ``x = 0`` off ``support``, as integer numerators Y on ``support`` over
    ``R > 0``; None when the support S is not conditionally positive
    definite.  With ``t = S[-1]`` and ``Z = [e_i - e_t]`` over the other
    indices of S, S is conditionally positive definite iff ``Z^T M_S Z``,
    entry (i, j) ``M_ij - M_it - M_tj + M_tt``, is positive definite, and
    then the minimizer is ``e_t + Z w`` for the solution w of
    ``(Z^T M_S Z) w = -Z^T M_S e_t``.
    ``_eliminate`` takes its upper triangle, each row i followed by
    ``M_tt - M_it``, to a triangle whose last pivot is
    ``R = det Z^T M_S Z``, and back substitution gives the integers ``R w``;
    an inexact division is an InvariantError."""
    *rest, t = support
    top = M[t]
    mtt = top[t]
    rows = []
    for a, i in enumerate(rest):
        row = M[i]
        c = mtt - row[t]
        rows.append([row[j] - top[j] + c for j in rest[a:]] + [c])
    rows = _eliminate(rows)
    if rows is None:
        return None
    R = rows[-1][0] if rows else 1
    Y = []
    for row in reversed(rows):
        num = R * row[-1] - sum(map(mul, row[1:-1], Y))
        y = num // row[0]
        if y * row[0] != num:
            raise InvariantError("back substitution must be exact")
        Y.insert(0, y)
    Y.append(R - sum(Y))
    return Y, R


def _convex_minimum(M, face):
    """``(P, Q)``: the minimizer ``P / Q`` of ``x^T M x`` over the simplex,
    reduced (``gcd(P, Q) = 1``), for a conditionally positive definite
    integer ``M`` of order ``n >= 2``; or None as soon as a face minimizer
    has a negative value, as the minimum then is negative.  ``face`` is
    ``_face_minimizer`` of every index, which the gate computed.

    A primal active-set method (Nocedal and Wright, *Numerical
    Optimization*, 2nd ed., ch. 16) on the working set S of the indices
    not held at 0, from the barycentre with S every index.  Each step
    moves x towards the minimizer y of S's face as far as ``x >= 0``
    allows.  A step that stops short drops from S each index it takes to
    0; a full step puts x at y, where ``(M x)_i`` is one ``level`` on S.
    Then the first index j, in index order (Bland's rule), with
    ``(M x)_j < level`` joins S, and when there is none x is the KKT point.
    The values at the face minimizers that x reaches decrease strictly, so
    none of the ``2^n - 1`` working sets is met there twice, and between
    two of them each step drops an index: a step past ``n 2^n`` is an
    InvariantError, and so is a face that is not conditionally positive
    definite, as every face of M is."""
    n = len(M)
    support = list(range(n))
    P = [1] * n
    Q = n
    for _ in range(n << n):
        if face is None:
            raise InvariantError("a face of a conditionally positive "
                                 "definite matrix must be one too")
        Y, R = face
        a = b = 1  # the step length a / b
        for y, i in zip(Y, support):
            if y < 0:
                num = P[i] * R
                den = num - y * Q
                if num * b < a * den:
                    a, b = num, den
        c, e = (b - a) * R, a * Q  # x + (a / b) (y - x) is new / (b Q R)
        new = [0] * n
        for y, i in zip(Y, support):
            new[i] = c * P[i] + e * y
        P, Q = new, b * Q * R
        g = gcd(*P, Q)
        P = [x // g for x in P]
        Q //= g
        if a < b:
            support = [i for i in support if P[i]]
        else:
            level = sum(map(mul, M[support[0]], P))
            if level < 0:
                return None
            for j, row in enumerate(M):
                if sum(map(mul, row, P)) < level:
                    support.append(j)
                    support.sort()
                    break
            else:
                return P, Q
        face = _face_minimizer(M, support)
    raise InvariantError("the active set must reach the minimum within "
                         "n 2^n steps")


def _convex(A: SymMatrix) -> CopositivityVerdict | None:
    """The convex route: the verdict on a conditionally positive definite
    A of order 2 to ``MAX_SCAN_ORDER`` whose simplex minimum is ``>= 0``,
    without the scan; None on any other input (see the module docstring).

    The gate is ``_pair_screen`` and then ``_face_minimizer`` of every
    index, one elimination of ``Z^T M Z``, which is also the first step's
    solve.  The point that ``_convex_minimum`` returns is re-checked in
    integers in O(n^2) before anything is answered: ``P >= 0``,
    ``sum(P) = Q``, ``(M P)_i Q = total`` on its support and ``>= total``
    off it, and ``_check_attained`` (InvariantError).  With
    ``sum(P) = Q`` and ``gcd(P, Q) = 1``, P is primitive, the ``Zero`` the
    scan would keep."""
    n = A.n
    if not 2 <= n <= MAX_SCAN_ORDER:
        return None
    M, d = A.integer_form
    if not _pair_screen(M):
        return None
    face = _face_minimizer(M, range(n))
    if face is None:
        return None
    found = _convex_minimum(M, face)
    if found is None:  # the minimum is negative: the scan names the violator
        return None
    P, Q = found
    if min(P) < 0 or sum(P) != Q or Q <= 0:
        raise InvariantError("the active-set point must lie on the simplex")
    support = [i for i, x in enumerate(P) if x]
    levels = [sum(map(mul, row, P)) * Q for row in M]
    total = levels[support[0]]
    for x, y in zip(P, levels):
        if y < total or x and y != total:
            raise InvariantError("the active-set point must satisfy the "
                                 "KKT conditions")
    _check_attained(M, support, [P[i] for i in support], total)
    if total:
        return CopositivityVerdict(True, None, Fraction(total, Q * Q * d), ())
    return CopositivityVerdict(True, None, ZERO, (Zero(tuple(P)),))


def _scan(A: SymMatrix, cache: dict | None = None, *,
          whole: bool = False) -> CopositivityVerdict:
    """The verdict of ``_prefilter_violator`` and of the scan inside the
    components of G- (``_negative_components``), or of the whole scan when
    ``whole`` is set.  The violator and the zeros are those of the whole
    scan (Lemma C in the module docstring).  When G- has more than one
    component and the scan inside them meets neither, ``simplex_minimum``
    is the least value inside one component, which may exceed the minimum:
    ``is_copositive`` completes it, and ``minimal_zeros`` needs only the
    zeros.

    Stops at the first negative stationary value (census throughput).
    Values ``total / (q^2 d)`` share ``d``, so their signs are those of
    ``total`` and they are compared as ``total / q^2`` by
    cross-multiplying.  Zeros are kept as ``(support, p)`` and made
    ``Zero``s only once the scan has ended without a violator.  The scan
    checks ``total`` against ``p^T M_S p`` at every zero and violator it
    solves; a positive minimum is checked once, before it is returned
    (InvariantError).  ``cache`` is handed to ``stationary_candidates``."""
    hit = _prefilter_violator(A)
    if hit is not None:
        return CopositivityVerdict(False, hit[0], hit[1], ())
    n = A.n
    M, d = A.integer_form
    labels = None if whole else _negative_components(M)
    least = None  # (total, q^2, support, p) of the least value so far
    zeros = []
    for support, p, q, total in stationary_candidates(A, cache=cache,
                                                      labels=labels):
        if total < 0:
            violator = _embed([Fraction(x, q) for x in p], support, n)
            return CopositivityVerdict(False, violator,
                                       Fraction(total, q * q * d), ())
        if not total:  # a minimal zero, by the module docstring
            zeros.append((support, p))
        elif least is None or total * least[1] < least[0] * q * q:
            least = total, q * q, support, p
    if zeros:
        kept = []
        for support, p in zeros:
            g = gcd(*p)
            kept.append(Zero(_embed([x // g for x in p], support, n, 0)))
        return CopositivityVerdict(True, None, ZERO, tuple(kept))
    total, qq, support, p = least
    _check_attained(M, support, p, total)
    return CopositivityVerdict(True, None, Fraction(total, qq * d), ())


def is_copositive(A: SymMatrix, *, cache: dict | None = None) -> CopositivityVerdict:
    """Exact membership test with a witness on failure.

    The convex route (``_convex``) answers a conditionally positive
    definite input whose minimum is ``>= 0``; every other input goes to
    ``_scan``.  When the matrix is copositive the reported minimum is exact
    and the minimal zeros are collected on the way.  Pruning the supports
    that cannot hold a local minimum changes none of these: the verdict
    equals that of a scan of every support with a unique positive solution
    (see the module docstring).  ``cache`` is handed to the scan.

    When G- has more than one component and the scan inside them ends with
    neither a violator nor a zero, the least value it saw need not be the
    minimum, and the whole scan runs once more for it.  That scan must
    meet no value ``<= 0``, which the first would have met too
    (InvariantError).
    """
    verdict = _convex(A)
    if verdict is not None:
        return verdict
    verdict = _scan(A, cache)
    if (not verdict.copositive or verdict.zeros
            or _negative_components(A.integer_form[0]) is None):
        return verdict
    verdict = _scan(A, cache, whole=True)
    if not verdict.copositive or verdict.zeros:
        raise InvariantError("a value <= 0 missed inside the components of "
                             "the negative graph contradicts Lemma C")
    return verdict
