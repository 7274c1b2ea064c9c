"""Extremality certificates from the minimal-zero linear system.

For a copositive matrix A with minimal zeros u^1, ..., u^m, consider the
homogeneous linear system on a symmetric unknown X:

    (X u^j)_k = 0    for every j and every k with (A u^j)_k = 0,

over the n(n+1)/2 upper-triangle entries of X (row-major, the package's one
order of the unknowns, ``linalg.unknowns``).  A spans an extreme ray of the
copositive cone exactly when the solution space of this system is
one-dimensional, in which case that line is spanned by A itself.  The gate
``(A u^j)_k = 0`` is tested exactly; there is no tolerance anywhere.

The row of gate (j, k) is sparse: one term per support index l of u^j,
at the unknown X_kl.  In the paper's class every minimal zero is a pair,
and then every row is a two-term equation ``a X_ik + b X_jk = 0``: it
fixes the ratio of two unknowns, and these rows are the edges of Hoffman
and Pereira's entry graph (JCTA 14, 1973), which ``structure_graph``
reads off this system.  A row of a singleton zero e_i fixes one unknown,
``X_ik = 0``.  Such a system
falls apart into the connected components of its unknowns: each unknown
of a component is a fixed rational multiple of the component's root, and
every equation inside the component either holds for every root value or
(a single-term row, or a cycle whose ratios multiply to something else)
forces the root to 0.  The nullity is therefore the number of components
not forced to 0, and a weighted union-find on integer ratio pairs counts
them without elimination.  Its ``find`` is O(1) on a root and on a node
one step below its root, which is what compression leaves behind, so
most lookups cost two list reads.  For nullity 1 the ratios of the one
free component are the kernel vector, and "the line is spanned by A" is
checked on them directly: with ``x_v = num/den x_root``, A's entry at v
times ``den`` equals A's entry at the root times ``num`` on the free
component, A is 0 on every forced component, and A is nonzero at the
root.  No kernel vector is built.  A system with a longer row (a zero with
support of size 3 or more, as in Hildebrand's T-matrices) goes to
``kernel_basis`` instead, and the nullity is the size of the basis.  Either
way a one-dimensional solution space must be spanned by A.
"""

from __future__ import annotations

from math import gcd

from .copositivity import Zero, minimal_zeros
from .errors import InvariantError
from .linalg import (
    SymMatrix,
    is_proportional,
    kernel_basis,
    unknowns,
    upper_size,
)
from .records import record


@record
class ExtremalitySystem:
    """The assembled constraint rows, one per fired gate.

    ``gates[r] = (j, k)`` records that row ``r`` encodes ``(X u^j)_k = 0``.
    Row ``r`` is the tuple of its ``(column, coefficient)`` terms in
    ascending column order: the primitive integer multiple of u^j, at the
    unknown X_kl for each l in supp(u^j).  ``dense_rows`` writes the rows
    out over all n(n+1)/2 unknowns, as elimination takes them.
    """

    order: int
    gates: tuple[tuple[int, int], ...]
    rows: tuple[tuple[tuple[int, int], ...], ...]

    def __len__(self):
        return len(self.rows)

    def dense_rows(self) -> list[list[int]]:
        dense = []
        for terms in self.rows:
            row = [0] * upper_size(self.order)
            for column, coefficient in terms:
                row[column] = coefficient
            dense.append(row)
        return dense


@record
class ExtremalityCertificate:
    """Verdict plus the data needed to re-derive it."""

    nullity: int
    extremal: bool
    system: ExtremalitySystem
    minimal_zeros: tuple[Zero, ...]


def build_system(A: SymMatrix, zeros: tuple[Zero, ...]) -> ExtremalitySystem:
    """Rows ``(X u^j)_k = 0`` for every j, k with ``(A u^j)_k = 0`` exactly,
    read off each zero's integer ``point``.

    A zero on a pair {l, m} tests each gate in closed form,
    ``M_kl p_l + M_km p_m = 0``, and builds its row directly; a zero on
    one index or on three or more sums over its support."""
    n = A.n
    M, _ = A.integer_form
    columns = unknowns(n)[1]
    gates = []
    rows = []
    for j, zero in enumerate(zeros):
        p = zero.point
        if len(p) != n:
            raise ValueError("zero order does not match matrix order")
        support = zero.support
        if len(support) == 2:
            l, m = support
            a, b = p[l], p[m]
            for k, row in enumerate(M):
                if row[l] * a + row[m] * b:
                    continue
                gates.append((j, k))
                column = columns[k]
                # l < m gives ascending columns X_kl, X_km
                rows.append(((column[l], a), (column[m], b)))
            continue
        for k in range(n):
            # (A u)_k = 0 exactly iff (M p)_k = 0
            if sum(M[k][l] * p[l] for l in support):
                continue
            # ascending l gives ascending columns X_kl
            gates.append((j, k))
            column = columns[k]
            rows.append(tuple((column[l], p[l]) for l in support))
    return ExtremalitySystem(n, tuple(gates), tuple(rows))


class _TwoTermSolutions:
    """Solution space of ``rows x = 0`` when no sparse row has more than
    two terms, by a weighted union-find over the unknowns.

    A two-term row ``a x_p + b x_q = 0`` fixes the ratio of ``x_p`` to
    ``x_q``; the unknowns it links form a component in which every unknown
    is a rational multiple of the component's root, kept as an integer pair
    ``(num, den)`` with ``den > 0`` and compressed onto the root by ``find``.
    A single-term row, or a row inside one component whose ratios disagree
    (a cycle), forces the root, and so the whole component, to 0.  Every
    row lies inside one component and says either nothing or ``root = 0``
    there, so the solution space is spanned by one vector per component
    that is not forced to 0: the ratios on that component, 0 elsewhere.
    Those vectors have disjoint supports, so they are a basis.
    """

    def __init__(self, rows, ncols):
        self.parent = parent = list(range(ncols))
        self.num = num = [1] * ncols
        self.den = den = [1] * ncols
        find = self.find
        forced = [False] * ncols  # read at roots only
        for row in rows:
            if len(row) == 1:
                forced[find(row[0][0])] = True
                continue
            (p, a), (q, b) = row
            rp, rq = find(p), find(q)
            # a x_p + b x_q is a positive multiple of cp x_rp + cq x_rq
            cp = a * num[p] * den[q]
            cq = b * num[q] * den[p]
            if rp == rq:
                forced[rp] = forced[rp] or cp + cq != 0
                continue
            top, bottom = (-cp, cq) if cq > 0 else (cp, -cq)
            g = gcd(top, bottom)
            parent[rq] = rp
            num[rq], den[rq] = top // g, bottom // g
            forced[rp] = forced[rp] or forced[rq]
        self.free = [v for v in range(ncols)
                     if parent[v] == v and not forced[v]]

    def find(self, v):
        """Root of v's component; on return ``x_v = num[v] / den[v] x_root``
        (``1 / 1`` at a root).

        O(1) for a root and for a node whose parent is a root, whose ratio
        is already relative to it; a longer path is walked once, and each
        node on it is moved onto the root with its ratio reduced by gcd."""
        parent = self.parent
        up = parent[v]
        if parent[up] == up:
            return up
        num, den = self.num, self.den
        path = [v]
        v = up
        while parent[v] != v:
            path.append(v)
            v = parent[v]
        a = b = 1  # the ratio of the last compressed node to the root
        for u in reversed(path):
            a, b = num[u] * a, den[u] * b
            g = gcd(a, b)
            a, b = a // g, b // g
            num[u], den[u], parent[u] = a, b, v
        return v

    @property
    def nullity(self) -> int:
        return len(self.free)

    def spans(self, vector) -> bool:
        """Whether ``vector`` spans the solution line of a system of
        nullity 1: nonzero at the free root, ``vector[v] = num[v] / den[v]
        vector[root]`` on the free component, and 0 on every component
        forced to 0."""
        root, = self.free
        x = vector[root]
        num, den, find = self.num, self.den, self.find
        return x != 0 and all(
            vector[v] * den[v] == x * num[v] if find(v) == root
            else vector[v] == 0
            for v in range(len(self.parent)))


def extremality_certificate(A: SymMatrix, *,
                            cache: dict | None = None) -> ExtremalityCertificate:
    """Decide extremality of a copositive matrix via the system's nullity.

    When no row of the system has more than two terms (every minimal zero
    has a support of size at most 2), the nullity is counted by a weighted
    union-find (``_TwoTermSolutions``, whose ``find`` is O(1) on compressed
    nodes).  For a one-dimensional solution space, that A spans it is
    checked on the union-find's ratios (``_TwoTermSolutions.spans``): A's
    upper triangle in the ratio ``num/den`` to its entry at the free root,
    which is nonzero, and 0 off the free component.  No kernel vector is
    built (``kernel_basis(cert.system.dense_rows())`` recovers a basis).
    Otherwise the nullity is the size of the system's ``kernel_basis``, and
    the one basis vector of a nullity-1 system must be proportional to A.
    ``cache`` is handed to the copositivity scan (see
    ``stationary_candidates``).
    Raises NotCopositiveError (from ``minimal_zeros``) when A is not
    copositive.
    """
    zeros = minimal_zeros(A, cache=cache)
    system = build_system(A, zeros)
    rows = system.rows
    lengths = set(map(len, rows))
    n = A.n
    M, _ = A.integer_form
    # A = M / d, so A solves the system exactly when upper(M) does
    upper = [M[i][j] for i, j in unknowns(n)[0]]
    # the generic sum costs about 5x the written-out one on two-term rows,
    # a third of a certificate's work after the scan on A_G
    if (any(upper[p] * a + upper[q] * b for (p, a), (q, b) in rows)
            if lengths == {2} else
            any(sum(upper[c] * a for c, a in row) for row in rows)):
        raise InvariantError("input matrix must satisfy its own system")
    ncols = upper_size(n)
    if lengths <= {1, 2}:
        solutions = _TwoTermSolutions(rows, ncols)
        nullity = solutions.nullity
        spanned = nullity == 1 and solutions.spans(upper)
    else:
        basis = kernel_basis(system.dense_rows(), ncols)
        nullity = len(basis)
        spanned = nullity == 1 and is_proportional(basis[0], upper)
    if nullity == 0 and not A.is_zero():
        raise InvariantError("a nonzero matrix lies in its own solution space")
    extremal = nullity == 1
    if extremal and not spanned:
        raise InvariantError("one-dimensional solution space must be "
                             "spanned by a multiple of the matrix")
    return ExtremalityCertificate(nullity, extremal, system, zeros)
