"""Exact rational linear algebra: symmetric matrices, kernels, affine solves.

Nothing here ever rounds, so rank and nullity results are decisions, not
estimates.  The core runs on integers.  A ``SymMatrix`` stores only its
integer form ``(M, d)``: integer rows over their least common denominator,
a canonical form, so equal forms are equal matrices.  ``from_ratios`` brings
rows of integer pairs ``(p, q)`` to it, ``from_rows`` rational rows (through
``from_ratios``), ``from_integer_rows`` takes integer rows as they are, and
a ``Fraction`` entry is built only when one is read (``get``).  The
unknowns ``X_ij`` of a symmetric matrix are ordered once, by ``unknowns``.
Rational rows are scaled to primitive integer rows only where they enter
``solve_affine`` or ``kernel_basis``; integer rows go in as given.
Elimination is the fraction-free Bareiss two-row determinant update, and
back-substitution carries integer numerators over the last pivot, so one
``Fraction`` is built per coordinate of a particular solution at the end,
and a kernel vector stays a primitive tuple of ints.  The pivot is always the
first nonzero entry in column order, so echelon forms, kernel bases and
downstream certificates are reproducible run to run.  The support scan
uses none of this: it solves each bordered system from the integer states
of its parents (``copositivity``).
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .errors import InvariantError
from .records import record

Vector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def _primitive_int_row(row) -> list[int]:
    """Scale a rational row to integers with gcd 1 (zero rows stay zero)."""
    row = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
    denom = lcm(*(x.denominator for x in row)) if row else 1
    ints = [x.numerator * (denom // x.denominator) for x in row]
    g = gcd(*ints) if ints else 0
    return [x // g for x in ints] if g > 1 else ints


def _int_rows(rows) -> list:
    """Integer rows as given, else every row scaled to primitive integers."""
    if set(map(type, chain.from_iterable(rows))) <= {int}:
        return rows
    return [_primitive_int_row(r) for r in rows]


def canonical_vector(entries) -> tuple[int, ...]:
    """Primitive integer multiple of a rational vector, first nonzero > 0,
    as ints.

    Used to normalize kernel basis vectors so certificates are byte-stable.
    """
    ints = _primitive_int_row(entries)
    lead = next((x for x in ints if x != 0), 0)
    return tuple(-x for x in ints) if lead < 0 else tuple(ints)


def _bareiss_echelon(int_rows, ncols):
    """Fraction-free row echelon form of an integer matrix.

    Returns ``(rows, pivots)`` where ``pivots`` is a list of ``(row, col)``
    pairs.  Only columns ``< ncols`` are eligible as pivots; trailing columns
    (an augmented right-hand side) ride along.  Division in the Bareiss update
    is exact; this is checked rather than assumed.
    """
    mat = [list(r) for r in int_rows]
    m = len(mat)
    width = len(mat[0]) if m else ncols
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, m) if mat[i][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            mat[r], mat[pr] = mat[pr], mat[r]
        piv = mat[r][c]
        for i in range(r + 1, m):
            f = mat[i][c]
            row_i = mat[i]
            row_r = mat[r]
            for j in range(c, width):
                q, rem = divmod(piv * row_i[j] - f * row_r[j], prev)
                if rem:
                    raise InvariantError("Bareiss division must be exact")
                row_i[j] = q
        pivots.append((r, c))
        prev = piv
        r += 1
        if r == m:
            break
    return mat, pivots


def _back_substitute(ech, pivots, ncols, free=None, rhs_col=None):
    """``(y, det)`` with ``x = y / det`` the solution whose free coordinates
    are 0, or 1 at ``free``, for right-hand side column ``rhs_col`` (or 0).

    ``det``, the last Bareiss pivot, is the determinant of the pivot block, so
    ``y`` is integral by Cramer's rule and every division is exact (checked).
    """
    det = ech[pivots[-1][0]][pivots[-1][1]] if pivots else 1
    y = [0] * ncols
    if free is not None:
        y[free] = det
    # pivot rows are processed bottom-up
    for pr, pc in reversed(pivots):
        row = ech[pr]
        s = det * row[rhs_col] if rhs_col is not None else 0
        for j in range(pc + 1, ncols):
            if row[j] and y[j]:
                s -= row[j] * y[j]
        y[pc], rem = divmod(s, row[pc])
        if rem:
            raise InvariantError("back-substitution division must be exact")
    return y, det


def _kernel_from_echelon(ech, pivots, ncols):
    pivot_cols = {c for _, c in pivots}
    return [canonical_vector(_back_substitute(ech, pivots, ncols, free=f)[0])
            for f in range(ncols) if f not in pivot_cols]


def kernel_basis(rows, ncols) -> list[tuple[int, ...]]:
    """Basis of ``{x : Mx = 0}`` for the ``ncols``-column matrix M, with
    deterministic primitive integer entries, from one fraction-free elimination
    (integer rows as given, rational rows scaled).

    Empty list iff M has full column rank; a matrix with no rows (or only
    zero rows) yields the standard basis.
    """
    ech, pivots = _bareiss_echelon(_int_rows(rows), ncols)
    return _kernel_from_echelon(ech, pivots, ncols)


@record
class AffineSolutionSet:
    """Solution set of a linear system: one particular point plus a kernel.

    ``particular`` is ``None`` when the system is infeasible, in which case
    the kernel tuple is empty.  Kernel vectors are linearly independent
    primitive int tuples (``canonical_vector``), and each solves the
    homogeneous system exactly.
    """

    dimension: int
    particular: Vector | None
    kernel: tuple[tuple[int, ...], ...]

    @property
    def feasible(self) -> bool:
        return self.particular is not None


def solve_affine(rows, rhs, ncols) -> AffineSolutionSet:
    """Full solution set of ``Mx = b`` in ``ncols`` unknowns (particular
    solution + kernel basis)."""
    if len(rows) != len(rhs):
        raise ValueError("rows and rhs lengths differ")
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    ech, pivots = _bareiss_echelon(_int_rows(aug), ncols)
    for i in range(len(pivots), len(ech)):
        if ech[i][ncols] != 0:
            return AffineSolutionSet(0, None, ())
    y, det = _back_substitute(ech, pivots, ncols, rhs_col=ncols)
    kern = _kernel_from_echelon(ech, pivots, ncols)
    return AffineSolutionSet(len(kern), tuple(Fraction(v, det) for v in y),
                             tuple(kern))


def upper_size(n: int) -> int:
    return n * (n + 1) // 2


@functools.lru_cache(maxsize=None)
def unknowns(n: int):
    """The unknowns ``X_ij`` of order n in the package's one order, the
    row-major upper triangle: ``(pairs, columns)`` with ``pairs[c] = (i, j)``,
    ``i <= j``, and ``columns[i][j] = columns[j][i] = c``."""
    pairs = tuple((i, j) for i in range(n) for j in range(i, n))
    columns = [[0] * n for _ in range(n)]
    for c, (i, j) in enumerate(pairs):
        columns[i][j] = columns[j][i] = c
    return pairs, tuple(map(tuple, columns))


@record
class SymMatrix:
    """Order-n symmetric matrix with exact rational entries, stored as its
    integer form ``(M, d)``: ``A = M / d`` with ``M`` the full integer rows
    and ``d >= 1`` the least common denominator, so ``gcd(d, M_ij...) == 1``.

    The form is canonical, so ``==`` and ``hash`` are exact matrix equality.
    Build matrices with ``from_rows``, ``from_ratios`` or
    ``from_integer_rows``.
    """

    integer_form: tuple[tuple[tuple[int, ...], ...], int]

    def __post_init__(self):
        M, d = self.integer_form
        n = len(M)
        if n < 1:
            raise ValueError("matrix order must be >= 1")
        if any(len(r) != n for r in M):
            raise ValueError("matrix is not square")
        if any(type(x) is not int for x in chain.from_iterable(M)):
            raise ValueError("integer rows must hold ints")
        for i in range(n):
            for j in range(i + 1, n):
                if M[i][j] != M[j][i]:
                    raise ValueError(f"asymmetric entries at ({i},{j})/({j},{i})")
        if type(d) is not int or d < 1:
            raise ValueError("common denominator must be an int >= 1")
        if d > 1 and gcd(d, *chain.from_iterable(M)) != 1:
            raise ValueError("integer form is not in lowest terms")

    @classmethod
    def from_rows(cls, rows) -> "SymMatrix":
        """The matrix of square symmetric rational ``rows``: ints, Fractions
        or anything ``Fraction`` accepts."""
        return cls.from_ratios(
            [[(x if type(x) in (int, Fraction) else Fraction(x))
              .as_integer_ratio() for x in r] for r in rows])

    @classmethod
    def from_ratios(cls, rows) -> "SymMatrix":
        """The matrix whose entry (i, j) is ``p / q`` for the integer pair
        ``rows[i][j] = (p, q)``, ``q >= 1``, not necessarily in lowest
        terms: the rows are brought over the lcm of the ``q`` and then
        divided by the gcd they share with it."""
        d = lcm(*(q for r in rows for _, q in r))
        M = [[p * (d // q) for p, q in r] for r in rows]
        if d > 1:
            g = gcd(d, *chain.from_iterable(M))
            if g > 1:
                d //= g
                M = [[x // g for x in r] for r in M]
        return cls((tuple(map(tuple, M)), d))

    @classmethod
    def from_integer_rows(cls, rows) -> "SymMatrix":
        """The matrix of square symmetric integer ``rows``, whose integer
        form is ``(rows, 1)``."""
        return cls((tuple(map(tuple, rows)), 1))

    @property
    def n(self) -> int:
        return len(self.integer_form[0])

    def get(self, i, j) -> Fraction:
        M, d = self.integer_form
        return Fraction(M[i][j], d)

    def has_unit_diagonal(self) -> bool:
        M, d = self.integer_form
        return all(M[i][i] == d for i in range(self.n))

    def is_zero(self) -> bool:
        return not any(map(any, self.integer_form[0]))


def eval_quadratic(A: SymMatrix, x) -> Fraction:
    """The quadratic form ``x^T A x``, exactly.

    Computed on integers: with ``x = p / q`` and ``A = M / d`` the value is
    ``p^T M p / (q^2 d)``, one ``Fraction`` in total.
    """
    if len(x) != A.n:
        raise ValueError("vector length does not match matrix order")
    M, d = A.integer_form
    q = lcm(*(c.denominator for c in x))
    p = [(i, c.numerator * (q // c.denominator)) for i, c in enumerate(x) if c]
    total = 0
    for i, pi in p:
        row = M[i]
        total += pi * sum(row[j] * pj for j, pj in p)
    return Fraction(total, q * q * d)


def is_proportional(u, v) -> bool:
    """Whether two vectors are rational multiples of one another.

    Decided by cross-multiplication, so no divisions occur.
    """
    if len(u) != len(v):
        return False
    r = next((i for i, a in enumerate(u) if a != 0), None)
    if r is None:
        return all(b == 0 for b in v)
    return all(u[r] * v[j] == v[r] * u[j] for j in range(len(u)))


def horn_matrix() -> SymMatrix:
    """The order-5 Horn matrix: unit diagonal, -1 on cyclically adjacent
    index pairs, +1 on the remaining pairs."""
    return SymMatrix.from_integer_rows(
        [[-1 if (j - i) % 5 in (1, 4) else 1 for j in range(5)]
         for i in range(5)])
