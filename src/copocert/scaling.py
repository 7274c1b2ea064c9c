"""Diagonal scalings A = D S D with a {-1,0,1} unit-diagonal core.

A symmetric A with positive diagonal is a diagonal scaling of a sign pattern S
(S_ii = 1, S_ij in {-1,0,1}) with D_ii = sqrt(A_ii) exactly when every
off-diagonal entry satisfies A_ij = 0 or A_ij^2 = A_ii A_jj.  The test and the
pattern both live in rational arithmetic; the scaling factors themselves may
be irrational, so the explicit D is returned only when every sqrt(A_ii) is
rational (all-or-nothing), and is otherwise reported as implicit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ScalingConditionError
from .linalg import ONE, ZERO, SymMatrix, upper_size

Rational = Fraction


@dataclass(frozen=True)
class DiagonalScaling:
    entries: tuple[Rational, ...]

    def __post_init__(self):
        if any(d <= 0 for d in self.entries):
            raise ValueError("scaling factors must be positive")

    @property
    def n(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class ScalingDecomposition:
    """Core pattern plus the scaling, explicit only when it is rational."""

    pattern: SymMatrix
    scaling: DiagonalScaling | None

    @property
    def explicit(self) -> bool:
        return self.scaling is not None


def scale(S: SymMatrix, D: DiagonalScaling) -> SymMatrix:
    """Congruence by the positive diagonal D: entries D_i S_ij D_j."""
    if D.n != S.n:
        raise ValueError("scaling order does not match matrix order")
    entries = []
    for i in range(S.n):
        for j in range(i, S.n):
            entries.append(D.entries[i] * S.get(i, j) * D.entries[j])
    return SymMatrix(S.n, tuple(entries))


def _scaling_failure(A: SymMatrix) -> str | None:
    """Why A is not a diagonal scaling of a sign pattern, or None.

    Checked without leaving the rationals: positive diagonal, and each
    off-diagonal entry either zero or matching the diagonal product in square.
    """
    for i in range(A.n):
        if A.get(i, i) <= 0:
            return f"diagonal entry {i + 1} is {A.get(i, i)}, must be positive"
    for i in range(A.n):
        for j in range(i + 1, A.n):
            a = A.get(i, j)
            if a != 0 and a * a != A.get(i, i) * A.get(j, j):
                return (f"entry ({i + 1},{j + 1}): {a}^2 != "
                        f"{A.get(i, i)} * {A.get(j, j)}")
    return None


def has_sign_pattern_scaling(A: SymMatrix) -> bool:
    """Whether A = D S D for some positive diagonal D and sign pattern S."""
    return _scaling_failure(A) is None


def _rational_sqrt(q: Rational) -> Rational | None:
    """Exact square root in Q, or None.  q must be nonnegative."""
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def _sign(q: Rational) -> Rational:
    if q > 0:
        return ONE
    if q < 0:
        return -ONE
    return ZERO


def extract_pattern(A: SymMatrix) -> ScalingDecomposition:
    """Recover the sign-pattern core of A, with D when it is rational.

    Raises ScalingConditionError when A is not a diagonal scaling of a
    unit-diagonal {-1,0,1} matrix.  When every sqrt(A_ii) is rational the
    explicit D is returned and the reconstruction D S D = A is verified;
    a single irrational factor makes the whole scaling implicit.
    """
    failure = _scaling_failure(A)
    if failure is not None:
        raise ScalingConditionError(failure)
    entries = [ZERO] * upper_size(A.n)
    pos = 0
    for i in range(A.n):
        for j in range(i, A.n):
            entries[pos] = ONE if i == j else _sign(A.get(i, j))
            pos += 1
    pattern = SymMatrix(A.n, tuple(entries))
    roots = [_rational_sqrt(A.get(i, i)) for i in range(A.n)]
    if all(r is not None for r in roots):
        D = DiagonalScaling(tuple(roots))
        assert scale(pattern, D) == A, "explicit scaling must reproduce A"
        return ScalingDecomposition(pattern, D)
    return ScalingDecomposition(pattern, None)
