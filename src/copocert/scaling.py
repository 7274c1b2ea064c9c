"""Diagonal scalings A = D S D with a {-1,0,1} unit-diagonal core.

A symmetric A with positive diagonal is a diagonal scaling of a sign pattern S
(S_ii = 1, S_ij in {-1,0,1}) with D_ii = sqrt(A_ii) exactly when every
off-diagonal entry satisfies A_ij = 0 or A_ij^2 = A_ii A_jj.  Both the test
and the pattern read the integer form A = M / d, where the common
denominator cancels: M_ii > 0, M_ij = 0 or M_ij^2 = M_ii M_jj, and S_ij is
the sign of M_ij.  The scaling factors sqrt(A_ii) = isqrt(M_ii d) / d may be
irrational, so the explicit D is returned only when every M_ii d is a
perfect square (all-or-nothing), and is otherwise reported as implicit.
With r_i = isqrt(M_ii d), entry (i, j) of D S D is s_ij r_i r_j / d^2, so
D S D = A is checked on integers as M_ij d = s_ij r_i r_j.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .errors import InvariantError, ScalingConditionError
from .linalg import SymMatrix
from .records import record


@record
class DiagonalScaling:
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if any(d <= 0 for d in self.entries):
            raise ValueError("scaling factors must be positive")


@record
class ScalingDecomposition:
    """Core pattern plus the scaling, explicit only when it is rational."""

    pattern: SymMatrix
    scaling: DiagonalScaling | None

    @property
    def explicit(self) -> bool:
        return self.scaling is not None


def _scaling_failure(A: SymMatrix) -> str | None:
    """Why A is not a diagonal scaling of a sign pattern, or None.

    Checked on the integer form: positive diagonal, and each off-diagonal
    numerator either zero or matching the diagonal product in square.  The
    entries ``M_ij / d`` are built only for the message.
    """
    M, d = A.integer_form
    for i in range(A.n):
        if M[i][i] <= 0:
            return (f"diagonal entry {i + 1} is {Fraction(M[i][i], d)}, "
                    f"must be positive")
    for i in range(A.n):
        for j in range(i + 1, A.n):
            m = M[i][j]
            if m and m * m != M[i][i] * M[j][j]:
                a = Fraction(m, d)
                base = str(a) if a > 0 and a.denominator == 1 else f"({a})"
                return (f"entry ({i + 1},{j + 1}): {base}^2 != "
                        f"{Fraction(M[i][i], d)} * {Fraction(M[j][j], d)}")
    return None


def has_sign_pattern_scaling(A: SymMatrix) -> bool:
    """Whether A = D S D for some positive diagonal D and sign pattern S."""
    return _scaling_failure(A) is None


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
    M, d = A.integer_form
    signs = [[1 if i == j else (x > 0) - (x < 0) for j, x in enumerate(row)]
             for i, row in enumerate(M)]
    pattern = SymMatrix.from_integer_rows(signs)
    # sqrt(M_ii / d) = sqrt(M_ii d) / d, rational iff M_ii d is a square
    roots = [isqrt(M[i][i] * d) for i in range(A.n)]
    if all(r * r == M[i][i] * d for i, r in enumerate(roots)):
        if any(x * d != s * ri * rj
               for row, srow, ri in zip(M, signs, roots)
               for x, s, rj in zip(row, srow, roots)):
            raise InvariantError("explicit scaling must reproduce A")
        D = DiagonalScaling(tuple(Fraction(r, d) for r in roots))
        return ScalingDecomposition(pattern, D)
    return ScalingDecomposition(pattern, None)
