"""Diagonal scaling decompositions and the square-product condition."""

import random
from fractions import Fraction

import pytest

from copocert.census import Candidate
from copocert.copositivity import minimal_zeros
from copocert.errors import ScalingConditionError
from copocert.linalg import SymMatrix, horn_matrix
from copocert.scaling import (
    DiagonalScaling,
    extract_pattern,
    has_sign_pattern_scaling,
)

from oracles import (
    all_ones,
    fraction_extract_pattern,
    fraction_rows,
    fraction_scaling_failure,
    identity,
    random_positive_diagonal,
    rank_one,
    scale,
)

F = Fraction


class TestDiagonalScaling:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DiagonalScaling((F(1), F(0)))
        with pytest.raises(ValueError):
            DiagonalScaling((F(-2),))

    def test_scale_congruence(self):
        S = SymMatrix.from_rows([[1, -1], [-1, 1]])
        D = DiagonalScaling((F(2), F(3)))
        assert fraction_rows(scale(S, D)) == [[4, -6], [-6, 9]]

    def test_scale_order_mismatch(self):
        with pytest.raises(ValueError):
            scale(identity(3), DiagonalScaling((F(1), F(1))))


class TestCondition:
    def test_holds_for_patterns(self):
        assert has_sign_pattern_scaling(horn_matrix())
        assert has_sign_pattern_scaling(identity(3))

    def test_holds_for_scaled_pattern(self):
        assert has_sign_pattern_scaling(SymMatrix.from_rows([[4, -6], [-6, 9]]))

    def test_fails_on_square_mismatch(self):
        assert not has_sign_pattern_scaling(SymMatrix.from_rows([[1, 2], [2, 1]]))

    def test_fails_on_nonpositive_diagonal(self):
        assert not has_sign_pattern_scaling(SymMatrix.from_rows([[0, 0], [0, 1]]))
        assert not has_sign_pattern_scaling(SymMatrix.from_rows([[-1, 0], [0, 1]]))

    def test_failure_message_parenthesizes_the_base(self):
        A = SymMatrix.from_rows([[1, F(-12, 13)], [F(-12, 13), 1]])
        with pytest.raises(ScalingConditionError,
                           match=r"^entry \(1,2\): \(-12/13\)\^2 != 1 \* 1$"):
            extract_pattern(A)
        with pytest.raises(ScalingConditionError,
                           match=r": \(-2\)\^2 != 1 \* 1$"):
            extract_pattern(SymMatrix.from_rows([[1, -2], [-2, 1]]))
        with pytest.raises(ScalingConditionError, match=r": 2\^2 != 1 \* 1$"):
            extract_pattern(SymMatrix.from_rows([[1, 2], [2, 1]]))

    def test_zero_offdiagonal_is_exempt(self):
        assert has_sign_pattern_scaling(SymMatrix.from_rows([[2, 0], [0, 3]]))


class TestExtractPattern:
    def test_explicit_rational_scaling(self):
        dec = extract_pattern(SymMatrix.from_rows([[4, -6], [-6, 9]]))
        assert dec.explicit
        assert dec.scaling.entries == (F(2), F(3))
        assert dec.pattern == SymMatrix.from_rows([[1, -1], [-1, 1]])

    def test_fractional_scaling(self):
        A = scale(all_ones(2), DiagonalScaling((F(1, 2), F(3))))
        dec = extract_pattern(A)
        assert dec.explicit and dec.scaling.entries == (F(1, 2), F(3))

    def test_irrational_scaling_is_implicit(self):
        dec = extract_pattern(SymMatrix.from_rows([[2, -2], [-2, 2]]))
        assert not dec.explicit and dec.scaling is None
        assert dec.pattern == SymMatrix.from_rows([[1, -1], [-1, 1]])

    def test_all_or_nothing(self):
        # one rational root and one irrational root: no explicit scaling
        dec = extract_pattern(SymMatrix.from_rows([[4, 0], [0, 3]]))
        assert not dec.explicit
        assert dec.pattern == identity(2)

    def test_pattern_is_its_own_core(self):
        H = horn_matrix()
        dec = extract_pattern(H)
        assert dec.pattern == H
        assert dec.scaling.entries == (F(1),) * 5

    def test_rejects_condition_failure(self):
        with pytest.raises(ScalingConditionError):
            extract_pattern(SymMatrix.from_rows([[1, 2], [2, 1]]))
        with pytest.raises(ScalingConditionError):
            extract_pattern(SymMatrix.from_rows([[0, 0], [0, 1]]))

    def test_recovery_example(self):
        A = rank_one((F(1), F(-2), F(1)))
        assert has_sign_pattern_scaling(A)
        dec = extract_pattern(A)
        assert dec.scaling.entries == (F(1), F(2), F(1))
        assert dec.pattern == rank_one((F(1), F(-1), F(1)))

    def test_roundtrip_over_census_patterns(self, census):
        rng = random.Random(71)
        for record in census(3):
            S = Candidate(3, record.canonical_offdiag).matrix()
            D = DiagonalScaling(random_positive_diagonal(rng, 3))
            A = scale(S, D)
            dec = extract_pattern(A)
            assert dec.explicit
            assert dec.pattern == S
            assert dec.scaling.entries == D.entries
            assert scale(dec.pattern, dec.scaling) == A

    def test_scaling_preserves_zero_supports(self):
        rng = random.Random(73)
        H = horn_matrix()
        D = DiagonalScaling(random_positive_diagonal(rng, 5))
        A = scale(H, D)
        assert sorted(z.support for z in minimal_zeros(A)) == \
            sorted(z.support for z in minimal_zeros(H))


def _decompose(extract, A):
    """``(pattern, scaling)`` of ``extract(A)``, or the message of its
    ScalingConditionError."""
    try:
        dec = extract(A)
    except ScalingConditionError as exc:
        return str(exc)
    return dec.pattern, dec.scaling


def _scaled_classes(census, rng, orders=range(1, 6)):
    """Every census class of the given orders as ``D S D``, with D drawn
    from the rationals (so every root is rational)."""
    for n in orders:
        for record in census(n):
            S = Candidate(n, record.canonical_offdiag).matrix()
            yield scale(S, DiagonalScaling(random_positive_diagonal(rng, n)))


class TestAgainstFractionReference:
    """The integer-form decomposition against the Fraction-entry one it
    replaced: the same pattern and scaling, or the same message byte for
    byte."""

    def _agree(self, A):
        ours = _decompose(extract_pattern, A)
        assert ours == _decompose(fraction_extract_pattern, A)
        assert has_sign_pattern_scaling(A) == \
            (fraction_scaling_failure(A) is None)
        return ours

    def test_rational_roots(self, census):
        rng = random.Random(401)
        for A in _scaled_classes(census, rng):
            _, scaling = self._agree(A)
            assert scaling is not None

    def test_irrational_root(self, census):
        # a common factor with no rational square root: A_ii = c D_i^2
        rng = random.Random(403)
        for A in _scaled_classes(census, rng):
            c = rng.choice((2, 3, F(1, 2), F(5, 3)))
            A = SymMatrix.from_rows([[c * x for x in row]
                                     for row in fraction_rows(A)])
            _, scaling = self._agree(A)
            assert scaling is None

    @pytest.mark.parametrize("kind", ["diagonal", "integral", "non-integral"])
    def test_failing_conditions(self, kind, census):
        rng = random.Random(f"scaling-{kind}")
        seen = set()
        for A in _scaled_classes(census, rng, orders=range(2, 6)):
            rows = fraction_rows(A)
            n = A.n
            i, j = sorted(rng.sample(range(n), 2))
            if kind == "diagonal":
                rows[i][i] = F(-rng.randint(0, 4), rng.randint(1, 3))
                prefix = f"diagonal entry {i + 1} is "
            else:
                while True:
                    if kind == "integral":
                        a = F(rng.choice([-6, -5, -4, -3, -2, -1,
                                          1, 2, 3, 4, 5, 6]))
                    else:
                        a = F(rng.choice([-7, -5, -3, -1, 1, 3, 5, 7]),
                              rng.choice([2, 4, 6]))
                    if a * a != rows[i][i] * rows[j][j]:
                        break
                rows[i][j] = rows[j][i] = a
                prefix = f"entry ({i + 1},{j + 1}): "
                seen.add(a > 0)
            message = self._agree(SymMatrix.from_rows(rows))
            assert message.startswith(prefix)
        if kind != "diagonal":
            assert seen == {False, True}
