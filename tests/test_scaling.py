"""Diagonal scaling decompositions and the square-product condition."""

import random
from fractions import Fraction

import pytest

from copocert.census import Candidate
from copocert.errors import ScalingConditionError
from copocert.linalg import SymMatrix, horn_matrix
from copocert.scaling import (
    DiagonalScaling,
    extract_pattern,
    has_sign_pattern_scaling,
    scale,
)
from copocert.zeros import minimal_zeros

from oracles import random_positive_diagonal

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
        assert scale(S, D).rows() == [[4, -6], [-6, 9]]

    def test_scale_order_mismatch(self):
        with pytest.raises(ValueError):
            scale(SymMatrix.identity(3), DiagonalScaling((F(1), F(1))))


class TestCondition:
    def test_holds_for_patterns(self):
        assert has_sign_pattern_scaling(horn_matrix())
        assert has_sign_pattern_scaling(SymMatrix.identity(3))

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
        A = scale(SymMatrix.all_ones(2), DiagonalScaling((F(1, 2), F(3))))
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
        assert dec.pattern == SymMatrix.identity(2)

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
        A = SymMatrix.rank_one((F(1), F(-2), F(1)))
        assert has_sign_pattern_scaling(A)
        dec = extract_pattern(A)
        assert dec.scaling.entries == (F(1), F(2), F(1))
        assert dec.pattern == SymMatrix.rank_one((F(1), F(-1), F(1)))

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
        assert sorted(z.sorted_support() for z in minimal_zeros(A).zeros) == \
            sorted(z.sorted_support() for z in minimal_zeros(H).zeros)
