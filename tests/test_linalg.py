"""Exact linear algebra: echelon forms, kernels, symmetric matrix plumbing."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from copocert.linalg import (
    SymMatrix,
    canonical_vector,
    eval_quadratic,
    horn_matrix,
    is_proportional,
    kernel_basis,
    solve_affine,
    unknowns,
    upper_size,
)

from copocert.errors import InvariantError

from oracles import (
    all_ones,
    bordered_adjugate,
    dot,
    fraction_rows,
    identity,
    inverse_rows,
    matrix_apply,
    principal,
    rank_nullity,
    upper_index,
    rank_one,
)

F = Fraction

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=6)
small_vectors = st.lists(rationals, min_size=1, max_size=6).map(tuple)


def random_int_rows(rng, m, n, lo=-5, hi=5):
    return [tuple(F(rng.randint(lo, hi)) for _ in range(n)) for _ in range(m)]


class TestVectors:
    # dot and matrix_apply are the Fraction references of tests/oracles.py

    def test_dot(self):
        assert dot((F(1), F(2)), (F(3), F(1, 2))) == F(4)

    def test_dot_length_mismatch(self):
        with pytest.raises(ValueError):
            dot((F(1),), (F(1), F(2)))

    def test_canonical_vector_primitive(self):
        assert canonical_vector((F(2, 3), F(-4, 3))) == (F(1), F(-2))

    def test_canonical_vector_sign(self):
        assert canonical_vector((F(0), F(-3), F(6))) == (F(0), F(1), F(-2))

    def test_canonical_vector_zero(self):
        assert canonical_vector((F(0), F(0))) == (F(0), F(0))

    @given(small_vectors, rationals.filter(lambda c: c != 0))
    def test_canonical_vector_scale_invariant(self, v, c):
        scaled = tuple(c * x for x in v)
        assert canonical_vector(scaled) == canonical_vector(v) or (
            c < 0 and all(x == 0 for x in v))

    @given(small_vectors)
    def test_canonical_vector_idempotent(self, v):
        once = canonical_vector(v)
        assert canonical_vector(once) == once

    def test_is_proportional(self):
        assert is_proportional((F(1), F(-2)), (F(-2), F(4)))
        assert not is_proportional((F(1), F(-2)), (F(1), F(2)))
        assert is_proportional((F(0), F(0)), (F(0), F(0)))
        assert not is_proportional((F(0), F(0)), (F(1), F(0)))
        assert not is_proportional((F(1),), (F(1), F(0)))


class TestRankKernel:
    def test_rank_empty(self):
        assert rank_nullity([], ncols=3) == (0, 3)

    def test_rank_identity_rows(self):
        rows = [(F(1), F(0)), (F(0), F(1))]
        assert rank_nullity(rows) == (2, 0)

    def test_rank_dependent(self):
        rows = [(F(1), F(2)), (F(2), F(4))]
        assert rank_nullity(rows) == (1, 1)

    def test_rank_matches_sympy(self):
        rng = random.Random(7)
        for _ in range(60):
            m = rng.randint(1, 5)
            n = rng.randint(1, 5)
            rows = random_int_rows(rng, m, n)
            rank, nullity = rank_nullity(rows)
            expected = sympy.Matrix([[int(x) for x in r] for r in rows]).rank()
            assert rank == expected
            assert nullity == n - rank

    def test_kernel_no_rows_is_standard_basis(self):
        basis = kernel_basis([], ncols=3)
        assert basis == [(F(1), F(0), F(0)), (F(0), F(1), F(0)),
                         (F(0), F(0), F(1))]

    def test_kernel_annihilated(self):
        rng = random.Random(11)
        for _ in range(60):
            m = rng.randint(1, 4)
            n = rng.randint(1, 5)
            rows = random_int_rows(rng, m, n)
            basis = kernel_basis(rows, n)
            rank, nullity = rank_nullity(rows)
            assert len(basis) == nullity
            for vec in basis:
                assert all(dot(r, vec) == 0 for r in rows)
                assert vec == canonical_vector(vec)
            if len(basis) > 1:
                rank_of_basis, _ = rank_nullity(basis)
                assert rank_of_basis == len(basis)

    def test_kernel_of_singular_example(self):
        rows = [(F(1), F(1), F(1))]
        basis = kernel_basis(rows, 3)
        assert len(basis) == 2


class TestSolveAffine:
    def test_unique_solution(self):
        rows = [(F(2), F(1)), (F(1), F(-1))]
        sol = solve_affine(rows, (F(5), F(1)), 2)
        assert sol.feasible and sol.dimension == 0
        assert sol.particular == (F(2), F(1))

    def test_infeasible(self):
        rows = [(F(1), F(1)), (F(2), F(2))]
        sol = solve_affine(rows, (F(1), F(3)), 2)
        assert not sol.feasible
        assert sol.particular is None

    def test_underdetermined(self):
        sol = solve_affine([(F(1), F(1), F(1))], (F(1),), 3)
        assert sol.feasible and sol.dimension == 2
        assert sum(sol.particular) == 1

    def test_random_consistent_systems(self):
        rng = random.Random(13)
        for _ in range(60):
            m = rng.randint(1, 4)
            n = rng.randint(1, 5)
            rows = random_int_rows(rng, m, n)
            x0 = tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))
            rhs = tuple(dot(r, x0) for r in rows)
            sol = solve_affine(rows, rhs, n)
            assert sol.feasible
            assert all(dot(r, sol.particular) == b for r, b in zip(rows, rhs))
            for vec in sol.kernel:
                assert all(dot(r, vec) == 0 for r in rows)
            _, nullity = rank_nullity(rows)
            assert sol.dimension == nullity


class TestBorderedAdjugate:
    @staticmethod
    def times(X, Y):
        return [[sum(a * b for a, b in zip(row, col)) for col in zip(*Y)]
                for row in X]

    def test_adjugate_times_matrix_is_the_determinant(self):
        rng = random.Random(8)
        grown = singular = 0
        for _ in range(150):
            m = rng.randint(1, 5)
            K = [[0] * (m + 1) for _ in range(m + 1)]
            for i in range(m + 1):
                for j in range(i, m + 1):
                    K[i][j] = K[j][i] = rng.randint(-3, 3)
            parent = [r[:m] for r in K[:m]]
            det, adj = inverse_rows(parent, m)
            if not det:
                continue
            # the pivot is det K' up to a sign that the bordered pair shares
            sign = det // sympy.Matrix(parent).det()
            assert sign in (1, -1)
            new, full = bordered_adjugate(adj, det, K[m][:m], K[m][m])
            assert new == sign * sympy.Matrix(K).det()
            if not new:
                # the kernel vector (w, -det K') in place of the adjugate
                assert full[-1] == -det
                assert self.times(K, [[z] for z in full]) == [[0]] * (m + 1)
                singular += 1
                continue
            assert self.times(full, K) == [[new * (i == j) for j in range(m + 1)]
                                           for i in range(m + 1)]
            assert bordered_adjugate(adj, det, K[m][:m], K[m][m],
                                     full=False) == (new, full[:1])
            grown += 1
        assert grown > 50 and singular > 0

    def test_bordered_adjugate_inexact_division(self):
        # (I, 2) is no adjugate-determinant pair (adj of I is I, det 1):
        # bordering it with b = (1, 0), c = 0 gives det -1, and the entry
        # (1, 1) of the new adjugate would be (-1 * 1 + 0 * 0) / 2
        with pytest.raises(InvariantError, match="bordered adjugate"):
            bordered_adjugate([[1, 0], [0, 1]], 2, [1, 0], 0)

    def test_inverse_rows_of_a_singular_matrix(self):
        assert inverse_rows([[1, 2], [2, 4]], 2) == (0, None)


class TestSymMatrix:
    def test_upper_index_bijection(self):
        # the one table of the unknowns against the closed formula
        for n in range(1, 7):
            pairs, columns = unknowns(n)
            assert pairs == tuple((i, j) for i in range(n)
                                  for j in range(i, n))
            assert len(pairs) == upper_size(n)
            assert all(columns[i][j] == upper_index(n, i, j)
                       for i, j in pairs)

    def test_upper_index_symmetric(self):
        columns = unknowns(4)[1]
        assert columns[2][1] == columns[1][2] == upper_index(4, 2, 1)

    def test_from_rows_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="asymmetric"):
            SymMatrix.from_rows([[1, 2], [3, 1]])

    def test_from_rows_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            SymMatrix.from_rows([[1, 2]])

    def test_from_integer_rows(self):
        rows = [[1, -2, 0], [-2, 4, 7], [0, 7, -3]]
        A = SymMatrix.from_integer_rows(rows)
        assert A == SymMatrix.from_rows(rows)
        assert A.integer_form == SymMatrix.from_rows(rows).integer_form
        assert A.integer_form == (tuple(map(tuple, rows)), 1)
        assert all(type(e) is F for e in fraction_rows(A)[1])

    def test_from_ratios_reduces_to_lowest_terms(self):
        # unreduced pairs over a shared factor: the lcm of the q is 12, and
        # every numerator over it is even, so the form is divided by 2
        pairs = [[(2, 4), (-3, 6), (0, 5)],
                 [(-1, 2), (6, 2), (0, 1)],
                 [(0, 7), (0, 3), (4, 2)]]
        A = SymMatrix.from_ratios(pairs)
        assert A.integer_form == (((1, -1, 0), (-1, 6, 0), (0, 0, 4)), 2)
        assert A == SymMatrix.from_rows([[F(p, q) for p, q in row]
                                         for row in pairs])
        assert SymMatrix.from_ratios([[(4, 2)]]).integer_form == (((2,),), 1)
        assert SymMatrix.from_ratios([[(0, 9)]]).integer_form == (((0,),), 1)
        with pytest.raises(ValueError, match="asymmetric"):
            SymMatrix.from_ratios([[(1, 1), (1, 2)], [(1, 3), (1, 1)]])

    @given(st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                           min_size=n, max_size=n)))
    def test_from_rows_of_integers_is_from_integer_rows(self, square):
        n = len(square)
        rows = [[square[min(i, j)][max(i, j)] for j in range(n)]
                for i in range(n)]
        A = SymMatrix.from_integer_rows(rows)
        assert SymMatrix.from_rows(rows) == A
        assert hash(SymMatrix.from_rows(rows)) == hash(A)

    def test_integer_form_is_in_lowest_terms(self):
        A = SymMatrix.from_rows([[F(1, 2), F(1, 3)], [F(1, 3), F(4, 6)]])
        assert A.integer_form == (((3, 2), (2, 4)), 6)
        assert A.get(1, 1) == F(2, 3) and type(A.get(0, 0)) is F
        assert SymMatrix.from_rows([["1/2", 0], [0, 1.5]]).integer_form == \
            (((1, 0), (0, 3)), 2)
        assert SymMatrix.from_rows([[0, 0], [0, 0]]).integer_form == \
            (((0, 0), (0, 0)), 1)

    @pytest.mark.parametrize("c", [F(2), F(-1), F(1, 3), F(5, 7)])
    def test_a_multiple_is_another_matrix(self, c):
        A = horn_matrix()
        cA = SymMatrix.from_rows([[c * x for x in row]
                                  for row in fraction_rows(A)])
        assert cA != A

    @pytest.mark.parametrize("form, message", [
        ((((2,),), 2), "lowest terms"),
        ((((2, 4), (4, 6)), 4), "lowest terms"),
        ((((1,),), 0), "denominator"),
        ((((1,),), -1), "denominator"),
        ((((1,),), F(1)), "denominator"),
        ((((1,),), True), "denominator"),
        (((), 1), "order"),
        ((((1, 2),), 1), "square"),
        ((((1, 2), (3, 1)), 1), "asymmetric"),
        ((((F(1),),), 1), "ints"),
    ], ids=["not-lowest-1x1", "not-lowest-2x2", "d-0", "d-negative",
            "d-fraction", "d-bool", "empty", "not-square", "asymmetric",
            "fraction-entry"])
    def test_rejects_a_form_that_is_not_canonical(self, form, message):
        with pytest.raises(ValueError, match=message):
            SymMatrix(form)

    def test_accepts_a_canonical_form(self):
        assert SymMatrix((((1, 0), (0, 3)), 2)) == \
            SymMatrix.from_rows([[F(1, 2), 0], [0, F(3, 2)]])
        assert SymMatrix((((2,),), 1)).n == 1

    @pytest.mark.parametrize("rows", [
        [[1, 2], [3, 1]], [[1, 2]], [[1, F(1, 2)], [F(1, 2), 1]], [[True]],
        [[1, F(1)], [F(1), 1]]])
    def test_from_integer_rows_rejects(self, rows):
        with pytest.raises(ValueError):
            SymMatrix.from_integer_rows(rows)

    def test_get_roundtrip(self):
        A = SymMatrix.from_rows([[1, 2, 3], [2, 4, 5], [3, 5, 6]])
        for i in range(3):
            for j in range(3):
                assert A.get(i, j) == A.get(j, i)
        assert A.get(0, 2) == 3

    def test_identity_and_all_ones(self):
        assert fraction_rows(identity(2)) == [[1, 0], [0, 1]]
        assert fraction_rows(all_ones(2)) == [[1, 1], [1, 1]]

    def test_rank_one(self):
        A = rank_one((F(1), F(-2)))
        assert fraction_rows(A) == [[1, -2], [-2, 4]]

    def test_apply(self):
        A = SymMatrix.from_rows([[1, 2], [2, 3]])
        assert matrix_apply(A, (F(1), F(1))) == (F(3), F(5))

    def test_principal(self):
        A = SymMatrix.from_rows([[1, 2, 3], [2, 4, 5], [3, 5, 6]])
        sub = principal(A, (0, 2))
        assert fraction_rows(sub) == [[1, 3], [3, 6]]

    def test_unit_diagonal(self):
        assert horn_matrix().has_unit_diagonal()
        assert not rank_one((F(1), F(-2))).has_unit_diagonal()

    def test_is_zero(self):
        assert SymMatrix.from_rows([[0, 0], [0, 0]]).is_zero()
        assert not identity(2).is_zero()


class TestQuadratic:
    def test_eval_matches_double_sum(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randint(1, 5)
            rows = [[F(0)] * n for _ in range(n)]
            for i in range(n):
                rows[i][i] = F(rng.randint(-4, 4), rng.randint(1, 3))
                for j in range(i + 1, n):
                    rows[i][j] = rows[j][i] = F(rng.randint(-4, 4),
                                                rng.randint(1, 3))
            A = SymMatrix.from_rows(rows)
            x = tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n))
            direct = sum(rows[i][j] * x[i] * x[j]
                         for i in range(n) for j in range(n))
            assert eval_quadratic(A, x) == direct

    def test_eval_length_check(self):
        with pytest.raises(ValueError):
            eval_quadratic(identity(2), (F(1),))


class TestHornMatrix:
    def test_entries(self):
        H = horn_matrix()
        assert H.n == 5
        assert H.has_unit_diagonal()
        for i in range(5):
            for j in range(i + 1, 5):
                adjacent = (j - i) % 5 in (1, 4)
                assert H.get(i, j) == (-1 if adjacent else 1)
