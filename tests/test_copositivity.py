"""Copositivity decisions, simplex minima, and the subdivision falsifier."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from copocert.copositivity import is_copositive
from copocert.linalg import SymMatrix, eval_quadratic, horn_matrix

from oracles import (
    all_ones,
    fraction_candidates,
    grid_min,
    identity,
    min_on_simplex,
    permuted_matrix,
    random_symmetric,
    simplex_grid,
    subdivision_falsifier,
)

F = Fraction


def scaled(A, d):
    return SymMatrix.from_rows(
        [[d[i] * A.get(i, j) * d[j] for j in range(A.n)] for i in range(A.n)])


small_orders = st.integers(min_value=1, max_value=4)
seeds = st.integers(min_value=0, max_value=10**6)


def drawn_matrix(seed, n, diag_range=(0, 8)):
    return random_symmetric(random.Random(seed), n, diag_range=diag_range)


class TestMinOnSimplex:
    def test_identity(self):
        value, point = min_on_simplex(identity(3))
        assert value == F(1, 3)
        assert point == (F(1, 3), F(1, 3), F(1, 3))

    def test_all_ones(self):
        value, _ = min_on_simplex(all_ones(3))
        assert value == 1

    def test_diagonal(self):
        value, point = min_on_simplex(SymMatrix.from_rows([[2, 0], [0, 3]]))
        assert value == F(6, 5)
        assert point == (F(3, 5), F(2, 5))

    def test_negative_coupling(self):
        value, point = min_on_simplex(SymMatrix.from_rows([[1, -2], [-2, 1]]))
        assert value == F(-1, 2)
        assert point == (F(1, 2), F(1, 2))

    def test_horn_touches_zero(self):
        value, point = min_on_simplex(horn_matrix())
        assert value == 0
        assert eval_quadratic(horn_matrix(), point) == 0

    def test_order_one(self):
        value, point = min_on_simplex(SymMatrix.from_rows([[F(5, 7)]]))
        assert value == F(5, 7) and point == (F(1),)

    def test_value_recomputed_at_point(self):
        rng = random.Random(37)
        for _ in range(30):
            A = random_symmetric(rng, rng.randint(1, 4), diag_range=(-2, 6))
            value, point = min_on_simplex(A)
            assert eval_quadratic(A, point) == value
            assert sum(point) == 1 and all(c >= 0 for c in point)

    def test_dominates_grid(self):
        rng = random.Random(41)
        for _ in range(25):
            n = rng.randint(2, 4)
            A = random_symmetric(rng, n, diag_range=(-3, 6))
            value, _ = min_on_simplex(A)
            assert value <= grid_min(A, 6)

    def test_grid_hits_known_minimizer(self):
        A = SymMatrix.from_rows([[1, -2], [-2, 1]])
        assert grid_min(A, 2) == min_on_simplex(A)[0]


class TestIsCopositive:
    def test_frozen_verdicts(self):
        assert is_copositive(SymMatrix.from_rows([[1, -1], [-1, 1]])).copositive
        assert is_copositive(identity(4)).copositive
        assert is_copositive(horn_matrix()).copositive
        assert not is_copositive(SymMatrix.from_rows([[1, -2], [-2, 1]])).copositive

    def test_violator_certificate(self):
        verdict = is_copositive(SymMatrix.from_rows([[0, -1], [-1, 0]]))
        assert not verdict.copositive
        assert verdict.violator == (F(1, 2), F(1, 2))
        assert verdict.simplex_minimum == F(-1, 2)
        assert eval_quadratic(SymMatrix.from_rows([[0, -1], [-1, 0]]),
                              verdict.violator) == verdict.simplex_minimum

    def test_negative_diagonal_prefilter(self):
        verdict = is_copositive(SymMatrix.from_rows([[1, 0], [0, -1]]))
        assert not verdict.copositive
        assert verdict.violator == (F(0), F(1))

    def test_zero_diagonal_coupling_prefilter(self):
        verdict = is_copositive(SymMatrix.from_rows([[0, -1], [-1, 1]]))
        assert not verdict.copositive
        assert eval_quadratic(SymMatrix.from_rows([[0, -1], [-1, 1]]),
                              verdict.violator) < 0

    def test_perturbed_horn(self):
        H = horn_matrix()
        eps = SymMatrix.from_rows(
            [[H.get(i, j) - (F(1, 10) if i == j else 0) for j in range(5)]
             for i in range(5)])
        verdict = is_copositive(eps)
        assert not verdict.copositive
        assert eval_quadratic(eps, verdict.violator) < 0

    def test_matches_sign_of_minimum(self):
        rng = random.Random(43)
        for _ in range(40):
            A = random_symmetric(rng, rng.randint(1, 4), diag_range=(-2, 6))
            verdict = is_copositive(A)
            assert verdict.copositive == (min_on_simplex(A)[0] >= 0)

    def test_grid_negative_implies_not_copositive(self):
        rng = random.Random(47)
        hits = 0
        for _ in range(40):
            A = random_symmetric(rng, rng.randint(2, 4), diag_range=(-3, 5))
            if grid_min(A, 5) < 0:
                hits += 1
                assert not is_copositive(A).copositive
        assert hits > 0

    @given(seeds, small_orders)
    @settings(max_examples=60, deadline=None)
    def test_violator_is_sound(self, seed, n):
        A = drawn_matrix(seed, n, diag_range=(-3, 6))
        verdict = is_copositive(A)
        if not verdict.copositive:
            v = verdict.violator
            assert all(c >= 0 for c in v) and any(c > 0 for c in v)
            assert eval_quadratic(A, v) < 0

    @given(seeds, small_orders)
    @settings(max_examples=40, deadline=None)
    def test_sum_closure(self, seed, n):
        A = drawn_matrix(seed, n)
        B = drawn_matrix(seed + 1, n)
        if is_copositive(A).copositive and is_copositive(B).copositive:
            total = SymMatrix.from_rows(
                [[A.get(i, j) + B.get(i, j) for j in range(n)]
                 for i in range(n)])
            assert is_copositive(total).copositive

    @given(seeds, small_orders)
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariance(self, seed, n):
        A = drawn_matrix(seed, n, diag_range=(-2, 6))
        perm = random.Random(seed + 7).sample(range(n), n)
        assert is_copositive(permuted_matrix(A, perm)).copositive == \
            is_copositive(A).copositive

    @given(seeds, small_orders)
    @settings(max_examples=40, deadline=None)
    def test_scaling_invariance(self, seed, n):
        A = drawn_matrix(seed, n, diag_range=(-2, 6))
        rng = random.Random(seed + 13)
        d = [F(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(n)]
        assert is_copositive(scaled(A, d)).copositive == \
            is_copositive(A).copositive


class TestVerdictZeros:
    def test_horn_zeros_in_scan_order(self):
        verdict = is_copositive(horn_matrix())
        half = F(1, 2)
        expected = []
        for i, j in ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4)):
            point = [F(0)] * 5
            point[i] = point[j] = half
            expected.append(tuple(point))
        assert tuple(z.coordinates for z in verdict.zeros) == tuple(expected)

    def test_supersets_of_zero_supports_skipped(self):
        # the zero matrix has value 0 on every support; only singletons
        # are kept
        verdict = is_copositive(SymMatrix.from_rows([[0, 0], [0, 0]]))
        assert tuple(z.coordinates for z in verdict.zeros) == \
            ((F(1), F(0)), (F(0), F(1)))

    def test_empty_when_not_copositive(self):
        # value 0 on the support {3} comes before the negative pair {1, 2}
        A = SymMatrix.from_rows([[1, -2, 0], [-2, 1, 0], [0, 0, 0]])
        verdict = is_copositive(A)
        assert not verdict.copositive and verdict.zeros == ()


class TestStationaryCandidates:
    def test_candidate_points_lie_on_simplex(self):
        A = horn_matrix()
        count = 0
        for value, point in fraction_candidates(A):
            count += 1
            assert sum(point) == 1
            assert all(c >= 0 for c in point)
            assert eval_quadratic(A, point) == value
        assert count >= 5

    def test_singletons_always_present(self):
        A = SymMatrix.from_rows([[2, 5], [5, 3]])
        values = [v for v, _ in fraction_candidates(A)]
        assert F(2) in values and F(3) in values


class TestSubdivisionFalsifier:
    def test_finds_simple_violation(self):
        A = SymMatrix.from_rows([[0, -1], [-1, 0]])
        point = subdivision_falsifier(A, depth=2)
        assert point is not None
        assert eval_quadratic(A, point) < 0

    def test_none_on_copositive(self):
        assert subdivision_falsifier(horn_matrix(), depth=4) is None
        assert subdivision_falsifier(identity(3), depth=4) is None

    def test_depth_zero_checks_corners(self):
        A = SymMatrix.from_rows([[-1, 0], [0, 1]])
        point = subdivision_falsifier(A, depth=0)
        assert point == (F(1), F(0))

    def test_never_contradicts_oracle(self):
        rng = random.Random(53)
        found = 0
        for _ in range(60):
            A = random_symmetric(rng, rng.randint(2, 4), diag_range=(-2, 6))
            verdict = is_copositive(A)
            point = subdivision_falsifier(A, depth=5)
            if point is not None:
                found += 1
                assert not verdict.copositive
                assert eval_quadratic(A, point) < 0
        assert found > 0


class TestGridOracle:
    def test_grid_point_count(self):
        # compositions of 4 into 3 parts: C(6,2) = 15
        assert len(list(simplex_grid(3, 4))) == 15

    def test_grid_points_on_simplex(self):
        for x in simplex_grid(3, 4):
            assert sum(x) == 1 and all(c >= 0 for c in x)
