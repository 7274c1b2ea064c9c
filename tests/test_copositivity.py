"""Copositivity decisions, simplex minima, the convex route, and the
subdivision falsifier."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copocert.copositivity import _pair_screen, is_copositive
from copocert.errors import OrderTooLargeError
from copocert.linalg import SymMatrix, eval_quadratic, horn_matrix

from oracles import (
    all_ones,
    bbt_plus_nonnegative,
    conditionally_positive_definite,
    degenerate_matrix,
    fraction_candidates,
    grid_min,
    hildebrand_t,
    identity,
    min_on_simplex,
    permuted_matrix,
    principal,
    random_psd,
    random_symmetric,
    scan_is_copositive,
    shifted,
    simplex_grid,
    subdivision_falsifier,
    through,
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


# --- the convex route ---------------------------------------------------------
#
# ``is_copositive`` answers a conditionally positive definite input whose
# minimum is >= 0 by an exact active-set solve (``copositivity._convex``),
# and the scan stays its oracle: ``oracles.scan_is_copositive`` is
# ``is_copositive`` with the route switched off, and
# ``oracles.through("convex", A)`` the route alone.  Shifting a matrix by cJ
# keeps it conditionally positive definite and moves every simplex value by
# c, so one routed draw with minimum mu gives the three outcomes: mu itself,
# 0 at c = -mu, and below 0 at c = -mu - gap / 2, where gap > 0 keeps every
# vertex and pair above 0, so that the pair screen still passes.

ROUTE_FAMILIES = ("bbt", "bbt_deficient", "psd", "hildebrand",
                  "hildebrand_perturbed")


def route_matrix(family, n, seed):
    """A seeded draw: B B^T + N of full or deficient rank, B B^T of rank
    n - 1 or n, Hildebrand's T(psi) with tan(psi_i / 2) in {1/10, 2/10,
    3/10} (order 5 whatever n), or a perturbed one of order max(n, 5)."""
    if family == "bbt":
        return bbt_plus_nonnegative(n, seed)
    if family == "bbt_deficient":
        return bbt_plus_nonnegative(n, seed, seed % (n - 1) + 1)
    if family == "hildebrand_perturbed":
        return degenerate_matrix("hildebrand", max(n, 5), seed)
    rng = random.Random(f"{family}/{n}/{seed}")
    if family == "psd":
        return random_psd(rng, n, rng.randint(n - 1, n))
    return hildebrand_t([F(rng.randint(1, 3), 10) for _ in range(5)])


def route_outcomes(A):
    """Check the route against the scan on A and, when it takes A, on the
    shifts of A with minimum 0 and below 0; return the outcome of each
    routed draw: "positive", "zero" or "negative" (the route declines and
    the scan names the violator)."""
    scanned = scan_is_copositive(A)
    assert is_copositive(A) == scanned, A
    verdict = through("convex", A)
    if verdict is None:
        return []
    assert verdict == scanned, A
    assert conditionally_positive_definite(A, range(A.n)), A
    mu = verdict.simplex_minimum
    outcomes = ["zero" if verdict.zeros else "positive"]
    gap = min(min_on_simplex(principal(A, pair))[0]
              for pair in combinations(range(A.n), 2)) - mu
    if not gap:  # the minimum sits on a pair: a shift fails the screen
        return outcomes
    for c in (-mu, -mu - gap / 2):
        B = shifted(A, c)
        assert _pair_screen(B.integer_form[0]), (A, c)
        scanned = scan_is_copositive(B)
        assert is_copositive(B) == scanned, (A, c)
        if c == -mu:
            assert through("convex", B) == scanned, (A, c)
            assert scanned.simplex_minimum == 0 and len(scanned.zeros) == 1
            outcomes.append("zero")
        else:
            assert through("convex", B) is None and not scanned.copositive, \
                (A, c)
            assert scanned.simplex_minimum < 0
            outcomes.append("negative")
    return outcomes


class TestConvexRoute:
    @given(family=st.sampled_from(ROUTE_FAMILIES),
           n=st.integers(min_value=2, max_value=7), seed=seeds)
    @settings(max_examples=120, deadline=None)
    def test_route_equals_the_scan(self, family, n, seed):
        route_outcomes(route_matrix(family, n, seed))

    def test_every_outcome_is_reached(self):
        # seeded, so that every outcome is reached whatever Hypothesis draws
        seen = Counter()
        for family in ROUTE_FAMILIES:
            for n in (3, 5, 7):
                for seed in range(8):
                    for outcome in route_outcomes(route_matrix(family, n, seed)):
                        seen[family, outcome] += 1
                        seen[outcome] += 1
        # seen: 45 positive, 39 zero, 38 negative, all from bbt and psd;
        # T(psi) is never conditionally positive definite, having five zeros
        for outcome, floor in (("positive", 30), ("zero", 25),
                               ("negative", 25)):
            assert seen[outcome] >= floor, seen

    def test_pair_screen_turns_away_a_zero_on_a_pair(self):
        # Horn's matrix and every census class with a -1 have one
        assert not _pair_screen(horn_matrix().integer_form[0])
        assert through("convex", horn_matrix()) is None

    def test_orders_outside_the_route(self):
        # order 1 is a vertex, left to the scan, and order 17 is refused
        # before any route is asked
        assert through("convex", identity(1)) is None
        with pytest.raises(OrderTooLargeError):
            through("convex", identity(17))
        assert through("convex", identity(16)).simplex_minimum == F(1, 16)


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
