"""Exact simplex method and strict-positivity decisions."""

import random
from fractions import Fraction

from copocert.linalg import AffineSolutionSet, kernel_basis, solve_affine
from copocert.lp import simplex_maximize, strictly_positive_point

from oracles import dot, subspace, subspace_positive_point_exists

F = Fraction


class TestSimplexMaximize:
    def test_bounded_optimum(self):
        # max x1 + x2 s.t. x1 + s1 = 2, x2 + s2 = 3
        rows = [(1, 0, 1, 0), (0, 1, 0, 1)]
        status, x, value = simplex_maximize(rows, (2, 3), (1, 1, 0, 0))
        assert status == "optimal"
        assert value == 5
        assert x[0] == 2 and x[1] == 3

    def test_degenerate_ties_terminate(self):
        # Bland's rule must not cycle on a degenerate vertex
        rows = [(1, 1, 1, 0), (1, -1, 0, 1)]
        status, x, value = simplex_maximize(rows, (1, 0),
                                            (F(3), F(1), F(0), F(0)))
        assert status == "optimal"
        assert value == 2

    def test_unbounded(self):
        status, x, value = simplex_maximize([(1, -1)], (0,), (1, 0))
        assert status == "unbounded"
        assert x is None and value is None

    def test_infeasible(self):
        # x1 + x2 = -1 has no nonnegative solution
        status, x, value = simplex_maximize([(1, 1)], (-1,), (1, 0))
        assert status == "infeasible"

    def test_redundant_rows_dropped(self):
        rows = [(1, 1), (2, 2)]
        status, x, value = simplex_maximize(rows, (1, 2), (1, 0))
        assert status == "optimal"
        assert value == 1

    def test_fractional_data(self):
        rows = [(F(1, 2), F(1, 3), 1)]
        status, x, value = simplex_maximize(rows, (F(1),), (1, 1, 0))
        assert status == "optimal"
        assert value == 3  # put everything on the 1/3 coefficient

    def test_solution_feasibility(self):
        rng = random.Random(23)
        for _ in range(40):
            m = rng.randint(1, 3)
            n = m + rng.randint(1, 3)
            rows = [tuple(F(rng.randint(-3, 3)) for _ in range(n))
                    for _ in range(m)]
            x_feas = tuple(F(rng.randint(0, 3)) for _ in range(n))
            b = tuple(dot(r, x_feas) for r in rows)
            obj = tuple(F(rng.randint(-2, 2)) for _ in range(n))
            status, x, value = simplex_maximize(rows, b, obj)
            assert status in ("optimal", "unbounded")
            if status == "optimal":
                assert all(c >= 0 for c in x)
                assert all(dot(r, x) == bi for r, bi in zip(rows, b))
                assert value >= dot(obj, x_feas)


class TestStrictlyPositivePoint:
    def test_infeasible_set(self):
        solset = AffineSolutionSet(0, None, ())
        assert strictly_positive_point(solset) is None

    def test_dimension_zero_positive(self):
        solset = AffineSolutionSet(0, (F(1), F(2)), ())
        assert strictly_positive_point(solset) == (F(1), F(2))

    def test_dimension_zero_not_positive(self):
        solset = AffineSolutionSet(0, (F(1), F(0)), ())
        assert strictly_positive_point(solset) is None
        assert strictly_positive_point(solset, positive=(0,)) == (F(1), F(0))

    def test_default_mask_covers_all_coordinates(self):
        # the mask must span the ambient space, not the solution dimension
        solset = subspace(2, [(F(1), F(-1))])
        assert strictly_positive_point(solset) is None

    def test_line_with_window(self):
        # x = (0,0) + t(1,1): any t > 0 works
        solset = subspace(2, [(F(1), F(1))])
        point = strictly_positive_point(solset)
        assert point is not None and all(c > 0 for c in point)

    def test_line_with_empty_window(self):
        # x = (1,-1) + t(1,1): coordinate signs can never agree strictly
        solset = AffineSolutionSet(1, (F(1), F(-1)), ((F(1), F(-1)),))
        assert strictly_positive_point(solset) is None

    def test_line_bounded_window(self):
        # x = (1,0) + t(-1,1): strictly positive iff 0 < t < 1
        solset = AffineSolutionSet(1, (F(1), F(0)), ((F(-1), F(1)),))
        point = strictly_positive_point(solset)
        assert point is not None
        assert all(c > 0 for c in point) and sum(point) == 1

    def test_boundary_only_is_rejected(self):
        # x1 + x2 = 0 kernel: only the origin is nonnegative
        sol = solve_affine([(F(1), F(1), F(0))], (F(0),), 3)
        point = strictly_positive_point(sol, positive=(0, 1))
        assert point is None

    def test_higher_dimensional_positive(self):
        sol = solve_affine([(F(1), F(1), F(1), F(1))], (F(2),), 4)
        point = strictly_positive_point(sol)
        assert point is not None
        assert all(c > 0 for c in point) and sum(point) == 2

    def test_forced_zero_coordinate(self):
        # x1 = 0 forced; positive demanded on all coordinates
        rows = [(F(1), F(0), F(0)), (F(0), F(1), F(1))]
        sol = solve_affine(rows, (F(0), F(1)), 3)
        assert strictly_positive_point(sol) is None
        masked = strictly_positive_point(sol, positive=(1, 2))
        assert masked is not None and masked[0] == 0

    def test_guaranteed_positive_point_found(self):
        rng = random.Random(29)
        for _ in range(40):
            n = rng.randint(2, 5)
            x0 = tuple(F(rng.randint(1, 4), rng.randint(1, 3))
                       for _ in range(n))
            m = rng.randint(1, n - 1)
            rows = [tuple(F(rng.randint(-3, 3)) for _ in range(n))
                    for _ in range(m)]
            rhs = tuple(dot(r, x0) for r in rows)
            sol = solve_affine(rows, rhs, n)
            point = strictly_positive_point(sol)
            assert point is not None, "a positive solution exists by construction"
            assert all(c > 0 for c in point)
            assert all(dot(r, point) == b for r, b in zip(rows, rhs))

    def test_subspace_agreement_with_vertex_oracle(self):
        rng = random.Random(31)
        agree_positive = 0
        for _ in range(120):
            n = rng.randint(2, 5)
            m = rng.randint(1, n)
            rows = [tuple(F(rng.randint(-2, 2)) for _ in range(n))
                    for _ in range(m)]
            kern = kernel_basis(rows, ncols=n)
            solset = subspace(n, kern)
            got = strictly_positive_point(solset)
            expected = subspace_positive_point_exists(solset)
            assert (got is not None) == expected
            if got is not None:
                agree_positive += 1
                assert all(c > 0 for c in got)
                assert all(dot(r, got) == 0 for r in rows)
        assert agree_positive > 0, "the sample must exercise both outcomes"
