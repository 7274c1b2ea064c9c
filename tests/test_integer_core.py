"""The integer-native core against the all-``Fraction`` path it replaced.

The copositivity scan builds each support system from ``A = M / d`` as
integer rows ``[M_ij for j in S] + [-d]`` plus the sum row.  That is the
rational system ``A_S u - mu 1 = 0, sum u = 1`` with its first rows
multiplied by ``d``, so the solution set, its particular solution and its
canonical kernel vectors must come out exactly as the rational path
(``oracles.fraction_solve_affine``) computes them, down to the type of
every coordinate.  The checks run over every support of all 792 order-5
census classes and over seeded random rational input.
"""

import itertools
import random
from fractions import Fraction

import pytest

from copocert.census import Candidate, read_records
from copocert.errors import NotCopositiveError
from copocert.extremality import build_system
from copocert.linalg import (
    SymMatrix,
    _primitive_int_row,
    canonical_vector,
    eval_quadratic,
    kernel_basis,
    solve_affine,
    upper_size,
)
from copocert.lp import strictly_positive_point
from copocert.zeros import minimal_zeros

from oracles import (
    fraction_candidates,
    fraction_primitive_int_row,
    fraction_quadratic,
    fraction_solve_affine,
    matrix_apply,
    upper_index,
    random_positive_diagonal,
    random_symmetric,
    rational_support_system,
    scan_visits,
)

F = Fraction
BASELINE = "tests/baselines/census_n5.txt"


def same(a, b):
    """Equal values of equal types, element by element."""
    return a == b and repr(a) == repr(b)


def integer_support_system(A: SymMatrix, support):
    M, d = A.integer_form
    k = len(support)
    rows = [[M[i][j] for j in support] + [-d] for i in support]
    rows.append([1] * k + [0])
    return rows, [0] * k + [1]


def check_every_support(A: SymMatrix, scan: bool):
    """Both paths agree on every support system of A, and on the form value
    at every positive stationary point of a system with a unique solution;
    with ``scan``, ``stationary_candidates`` yields exactly those points and
    values whose support is conditionally positive definite and has only
    such parents (``oracles.scan_visits``)."""
    expected = []
    visits, pd = scan_visits(A)
    visits = set(visits)
    for k in range(1, A.n + 1):
        for support in itertools.combinations(range(A.n), k):
            sol = solve_affine(*integer_support_system(A, support), ncols=k + 1)
            ref = fraction_solve_affine(*rational_support_system(A, support),
                                        k + 1)
            assert same(sol, ref), (A, support)
            if sol.dimension:
                continue
            point = strictly_positive_point(sol, positive=range(k))
            if point is None:
                continue
            x = [F(0)] * A.n
            for v, i in zip(point, support):
                x[i] = v
            value = fraction_quadratic(A, x)
            assert same(eval_quadratic(A, x), value), (A, x)
            if support in visits and pd[support]:
                expected.append((value, tuple(x)))
    if scan:
        assert same(list(fraction_candidates(A)), expected), A


def census_matrices():
    for record in read_records(BASELINE):
        yield Candidate(record.order, record.canonical_offdiag).matrix()


def test_integer_form_of_a_rational_matrix():
    A = SymMatrix.from_rows([[F(1, 2), F(-2, 3)], [F(-2, 3), 3]])
    M, d = A.integer_form
    assert d == 6
    assert M == ((3, -4), (-4, 18))
    assert all(type(v) is int for row in M for v in row)


def test_every_support_of_the_order5_census():
    count = 0
    for A in census_matrices():
        check_every_support(A, scan=False)
        count += 1
    assert count == 792


@pytest.mark.parametrize("seed", range(6))
def test_every_support_of_random_rational_matrices(seed):
    rng = random.Random(1000 + seed)
    for n in (2, 3, 4, 5):
        A = random_symmetric(rng, n, diag_range=(-2, 8), den_range=(1, 7))
        check_every_support(A, scan=True)


def test_random_rational_systems():
    rng = random.Random(2024)
    for _ in range(300):
        m = rng.randint(1, 5)
        n = rng.randint(1, 6)
        rows = [[F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(n)]
                for _ in range(m)]
        if rng.random() < 0.4 and m > 1:
            # a dependent row keeps rank-deficient systems in the mix
            c = F(rng.randint(-3, 3), rng.randint(1, 3))
            rows[-1] = [c * x for x in rows[0]]
        rhs = [F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(m)]
        ref = fraction_solve_affine(rows, rhs, n)
        assert same(solve_affine(rows, rhs, n), ref)
        int_rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        int_rhs = [rng.randint(-6, 6) for _ in range(m)]
        assert same(solve_affine(int_rows, int_rhs, n),
                    fraction_solve_affine(int_rows, int_rhs, n))
        homogeneous = fraction_solve_affine(rows, [0] * m, n)
        assert same(tuple(kernel_basis(rows, n)), homogeneous.kernel)


def test_primitive_rows_read_numerators():
    rng = random.Random(31)
    for _ in range(300):
        row = [F(rng.randint(-9, 9), rng.randint(1, 12))
               for _ in range(rng.randint(1, 7))]
        assert same(_primitive_int_row(row), fraction_primitive_int_row(row))
    assert _primitive_int_row(["1/2", 3, F(-5, 4)]) == [2, 12, -5]


def test_quadratic_form_on_integers():
    rng = random.Random(77)
    for _ in range(200):
        n = rng.randint(1, 6)
        A = random_symmetric(rng, n, diag_range=(-5, 5), den_range=(1, 9))
        x = tuple(F(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(n))
        assert same(eval_quadratic(A, x), fraction_quadratic(A, x))


def fraction_build_rows(A, zeros):
    """Extremality rows as assembled before: dense rational rows, then
    ``canonical_vector``."""
    rows = []
    for zero in zeros:
        image = matrix_apply(A, zero.coordinates)
        for k in range(A.n):
            if image[k] != 0:
                continue
            row = [F(0)] * upper_size(A.n)
            for l, ul in enumerate(zero.coordinates):
                if ul != 0:
                    row[upper_index(A.n, k, l)] += ul
            rows.append(canonical_vector(row))
    return rows


def test_extremality_rows_are_the_canonical_integer_rows():
    # every 7th order-5 class, as is and under a rational diagonal scaling
    rng = random.Random(5)
    checked = 0
    for A in itertools.islice(census_matrices(), 0, None, 7):
        D = random_positive_diagonal(rng, A.n)
        scaled = SymMatrix.from_rows([[D[i] * A.get(i, j) * D[j]
                                       for j in range(A.n)] for i in range(A.n)])
        for B in (A, scaled):
            try:
                zeros = minimal_zeros(B)
            except NotCopositiveError:
                continue
            system = build_system(B, zeros)
            assert list(map(tuple, system.dense_rows())) == \
                fraction_build_rows(B, zeros)
            for row in system.rows:
                # sparse: nonzero integer terms in ascending column order
                columns = [c for c, _ in row]
                assert columns == sorted(set(columns))
                assert all(type(a) is int and a for _, a in row)
            checked += 1
    assert checked > 50
