"""Hildebrand's T-matrices: extremal, with minimal zeros of support 3.

T(psi) (Hildebrand, Linear Algebra Appl. 437, 2012) is built exactly in
``oracles.hildebrand_t`` from rational ``t_i = tan(psi_i / 2)``.  These are
the inputs on which the paper's equivalence holds with both predicates
false: T is extremal, but its minimal zeros sit on the five cyclic triples,
so they are not pairs and T is no diagonal scaling of a {-1, 0, 1} pattern.
On each triple S the principal submatrix A_S is singular (the zero spans
its kernel, with multiplier 0) while the support system is not.  With
t_i = 2/5, sum(psi) > pi and T is not copositive.

The last tests run the paper's theorem over Hildebrand's classification of
the extreme rays of the 5x5 copositive cone with positive diagonal, up to
permutation and positive diagonal scaling: rank-one x x^T, the Horn orbit
and T(psi).  Each draw is permuted and scaled by rational factors.
"""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from copocert.census import verify_pair_scaling_equivalence
from copocert.cli import main, parse_matrix_file
from copocert.copositivity import is_copositive
from copocert.extremality import extremality_certificate
from copocert.linalg import SymMatrix, horn_matrix, kernel_basis, solve_affine
from copocert.scaling import DiagonalScaling, scale

from oracles import hildebrand_t, permuted_matrix, rational_support_system

F = Fraction
FIXTURES = Path(__file__).parent / "fixtures"

# the t of each fixture file in tests/fixtures
FIXTURE_TS = {
    "hildebrand_equal": [F(1, 5)] * 5,
    "hildebrand_mixed": [F(1, 4), F(1, 5), F(1, 6), F(1, 7), F(1, 3)],
    "hildebrand_noncopositive": [F(2, 5)] * 5,
}
TRIPLES = {(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 4), (0, 1, 4)}


def machine(capsys, argv):
    code = main(argv)
    lines = capsys.readouterr().out.splitlines()
    body = lines[lines.index("[machine]") + 1:lines.index("[human]")]
    return code, dict(line.split("=", 1) for line in body)


@pytest.mark.parametrize("name,ts", FIXTURE_TS.items())
def test_fixtures_are_the_construction(name, ts):
    assert parse_matrix_file(str(FIXTURES / f"{name}.txt")) == hildebrand_t(ts)


@pytest.mark.parametrize("ts", [FIXTURE_TS["hildebrand_equal"],
                                FIXTURE_TS["hildebrand_mixed"], [F(1, 10)] * 5])
def test_extremal_with_triple_supports(ts):
    A = hildebrand_t(ts)
    cert = extremality_certificate(A)
    assert cert.nullity == 1 and cert.extremal
    assert {z.support for z in cert.minimal_zeros} == TRIPLES
    for support in TRIPLES:
        sub = A.principal(support)
        assert len(kernel_basis(sub.rows(), 3)) == 1  # A_S is singular
        sol = solve_affine(*rational_support_system(A, support), 4)
        assert sol.dimension == 0 and sol.particular[3] == 0  # mu = 0


@pytest.mark.parametrize("name", ["hildebrand_equal", "hildebrand_mixed"])
def test_cli_verdicts(capsys, name):
    path = str(FIXTURES / f"{name}.txt")
    code, mach = machine(capsys, ["verify", path])
    assert code == 0
    assert mach["supports"] == "1,2,3;1,2,5;1,4,5;2,3,4;3,4,5"
    assert (mach["pair_supports"], mach["scaled_extremal_pattern"],
            mach["equivalent"]) == ("no", "no", "yes")
    assert machine(capsys, ["graph", path]) == (1, {
        "command": "graph", "error": "SupportCardinalityNotTwo",
        "message": "support (1, 2, 3) has cardinality 3, expected 2"})
    code, mach = machine(capsys, ["normalize", path])
    assert code == 1 and mach["error"] == "ScalingConditionFails"


def test_beyond_pi_is_not_copositive(capsys):
    verdict = is_copositive(hildebrand_t(FIXTURE_TS["hildebrand_noncopositive"]))
    assert not verdict.copositive
    assert verdict.simplex_minimum == F(-236, 7569)
    code, mach = machine(capsys, ["check", str(
        FIXTURES / "hildebrand_noncopositive.txt")])
    assert code == 1 and mach["simplex_minimum"] == "-236/7569"


scalings = st.lists(st.fractions(min_value=F(1, 6), max_value=6,
                                 max_denominator=6),
                    min_size=5, max_size=5).map(DiagonalScaling)
permutations = st.permutations(range(5))


def orbit_point(A, D, perm):
    return permuted_matrix(scale(A, D), perm)


def assert_pair_supported_extremal(B):
    report = verify_pair_scaling_equivalence(B)
    assert report.equivalent
    assert report.pair_supports and report.scaled_extremal_pattern


@given(scalings, permutations)
@settings(max_examples=40, deadline=None)
def test_horn_orbit(D, perm):
    assert_pair_supported_extremal(orbit_point(horn_matrix(), D, perm))


@given(st.lists(st.fractions(min_value=F(1, 6), max_value=6,
                             max_denominator=6), min_size=5, max_size=5),
       st.lists(st.booleans(), min_size=5, max_size=5).filter(
           lambda signs: any(signs) and not all(signs)),
       scalings, permutations)
@settings(max_examples=40, deadline=None)
def test_rank_one_of_mixed_sign(magnitudes, signs, D, perm):
    x = [-m if negative else m for m, negative in zip(magnitudes, signs)]
    assert_pair_supported_extremal(orbit_point(SymMatrix.rank_one(x), D, perm))


def _real_part_of_product(ts):
    """Re prod (1 + i t_k), exactly: positive iff sum(psi) < pi when every
    psi_k = 2 atan(t_k) lies in (0, pi/2), negative iff sum(psi) > pi."""
    re, im = Fraction(1), Fraction(0)
    for t in ts:
        re, im = re - im * t, im + re * t
    return re


@given(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=10)
                .filter(lambda t: 0 < t < 1), min_size=5, max_size=5),
       scalings, permutations)
@example(FIXTURE_TS["hildebrand_mixed"], DiagonalScaling((F(1),) * 5),
         (0, 1, 2, 3, 4))
@example(FIXTURE_TS["hildebrand_noncopositive"],
         DiagonalScaling((F(1),) * 5), (0, 1, 2, 3, 4))
@settings(max_examples=60, deadline=None)
def test_hildebrand_t_family(ts, D, perm):
    re = _real_part_of_product(ts)
    assume(re != 0)
    B = orbit_point(hildebrand_t(ts), D, perm)
    if re > 0:  # sum(psi) < pi: extremal, minimal zeros on triples
        report = verify_pair_scaling_equivalence(B)
        assert report.equivalent
        assert not report.pair_supports and not report.scaled_extremal_pattern
    else:
        assert is_copositive(B).copositive is False


def test_real_part_of_product_decides_the_angle_sum():
    assert _real_part_of_product(FIXTURE_TS["hildebrand_mixed"]) > 0
    assert _real_part_of_product(FIXTURE_TS["hildebrand_noncopositive"]) < 0
    # psi = (pi/2, pi/2, 0, 0, 0) sums to pi exactly
    assert _real_part_of_product([1, 1, 0, 0, 0]) == 0
