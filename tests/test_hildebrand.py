"""Hildebrand's T-matrices: extremal, with minimal zeros of support 3.

T(psi) (Hildebrand, Linear Algebra Appl. 437, 2012) is built exactly in
``oracles.hildebrand_t`` from rational ``t_i = tan(psi_i / 2)``.  These are
the inputs on which the paper's equivalence holds with both predicates
false: T is extremal, but its minimal zeros sit on the five cyclic triples,
so they are not pairs and T is no diagonal scaling of a {-1, 0, 1} pattern.
On each triple S the principal submatrix A_S is singular (the zero spans
its kernel, with multiplier 0) while the support system is not.  With
t_i = 2/5, sum(psi) > pi and T is not copositive.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from copocert.cli import main, parse_matrix_file
from copocert.copositivity import is_copositive
from copocert.extremality import extremality_certificate
from copocert.linalg import kernel_basis, solve_affine

from oracles import hildebrand_t, rational_support_system

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
    assert set(cert.minimal_zeros.supports()) == TRIPLES
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
