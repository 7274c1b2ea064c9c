"""Explicit self-checks: each raises InvariantError, also under ``python -O``.

Every check holds on correct code, so each test breaks one collaborator with
monkeypatch (or hands a helper an input its caller never produces) and
asserts that the check fires instead of a wrong answer going through.
"""

from fractions import Fraction

import pytest

import copocert.census as census_mod
import copocert.extremality as extremality_mod
import copocert.linalg as linalg_mod
import copocert.lp as lp_mod
import copocert.scaling as scaling_mod
import copocert.structure_graph as structure_graph_mod
from copocert.census import CensusRecord, run_census
from copocert.cli import main
from copocert.errors import CensusInvariantError, CopocertError, InvariantError
from copocert.extremality import ExtremalitySystem, extremality_certificate
from copocert.linalg import (
    AffineSolutionSet,
    SymMatrix,
    _back_substitute,
    bordered_adjugate,
    echelon,
    horn_matrix,
    kernel_basis,
    upper_size,
)
from copocert.lp import simplex_maximize, strictly_positive_point
from copocert.scaling import extract_pattern
from copocert.structure_graph import build_graph
from copocert.zeros import MinimalZeroList, Zero, minimal_zeros

F = Fraction

PAIR = SymMatrix.from_rows([[1, -1], [-1, 1]])


def full_rank(rows, ncols):
    """Stand-in elimination with every column a pivot: nullity 0."""
    return echelon([[int(i == j) for j in range(ncols)]
                    for i in range(ncols)], ncols)


def test_invariant_error_is_a_copocert_error():
    assert issubclass(InvariantError, CopocertError)
    assert issubclass(CensusInvariantError, InvariantError)
    assert InvariantError.code == "InvariantViolated"


class TestLinalg:
    def test_bareiss_inexact_division(self, monkeypatch):
        # a remainder from the two-row update means the elimination is wrong
        monkeypatch.setattr(linalg_mod, "divmod",
                            lambda a, b: (a // b, 1), raising=False)
        with pytest.raises(InvariantError, match="Bareiss division"):
            kernel_basis([[1, 2], [3, 4]])

    def test_back_substitution_inexact_division(self):
        # not a Bareiss echelon: 3 (the last pivot) times x_0 = 1/2 is no
        # integer, so the exact division check must fire
        ech = [[2, 0, 1], [0, 3, 3]]
        with pytest.raises(InvariantError, match="back-substitution"):
            _back_substitute(ech, [(0, 0), (1, 1)], 2, rhs_col=2)

    def test_bordered_adjugate_inexact_division(self):
        # (I, 2) is no adjugate-determinant pair (adj of I is I, det 1):
        # bordering it with b = (1, 0), c = 0 gives det -1, and the entry
        # (1, 1) of the new adjugate would be (-1 * 1 + 0 * 0) / 2
        with pytest.raises(InvariantError, match="bordered adjugate"):
            bordered_adjugate([[1, 0], [0, 1]], 2, [1, 0], 0)


class TestLP:
    def test_phase_one_not_optimal(self, monkeypatch):
        monkeypatch.setattr(lp_mod, "_optimize",
                            lambda *args: lp_mod._UNBOUNDED)
        with pytest.raises(InvariantError, match="phase-1"):
            simplex_maximize([(1, 1)], (1,), (1, 0))

    def test_slack_program_not_optimal(self, monkeypatch):
        monkeypatch.setattr(lp_mod, "simplex_maximize",
                            lambda rows, b, objective: ("infeasible", None, None))
        plane = AffineSolutionSet.subspace(3, ((F(1), F(0), F(0)),
                                               (F(0), F(1), F(0))))
        with pytest.raises(InvariantError, match="slack program"):
            strictly_positive_point(plane)

    def test_returned_point_not_positive(self, monkeypatch):
        # claims slack 1/2 but hands back the origin of the plane
        def fake(rows, b, objective):
            return "optimal", tuple([F(0)] * len(objective)), F(-1, 2)

        monkeypatch.setattr(lp_mod, "simplex_maximize", fake)
        plane = AffineSolutionSet.subspace(3, ((F(1), F(0), F(0)),
                                               (F(0), F(1), F(0))))
        with pytest.raises(InvariantError, match="strictly positive"):
            strictly_positive_point(plane, positive=(0, 1))


class TestExtremality:
    def test_matrix_violates_its_own_system(self, monkeypatch):
        row = [0] * upper_size(2)
        row[0] = 1  # X_11 = 0, but A_11 = 1
        monkeypatch.setattr(
            extremality_mod, "build_system",
            lambda A, Z: ExtremalitySystem(2, ((0, 0),), (tuple(row),)))
        with pytest.raises(InvariantError, match="its own system"):
            extremality_certificate(PAIR)

    def test_nonzero_matrix_with_trivial_solution_space(self, monkeypatch):
        monkeypatch.setattr(extremality_mod, "echelon", full_rank)
        with pytest.raises(InvariantError, match="own solution space"):
            extremality_certificate(PAIR)

    def test_line_not_spanned_by_the_matrix(self, monkeypatch):
        # the rows X_12 = X_22 = 0 leave the line through (1, 0, 0)
        monkeypatch.setattr(extremality_mod, "echelon",
                            lambda rows, ncols: echelon([[0, 1, 0], [0, 0, 1]],
                                                        ncols))
        with pytest.raises(InvariantError, match="multiple of the matrix"):
            extremality_certificate(PAIR)


class TestCensus:
    def test_records_out_of_order(self, monkeypatch):
        # representatives classified in descending order break the sort check
        def backwards(cand, orbit, cache):
            off = tuple(-e for e in cand.offdiag)
            return CensusRecord(cand.order, off, False, False, (), orbit)

        monkeypatch.setattr(census_mod, "_classify", backwards)
        with pytest.raises(CensusInvariantError, match="sorted order"):
            run_census(3)

    def test_orbits_must_partition_the_candidates(self, monkeypatch):
        # the last permutation's place values all set to 1: not a bijection
        # of the positions, so some "orbits" reach into other classes
        real = census_mod._place_values(3)
        last = 32 * (6 - 1)  # the field of the last of the 3! permutations
        mask = ~(0xFFFFFFFF << last)
        broken = tuple((0, ones & mask | 1 << last, twos & mask | 2 << last)
                       for _, ones, twos in real)
        monkeypatch.setattr(census_mod, "_place_values", lambda n: broken)
        with pytest.raises(CensusInvariantError, match="orbit sizes sum"):
            run_census(3)


class TestStructureGraph:
    def test_unbalanced_pair_zero(self):
        zeros = MinimalZeroList(PAIR, (Zero.from_coordinates((F(2), F(1))),))
        with pytest.raises(InvariantError, match="balanced"):
            build_graph(PAIR, zeros)

    def test_equation_relates_an_entry_to_itself(self, monkeypatch):
        monkeypatch.setattr(structure_graph_mod, "_vertex", lambda i, k: (0, 0))
        with pytest.raises(InvariantError, match="itself"):
            build_graph(PAIR, minimal_zeros(PAIR))

    def test_repeated_gate(self):
        # the same zero twice fires every gate twice onto the same edges
        zero = minimal_zeros(PAIR).zeros[0]
        with pytest.raises(InvariantError, match="distinct edges"):
            build_graph(PAIR, MinimalZeroList(PAIR, (zero, zero)))


class TestScaling:
    def test_explicit_scaling_does_not_reproduce(self, monkeypatch):
        monkeypatch.setattr(scaling_mod, "scale", lambda S, D: S)
        A = SymMatrix.from_rows([[1, -2], [-2, 4]])
        with pytest.raises(InvariantError, match="reproduce A"):
            extract_pattern(A)


def test_cli_reports_invariant_violation(monkeypatch, capsys, write_matrix):
    monkeypatch.setattr(extremality_mod, "echelon", full_rank)
    assert main(["extremal", write_matrix(horn_matrix())]) == 1
    out = capsys.readouterr().out
    assert "error=InvariantViolated" in out
