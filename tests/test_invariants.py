"""Explicit self-checks: each raises InvariantError, also under ``python -O``.

Every check holds on correct code, so each test breaks one collaborator with
monkeypatch (or hands a helper an input its caller never produces) and
asserts that the check fires instead of a wrong answer going through.
"""

import ast
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import copocert.census as census_mod
import copocert.copositivity as copositivity_mod
import copocert.extremality as extremality_mod
import copocert.linalg as linalg_mod
import copocert.lp as lp_mod
import copocert.scaling as scaling_mod
import copocert.structure_graph as structure_graph_mod
from copocert.census import CensusRecord, run_census
from copocert.cli import main
from copocert.copositivity import _support_state, is_copositive
from copocert.errors import CensusInvariantError, CopocertError, InvariantError
from copocert.extremality import (
    ExtremalitySystem,
    _TwoTermSolutions,
    extremality_certificate,
)
from copocert.linalg import (
    AffineSolutionSet,
    SymMatrix,
    _back_substitute,
    horn_matrix,
    kernel_basis,
)
from copocert.lp import simplex_maximize, strictly_positive_point
from copocert.scaling import extract_pattern
from copocert.structure_graph import build_graph
from copocert.zeros import minimal_zeros

from oracles import zero_from_coordinates

F = Fraction
SRC = Path(__file__).resolve().parent.parent / "src" / "copocert"

PAIR = SymMatrix.from_rows([[1, -1], [-1, 1]])
# positive semidefinite with kernel (1, 1, 1): its one minimal zero sits on
# a triple, so its system has three-term rows and is eliminated
TRIPLE = SymMatrix.from_rows([[2, 0, -2], [0, 2, -2], [-2, -2, 4]])


def full_rank(rows, ncols):
    """Stand-in elimination with every column a pivot: nullity 0."""
    return kernel_basis([[int(i == j) for j in range(ncols)]
                         for i in range(ncols)], ncols)


def all_forced(rows, ncols):
    """Stand-in union-find with every unknown forced to 0: nullity 0."""
    return _TwoTermSolutions([[(j, 1)] for j in range(ncols)], ncols)


def test_invariant_error_is_a_copocert_error():
    assert issubclass(InvariantError, CopocertError)
    assert issubclass(CensusInvariantError, InvariantError)
    assert InvariantError.code == "InvariantViolated"


def test_no_assert_that_python_O_strips():
    # pytest rewrites the asserts of test modules and conftest into explicit
    # raises; python -O strips every other assert
    root = Path(__file__).resolve().parent.parent
    helpers = [p for p in (root / "tests").glob("*.py")
               if not p.name.startswith("test_") and p.name != "conftest.py"]
    for path in [*(root / "src" / "copocert").glob("*.py"), *helpers]:
        tree = ast.parse(path.read_text())
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree)), path


def _scopes(node, scope, hit):
    """The scopes under ``node`` (``module.function``) of the nodes for
    which ``hit`` holds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        scope = f"{scope}.{node.name}"
    if hit(node):
        yield scope
    for child in ast.iter_child_nodes(node):
        yield from _scopes(child, scope, hit)


def _outside_linalg(hit):
    return {scope for path in SRC.glob("*.py") if path.name != "linalg.py"
            for scope in _scopes(ast.parse(path.read_text()), path.stem, hit)}


def _entry_read(node):
    """A read of a matrix's ``Fraction`` entries: a two-argument
    ``.get(i, j)`` or a ``.row(`` call."""
    func = node.func if isinstance(node, ast.Call) else None
    return isinstance(func, ast.Attribute) and (
        func.attr == "row" or func.attr == "get" and len(node.args) == 2)


def test_fraction_entries_read_only_where_printed_or_built():
    # every layer reads the integer form A = M / d; outside linalg.py the
    # entries are read only to print a matrix
    assert _outside_linalg(_entry_read) == {"cli._rows"}


def test_matrices_built_only_through_the_constructors():
    # only linalg.py knows how a SymMatrix is stored
    def direct(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "SymMatrix")
    assert _outside_linalg(direct) == set()


def test_library_imports_only_the_standard_library():
    # stdlib-only, as pyproject.toml's empty dependency list says
    foreign = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign.update((path.name, name) for name in names
                           if name.split(".")[0] not in sys.stdlib_module_names)
    assert foreign == set()


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
    """Each check through the union-find (PAIR: two-term rows) and through
    the elimination (TRIPLE: three-term rows)."""

    def test_matrix_violates_its_own_system(self, monkeypatch):
        row = ((0, 1),)  # X_11 = 0, but A_11 = 1
        monkeypatch.setattr(
            extremality_mod, "build_system",
            lambda A, Z: ExtremalitySystem(2, ((0, 0),), (row,)))
        with pytest.raises(InvariantError, match="its own system"):
            extremality_certificate(PAIR)

    def test_matrix_violates_its_own_three_term_system(self, monkeypatch):
        row = ((0, 1), (1, 1), (3, 1))  # X_11 + X_12 + X_22 = 0, A gives 4
        monkeypatch.setattr(
            extremality_mod, "build_system",
            lambda A, Z: ExtremalitySystem(3, ((0, 0),), (row,)))
        with pytest.raises(InvariantError, match="its own system"):
            extremality_certificate(TRIPLE)

    def test_nonzero_matrix_with_trivial_solution_space(self, monkeypatch):
        monkeypatch.setattr(extremality_mod, "kernel_basis", full_rank)
        with pytest.raises(InvariantError, match="own solution space"):
            extremality_certificate(TRIPLE)

    def test_trivial_solution_space_by_union_find(self, monkeypatch):
        monkeypatch.setattr(extremality_mod, "_TwoTermSolutions", all_forced)
        with pytest.raises(InvariantError, match="own solution space"):
            extremality_certificate(PAIR)

    def test_line_not_spanned_by_the_matrix(self, monkeypatch):
        # rows fixing every unknown but X_11 leave the line through e_0
        monkeypatch.setattr(
            extremality_mod, "kernel_basis",
            lambda rows, ncols: kernel_basis(
                [[int(j == i) for j in range(ncols)]
                 for i in range(1, ncols)], ncols))
        with pytest.raises(InvariantError, match="multiple of the matrix"):
            extremality_certificate(TRIPLE)

    def test_line_not_spanned_by_union_find(self, monkeypatch):
        # X_12 = X_22 = 0 leave the line through (1, 0, 0)
        monkeypatch.setattr(
            extremality_mod, "_TwoTermSolutions",
            lambda rows, ncols: _TwoTermSolutions([[(1, 1)], [(2, 1)]], ncols))
        with pytest.raises(InvariantError, match="multiple of the matrix"):
            extremality_certificate(PAIR)

    def test_paths(self, monkeypatch):
        # PAIR and TRIPLE reach the two paths the checks above break
        calls = []

        def counting(name):
            real = getattr(extremality_mod, name)

            def wrapper(rows, ncols):
                calls.append(name)
                return real(rows, ncols)
            return wrapper

        for name in ("_TwoTermSolutions", "kernel_basis"):
            monkeypatch.setattr(extremality_mod, name, counting(name))
        for A, path in ((PAIR, "_TwoTermSolutions"), (TRIPLE, "kernel_basis")):
            calls.clear()
            extremality_certificate(A)
            assert calls == [path]


class TestCensus:
    def test_records_out_of_order(self, monkeypatch):
        # representatives classified in descending order break the sort check
        def backwards(cand, orbit, cache):
            off = tuple(-e for e in cand.offdiag)
            return CensusRecord(cand.order, off, False, False, (), orbit)

        monkeypatch.setattr(census_mod, "_classify", backwards)
        with pytest.raises(CensusInvariantError, match="sorted order"):
            run_census(3)

    def test_refuted_class_without_a_violating_triple(self, monkeypatch):
        # with no witness found, (-1, -1, -1) reaches the exact scan, which
        # refutes it: a contradiction of Hoffman and Pereira's rule
        monkeypatch.setattr(census_mod, "_violating_triple", lambda cand: None)
        with pytest.raises(CensusInvariantError, match="Hoffman and Pereira"):
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


class TestCopositivity:
    def test_stationary_point_off_the_simplex(self, monkeypatch):
        # every support "solved" to the point (1, ..., 1) with D = -1, which
        # sums to 1 only on singletons
        monkeypatch.setattr(
            copositivity_mod, "_support_state",
            lambda M, support, det, first, second:
                (-1, [0] + [-1] * len(support), [1] * len(support)))
        with pytest.raises(InvariantError, match="sum 1"):
            is_copositive(SymMatrix.identity(2))

    def test_support_state_inexact_division(self):
        # on the identity of order 3, X = (0, 1, 2) borders X1 = (0, 1)
        # with its sibling X2 = (0, 2), each with state D = -2,
        # f = (1, -1, -1), v = (1, -1), over S = (0,) with det K_S = -1
        M = SymMatrix.identity(3).integer_form[0]
        pair = (None, -2, [1, -1, -1], [1, -1])
        D, f, v = _support_state(M, (0, 1, 2), -1, pair, pair)
        assert (D, f, v) == (-3, [1, -1, -1, -1], [1, -1, -1])
        # (det K_S, v) = (2, v) is no adjugate pair: the first numerators
        # (-1, 1) of v_X are not multiples of 2
        with pytest.raises(InvariantError, match="bordered recurrence"):
            _support_state(M, (0, 1, 2), 2, pair, pair)
        # nor is (D_X1, v_X1) = (-4, v): v_X is exact, but the numerators
        # (2, -2, 4) of f_X are not multiples of -4
        with pytest.raises(InvariantError, match="bordered recurrence"):
            _support_state(M, (0, 1, 2), -1, (None, -4, [1, -1, -1], [1, -1]),
                           pair)


class TestStructureGraph:
    def test_unbalanced_pair_zero(self):
        zeros = (zero_from_coordinates((F(2), F(1))),)
        with pytest.raises(InvariantError, match="balanced"):
            build_graph(PAIR, zeros)

    def test_equation_relates_an_entry_to_itself(self, monkeypatch):
        # a row X_12 + X_12 = 0, which no pair-supported zero fires
        monkeypatch.setattr(
            structure_graph_mod, "build_system",
            lambda A, Z: ExtremalitySystem(2, ((0, 0),), (((1, 1), (1, 1)),)))
        with pytest.raises(InvariantError, match="itself"):
            build_graph(PAIR, minimal_zeros(PAIR))

    def test_repeated_gate(self):
        # the same zero twice fires every gate twice onto the same edges
        zero = minimal_zeros(PAIR)[0]
        with pytest.raises(InvariantError, match="distinct edges"):
            build_graph(PAIR, (zero, zero))


class TestScaling:
    def test_explicit_scaling_does_not_reproduce(self, monkeypatch):
        monkeypatch.setattr(scaling_mod, "scale", lambda S, D: S)
        A = SymMatrix.from_rows([[1, -2], [-2, 4]])
        with pytest.raises(InvariantError, match="reproduce A"):
            extract_pattern(A)


def test_cli_reports_invariant_violation(monkeypatch, capsys, write_matrix):
    monkeypatch.setattr(extremality_mod, "kernel_basis", full_rank)
    monkeypatch.setattr(extremality_mod, "_TwoTermSolutions", all_forced)
    assert main(["extremal", write_matrix(horn_matrix())]) == 1
    out = capsys.readouterr().out
    assert "error=InvariantViolated" in out
