"""Explicit self-checks: each raises InvariantError, also under ``python -O``.

Every check holds on correct code, so each test breaks one collaborator with
monkeypatch (or hands a helper an input its caller never produces) and
asserts that the check fires instead of a wrong answer going through.
"""

import ast
import math
import os
import subprocess
import sys
from collections import Counter
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
from copocert.cli import main, parse_matrix_file
from copocert.copositivity import (
    _positive_definite,
    _support_state,
    is_copositive,
    minimal_zeros,
)
from copocert.errors import (
    CensusInvariantError,
    CopocertError,
    InvariantError,
    NotCopositiveError,
)
from copocert.extremality import (
    ExtremalitySystem,
    _TwoTermSolutions,
    extremality_certificate,
)
from copocert.linalg import (
    SymMatrix,
    _back_substitute,
    horn_matrix,
    kernel_basis,
)
from copocert.lp import simplex_maximize, strictly_positive_point
from copocert.scaling import extract_pattern
from copocert.structure_graph import build_graph

from oracles import (
    benchmark_families,
    identity,
    routes_off,
    subspace,
    zero_from_coordinates,
)

F = Fraction
SRC = Path(__file__).resolve().parent.parent / "src" / "copocert"
FIXTURES = Path(__file__).resolve().parent / "fixtures"

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


def _hits(hit, skip=None):
    """The scope of each node of the library, but for the file ``skip``,
    for which ``hit`` holds: one entry per node."""
    return [scope for path in sorted(SRC.glob("*.py")) if path.name != skip
            for scope in _scopes(ast.parse(path.read_text()), path.stem, hit)]


def _outside_linalg(hit):
    return set(_hits(hit, "linalg.py"))


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


def test_order_too_large_error_is_raised_in_one_place():
    # one order gate, in the dispatch, after the prefilter and ahead of
    # every route
    def built(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "OrderTooLargeError")
    assert _hits(built) == ["copositivity._decide"]


def test_only_the_dispatch_reads_the_scan_order_limit():
    def read(node):
        return (isinstance(node, ast.Name) and node.id == "MAX_SCAN_ORDER"
                and isinstance(node.ctx, ast.Load)
                or isinstance(node, ast.Attribute)
                and node.attr == "MAX_SCAN_ORDER")
    assert set(_hits(read)) == {"copositivity._decide"}


def _gate_inputs():
    refute = benchmark_families().generate("refute", 6, 0, (0, 0))
    return [("split_rational",
             parse_matrix_file(FIXTURES / "split_rational.txt")),
            ("horn", horn_matrix()),
            ("refute", SymMatrix.from_rows(refute.matrix))]


@pytest.mark.parametrize("question", [is_copositive, minimal_zeros],
                         ids=["is_copositive", "minimal_zeros"])
def test_each_gate_runs_once_per_question(monkeypatch, question):
    # the pair screen and the components of the negative graph, each once
    # per call; none of these inputs is answered before the scan, which
    # needs both
    counts = Counter()
    for gate in ("_pair_screen", "_negative_components"):
        def counted(M, gate=gate, real=getattr(copositivity_mod, gate)):
            counts[gate] += 1
            return real(M)
        monkeypatch.setattr(copositivity_mod, gate, counted)
    for label, A in _gate_inputs():
        counts.clear()
        try:
            question(A)
        except NotCopositiveError:
            pass
        assert counts == {"_pair_screen": 1, "_negative_components": 1}, label


# defined in the library but used nowhere in it, each with its reason
UNREFERENCED = {
    "linalg.solve_affine": "a benchmark tracer target (perfbench/tracer.py)",
    "linalg.AffineSolutionSet.feasible": "read off solve_affine's result "
                                         "by the tracer",
    "linalg.eval_quadratic": "a benchmark tracer target",
    "lp.strictly_positive_point": "a benchmark tracer target",
    "linalg.horn_matrix": "the README quick start",
    "linalg.SymMatrix.from_rows": "the README quick start",
    "copositivity.Zero.coordinates": "the README quick start",
    "census.read_records": "reads record files for CI and the tests",
}


def _definitions(tree, module):
    """``(scope, kind)`` for each function and class under ``tree``:
    ``"method"`` for a function directly inside a class, ``"name"`` for
    every other definition (module-level or nested in a function)."""
    def walk(node, scope, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
                method = in_class and isinstance(child, ast.FunctionDef)
                yield inner, "method" if method else "name"
                yield from walk(child, inner, isinstance(child, ast.ClassDef))
            else:
                yield from walk(child, scope, in_class)
    return walk(tree, module, False)


def test_library_defines_only_what_it_uses():
    # a function or class that the library never uses is test-only code: it
    # belongs in tests/oracles.py.  A module-level (or nested) definition is
    # used only where its own module loads its name, or where another
    # module imports it by name, so an unrelated local variable or
    # attribute of the same name does not count; a re-export in the
    # package's __init__ is not a use either.  A method is reached
    # through an object whose class the source does not spell out, so it
    # still counts as used wherever any name or attribute in the library
    # bears its name.  Dunder methods are called by Python itself
    loaded = {}  # module -> the names loaded in it
    imported = set()  # (module, name) imported from the module by another
    names = set()  # every name and attribute anywhere in the library
    defined = {}
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        loaded[path.stem] = here = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
                if isinstance(node.ctx, ast.Load):
                    here.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.level == 1 \
                    and node.module and path.stem != "__init__":
                imported |= {(node.module, alias.name) for alias in node.names}
        defined.update(_definitions(tree, path.stem))

    def used(scope, kind):
        module, name = scope.split(".", 1)[0], scope.rsplit(".", 1)[1]
        if kind == "method":
            return name in names
        return name in loaded[module] or (module, name) in imported

    unused = {scope for scope, kind in defined.items()
              if not scope.endswith("__") and not used(scope, kind)}
    assert unused == set(UNREFERENCED)


def _absolute_imports():
    """``(file name, module)`` for every absolute import in the library."""
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                yield from ((path.name, alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                yield path.name, node.module


def test_library_imports_only_the_standard_library():
    # stdlib-only, as pyproject.toml's empty dependency list says
    foreign = {(name, module) for name, module in _absolute_imports()
               if module.split(".")[0] not in sys.stdlib_module_names}
    assert foreign == set()


def test_library_does_not_import_dataclasses():
    # dataclasses loads inspect and execs generated source per class, which
    # was a third of the CLI's start-up; records.record replaces it
    assert {name for name, module in _absolute_imports()
            if module.split(".")[0] == "dataclasses"} == set()


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # in a fresh interpreter, so that nothing imported by pytest counts
    child = ("import sys\n"
             "before = set(sys.modules)\n"
             "import copocert.cli\n"
             "print(' '.join(sorted(set(sys.modules) - before)))\n")
    done = subprocess.run([sys.executable, "-c", child],
                          env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
                          stdout=subprocess.PIPE, text=True, check=True,
                          timeout=60)
    added = set(done.stdout.split())
    assert "copocert.cli" in added
    assert added & {"dataclasses", "inspect"} == set()


class TestLinalg:
    def test_bareiss_inexact_division(self, monkeypatch):
        # a remainder from the two-row update means the elimination is wrong
        monkeypatch.setattr(linalg_mod, "divmod",
                            lambda a, b: (a // b, 1), raising=False)
        with pytest.raises(InvariantError, match="Bareiss division"):
            kernel_basis([[1, 2], [3, 4]], 2)

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
        plane = subspace(3, ((F(1), F(0), F(0)),
                                               (F(0), F(1), F(0))))
        with pytest.raises(InvariantError, match="slack program"):
            strictly_positive_point(plane)

    def test_returned_point_not_positive(self, monkeypatch):
        # claims slack 1/2 but hands back the origin of the plane
        def fake(rows, b, objective):
            return "optimal", tuple([F(0)] * len(objective)), F(-1, 2)

        monkeypatch.setattr(lp_mod, "simplex_maximize", fake)
        plane = subspace(3, ((F(1), F(0), F(0)),
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
        # the last permutation's base-2 place values all set to 1: not a
        # bijection of the positions, so some {0, 1} "orbits" reach into
        # other classes
        chunks, lookups, size, graphs = census_mod._sweep_tables(3)
        last = 32 * (6 - 1)  # the field of the last of the 3! permutations
        mask = ~(0xFFFFFFFF << last)
        broken = [place & mask | 1 << last for place in graphs]
        monkeypatch.setattr(census_mod, "_sweep_tables",
                            lambda n: (chunks, lookups, size, broken))
        with pytest.raises(CensusInvariantError, match="orbit sizes sum"):
            run_census(3)


class TestCopositivity:
    def test_stationary_point_off_the_simplex(self, monkeypatch):
        # every support "solved" to the point (1, ..., 1) with D = -1, which
        # sums to 1 only on singletons; f[0] = 1 gives each singleton its
        # true value M_ii = 1, so only the sum is wrong.  The convex route,
        # which would answer the identity without a scan, is off
        monkeypatch.setattr(
            copositivity_mod, "_support_state",
            lambda M, support, det, first, second:
                (-1, [1] + [-1] * len(support), [1] * len(support)))
        with routes_off("convex"), \
                pytest.raises(InvariantError, match="sum 1"):
            is_copositive(identity(2))

    @pytest.mark.parametrize("rows, delta", [
        # the zero (1/2, 1/2) of PAIR, claimed negative, or positive and
        # then the minimum
        ([[1, -1], [-1, 1]], -1),
        ([[1, -1], [-1, 1]], 1),
        # the identity's point (1/2, 1/2), of value 1/2, claimed a zero
        ([[1, 0], [0, 1]], -1),
        # the violator (1/2, 1/2), of value -1/2, claimed lower
        ([[1, -2], [-2, 1]], -1),
        # the positive minimum 6/5 at (3/5, 2/5), claimed to be 1
        ([[2, 0], [0, 3]], -1),
    ], ids=["zero-negative", "zero-positive", "false-zero", "violator",
            "positive-minimum"])
    def test_stationary_value_not_attained(self, monkeypatch, rows, delta):
        # f[0] of the pair (0, 1) off by delta: the value read off it is
        # not the value at the point read off f[1:].  The convex route,
        # which would answer the identity and diag(2, 3), is off
        real = copositivity_mod._support_state

        def corrupted(M, support, *args):
            D, f, v = real(M, support, *args)
            if support == (0, 1):
                f = [f[0] + delta, *f[1:]]
            return D, f, v

        monkeypatch.setattr(copositivity_mod, "_support_state", corrupted)
        with routes_off("convex"), \
                pytest.raises(InvariantError, match="attained at its point"):
            is_copositive(SymMatrix.from_rows(rows))

    def test_active_set_iteration_cap(self, monkeypatch):
        # a face "minimizer" negative at the first index of every pair: on
        # diag(1, 2) the active set drops index 0, lets it in again at e_1,
        # where (M x)_0 = 0 < 2, and drops it again, forever.  The cap is
        # n 2^n = 8 steps; past 1000 there is none
        calls = []

        def cycling(M, support):
            calls.append(tuple(support))
            if len(calls) > 1000:
                raise AssertionError("the active set has no iteration cap")
            return [1] if len(support) == 1 else [-1, 2], 1

        monkeypatch.setattr(copositivity_mod, "_face_minimizer", cycling)
        with pytest.raises(InvariantError, match="n 2\\^n steps"):
            is_copositive(SymMatrix.from_rows([[1, 0], [0, 2]]))
        assert calls == [(0, 1), (1,)] * 4 + [(0, 1)]

    @pytest.mark.parametrize("point, match", [
        # off the simplex: a negative coordinate, and a sum that is not Q
        (([2, -1], 1), "lie on the simplex"),
        (([1, 1], 3), "lie on the simplex"),
        # on it, but (M x)_1 = 2 > (M x)_0 = 1 on the support
        (([1, 1], 2), "KKT conditions"),
        # the vertex e_1, where (M x)_0 = 0 < 2 off the support
        (([0, 1], 1), "KKT conditions"),
    ], ids=["negative", "sum", "support", "off-support"])
    def test_active_set_point_rechecked(self, monkeypatch, point, match):
        monkeypatch.setattr(copositivity_mod, "_convex_minimum",
                            lambda M, rows: point)
        with pytest.raises(InvariantError, match=match):
            is_copositive(SymMatrix.from_rows([[1, 0], [0, 2]]))

    def test_face_of_the_convex_route_not_definite(self):
        # (0, 1) of [[1, 2], [2, 1]] is no conditionally positive definite
        # face, which a face of a gated matrix never is
        M = [[1, 2], [2, 1]]
        assert copositivity_mod._face_minimizer(M, [0, 1]) is None
        with pytest.raises(InvariantError, match="must be one too"):
            copositivity_mod._convex_minimum(M, None)

    def test_face_back_substitution_inexact(self, monkeypatch):
        # "eliminated" rows with R = 3 and y_1 = 1, whose first pivot 2
        # does not divide R c_0 - U_01 y_1 = 3 * 2 - 1, which no elimination
        # of an integer system gives
        monkeypatch.setattr(copositivity_mod, "_eliminate",
                            lambda rows: [[2, 1, 2], [3, 1]])
        with pytest.raises(InvariantError, match="back substitution"):
            copositivity_mod._face_minimizer(identity(3).integer_form[0],
                                             [0, 1, 2])

    def test_support_state_inexact_division(self):
        # on the identity of order 3, X = (0, 1, 2) borders X1 = (0, 1)
        # with its sibling X2 = (0, 2), each with state D = -2,
        # f = (1, -1, -1), v = (1, -1), over S = (0,) with det K_S = -1
        M = identity(3).integer_form[0]
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


    def test_positive_definite_inexact_division(self):
        # an entry that is no integer, which the integer form never holds:
        # the quotient of 1/2 by the first pivot's predecessor 1 floors to 0
        with pytest.raises(InvariantError, match="Bareiss division"):
            _positive_definite([[1, 0], [0, F(1, 2)]])

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
        # the negative root of M_22 d = 4 still squares to it, but flips
        # the sign of D_1 S_12 D_2
        monkeypatch.setattr(scaling_mod, "isqrt",
                            lambda x: -2 if x == 4 else math.isqrt(x))
        A = SymMatrix.from_rows([[1, -2], [-2, 4]])
        with pytest.raises(InvariantError, match="reproduce A"):
            extract_pattern(A)


def test_cli_reports_invariant_violation(monkeypatch, capsys, write_matrix):
    monkeypatch.setattr(extremality_mod, "kernel_basis", full_rank)
    monkeypatch.setattr(extremality_mod, "_TwoTermSolutions", all_forced)
    assert main(["extremal", write_matrix(horn_matrix())]) == 1
    out = capsys.readouterr().out
    assert "error=InvariantViolated" in out
