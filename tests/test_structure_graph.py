"""Entry graph construction, two-coloring, and pattern reconstruction."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from copocert.census import Candidate
from copocert.cli import parse_matrix_file
from copocert.errors import (
    AmbiguousPatternError,
    CopocertError,
    InconsistentDiagonalError,
    NotUnitDiagonalError,
    SupportCardinalityError,
)
from copocert.extremality import extremality_certificate
from copocert.linalg import SymMatrix, horn_matrix, upper_size
from copocert.structure_graph import (
    ComponentReport,
    GraphComponent,
    StructureGraph,
    build_graph,
    component_analysis,
    reconstruct_pattern,
    to_dot,
)
from copocert.zeros import minimal_zeros

from oracles import (
    bfs_component_analysis,
    fraction_build_graph,
    identity,
    rank_one,
)

F = Fraction
FIXTURES = Path(__file__).parent / "fixtures"

PAIR = SymMatrix.from_rows([[1, -1], [-1, 1]])


def analyse(A):
    graph = build_graph(A, minimal_zeros(A))
    return graph, component_analysis(graph)


class TestBuildGraph:
    def test_pair_instance_is_path(self):
        graph, _ = analyse(PAIR)
        assert graph.edges == ((((0, 0)), (0, 1)), ((0, 1), (1, 1)))

    def test_rank_one_six_edges(self):
        A = rank_one((F(1), F(-1), F(1)))
        graph, report = analyse(A)
        assert len(graph.edges) == 6
        assert len(report.components) == 1

    def test_horn_covers_all_vertices(self):
        graph, report = analyse(horn_matrix())
        assert len(graph.edges) == 20
        assert len(report.components) == 1
        assert len(report.components[0].vertices) == 15

    def test_requires_unit_diagonal(self):
        A = rank_one((F(1), F(-2), F(1)))
        with pytest.raises(NotUnitDiagonalError):
            build_graph(A, minimal_zeros(A))

    def test_requires_pair_supports(self):
        A = SymMatrix.from_rows([[1, F(-1, 2), F(-1, 2)],
                                 [F(-1, 2), 1, F(-1, 2)],
                                 [F(-1, 2), F(-1, 2), 1]])
        with pytest.raises(SupportCardinalityError):
            build_graph(A, minimal_zeros(A))

    def test_rejects_mismatched_orders(self):
        with pytest.raises(ValueError):
            build_graph(identity(3), minimal_zeros(PAIR))

    def test_no_zeros_no_edges(self):
        graph, report = analyse(identity(3))
        assert graph.edges == ()
        assert len(report.components) == upper_size(3)
        assert report.bipartite_count == upper_size(3)


class TestComponentAnalysis:
    def test_pair_classes(self):
        _, report = analyse(PAIR)
        comp = report.components[0]
        assert comp.bipartite
        assert comp.classes == (((0, 0), (1, 1)), ((0, 1),))

    def test_rank_one_parity_classes(self):
        _, report = analyse(rank_one((F(1), F(-1), F(1))))
        comp = report.components[0]
        assert set(comp.classes[0]) == {(0, 0), (1, 1), (2, 2), (0, 2)}
        assert set(comp.classes[1]) == {(0, 1), (1, 2)}

    def test_negative_control_four_components(self):
        A = SymMatrix.from_rows([[1, -1, 1], [-1, 1, 1], [1, 1, 1]])
        _, report = analyse(A)
        assert len(report.components) == 4
        assert report.bipartite_count == 4

    def test_odd_cycle_detected(self):
        # hand-built triangle on three entries
        graph = StructureGraph(2, (((0, 0), (0, 1)), ((0, 0), (1, 1)),
                                   ((0, 1), (1, 1))))
        report = component_analysis(graph)
        assert report.bipartite_count == 0
        assert not report.components[0].bipartite
        assert report.components[0].classes is None

    def test_components_sorted_by_smallest_vertex(self):
        A = SymMatrix.from_rows([[1, -1, 1], [-1, 1, 1], [1, 1, 1]])
        _, report = analyse(A)
        heads = [comp.vertices[0] for comp in report.components]
        assert heads == sorted(heads)

    def test_dimension_matches_nullity_small_census(self, census):
        for n in (2, 3):
            for record in census(n):
                if not record.copositive:
                    continue
                if any(len(s) != 2 for s in record.minimal_supports):
                    continue
                A = Candidate(n, record.canonical_offdiag).matrix()
                _, report = analyse(A)
                assert report.bipartite_count == \
                    extremality_certificate(A).nullity


class TestReconstructPattern:
    def test_pair_roundtrip(self):
        _, report = analyse(PAIR)
        assert reconstruct_pattern(report) == PAIR

    def test_horn_roundtrip(self):
        _, report = analyse(horn_matrix())
        assert reconstruct_pattern(report) == horn_matrix()

    def test_ambiguous_on_many_components(self):
        A = SymMatrix.from_rows([[1, -1, 1], [-1, 1, 1], [1, 1, 1]])
        _, report = analyse(A)
        with pytest.raises(AmbiguousPatternError):
            reconstruct_pattern(report)

    def test_inconsistent_diagonal_guard(self):
        # artificial report whose parity classes split the diagonal
        comp = GraphComponent(((0, 0), (0, 1), (1, 1)), True,
                              (((0, 0), (0, 1)), ((1, 1),)))
        report = ComponentReport(2, (comp,), 1)
        with pytest.raises(InconsistentDiagonalError):
            reconstruct_pattern(report)

    def test_census_extremal_records_roundtrip(self, census):
        for n in (3, 4):
            for record in census(n):
                if not record.extremal:
                    continue
                A = Candidate(n, record.canonical_offdiag).matrix()
                _, report = analyse(A)
                assert reconstruct_pattern(report) == A


class TestDotExport:
    def test_dot_node_and_edge_counts(self):
        graph, report = analyse(PAIR)
        dot = to_dot(graph, report)
        assert dot.count("--") == 2
        assert dot.count("[component=") == 3
        assert '"X1_1"' in dot and '"X2_2"' in dot

    def test_dot_marks_nonbipartite_parity(self):
        graph = StructureGraph(2, (((0, 0), (0, 1)), ((0, 0), (1, 1)),
                                   ((0, 1), (1, 1))))
        dot = to_dot(graph, component_analysis(graph))
        assert 'parity="-"' in dot

    def test_dot_deterministic(self):
        graph, report = analyse(horn_matrix())
        assert to_dot(graph, report) == to_dot(graph, report)


class TestAgainstOracles:
    """Edges against the Fraction gate and components against the BFS
    two-colouring (``tests/oracles.py``)."""

    def test_every_copositive_class_up_to_order_5(self, census):
        checked = 0
        for n in range(1, 6):
            for record in census(n):
                if not record.copositive:
                    continue
                A = Candidate(n, record.canonical_offdiag).matrix()
                zeros = minimal_zeros(A)
                graph = build_graph(A, zeros)
                assert graph == fraction_build_graph(A, zeros), A
                assert component_analysis(graph) == \
                    bfs_component_analysis(graph), A
                checked += 1
        assert checked == 332

    @pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.txt")),
                             ids=lambda p: p.stem)
    def test_fixtures(self, path):
        # the same graph, or the same refusal
        A = parse_matrix_file(str(path))

        def outcome(build, analyse):
            try:
                zeros = minimal_zeros(A)
                graph = build(A, zeros)
                return graph, analyse(graph)
            except CopocertError as exc:
                return type(exc)

        assert outcome(build_graph, component_analysis) == \
            outcome(fraction_build_graph, bfs_component_analysis)

    def test_random_graphs(self):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(1, 5)
            vertices = StructureGraph(n, ()).vertices()
            pairs = [(a, b) for k, a in enumerate(vertices)
                     for b in vertices[k + 1:]]
            edges = tuple(sorted(rng.sample(
                pairs, rng.randint(0, min(len(pairs), 2 * n)))))
            graph = StructureGraph(n, edges)
            assert component_analysis(graph) == bfs_component_analysis(graph)
