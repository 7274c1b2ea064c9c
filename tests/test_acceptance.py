"""Acceptance suite: nine timed end-to-end criteria, one pass/fail line each.

Every assertion is exact — all arithmetic is rational, so there are no
tolerances anywhere.  Each criterion prints a single line

    [criterion k] <name>: PASS (<elapsed>s / budget <budget>s)

directly to the terminal (bypassing capture), or the corresponding FAIL line
before the test error propagates.  A criterion also fails when its wall-clock
budget is exceeded.
"""

import random
import time
from fractions import Fraction

import pytest

from copocert.census import Candidate, read_records, \
    verify_pair_scaling_equivalence
from copocert.copositivity import is_copositive, minimal_zeros
from copocert.errors import AmbiguousPatternError
from copocert.extremality import extremality_certificate
from copocert.linalg import SymMatrix, eval_quadratic, horn_matrix, upper_size
from copocert.scaling import (
    DiagonalScaling,
    extract_pattern,
    has_sign_pattern_scaling,
)
from copocert.structure_graph import (
    build_graph,
    component_analysis,
    reconstruct_pattern,
)

from oracles import (
    all_ones,
    bfs_component_analysis,
    canonical_form,
    fraction_build_graph,
    identity,
    random_positive_diagonal,
    random_symmetric,
    rank_one,
    scale,
    subdivision_falsifier,
)

F = Fraction
BASELINE_DIR = "tests/baselines"


class _Criterion:
    def __init__(self, number, name, budget, capsys):
        self.number = number
        self.name = name
        self.budget = budget
        self.capsys = capsys

    def _line(self, verdict, elapsed):
        with self.capsys.disabled():
            print(f"[criterion {self.number}] {self.name}: {verdict} "
                  f"({elapsed:.2f}s / budget {self.budget:.0f}s)", flush=True)

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is not None:
            self._line("FAIL", elapsed)
            return False
        if elapsed >= self.budget:
            self._line("FAIL", elapsed)
            pytest.fail(f"criterion {self.number} exceeded its "
                        f"{self.budget:.0f}s budget ({elapsed:.2f}s)")
        self._line("PASS", elapsed)
        return False


@pytest.fixture
def criterion(capsys):
    def _make(number, name, budget):
        return _Criterion(number, name, budget, capsys)
    return _make


def record_matrix(record) -> SymMatrix:
    return Candidate(record.order, record.canonical_offdiag).matrix()


def extremal_records(census, orders):
    return [r for n in orders for r in census(n) if r.extremal]


def test_criterion_1_worked_instance(criterion):
    with criterion(1, "worked instance", 1.0):
        A = SymMatrix.from_rows([[1, -1], [-1, 1]])
        assert is_copositive(A).copositive
        zeros = minimal_zeros(A)
        assert len(zeros) == 1
        assert zeros[0].coordinates == (F(1, 2), F(1, 2))
        assert tuple(z.support for z in zeros) == ((0, 1),)
        cert = extremality_certificate(A)
        assert cert.nullity == 1 and cert.extremal
        graph = build_graph(A, zeros)
        assert graph.edges == (((0, 0), (0, 1)), ((0, 1), (1, 1)))
        report = component_analysis(graph)
        assert report.bipartite_count == 1
        assert reconstruct_pattern(report) == A


def test_criterion_2_rank_one_patterns(criterion):
    with criterion(2, "rank-one patterns", 1.0):
        A = rank_one((F(1), F(-1), F(1)))
        zeros = minimal_zeros(A)
        assert tuple(z.support for z in zeros) == ((0, 1), (1, 2))
        cert = extremality_certificate(A)
        assert cert.nullity == 1
        report = component_analysis(build_graph(A, zeros))
        assert len(report.components) == 1
        comp = report.components[0]
        assert comp.bipartite and len(comp.vertices) == 6
        assert set(comp.classes[0]) == {(0, 0), (0, 2), (1, 1), (2, 2)}
        assert set(comp.classes[1]) == {(0, 1), (1, 2)}
        assert reconstruct_pattern(report) == A

        B = rank_one((F(1), F(-2), F(1)))
        by_support = {z.support: z for z in minimal_zeros(B)}
        assert by_support[(0, 1)].coordinates == (F(2, 3), F(1, 3), F(0))
        assert has_sign_pattern_scaling(B)
        dec = extract_pattern(B)
        assert dec.explicit
        assert dec.scaling.entries == (F(1), F(2), F(1))
        assert dec.pattern == A


def test_criterion_3_horn_matrix(criterion):
    with criterion(3, "Horn matrix", 5.0):
        H = horn_matrix()
        assert is_copositive(H).copositive
        zeros = minimal_zeros(H)
        assert len(zeros) == 5
        assert {z.support for z in zeros} == \
            {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
        cert = extremality_certificate(H)
        assert len(cert.system) == 20
        assert cert.nullity == 1 and cert.extremal
        report = component_analysis(build_graph(H, zeros))
        assert len(report.components) == 1
        comp = report.components[0]
        assert comp.bipartite and len(comp.vertices) == upper_size(5)
        equivalence = verify_pair_scaling_equivalence(H)
        assert equivalence.pair_supports and equivalence.scaled_extremal_pattern


def test_criterion_4_negative_controls(criterion):
    with criterion(4, "negative controls", 1.0):
        for n in (2, 3):
            for A in (identity(n), all_ones(n)):
                assert len(minimal_zeros(A)) == 0
                cert = extremality_certificate(A)
                assert cert.nullity == upper_size(n)
                assert not cert.extremal
        B = SymMatrix.from_rows([[1, -1, 1], [-1, 1, 1], [1, 1, 1]])
        assert is_copositive(B).copositive
        zeros = minimal_zeros(B)
        assert len(zeros) == 1
        report = component_analysis(build_graph(B, zeros))
        assert len(report.components) == 4
        assert report.bipartite_count == 4
        assert not extremality_certificate(B).extremal
        with pytest.raises(AmbiguousPatternError):
            reconstruct_pattern(report)


def test_criterion_5_graph_dimension_equals_nullity(criterion, census):
    with criterion(5, "graph dimension equals nullity", 60.0):
        checked = 0
        for n in (1, 2, 3, 4):
            for record in census(n):
                if not record.copositive:
                    continue
                if any(len(s) != 2 for s in record.minimal_supports):
                    continue
                A = record_matrix(record)
                cert = extremality_certificate(A)
                graph = build_graph(A, cert.minimal_zeros)
                report = component_analysis(graph)
                # the Fraction gate and the BFS two-colouring, independent
                # of the two-term system both library paths share
                oracle_graph = fraction_build_graph(A, cert.minimal_zeros)
                oracle = bfs_component_analysis(oracle_graph)
                assert oracle.bipartite_count == cert.nullity
                assert (graph, report) == (oracle_graph, oracle)
                checked += 1
        assert checked == sum(
            r.copositive for n in (1, 2, 3, 4) for r in census(n))


def test_criterion_6_pair_supports_census(criterion, census):
    with criterion(6, "pair supports across census", 300.0):
        for n in (1, 2, 3, 4, 5):
            for record in census(n):
                if not record.copositive:
                    continue
                zeros = minimal_zeros(record_matrix(record))
                assert tuple(z.support for z in zeros) == \
                    record.minimal_supports
                for zero in zeros:
                    support = zero.support
                    assert len(support) == 2
                    i, j = support
                    assert zero.coordinates[i] == zero.coordinates[j]


def test_criterion_7_equivalence_across_extremal_census(criterion, census):
    with criterion(7, "equivalence across extremal census", 1800.0):
        for n in (1, 2, 3, 4, 5):
            baseline = read_records(f"{BASELINE_DIR}/census_n{n}.txt")
            assert tuple(baseline) == tuple(census(n))
        pool = extremal_records(census, (1, 2, 3, 4, 5))
        assert [r.order for r in pool].count(5) == 3
        horn_off = tuple(horn_matrix().get(i, j)
                         for i in range(5) for j in range(i + 1, 5))
        canon, _ = canonical_form(Candidate(5, horn_off))
        assert canon.offdiag in {r.canonical_offdiag for r in pool
                                 if r.order == 5}
        for record in pool:
            A = record_matrix(record)
            report = verify_pair_scaling_equivalence(A)
            assert report.pair_supports and report.scaled_extremal_pattern
            zeros = minimal_zeros(A)
            graph_report = component_analysis(build_graph(A, zeros))
            assert reconstruct_pattern(graph_report) == A


def test_criterion_8_scaling_invariance(criterion, census):
    with criterion(8, "scaling invariance", 300.0):
        rng = random.Random(20260823)
        pool = extremal_records(census, (1, 2, 3, 4, 5))
        for _ in range(50):
            record = rng.choice(pool)
            sigma = record_matrix(record)
            D = DiagonalScaling(random_positive_diagonal(rng, record.order))
            A = scale(sigma, D)
            zeros = minimal_zeros(A)
            assert tuple(z.support for z in zeros) == record.minimal_supports
            cert = extremality_certificate(A)
            assert cert.minimal_zeros == zeros
            assert cert.extremal == record.extremal == True
            assert has_sign_pattern_scaling(A)
            dec = extract_pattern(A)
            assert dec.explicit
            assert dec.pattern == sigma
            assert dec.scaling == D


def test_criterion_9_falsifier_cross_validation(criterion):
    with criterion(9, "falsifier cross-validation", 600.0):
        rng = random.Random(97)
        copositive_count = 0
        refuted_count = 0
        for _ in range(1000):
            n = rng.randint(1, 5)
            A = random_symmetric(rng, n)
            verdict = is_copositive(A)
            point = subdivision_falsifier(A, 6)
            if verdict.copositive:
                copositive_count += 1
                assert point is None, \
                    "falsifier found a negative point on a certified matrix"
            else:
                refuted_count += 1
                violator = verdict.violator
                assert violator is not None
                assert all(c >= 0 for c in violator) and any(violator)
                assert eval_quadratic(A, violator) < 0
                if point is not None:
                    assert all(c >= 0 for c in point)
                    assert eval_quadratic(A, point) < 0
        assert copositive_count + refuted_count == 1000
        assert copositive_count > 0 and refuted_count > 0
