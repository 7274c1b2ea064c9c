"""Extremality certificates: the minimal-zero linear system and its nullity."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

import copocert.extremality as extremality_mod
from copocert.cli import parse_matrix_file
from copocert.copositivity import is_copositive, minimal_zeros
from copocert.errors import NotCopositiveError
from copocert.extremality import (
    _TwoTermSolutions,
    build_system,
    extremality_certificate,
)
from copocert.linalg import (
    SymMatrix,
    horn_matrix,
    is_proportional,
    kernel_basis,
    upper_size,
)

from oracles import (
    all_ones,
    benchmark_families,
    dot,
    from_upper_entries,
    identity,
    permuted_matrix,
    random_positive_diagonal,
    rank_one,
    upper_entries,
)

F = Fraction
FIXTURES = Path(__file__).parent / "fixtures"


class TestBuildSystem:
    def test_row_count_counts_gates(self):
        A = SymMatrix.from_rows([[1, -1], [-1, 1]])
        system = build_system(A, minimal_zeros(A))
        # one zero, image Au = (0, 0): two gates
        assert len(system) == 2
        assert system.gates == ((0, 0), (0, 1))

    def test_horn_has_twenty_rows(self):
        H = horn_matrix()
        system = build_system(H, minimal_zeros(H))
        assert len(system) == 20

    def test_rows_annihilate_the_matrix(self):
        for A in (horn_matrix(), rank_one((F(1), F(-1), F(1)))):
            system = build_system(A, minimal_zeros(A))
            for row in system.dense_rows():
                assert dot(row, upper_entries(A)) == 0

    def test_rows_are_sparse(self):
        # Horn: one term per support index, columns ascending
        system = build_system(horn_matrix(), minimal_zeros(horn_matrix()))
        assert system.gates[0] == (0, 0)
        assert system.rows[0] == ((0, 1), (1, 1))  # X_11 + X_12 = 0
        assert all(len(row) == 2 for row in system.rows)

    def test_no_zeros_no_rows(self):
        A = identity(3)
        assert len(build_system(A, minimal_zeros(A))) == 0

    def test_rejects_zeros_of_another_order(self):
        # the Horn matrix's zeros have five coordinates, the pair's two
        pair = SymMatrix.from_rows([[1, -1], [-1, 1]])
        with pytest.raises(ValueError, match="order"):
            build_system(pair, minimal_zeros(horn_matrix()))
        with pytest.raises(ValueError, match="order"):
            build_system(horn_matrix(), minimal_zeros(pair))


class TestCertificate:
    def test_pair_extremal(self):
        A = SymMatrix.from_rows([[1, -1], [-1, 1]])
        cert = extremality_certificate(A)
        assert cert.extremal and cert.nullity == 1
        (line,) = kernel_basis(cert.system.dense_rows(), upper_size(2))
        assert is_proportional(line, upper_entries(A))

    def test_identity_and_all_ones_nullities(self):
        for n in (2, 3):
            for A in (identity(n), all_ones(n)):
                cert = extremality_certificate(A)
                assert not cert.extremal
                assert cert.nullity == upper_size(n)

    def test_order_one_extremal(self):
        assert extremality_certificate(SymMatrix.from_rows([[1]])).extremal

    def test_rank_one_mixed_extremal(self):
        cert = extremality_certificate(rank_one((F(1), F(-1), F(1))))
        assert cert.extremal and cert.nullity == 1

    def test_horn_extremal(self):
        cert = extremality_certificate(horn_matrix())
        assert cert.extremal and cert.nullity == 1
        assert len(cert.system) == 20
        assert len(cert.minimal_zeros) == 5

    def test_singleton_zero_extremal(self):
        # [[1,0],[0,0]] forces X_12 = X_22 = 0 via its support-{2} zero
        cert = extremality_certificate(SymMatrix.from_rows([[1, 0], [0, 0]]))
        assert cert.extremal and cert.nullity == 1

    def test_negative_control_nullity_four(self):
        A = SymMatrix.from_rows([[1, -1, 1], [-1, 1, 1], [1, 1, 1]])
        cert = extremality_certificate(A)
        assert cert.nullity == 4 and not cert.extremal

    def test_gate_rejects_noncopositive(self):
        with pytest.raises(NotCopositiveError):
            extremality_certificate(SymMatrix.from_rows([[1, -2], [-2, 1]]))

    def test_zero_reuse_matches(self):
        # the certificate is built on exactly the list minimal_zeros returns
        A = horn_matrix()
        zl = minimal_zeros(A)
        cert = extremality_certificate(A)
        assert cert.minimal_zeros == zl
        assert cert.system == build_system(A, zl)

    def test_basis_solves_the_system(self):
        A = SymMatrix.from_rows([[1, -1, 1], [-1, 1, 1], [1, 1, 1]])
        cert = extremality_certificate(A)
        basis = kernel_basis(cert.system.dense_rows(), upper_size(3))
        assert len(basis) == cert.nullity
        for vector in basis:
            for row in cert.system.dense_rows():
                assert dot(row, vector) == 0

    def test_permutation_invariant_nullity(self, census):
        rng = random.Random(67)
        for record in census(4):
            if not record.copositive:
                continue
            from copocert.census import Candidate
            A = Candidate(4, record.canonical_offdiag).matrix()
            perm = rng.sample(range(4), 4)
            assert extremality_certificate(permuted_matrix(A, perm)).nullity \
                == extremality_certificate(A).nullity


def _assert_nullity_is_kernel_dimension(A: SymMatrix) -> None:
    cert = extremality_certificate(A)
    basis = kernel_basis(cert.system.dense_rows(), upper_size(A.n))
    assert cert.nullity == len(basis), A
    assert cert.extremal == (len(basis) == 1), A


class TestNullityFromPivots:
    """The pivot-count nullity against the full kernel basis."""

    def test_every_copositive_class_up_to_order_5(self, census):
        from copocert.census import Candidate
        checked = 0
        for n in range(1, 6):
            for record in census(n):
                if record.copositive:
                    _assert_nullity_is_kernel_dimension(
                        Candidate(n, record.canonical_offdiag).matrix())
                    checked += 1
        assert checked == 1 + 3 + 8 + 41 + 279

    def test_scaled_patterns_psd_plus_nonnegative_and_rank_one(self, census):
        # D S D, B B^T + N and v v^T, as in the benchmark's matrix families
        from copocert.census import Candidate
        rng = random.Random(97)
        patterns = [r for r in census(5) if r.copositive]
        for record in rng.sample(patterns, 20):
            S = Candidate(5, record.canonical_offdiag).matrix()
            d = random_positive_diagonal(rng, 5)
            _assert_nullity_is_kernel_dimension(SymMatrix.from_rows(
                [[d[i] * S.get(i, j) * d[j] for j in range(5)]
                 for i in range(5)]))
        for n in (4, 5, 6):
            B = [[F(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(n)]
                 for _ in range(n)]
            N = [[F(rng.randint(0, 3), rng.randint(1, 4)) for _ in range(n)]
                 for _ in range(n)]
            _assert_nullity_is_kernel_dimension(SymMatrix.from_rows(
                [[sum(B[i][t] * B[j][t] for t in range(n))
                  + N[min(i, j)][max(i, j)] + (i == j) for j in range(n)]
                 for i in range(n)]))
        for n in (4, 5, 6, 7):
            v = [(-1) ** i * F(rng.randint(1, 9), rng.randint(1, 9))
                 for i in range(n)]
            _assert_nullity_is_kernel_dimension(rank_one(v))


class TestDecompositionWitness:
    def test_nonextremal_records_decompose(self, census):
        """Nullity >= 2 comes with an explicit split into two copositive
        summands, neither proportional to the input."""
        from copocert.census import Candidate
        checked = 0
        for record in census(4):
            if not record.copositive or record.extremal or checked >= 15:
                continue
            A = Candidate(4, record.canonical_offdiag).matrix()
            cert = extremality_certificate(A)
            assert cert.nullity >= 2
            a = upper_entries(A)
            direction = next(
                (v for v in kernel_basis(cert.system.dense_rows(),
                                         upper_size(4))
                 if not is_proportional(v, a)), None)
            assert direction is not None
            eps = F(1)
            for _ in range(40):
                plus = from_upper_entries(
                    A.n, [x + eps * y for x, y in zip(a, direction)])
                minus = from_upper_entries(
                    A.n, [x - eps * y for x, y in zip(a, direction)])
                if is_copositive(plus).copositive and \
                        is_copositive(minus).copositive:
                    break
                eps /= 2
            else:
                pytest.fail("no copositive perturbation window found")
            assert not is_proportional(upper_entries(plus), a)
            assert not is_proportional(upper_entries(minus), a)
            total = tuple(p + m for p, m in
                          zip(upper_entries(plus), upper_entries(minus)))
            assert total == tuple(2 * x for x in a)
            checked += 1
        assert checked >= 5


def _paths_agree(A: SymMatrix) -> int:
    """The union-find count against the elimination on A's system."""
    cert = extremality_certificate(A)
    ncols = upper_size(A.n)
    assert all(len(row) <= 2 for row in cert.system.rows), A
    fast = _TwoTermSolutions(cert.system.rows, ncols)
    dense = cert.system.dense_rows()
    slow = kernel_basis(dense, ncols)
    assert fast.nullity == len(slow) == cert.nullity, A
    basis = fast.kernel()
    assert len(basis) == fast.nullity, A
    assert all(dot(row, v) == 0 for v in basis for row in dense), A
    if fast.nullity == 1:
        assert basis == slow, A
    return fast.nullity


class TestTwoTermNullity:
    """The union-find nullity of pair and singleton systems against
    ``kernel_basis``: the same nullity, a basis of solutions, and for nullity 1
    the same canonical kernel vector."""

    def test_every_copositive_class_up_to_order_5(self, census):
        from copocert.census import Candidate
        nullities = []
        for n in range(1, 6):
            for record in census(n):
                if record.copositive:
                    nullities.append(_paths_agree(
                        Candidate(n, record.canonical_offdiag).matrix()))
        assert len(nullities) == 1 + 3 + 8 + 41 + 279
        assert 1 in nullities and max(nullities) > 1

    @pytest.mark.parametrize("family", ["rank1", "dsd"])
    def test_seeded_benchmark_families(self, family):
        families = benchmark_families()
        for n in range(3, 8):
            for index in range(3):
                case = families.generate(family, n, 41, index)
                nullity = _paths_agree(SymMatrix.from_rows(case.matrix))
                assert (nullity == 1) == case.extremal

    @pytest.mark.parametrize("rows,nullity", [
        ([[0, 1], [1, 0]], 1),
        ([[1, 0, 0], [0, 0, 0], [0, 0, 1]], 3),
        ([[0] * 3] * 3, 0),
    ])
    def test_singleton_zeros(self, rows, nullity):
        # a singleton zero e_i fires single-term rows X_ik = 0
        A = SymMatrix.from_rows(rows)
        assert any(len(z.support) == 1 for z in minimal_zeros(A))
        assert _paths_agree(A) == nullity

    def test_cycle_with_disagreeing_ratios(self):
        # x0 = x1, x1 = x2 and x0 = -2 x2 force the first component to 0
        rows = [((0, 1), (1, -1)), ((1, 1), (2, -1)), ((0, 1), (2, 2))]
        dense = [(1, -1, 0, 0), (0, 1, -1, 0), (1, 0, 2, 0)]
        fast = _TwoTermSolutions(rows, 4)
        assert fast.nullity == len(kernel_basis(dense, 4)) == 1
        assert fast.kernel() == [(F(0), F(0), F(0), F(1))]

    def test_longer_rows_are_eliminated(self, monkeypatch):
        # Hildebrand's T has minimal zeros on triples: three-term rows
        calls = []
        real = extremality_mod.kernel_basis

        def counting(rows, ncols):
            calls.append(ncols)
            return real(rows, ncols)

        monkeypatch.setattr(extremality_mod, "kernel_basis", counting)
        for name in ("hildebrand_equal", "hildebrand_mixed"):
            A = parse_matrix_file(str(FIXTURES / f"{name}.txt"))
            cert = extremality_certificate(A)
            assert cert.extremal
            assert max(map(len, cert.system.rows)) == 3
        assert calls == [15, 15]
        calls.clear()
        assert extremality_certificate(horn_matrix()).extremal
        assert not calls
