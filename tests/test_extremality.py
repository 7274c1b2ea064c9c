"""Extremality certificates: the minimal-zero linear system and its nullity."""

import random
from fractions import Fraction

import pytest

from copocert.copositivity import is_copositive
from copocert.errors import NotCopositiveError
from copocert.extremality import build_system, extremality_certificate
from copocert.linalg import (
    SymMatrix,
    dot,
    horn_matrix,
    is_proportional,
    upper_size,
)
from copocert.zeros import minimal_zeros

from oracles import permuted_matrix

F = Fraction


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
        for A in (horn_matrix(), SymMatrix.rank_one((F(1), F(-1), F(1)))):
            system = build_system(A, minimal_zeros(A))
            for row in system.rows:
                assert dot(row, A.upper) == 0

    def test_no_zeros_no_rows(self):
        A = SymMatrix.identity(3)
        assert len(build_system(A, minimal_zeros(A))) == 0


class TestCertificate:
    def test_pair_extremal(self):
        cert = extremality_certificate(SymMatrix.from_rows([[1, -1], [-1, 1]]))
        assert cert.extremal and cert.nullity == 1
        assert is_proportional(cert.basis[0].upper,
                               SymMatrix.from_rows([[1, -1], [-1, 1]]).upper)

    def test_identity_and_all_ones_nullities(self):
        for n in (2, 3):
            for A in (SymMatrix.identity(n), SymMatrix.all_ones(n)):
                cert = extremality_certificate(A)
                assert not cert.extremal
                assert cert.nullity == upper_size(n)

    def test_order_one_extremal(self):
        assert extremality_certificate(SymMatrix.from_rows([[1]])).extremal

    def test_rank_one_mixed_extremal(self):
        cert = extremality_certificate(SymMatrix.rank_one((F(1), F(-1), F(1))))
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
        for basis_matrix in cert.basis:
            for row in cert.system.rows:
                assert dot(row, basis_matrix.upper) == 0

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
            direction = next(
                (b for b in cert.basis
                 if not is_proportional(b.upper, A.upper)), None)
            assert direction is not None
            eps = F(1)
            for _ in range(40):
                plus = SymMatrix(
                    A.n, tuple(a + eps * x
                               for a, x in zip(A.upper, direction.upper)))
                minus = SymMatrix(
                    A.n, tuple(a - eps * x
                               for a, x in zip(A.upper, direction.upper)))
                if is_copositive(plus).copositive and \
                        is_copositive(minus).copositive:
                    break
                eps /= 2
            else:
                pytest.fail("no copositive perturbation window found")
            assert not is_proportional(plus.upper, A.upper)
            assert not is_proportional(minus.upper, A.upper)
            total = tuple(p + m for p, m in zip(plus.upper, minus.upper))
            assert total == tuple(2 * a for a in A.upper)
            checked += 1
        assert checked >= 5
