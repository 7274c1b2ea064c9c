"""Minimal zero enumeration: supports, coordinates, minimality."""

import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from copocert import cli
from copocert.census import Candidate
from copocert.copositivity import is_copositive
from copocert.errors import NotCopositiveError
from copocert.linalg import SymMatrix, eval_quadratic, horn_matrix, kernel_basis
from copocert.zeros import minimal_zeros

from oracles import (
    all_ones,
    benchmark_families,
    fraction_rows,
    identity,
    kernel_minimal_supports,
    matrix_apply,
    principal,
    random_positive_diagonal,
    random_symmetric,
    rank_one,
    zero_from_coordinates,
    zero_with_support,
)

F = Fraction
FIXTURES = Path(__file__).parent / "fixtures"


def supports_of(zeros):
    return sorted(z.support for z in zeros)


class TestZeroType:
    def test_from_coordinates_normalizes(self):
        z = zero_from_coordinates((F(2), F(2), F(0)))
        assert z.point == (1, 1, 0)
        assert z.coordinates == (F(1, 2), F(1, 2), F(0))
        assert z.support == (0, 1)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            zero_from_coordinates((F(1), F(-1)))

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            zero_from_coordinates((F(0), F(0)))


class TestMinimalZeros:
    def test_pair_instance(self):
        A = SymMatrix.from_rows([[1, -1], [-1, 1]])
        zl = minimal_zeros(A)
        assert len(zl) == 1
        assert zl[0].coordinates == (F(1, 2), F(1, 2))
        assert zl[0].support == (0, 1)

    def test_horn_cycle(self):
        zl = minimal_zeros(horn_matrix())
        assert supports_of(zl) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
        for z in zl:
            i, j = z.support
            assert z.coordinates[i] == z.coordinates[j] == F(1, 2)

    def test_no_zeros_identity_and_all_ones(self):
        for n in (1, 2, 3):
            assert len(minimal_zeros(identity(n))) == 0
            assert len(minimal_zeros(all_ones(n))) == 0

    def test_rank_one_mixed_sign(self):
        A = rank_one((F(1), F(-2), F(1)))
        zl = minimal_zeros(A)
        assert supports_of(zl) == [(0, 1), (1, 2)]
        coords = {z.support: z.coordinates for z in zl}
        assert coords[(0, 1)] == (F(2, 3), F(1, 3), F(0))
        assert coords[(1, 2)] == (F(0), F(1, 3), F(2, 3))

    def test_singleton_support(self):
        A = SymMatrix.from_rows([[1, 0], [0, 0]])
        zl = minimal_zeros(A)
        assert supports_of(zl) == [(1,)]
        assert zl[0].coordinates == (F(0), F(1))

    def test_zero_matrix_has_singleton_zeros(self):
        A = SymMatrix.from_rows([[0, 0], [0, 0]])
        assert supports_of(minimal_zeros(A)) == [(0,), (1,)]

    def test_triple_support(self):
        # PSD with one-dimensional kernel spanned by the all-ones vector
        A = SymMatrix.from_rows([[1, F(-1, 2), F(-1, 2)],
                                 [F(-1, 2), 1, F(-1, 2)],
                                 [F(-1, 2), F(-1, 2), 1]])
        zl = minimal_zeros(A)
        assert supports_of(zl) == [(0, 1, 2)]
        assert zl[0].coordinates == (F(1, 3), F(1, 3), F(1, 3))

    def test_gate_rejects_noncopositive(self):
        with pytest.raises(NotCopositiveError) as err:
            minimal_zeros(SymMatrix.from_rows([[0, -1], [-1, 0]]))
        assert err.value.violator is not None

    def test_antichain_and_invariants(self):
        rng = random.Random(59)
        interesting = 0
        for _ in range(40):
            n = rng.randint(2, 4)
            A = random_symmetric(rng, n, diag_range=(0, 4))
            try:
                zl = minimal_zeros(A)
            except NotCopositiveError:
                continue
            if len(zl):
                interesting += 1
            seen = set()
            for z in zl:
                assert all(type(x) is int and x >= 0 for x in z.point)
                assert len(z.point) == n and gcd(*z.point) == 1
                assert z.support == tuple(
                    i for i, x in enumerate(z.point) if x)
                assert z.coordinates == tuple(
                    F(x, sum(z.point)) for x in z.point)
                assert eval_quadratic(A, z.coordinates) == 0
                assert all(matrix_apply(A, z.coordinates)[k] >= 0 for k in range(n))
                assert sum(z.coordinates) == 1
                assert z.support == tuple(
                    i for i, c in enumerate(z.coordinates) if c > 0)
                assert z.support not in seen
                seen.add(z.support)
            for a in zl:
                for b in zl:
                    if a is not b:
                        assert not set(a.support) < set(b.support)
        assert interesting > 0

    def test_scaling_transports_supports(self):
        rng = random.Random(61)
        A = horn_matrix()
        d = random_positive_diagonal(rng, 5)
        B = SymMatrix.from_rows(
            [[d[i] * A.get(i, j) * d[j] for j in range(5)] for i in range(5)])
        assert supports_of(minimal_zeros(B)) == supports_of(minimal_zeros(A))


class TestZerosWithSupport:
    """The kernel oracle that the cross-check below compares against."""

    def test_present_support(self):
        z = zero_with_support(horn_matrix(), (0, 1))
        assert z is not None and z.coordinates == (F(1, 2), F(1, 2), 0, 0, 0)

    def test_absent_support(self):
        assert zero_with_support(horn_matrix(), (0, 2)) is None

    def test_non_minimal_support_still_answers(self):
        # the query is per-support and does not impose minimality
        A = SymMatrix.from_rows([[0, 0], [0, 0]])
        z = zero_with_support(A, (0, 1))
        assert z is not None and z.support == (0, 1)

    def test_validates_support(self):
        with pytest.raises(ValueError):
            zero_with_support(horn_matrix(), ())
        with pytest.raises(ValueError):
            zero_with_support(horn_matrix(), (0, 9))


def psd_with_wide_zeros(rng, n, rank):
    """B B^T with B of shape n x rank and every column orthogonal to a
    positive w, so w is a zero of full support."""
    w = [F(rng.randint(1, 5)) for _ in range(n)]
    ww = sum(x * x for x in w)
    cols = []
    for _ in range(rank):
        b = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        t = sum(x * y for x, y in zip(b, w)) / ww
        cols.append([x - t * y for x, y in zip(b, w)])
    return SymMatrix.from_rows(
        [[sum(c[i] * c[j] for c in cols) for j in range(n)] for i in range(n)])


class TestKernelCrossCheck:
    """minimal_zeros against the kernel oracle: the supports are the
    inclusion-minimal S where ker A_S meets the open orthant, and each
    zero spans ker A_S."""

    @staticmethod
    def check(A):
        zl = minimal_zeros(A)
        assert supports_of(zl) == sorted(kernel_minimal_supports(A))
        for zero in zl:
            idx = zero.support
            sub = principal(A, idx)
            kernel = kernel_basis(fraction_rows(sub), sub.n)
            assert len(kernel) == 1
            u = [zero.coordinates[i] for i in idx]
            assert all(c == 0 for c in matrix_apply(sub, u))
        return zl

    def test_census_classes(self, census):
        checked = 0
        for n in (1, 2, 3, 4, 5):
            for record in census(n):
                if record.copositive:
                    self.check(Candidate(n, record.canonical_offdiag).matrix())
                    checked += 1
        assert checked == 332

    def test_psd_with_wide_zeros(self):
        rng = random.Random(71)
        wide = 0
        for _ in range(24):
            n = rng.randint(3, 5)
            A = psd_with_wide_zeros(rng, n, rng.randint(max(1, n - 2), n - 1))
            zl = self.check(A)
            wide += any(len(z.support) >= 3 for z in zl)
        assert wide >= 12


class TestPrintedPoint:
    """``zeros`` prints each zero from its integer point: every coordinate
    ``x / sum(point)`` as its ``Fraction`` prints, none built."""

    @staticmethod
    def printed_as_coordinates(zeros):
        for zero in zeros:
            assert cli._point(zero.point) == ",".join(
                map(str, zero.coordinates))
        return len(zeros)

    def test_fixtures_through_the_cli(self, capsys):
        printed = 0
        for path in sorted(FIXTURES.glob("**/*.txt")):
            if "expected" in path.parts:
                continue
            A = cli.parse_matrix_file(path)
            if not is_copositive(A).copositive:
                continue
            zeros = minimal_zeros(A)
            assert cli.main(["zeros", str(path)]) == 0
            out = capsys.readouterr().out
            for k, zero in enumerate(zeros, start=1):
                assert f"zero_{k}=" + ",".join(
                    map(str, zero.coordinates)) in out.splitlines()
            printed += self.printed_as_coordinates(zeros)
        assert printed == 34

    def test_horn_and_benchmark_families(self):
        families = benchmark_families()
        printed = self.printed_as_coordinates(minimal_zeros(horn_matrix()))
        for family in ("dsd", "rank1"):
            for n in (6, 7, 8):
                for seed in (1, 2, 7):
                    case = families.generate(family, n, seed, 0)
                    A = SymMatrix.from_rows(case.matrix)
                    printed += self.printed_as_coordinates(minimal_zeros(A))
        assert printed == 161

    def test_copositive_census_classes(self, census):
        printed = 0
        for n in (1, 2, 3, 4, 5):
            for record in census(n):
                if record.copositive:
                    A = Candidate(n, record.canonical_offdiag).matrix()
                    printed += self.printed_as_coordinates(minimal_zeros(A))
        assert printed == 570
