"""Census enumeration, canonicalization, records, and cross-class checks."""

import math
import random
from fractions import Fraction

import pytest

import copocert.census as census_mod
from copocert import cli
from copocert.census import (
    Candidate,
    CensusRecord,
    read_records,
    run_census,
    verify_pair_scaling_equivalence,
    write_records,
)
from copocert.copositivity import is_copositive
from copocert.errors import NotCopositiveError, NotExtremalError
from copocert.linalg import SymMatrix, eval_quadratic, horn_matrix

from oracles import (
    brute_canonical,
    burnside_class_count,
    canonical_form,
    hoffman_pereira_copositive,
    iterate_candidates,
)

F = Fraction


def horn_candidate():
    H = horn_matrix()
    off = tuple(int(H.get(i, j)) for i in range(5) for j in range(i + 1, 5))
    return Candidate(5, off)


class TestCandidate:
    def test_matrix_roundtrip(self):
        c = Candidate(3, (-1, 0, 1))
        A = c.matrix()
        assert A.rows() == [[1, -1, 0], [-1, 1, 1], [0, 1, 1]]

    def test_validates_length(self):
        with pytest.raises(ValueError):
            Candidate(3, (-1, 0))

    def test_validates_alphabet(self):
        with pytest.raises(ValueError):
            Candidate(2, (2,))


class TestIterateCandidates:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 3), (3, 27), (4, 729)])
    def test_counts(self, n, count):
        assert sum(1 for _ in iterate_candidates(n)) == count

    def test_lexicographic_order(self):
        offs = [c.offdiag for c in iterate_candidates(3)]
        assert offs == sorted(offs)
        assert offs[0] == (-1, -1, -1) and offs[-1] == (1, 1, 1)

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            list(iterate_candidates(0))
        with pytest.raises(ValueError):
            list(iterate_candidates(7))


class TestCanonicalForm:
    def test_single_negative_entry(self):
        canon_a, orbit_a = canonical_form(Candidate(3, (-1, 0, 0)))
        canon_b, orbit_b = canonical_form(Candidate(3, (0, 0, -1)))
        assert canon_a == canon_b
        assert orbit_a == orbit_b == 3

    def test_all_zero_is_fixed(self):
        canon, orbit = canonical_form(Candidate(3, (0, 0, 0)))
        assert canon.offdiag == (0, 0, 0) and orbit == 1

    def test_horn_orbit_size(self):
        canon, orbit = canonical_form(horn_candidate())
        assert orbit == 12

    def test_order_one(self):
        canon, orbit = canonical_form(Candidate(1, ()))
        assert canon.offdiag == () and orbit == 1

    def test_matches_brute_force(self, census):
        # the census must hold the brute-force class of every candidate
        rng = random.Random(79)
        for _ in range(60):
            n = rng.randint(2, 4)
            m = n * (n - 1) // 2
            c = Candidate(n, tuple(rng.choice((-1, 0, 1)) for _ in range(m)))
            expected_off, expected_orbit = brute_canonical(c)
            orbits = {r.canonical_offdiag: r.orbit_size for r in census(n)}
            assert orbits[expected_off] == expected_orbit

    def test_idempotent(self):
        canon, _ = canonical_form(horn_candidate())
        again, _ = canonical_form(canon)
        assert again == canon


class TestRecordFormat:
    def test_line_layout(self):
        record = CensusRecord(2, (-1,), True, True, ((0, 1),), 1)
        assert record.to_line() == "2 -1 1 1 1,2 1"

    def test_empty_fields_use_dash(self):
        record = CensusRecord(1, (), True, True, (), 1)
        assert record.to_line() == "1 - 1 1 - 1"

    def test_roundtrip(self):
        records = run_census(3)
        for record in records:
            assert CensusRecord.from_line(record.to_line()) == record

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            CensusRecord.from_line("3 0,0,0 1")

    @pytest.mark.parametrize("line", [
        "2 -1 2 1 1,2 1",
        "2 -1 1 1 0,2 1",
        "2 -1 1 1 1,3 1",
        "2 5 1 0 - 1",
        "3 -1,0 1 0 - 1",
        "0 - 1 1 - 1",
        "2 0 1 0 - 0",
        "2 +1 1 0 - 1",
        "garbage",
    ], ids=["flag-2", "support-index-0", "support-index-past-order",
            "entry-5", "short-offdiag", "order-0", "orbit-0",
            "not-canonical-text", "garbage"])
    def test_from_line_rejects(self, line):
        with pytest.raises(ValueError):
            CensusRecord.from_line(line)

    def test_read_records_rejects_a_bad_line(self, tmp_path):
        path = tmp_path / "census.txt"
        path.write_text("2 -1 1 1 1,2 1\n2 0 1 0 0 1\n")
        with pytest.raises(ValueError, match="not a census record"):
            read_records(str(path))

    def test_file_roundtrip(self, tmp_path):
        records = run_census(2)
        path = str(tmp_path / "census.txt")
        with open(path, "w") as handle:
            write_records(records, handle)
        assert read_records(path) == records


class TestRunCensus:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_class_count_matches_burnside(self, n, census):
        assert len(census(n)) == burnside_class_count(n)

    def test_orbit_sizes_partition_the_cube(self, census):
        for n in (2, 3, 4):
            assert sum(r.orbit_size for r in census(n)) == 3 ** (n * (n - 1) // 2)

    def test_order_two_records_exactly(self, census):
        lines = [r.to_line() for r in census(2)]
        assert lines == ["2 -1 1 1 1,2 1", "2 0 1 0 - 1", "2 1 1 0 - 1"]

    def test_records_sorted_and_coherent(self, census):
        for n in (3, 4):
            records = census(n)
            offs = [r.canonical_offdiag for r in records]
            assert offs == sorted(offs)
            for record in records:
                canon, orbit = canonical_form(
                    Candidate(n, record.canonical_offdiag))
                assert canon.offdiag == record.canonical_offdiag
                assert orbit == record.orbit_size
                if record.extremal:
                    assert record.copositive
                if not record.copositive:
                    assert record.minimal_supports == ()

    def test_order_three_extremal_is_rank_one(self, census):
        extremal = [r for r in census(3) if r.extremal]
        assert len(extremal) == 1
        A = Candidate(3, extremal[0].canonical_offdiag).matrix()
        found = False
        for signs in ((1, 1, -1), (1, -1, 1), (-1, 1, 1), (1, -1, -1)):
            x = tuple(F(s) for s in signs)
            if SymMatrix.rank_one(x) == A:
                found = True
        assert found, "the extremal order-3 class must be a mixed-sign xx^T"

    def test_horn_class_among_order_five_extremals(self, census):
        canon, _ = canonical_form(horn_candidate())
        extremal_offs = {r.canonical_offdiag for r in census(5) if r.extremal}
        assert canon.offdiag in extremal_offs

    @pytest.mark.parametrize("n", [0, 7])
    def test_order_checked_before_allocation(self, monkeypatch, n):
        # order 7 would need a 3^21-byte mark array, about 10 GB
        def no_allocation(size):
            raise AssertionError(f"allocated {size} marks")

        monkeypatch.setattr(census_mod, "bytearray", no_allocation,
                            raising=False)
        with pytest.raises(ValueError, match="order must be between"):
            run_census(n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_place_values_permute_the_places(self, n):
        columns = census_mod._place_values(n)
        group_order = math.factorial(n)
        places = sorted(3 ** k for k in range(len(columns)))
        ones = [census_mod._images(c[1], group_order) for c in columns]
        twos = [census_mod._images(c[2], group_order) for c in columns]
        for g in range(group_order):
            assert sorted(c[g] for c in ones) == places
            assert all(t[g] == 2 * o[g] for o, t in zip(ones, twos))
        # field 0 belongs to the identity permutation
        identity = [c[1] & 0xFFFFFFFF for c in columns]
        assert identity == [3 ** (len(columns) - 1 - k)
                            for k in range(len(columns))]

    def test_images_unpack_the_fields(self):
        fields = [5, 0, 3 ** 20, 2 ** 32 - 1]
        packed = sum(f << 32 * g for g, f in enumerate(fields))
        assert sorted(census_mod._images(packed, 4)) == sorted(fields)


class TestHoffmanPereira:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_rule_scan_and_census_agree(self, n, census):
        for record in census(n):
            cand = Candidate(n, record.canonical_offdiag)
            rule = hoffman_pereira_copositive(n, cand.offdiag)
            assert is_copositive(cand.matrix()).copositive == rule
            assert record.copositive == rule
            triple = census_mod._violating_triple(cand)
            assert (triple is None) == rule
            if triple is not None:
                # re-evaluated on the Fraction entries, not the offdiag sums
                A = SymMatrix.from_rows(cand.matrix().rows())
                x = tuple(F(int(i in triple)) for i in range(n))
                assert eval_quadratic(A, x) in (-1, -3)

    def test_rule_on_neighbourhoods(self):
        # vertex 1's -1 neighbours 2 and 3 are joined by 0, then by +1
        assert not hoffman_pereira_copositive(3, (-1, -1, 0))
        assert hoffman_pereira_copositive(3, (-1, -1, 1))
        assert hoffman_pereira_copositive(5, horn_candidate().offdiag)

    def test_violating_triple_is_the_first(self):
        assert census_mod._violating_triple(Candidate(4, (1, 1, 1, -1, -1, 0))) \
            == (1, 2, 3)
        assert census_mod._violating_triple(horn_candidate()) is None


class TestPairSupportCheck:
    def test_all_orders_pass(self, capsys, census):
        for n in (2, 3, 4):
            assert cli.main(["census", "-n", str(n)]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert "pair_supports_ok=yes" in lines
            assert f"copositive={sum(r.copositive for r in census(n))}" in lines

    def test_violation_reported(self, capsys, monkeypatch):
        bad = CensusRecord(3, (0, 0, 0), True, False, ((0, 1, 2),), 1)
        monkeypatch.setattr(cli, "run_census", lambda n: [bad])
        assert cli.main(["census", "-n", "3"]) == 1
        out = capsys.readouterr().out
        assert "pair_supports_ok=no" in out.splitlines()
        assert "VIOLATED" in out


class TestEquivalence:
    def test_horn(self):
        report = verify_pair_scaling_equivalence(horn_matrix())
        assert report.pair_supports and report.scaled_extremal_pattern
        assert report.equivalent
        assert report.pattern_nullity == 1

    def test_scaled_rank_one(self):
        A = SymMatrix.rank_one((F(1), F(-2), F(1)))
        report = verify_pair_scaling_equivalence(A)
        assert report.equivalent and report.pair_supports
        assert report.decomposition.pattern == \
            SymMatrix.rank_one((F(1), F(-1), F(1)))

    def test_singleton_support_both_false(self):
        # [[1,0],[0,0]] is extremal with a cardinality-1 support and no
        # positive-diagonal scaling: both predicates fail together
        report = verify_pair_scaling_equivalence(
            SymMatrix.from_rows([[1, 0], [0, 0]]))
        assert not report.pair_supports
        assert not report.scaled_extremal_pattern
        assert report.equivalent
        assert report.decomposition is None

    def test_gates(self):
        with pytest.raises(NotCopositiveError):
            verify_pair_scaling_equivalence(
                SymMatrix.from_rows([[0, -1], [-1, 0]]))
        with pytest.raises(NotExtremalError):
            verify_pair_scaling_equivalence(SymMatrix.identity(3))

    def test_all_extremal_records(self, census):
        for n in (2, 3, 4):
            for record in census(n):
                if not record.extremal:
                    continue
                A = Candidate(n, record.canonical_offdiag).matrix()
                assert verify_pair_scaling_equivalence(A).equivalent
