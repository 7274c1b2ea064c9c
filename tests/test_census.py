"""Census enumeration, canonicalization, records, and cross-class checks."""

import json
import random
from fractions import Fraction

import pytest

import copocert.census as census_mod
from copocert.census import (
    Candidate,
    CensusRecord,
    check_pair_supports,
    read_records,
    run_census,
    verify_pair_scaling_equivalence,
    write_records,
)
from copocert.errors import (
    CandidateBudgetError,
    CheckpointFormatError,
    NotCopositiveError,
    NotExtremalError,
)
from copocert.linalg import SymMatrix, horn_matrix

from oracles import (
    brute_canonical,
    burnside_class_count,
    canonical_form,
    iterate_candidates,
)

F = Fraction


def lex_index(offdiag):
    """Position of an off-diagonal tuple in the (-1, 0, 1) product order."""
    idx = 0
    for entry in offdiag:
        idx = idx * 3 + (entry + 1)
    return idx


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

    def test_matches_brute_force(self):
        rng = random.Random(79)
        for _ in range(60):
            n = rng.randint(2, 4)
            m = n * (n - 1) // 2
            c = Candidate(n, tuple(rng.choice((-1, 0, 1)) for _ in range(m)))
            canon, orbit = canonical_form(c)
            expected_off, expected_orbit = brute_canonical(c)
            assert canon.offdiag == expected_off
            assert orbit == expected_orbit

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

    def test_file_roundtrip(self, tmp_path):
        records = run_census(2)
        path = str(tmp_path / "census.txt")
        write_records(records, path)
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

    def test_budget_guard(self, monkeypatch):
        monkeypatch.setenv(census_mod.BUDGET_ENV, "100")
        with pytest.raises(CandidateBudgetError):
            run_census(4)
        assert len(run_census(4, allow_large=True)) == 66

    def test_default_budget_blocks_order_six_only(self, monkeypatch):
        monkeypatch.delenv(census_mod.BUDGET_ENV, raising=False)
        with pytest.raises(CandidateBudgetError):
            run_census(6)

    def test_checkpoint_resume(self, tmp_path, census):
        full = list(census(3))
        path = str(tmp_path / "census.ckpt")
        cut = 12
        prefix = [r for r in full
                  if lex_index(r.canonical_offdiag) < cut]
        census_mod._write_checkpoint(path, 3, cut, prefix)
        resumed = run_census(3, checkpoint=path, resume=True)
        assert resumed == full
        assert not (tmp_path / "census.ckpt").exists()

    def test_checkpoint_written_and_cleared(self, tmp_path, monkeypatch, census):
        monkeypatch.setattr(census_mod, "_CHECKPOINT_EVERY", 10)
        path = str(tmp_path / "census.ckpt")
        seen = {"checkpointed": False}
        original = census_mod._write_checkpoint

        def spy(p, order, next_index, records):
            seen["checkpointed"] = True
            original(p, order, next_index, records)
            state = json.loads((tmp_path / "census.ckpt").read_text())
            assert state["order"] == order
            assert state["next_index"] == next_index

        monkeypatch.setattr(census_mod, "_write_checkpoint", spy)
        records = run_census(3, checkpoint=path)
        assert seen["checkpointed"]
        assert records == list(census(3))
        assert not (tmp_path / "census.ckpt").exists()

    def test_checkpoint_order_mismatch(self, tmp_path):
        path = str(tmp_path / "census.ckpt")
        census_mod._write_checkpoint(path, 2, 1, [])
        with pytest.raises(ValueError):
            run_census(3, checkpoint=path, resume=True)

    @pytest.mark.parametrize("content", [
        '[1, 2]',
        '{"order": 2, "next_index": 1}',
        '{"order": 2, "next_index": -1, "records": []}',
        '{"order": 2, "next_index": "1", "records": []}',
        '{"order": 2, "next_index": 1, "records": "2 -1 1 1 1,2 1"}',
        '{"order": 2, "next_index": 1, "records": [7]}',
        '{"order": 2, "next_index": 1, "records": ["2 -1 2 1 1,2 1"]}',
        '{"order": 2, "next_index": 1, "records": ["3 -1,0,0 0 0 - 6"]}',
        '{"order": 2, "next_index": 1, "records": ["2 5 1 0 - 1"]}',
        '{"order": 2, "next_index": 0, "records": ["2 -1 1 1 1,2 1"]}',
        '{"order": 2, "next_index": 3, '
        '"records": ["2 0 1 0 - 1", "2 -1 1 1 1,2 1"]}',
        '\xff',
    ])
    def test_malformed_checkpoint(self, tmp_path, content):
        path = tmp_path / "census.ckpt"
        path.write_bytes(content.encode("latin-1"))
        with pytest.raises(CheckpointFormatError):
            run_census(2, checkpoint=str(path), resume=True)

    def test_resume_requires_checkpoint_path(self):
        with pytest.raises(ValueError):
            run_census(2, resume=True)


class TestPairSupportCheck:
    def test_all_orders_pass(self, census):
        for n in (2, 3, 4):
            report = check_pair_supports(list(census(n)))
            assert report.ok
            assert report.copositive_records == \
                sum(r.copositive for r in census(n))

    def test_violation_reported(self):
        bad = CensusRecord(3, (0, 0, 0), True, False, ((0, 1, 2),), 1)
        report = check_pair_supports([bad])
        assert not report.ok
        assert report.violations == (((0, 0, 0), (0, 1, 2)),)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            check_pair_supports([])


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
