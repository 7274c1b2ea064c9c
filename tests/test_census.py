"""Census enumeration, canonicalization, records, and cross-class checks."""

import itertools
import math
import random
from fractions import Fraction

import pytest

import copocert.census as census_mod
from copocert import cli
from copocert.census import (
    Candidate,
    CensusRecord,
    EquivalenceReport,
    read_records,
    run_census,
    verify_pair_scaling_equivalence,
    write_records,
)
from copocert.copositivity import is_copositive
from copocert.errors import NotCopositiveError, NotExtremalError
from copocert.extremality import extremality_certificate
from copocert.linalg import SymMatrix, eval_quadratic, horn_matrix
from copocert.scaling import (
    DiagonalScaling,
    extract_pattern,
    has_sign_pattern_scaling,
)

from oracles import (
    brute_canonical,
    burnside_class_count,
    canonical_form,
    fraction_rows,
    hoffman_pereira_copositive,
    hoffman_pereira_supports,
    identity,
    iterate_candidates,
    permuted_matrix,
    random_positive_diagonal,
    rank_one,
    scale,
)

F = Fraction


def horn_candidate():
    return Candidate(5, upper(horn_matrix()))


def upper(A):
    """The strict upper triangle of A, row by row, as ints."""
    return tuple(int(A.get(i, j))
                 for i in range(A.n) for j in range(i + 1, A.n))


def sweep_index(off, radix):
    """The index of a tuple in the product order of its alphabet, -1 as
    the least entry in base 3, 0 in base 2."""
    index = 0
    for e in off:
        index = radix * index + e + (radix == 3)
    return index


class TestCandidate:
    def test_matrix_roundtrip(self):
        c = Candidate(3, (-1, 0, 1))
        A = c.matrix()
        assert fraction_rows(A) == [[1, -1, 0], [-1, 1, 1], [0, 1, 1]]

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
        "3 -1,-1,1 1 1 2,1;1,3 3",
        "3 -1,-1,1 1 1 1,1;1,3 3",
        "3 -1,-1,1 1 1 1,3;1,2 3",
        "2 -1 1 1 1,2;1,2 1",
        "3 -1,-1,1 1 1 1,2;1,3 7",
        "3 -1,-1,-1 0 1 - 1",
        "3 -1,-1,-1 0 0 1,2 1",
        "3 -1,-1,1 1 1 1,2,3 3",
        "3 -1,-1,1 1 1 1,2;1,2,3 3",
        "3 -1,-1,1 1 0 1,2;1,2,3 3",
    ], ids=["flag-2", "support-index-0", "support-index-past-order",
            "entry-5", "short-offdiag", "order-0", "orbit-0",
            "not-canonical-text", "garbage", "support-not-increasing",
            "support-repeated-index", "supports-unsorted",
            "support-duplicate", "orbit-not-dividing-n-factorial",
            "extremal-not-copositive", "supports-not-copositive",
            "extremal-triple-support", "supports-not-antichain",
            "supports-not-antichain-not-extremal"])
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
        for n in (1, 2, 3, 4):
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
            if rank_one(x) == A:
                found = True
        assert found, "the extremal order-3 class must be a mixed-sign xx^T"

    def test_horn_class_among_order_five_extremals(self, census):
        canon, orbit = canonical_form(horn_candidate())
        extremal = {r.canonical_offdiag: r.orbit_size
                    for r in census(5) if r.extremal}
        assert extremal[canon.offdiag] == orbit == 12

    @pytest.mark.parametrize("n", [0, 7])
    def test_order_checked_before_allocation(self, monkeypatch, n):
        # order 7 would need a 3^21-byte mark array, about 10 GB
        def no_allocation(size):
            raise AssertionError(f"allocated {size} marks")

        monkeypatch.setattr(census_mod, "bytearray", no_allocation,
                            raising=False)
        with pytest.raises(ValueError, match="order must be between"):
            run_census(n)

    @pytest.mark.parametrize("n", [4, 5])
    def test_pair_images_are_the_permuted_candidates(self, n):
        # each pair's lookups against every P A P^T whose rows 0 and 1 are
        # the pair's rows, built entry by entry; on seeded candidates and
        # for every pair, -1 or not
        chunks, lookups, size, graphs = census_mod._sweep_tables(n)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        m = len(pairs)
        rng = random.Random(n)
        candidates = [horn_candidate()] if n == 5 else []
        candidates += [Candidate(n, (-1,) * m)] + [
            Candidate(n, tuple(rng.choice((-1, 0, 1)) for _ in range(m)))
            for _ in range(20)]
        for cand in candidates:
            index = sweep_index(cand.offdiag, 3)
            values = census_mod._chunk_values(index, len(chunks))
            A = cand.matrix()
            for (a, b), lookup in zip(pairs, lookups):
                expected = sorted(
                    sweep_index(upper(permuted_matrix(A, perm)), 3)
                    for perm in itertools.permutations(range(n))
                    if {perm[0], perm[1]} == {a, b})
                packed = sum(table[v] for table, v in zip(lookup, values))
                assert sorted(census_mod._images(packed, size)) == expected
            parts = [table[v] for table, v in zip(chunks, values)]
            assert sum((entries for entries, _ in parts), ()) == cand.offdiag
            negative = [lk for _, part in parts for lk in part]
            assert negative == [lk for e, lk in zip(cand.offdiag, lookups)
                                if e == -1]
        # phase 2 reads {0, 1} tuples in base 2 under all n! permutations
        for _ in range(20):
            off = tuple(rng.choice((0, 1)) for _ in range(m))
            A = Candidate(n, off).matrix()
            expected = sorted(sweep_index(upper(permuted_matrix(A, perm)), 2)
                              for perm in itertools.permutations(range(n)))
            packed = sum(x for x, bit in zip(graphs, off) if bit)
            images = census_mod._images(packed, math.factorial(n))
            assert sorted(images) == expected

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_zero_one_classes_come_last_from_phase_two(self, n, census):
        # the identity and all-ones candidates have orbit 1; the {0, 1}
        # classes are the graphs on n vertices, all after the -1 classes
        m = n * (n - 1) // 2
        classes = list(census_mod._classes(n))
        graphs = [c for c in classes if -1 not in c[0]]
        assert len(graphs) == {2: 2, 3: 4, 4: 11, 5: 34}[n]
        assert classes[-len(graphs):] == graphs
        assert graphs[0] == ((0,) * m, 1) and graphs[-1] == ((1,) * m, 1)
        assert sum(orbit for _, orbit in graphs) == 2 ** m
        records = {r.canonical_offdiag: r for r in census(n)}
        for off in ((0,) * m, (1,) * m):
            assert records[off].copositive and not records[off].extremal
            assert records[off].orbit_size == 1

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_place_values_permute_the_places(self, n):
        pairs = list(itertools.combinations(range(n), 2))
        m = len(pairs)
        perms = list(itertools.permutations(range(n)))
        for radix in (3, 2):
            places = sorted(radix ** k for k in range(m))
            for subset in [perms] + [
                    [p for p in perms if {p[a], p[b]} == {0, 1}]
                    for a, b in pairs]:
                columns = census_mod._place_values(pairs, subset, radix)
                for g, perm in enumerate(subset):
                    field = [c >> 32 * g & 0xFFFFFFFF for c in columns]
                    assert sorted(field) == places
                    # position k goes where the permutation sends pair k
                    for (i, j), place in zip(pairs, field):
                        k = pairs.index(tuple(sorted((perm[i], perm[j]))))
                        assert place == radix ** (m - 1 - k)
            # field 0 belongs to the identity permutation
            columns = census_mod._place_values(pairs, perms, radix)
            identity = [c & 0xFFFFFFFF for c in columns]
            assert identity == [radix ** (m - 1 - k) for k in range(m)]

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
                A = SymMatrix.from_rows(fraction_rows(cand.matrix()))
                x = tuple(F(int(i in triple)) for i in range(n))
                assert eval_quadratic(A, x) in (-1, -3)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_minimal_supports_are_the_minus_one_pairs(self, n, census):
        copositive = [r for r in census(n) if r.copositive]
        assert copositive
        for record in copositive:
            assert record.minimal_supports == \
                hoffman_pereira_supports(n, record.canonical_offdiag)

    def test_minus_one_pairs_of_horn(self):
        assert hoffman_pereira_supports(5, horn_candidate().offdiag) == \
            ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4))

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
        A = rank_one((F(1), F(-2), F(1)))
        report = verify_pair_scaling_equivalence(A)
        assert report.equivalent and report.pair_supports
        assert report.decomposition.pattern == \
            rank_one((F(1), F(-1), F(1)))

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
            verify_pair_scaling_equivalence(identity(3))

    def test_all_extremal_records(self, census):
        for n in (2, 3, 4):
            for record in census(n):
                if not record.extremal:
                    continue
                A = Candidate(n, record.canonical_offdiag).matrix()
                assert verify_pair_scaling_equivalence(A).equivalent


def two_certificate_report(A: SymMatrix) -> EquivalenceReport:
    """The report with the pattern's certificate always computed from the
    pattern, even when the pattern is A itself."""
    cert = extremality_certificate(A)
    supports = tuple(sorted(z.support for z in cert.minimal_zeros))
    decomposition = pattern_nullity = None
    scaled = False
    if has_sign_pattern_scaling(A):
        decomposition = extract_pattern(A)
        pattern_cert = extremality_certificate(decomposition.pattern)
        pattern_nullity, scaled = pattern_cert.nullity, pattern_cert.extremal
    return EquivalenceReport(A.n, supports, all(len(s) == 2 for s in supports),
                             decomposition, pattern_nullity, scaled)


def test_pattern_equal_to_the_input_reuses_its_certificate(census,
                                                           monkeypatch):
    # every extremal class of order <= 5 and the Horn matrix are their own
    # pattern and are certified once; a rational scaling of each has
    # another pattern, certified apart.  Each report is the one that
    # certifies the pattern separately
    rng = random.Random(19)
    patterns = [Candidate(n, r.canonical_offdiag).matrix()
                for n in range(1, 6) for r in census(n) if r.extremal]
    patterns.append(horn_matrix())
    calls = []
    real = census_mod.extremality_certificate

    def counting(A, **kwargs):
        calls.append(A)
        return real(A, **kwargs)

    monkeypatch.setattr(census_mod, "extremality_certificate", counting)
    for S in patterns:
        D = DiagonalScaling(random_positive_diagonal(rng, S.n))
        for A, certified in ((S, 1), (scale(S, D), 2)):
            if certified == 2 and A == S:  # every factor drew 1
                continue
            calls.clear()
            report = verify_pair_scaling_equivalence(A)
            assert report == two_certificate_report(A), A
            assert report.equivalent, A
            assert len(calls) == certified, A
    assert len(patterns) == 8 + 1
