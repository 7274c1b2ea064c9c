"""The support-system cache that one census run shares across its classes.

``stationary_candidates`` keys each support's system by the upper triangle
of the integer numerators ``M_S`` followed by the matrix's common
denominator ``d``, and caches the integer point and value numerator with
the determinant and the adjugate (or kernel vector), so that a hit can be
bordered like a solved support.  A scan through a shared cache must report exactly what a
scan without one reports, every cached system must be what a scan of
``M_S / d`` alone finds, and a ``run_census`` call must start from an empty
cache.
"""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import copocert.copositivity as copositivity_mod
from copocert.census import ALPHABET, Candidate, read_records, run_census
from copocert.copositivity import is_copositive, stationary_candidates
from copocert.linalg import SymMatrix

from oracles import bordered_system, from_upper_entries, random_symmetric

F = Fraction
BASELINE = "tests/baselines/census_n5.txt"


def same_verdict(A: SymMatrix, cache: dict) -> None:
    shared = is_copositive(A, cache=cache)
    alone = is_copositive(A)
    assert shared.copositive == alone.copositive, A
    assert shared.violator == alone.violator, A
    assert shared.simplex_minimum == alone.simplex_minimum, A
    assert shared.zeros == alone.zeros, A


def test_shared_cache_matches_no_cache():
    cache = {}
    count = 0
    for n in range(1, 5):
        for offdiag in itertools.product(ALPHABET, repeat=n * (n - 1) // 2):
            same_verdict(Candidate(n, offdiag).matrix(), cache)
            count += 1
    for record in read_records(BASELINE):
        same_verdict(Candidate(5, record.canonical_offdiag).matrix(), cache)
        count += 1
    assert count == 1 + 3 + 27 + 729 + 792
    # the same principal submatrices recur: far fewer systems than scans
    assert 0 < len(cache) < count


def test_cached_systems_match_a_scan_without_cache():
    cache = {}
    for n in range(1, 5):
        for offdiag in itertools.product(ALPHABET, repeat=n * (n - 1) // 2):
            is_copositive(Candidate(n, offdiag).matrix(), cache=cache)
    for record in read_records(BASELINE):
        is_copositive(Candidate(5, record.canonical_offdiag).matrix(),
                      cache=cache)
    kept = Counter()
    for key, (found, det, rows) in cache.items():
        *upper, d = key
        k = math.isqrt(8 * len(upper) + 1) // 2  # len(upper) = k(k+1)/2
        A = from_upper_entries(k, [Fraction(x, d) for x in upper])
        # the whole support of A_S is scanned last, so its point is last
        alone = [tuple(c[1:]) for c in stationary_candidates(A)
                 if len(c[0]) == k]
        assert found == (alone[0] if alone else None), key
        K = bordered_system(A.integer_form[0], range(k))
        if not det:
            kept["kernel vector" if rows else "singular"] += 1
            assert rows is None or any(rows) and all(
                sum(a * z for a, z in zip(r, rows)) == 0 for r in K), key
        elif len(rows) > 1:
            kept["adjugate"] += 1
            assert [[sum(a * b for a, b in zip(r, col)) for col in zip(*K)]
                    for r in rows] == [[det * (i == j) for j in range(k + 1)]
                                       for i in range(k + 1)], key
        else:
            kept["first row"] += 1
    # hits keep what a parent needs: full adjugates below each scan's order
    assert kept["adjugate"] > 0 and kept["kernel vector"] > 0
    assert kept["first row"] > 0


def test_hits_serve_as_parents(monkeypatch):
    # with hits that kept no adjugate, the order-5 census made 520
    # eliminations and 2 bordered solves
    routes = Counter()
    real = copositivity_mod._support_system

    def counting(*args):
        det, rows, route = real(*args)
        routes[route] += 1
        return det, rows, route

    monkeypatch.setattr(copositivity_mod, "_support_system", counting)
    run_census(5)
    assert routes["eliminated"] <= 1
    assert routes["bordered"] + routes["other parent"] > 100


def test_shared_cache_across_denominators():
    rng = random.Random(23)
    cache = {}
    for _ in range(60):
        A = random_symmetric(rng, rng.randint(2, 5), num_range=(-2, 2),
                             den_range=(1, 2), diag_range=(0, 2))
        same_verdict(A, cache)


def test_key_holds_the_denominator():
    # A / 2 has the same integer numerators as A over d = 2 instead of 1,
    # so a key without d would hand A / 2 the points and values of A
    for rows in ([[1, 0, 1], [0, 3, -1], [1, -1, 2]],
                 [[1, -3, 1], [-3, 1, 1], [1, 1, 1]]):
        A = SymMatrix.from_rows(rows)
        half = SymMatrix.from_rows([[F(x, 2) for x in row] for row in rows])
        cache = {}
        whole = is_copositive(A, cache=cache)
        halved = is_copositive(half, cache=cache)
        assert whole.simplex_minimum != 0
        assert whole.simplex_minimum == 2 * halved.simplex_minimum
        assert halved == is_copositive(half)


def test_no_state_between_census_calls(monkeypatch):
    # every support system the scan solves goes through _support_system,
    # so a second run that starts from an empty cache solves as many again
    calls = []
    real = copositivity_mod._support_system

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(copositivity_mod, "_support_system", counting)
    first = run_census(4)
    solved = len(calls)
    assert run_census(4) == first
    assert solved > 0 and len(calls) == 2 * solved
