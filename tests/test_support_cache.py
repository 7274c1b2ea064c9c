"""The support-system cache that one census run shares across its classes.

``stationary_candidates`` keys each support's system by the upper triangle
of the integer numerators ``M_S`` followed by the matrix's common
denominator ``d``, and caches the integer point and value numerator with
the state ``(D, f, v)`` the scan keeps per support, so that a conditionally
positive definite hit serves as a parent as stored, and a hit that is not
conditionally positive definite prunes its supersets.  A scan
through a shared cache must report exactly what a scan without one
reports, every cached system must be what a scan of ``M_S / d`` alone
finds, and a ``run_census`` call must start from an empty cache.  Verdicts
are taken with the convex route switched off
(``oracles.scan_is_copositive``), as the route uses no cache.
"""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import copocert.copositivity as copositivity_mod
from copocert.census import ALPHABET, Candidate, read_records, run_census
from copocert.copositivity import stationary_candidates
from copocert.linalg import SymMatrix

from oracles import (
    bordered_state,
    conditionally_positive_definite,
    from_upper_entries,
    parents_of,
    random_symmetric,
    scan_is_copositive,
    scan_visits,
)

F = Fraction
BASELINE = "tests/baselines/census_n5.txt"


def same_verdict(A: SymMatrix, cache: dict) -> None:
    shared = scan_is_copositive(A, cache=cache)
    alone = scan_is_copositive(A)
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
            scan_is_copositive(Candidate(n, offdiag).matrix(), cache=cache)
    for record in read_records(BASELINE):
        scan_is_copositive(Candidate(5, record.canonical_offdiag).matrix(),
                      cache=cache)
    kept = Counter()
    for key, (found, *state) in cache.items():
        *upper, d = key
        k = math.isqrt(8 * len(upper) + 1) // 2  # len(upper) = k(k+1)/2
        A = from_upper_entries(k, [Fraction(x, d) for x in upper])
        # the whole support of A_S is scanned last, so its point is last
        alone = [tuple(c[1:]) for c in stationary_candidates(A)
                 if len(c[0]) == k]
        assert found == (alone[0] if alone else None), key
        # a support is cached only where the scan visits it
        assert all(conditionally_positive_definite(A, p)
                   for p in parents_of(tuple(range(k)))), key
        assert (state[0] < 0) == \
            conditionally_positive_definite(A, range(k)), key
        # every entry keeps what a scan reads of it, whatever the order of
        # the scan that stored it: a parent needs the whole state, and the
        # sign of D prunes, which is all a support that is not
        # conditionally positive definite keeps
        D, f, v = bordered_state(A.integer_form[0], range(k))
        if not conditionally_positive_definite(A, range(k)):
            f = v = None
        assert tuple(state) == (D, f, v), key
        kept["positive definite" if state[0] < 0 else
             "not positive definite"] += 1
    assert kept["positive definite"] > 0 and kept["not positive definite"] > 0


def test_hits_serve_as_parents(monkeypatch):
    # with hits that kept no adjugate, the order-5 census made 520
    # eliminations and 2 bordered solves.  Every solve above size 1 now
    # comes from the states of S[:-1] and its sibling, each a conditionally
    # positive definite entry of the right size, and some of those parents
    # are hits, not solved in the same scan.  The pruned census solves 16
    # systems in all at order 5, against 520 with every support scanned
    routes = Counter()
    solved = set()
    real = copositivity_mod._support_state

    def counting(M, support, det, first, second):
        rest = support[:-1]
        k = len(support)
        if k == 1:
            routes["size 1"] += 1
        elif all(entry[1] < 0 and len(entry[2]) == k and len(entry[3]) == k - 1
                 for entry in (first, second)):
            routes["bordered" if (M, rest) in solved else "hit bordered"] += 1
        else:
            routes["eliminated"] += 1
        solved.add((M, support))
        return real(M, support, det, first, second)

    monkeypatch.setattr(copositivity_mod, "_support_state", counting)
    run_census(5)
    assert routes["eliminated"] <= 1
    assert routes["hit bordered"] > 0
    assert sum(routes.values()) < 100


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
        whole = scan_is_copositive(A, cache=cache)
        halved = scan_is_copositive(half, cache=cache)
        assert whole.simplex_minimum != 0
        assert whole.simplex_minimum == 2 * halved.simplex_minimum
        assert halved == scan_is_copositive(half)


def test_no_state_between_census_calls(monkeypatch):
    # every support system the scan solves goes through _support_state,
    # so a second run that starts from an empty cache solves as many again
    calls = []
    real = copositivity_mod._support_state

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(copositivity_mod, "_support_state", counting)
    first = run_census(4)
    solved = len(calls)
    assert run_census(4) == first
    assert solved > 0 and len(calls) == 2 * solved


class AskedDict(dict):
    """A cache that records every key the scan looks up."""

    def __init__(self):
        super().__init__()
        self.asked = []

    def get(self, key, default=None):
        self.asked.append(key)
        return super().get(key, default)


def test_keys_only_for_visited_supports():
    # the second scan is all hits, and a hit that is not conditionally
    # positive definite prunes like a solve: both scans look up exactly the
    # supports that the oracle says the pruned scan visits
    rng = random.Random(29)
    pruned = 0
    for _ in range(40):
        A = random_symmetric(rng, rng.randint(2, 6), num_range=(-3, 3),
                             den_range=(1, 2), diag_range=(0, 3))
        visits, _ = scan_visits(A)
        cache = AskedDict()
        alone = list(stationary_candidates(A))
        for _ in range(2):
            cache.asked.clear()
            assert list(stationary_candidates(A, cache=cache)) == alone, A
            assert len(cache.asked) == len(visits), A
        pruned += 2 ** A.n - 1 - len(visits)
    assert pruned > 0
