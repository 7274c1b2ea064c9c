"""The support-system cache that one census run shares across its classes.

``stationary_candidates`` keys each support's system by the matrix's common
denominator ``d`` and the upper triangle of the integer numerators ``M_S``.
A scan through a shared cache must report exactly what a scan without one
reports, and a ``run_census`` call must start from an empty cache.
"""

import itertools
import random
from fractions import Fraction

import copocert.copositivity as copositivity_mod
from copocert.census import ALPHABET, Candidate, read_records, run_census
from copocert.copositivity import is_copositive
from copocert.linalg import SymMatrix

from oracles import random_symmetric

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
    calls = []
    real = copositivity_mod.solve_affine

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(copositivity_mod, "solve_affine", counting)
    first = run_census(4)
    solved = len(calls)
    assert run_census(4) == first
    assert solved > 0 and len(calls) == 2 * solved
