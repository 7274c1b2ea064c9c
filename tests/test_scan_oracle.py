"""The support scan against the LP scan it replaced.

``stationary_candidates`` skips every support whose stationarity system has a
positive-dimensional solution set; the argument that this loses nothing is
in the ``copositivity`` docstring.  ``oracles.lp_is_copositive`` still
decides positivity on those supports with the exact LP.  The two must agree
on the verdict, the violator, the simplex minimum and the minimal zeros, and
the LP scan must never keep a zero from a positive-dimensional support
(minimal zeros are unique per support).  The scan's verdict is taken with
the convex route switched off (``oracles.scan_is_copositive``).
"""

import itertools
import random

import pytest

from copocert.census import ALPHABET, Candidate, read_records
from copocert.linalg import SymMatrix

from oracles import (
    all_ones,
    lp_is_copositive,
    lp_stationary_candidates,
    random_psd,
    random_symmetric,
    scan_is_copositive,
)

BASELINE = "tests/baselines/census_n5.txt"


def agree(A: SymMatrix) -> None:
    got = scan_is_copositive(A)
    ref = lp_is_copositive(A)
    assert got.copositive == ref.copositive, A
    assert got.violator == ref.violator, A
    assert got.simplex_minimum == ref.simplex_minimum, A
    assert all(dimension == 0 for _, dimension in ref.zeros), A
    assert got.zeros == tuple(zero for zero, _ in ref.zeros), A


def degenerate(A: SymMatrix) -> bool:
    """Whether the LP scan finds a positive point on some support with a
    positive-dimensional solution set, i.e. one the library skips."""
    return any(dimension for *_, dimension in lp_stationary_candidates(A))


def test_every_candidate_up_to_order_4():
    count = 0
    for n in range(1, 5):
        for offdiag in itertools.product(ALPHABET, repeat=n * (n - 1) // 2):
            agree(Candidate(n, offdiag).matrix())
            count += 1
    assert count == 1 + 3 + 27 + 729


def test_order5_class_representatives():
    records = read_records(BASELINE)
    for record in records:
        agree(Candidate(5, record.canonical_offdiag).matrix())
    assert len(records) == 792


def test_psd_of_every_rank():
    rng = random.Random(11)
    matrices = [random_psd(rng, n, rank)
                for n in range(2, 7) for rank in range(1, n) for _ in range(3)]
    for A in matrices:
        agree(A)
    assert sum(degenerate(A) for A in matrices) >= 10


@pytest.mark.parametrize("n", range(1, 7))
def test_zero_and_all_ones(n):
    zero = SymMatrix.from_rows([[0] * n for _ in range(n)])
    for A in (zero, all_ones(n)):
        agree(A)
    assert degenerate(zero) == (n > 1)


@pytest.mark.parametrize("seed", range(4))
def test_random_rationals_with_zero_diagonals(seed):
    rng = random.Random(300 + seed)
    matrices = [random_symmetric(rng, n, num_range=(-2, 4), diag_range=diag)
                for n in range(2, 6) for diag in ((0, 0), (0, 2))
                for _ in range(4)]
    for A in matrices:
        agree(A)
    assert any(degenerate(A) for A in matrices)
