"""The pruned bordered support scan against the general solve it replaced.

``stationary_candidates`` solves a support's system ``K_S (nu, u) = e_0``
only when every parent ``S - {s}`` is conditionally positive definite: in
closed form at sizes 1 and 2, else from the states of its parents
``S[:-1]`` and ``S[:-2] + S[-1:]``.  The replaced chain stays in ``src/``
as the oracle: ``solve_affine`` gives the solution set,
``strictly_positive_point`` decides positivity and ``eval_quadratic`` the
value.  ``oracles.conditionally_positive_definite`` decides, from the
leading minors of ``Z^T A_S Z``, which supports the scan must visit.  The
visited supports must be exactly those whose parents it accepts, and the
sign of each determinant must say whether the support is accepted itself.
For every visited support the scan and the oracle must agree on whether
the solution is unique, whether it is positive, the point and the value,
and the state ``(D, f, v)`` the scan computes must be what
``oracles.bordered_state`` recomputes from ``K_S``.  Each test also
asserts which branches its inputs reached and which supports the pruning
skipped.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

import copocert.copositivity as copositivity_mod
from copocert.census import ALPHABET, Candidate, read_records
from copocert.copositivity import is_copositive, stationary_candidates
from copocert.linalg import SymMatrix, eval_quadratic, solve_affine
from copocert.lp import strictly_positive_point
from copocert.scaling import DiagonalScaling, scale

from oracles import (
    benchmark_families,
    block_state,
    fraction_candidates,
    parents_of,
    principal_block,
    random_positive_diagonal,
    random_psd,
    random_symmetric,
    rational_support_system,
    scan_visits,
    unpruned_is_copositive,
)

F = Fraction
BASELINE = "tests/baselines/census_n5.txt"


@pytest.fixture
def solves(monkeypatch):
    """Every ``_support_state`` call of the scan as ``(support, branch,
    state)``, with branch "size 1" or "bordered" and ``state`` the
    ``(D, f, v)`` it returned."""
    calls = []
    real = copositivity_mod._support_state

    def recording(M, support, det, first, second):
        state = real(M, support, det, first, second)
        branch = "size 1" if len(support) == 1 else "bordered"
        calls.append((support, branch, state))
        return state

    monkeypatch.setattr(copositivity_mod, "_support_state", recording)
    return calls


def oracle(A: SymMatrix, support):
    """``(unique, point, value)`` for one support from the replaced chain;
    ``point`` (embedded) and ``value`` are None unless it is positive."""
    k = len(support)
    sol = solve_affine(*rational_support_system(A, support), k + 1)
    unique = sol.feasible and not sol.dimension
    point = strictly_positive_point(sol, positive=range(k)) if unique else None
    if point is None:
        return unique, None, None
    x = [F(0)] * A.n
    for v, i in zip(point[:k], support):
        x[i] = v
    return unique, tuple(x), eval_quadratic(A, tuple(x))


def check_solve(A: SymMatrix, support, state):
    """The oracle's decision, and ``state`` against ``block_state``;
    returns the oracle's ``(unique, point, value)``."""
    expected = oracle(A, support)
    assert (state[0] != 0) == expected[0], (A, support)
    block = principal_block(A.integer_form[0], support)
    assert tuple(state) == block_state(block), (A, support)
    return expected


def count_pruned(A: SymMatrix, visits, branches: Counter) -> None:
    """Count each support the scan skipped by why: a parent with a
    singular system, else an indefinite one; and, apart, each skipped
    nonsingular support whose ``S[:-1]`` is singular."""
    unique = {}

    def nonsingular(support):
        if support not in unique:
            unique[support] = oracle(A, support)[0]
        return unique[support]

    visited = set(visits)
    for k in range(2, A.n + 1):
        for support in itertools.combinations(range(A.n), k):
            if support in visited:
                continue
            singular = not all(map(nonsingular, parents_of(support)))
            branches["pruned", "singular" if singular else "indefinite"] += 1
            if not nonsingular(support[:-1]) and nonsingular(support):
                branches["pruned", "nonsingular child"] += 1


def agree(A: SymMatrix, solves, branches: Counter) -> None:
    """Scan A without a cache and compare every visited support with the
    oracle; the visited supports are exactly the expected ones."""
    solves.clear()
    found = {}
    for value, x in fraction_candidates(A):
        support = tuple(i for i, c in enumerate(x) if c)
        assert support not in found, (A, support)
        found[support] = (x, value)
    visits, pd = scan_visits(A)
    assert [s for s, _, _ in solves] == visits, A
    det_of = {}
    for support, branch, state in solves:
        det = det_of[support] = state[0]
        _, point, value = check_solve(A, support, state)
        assert (det < 0) == pd[support], (A, support)
        got = found.pop(support, (None, None))
        assert got == (point, value), (A, support)
        assert all(type(c) is Fraction for c in got[0] or ()), (A, support)
        branches[branch, "singular" if not det else
                 "negative" if det < 0 else "positive"] += 1
        if branch == "bordered":
            assert all(det_of[p] < 0 for p in parents_of(support)), \
                (A, support)
    assert not found, A
    count_pruned(A, visits, branches)


def test_every_candidate_up_to_order_4_and_the_order5_classes(solves):
    branches = Counter()
    count = 0
    for n in range(1, 5):
        for offdiag in itertools.product(ALPHABET, repeat=n * (n - 1) // 2):
            agree(Candidate(n, offdiag).matrix(), solves, branches)
            count += 1
    for record in read_records(BASELINE):
        agree(Candidate(5, record.canonical_offdiag).matrix(), solves,
              branches)
        count += 1
    assert count == 1 + 3 + 27 + 729 + 792
    assert branches["size 1", "negative"] > 0
    assert branches["bordered", "negative"] > 0
    # no visited support of these classes is indefinite: a bordered solve
    # with a positive determinant is reached by the seeded matrices below
    assert branches["bordered", "singular"] > 0
    assert branches["pruned", "singular"] > 0
    assert branches["pruned", "indefinite"] > 0
    assert branches["pruned", "nonsingular child"] > 0


@pytest.mark.parametrize("n", [6, 7, 8])
def test_seeded_rationals(solves, n):
    rng = random.Random(600 + n)
    D = DiagonalScaling(random_positive_diagonal(rng, n))
    matrices = [random_symmetric(rng, n, num_range=(-4, 6), den_range=(1, 5),
                                 diag_range=(0, 6)) for _ in range(2)]
    # rank-deficient B B^T, rationally scaled, and a rank-one v v^T
    matrices += [scale(random_psd(rng, n, rank), D) for rank in (2, n - 2)]
    v = [F(rng.randint(1, 5), rng.randint(1, 4)) * rng.choice((-1, 1))
         for _ in range(n)]
    matrices.append(SymMatrix.rank_one(v))
    branches = Counter()
    for A in matrices:
        agree(A, solves, branches)
    assert branches["bordered", "singular"] > 0
    assert branches["pruned", "singular"] > 0


def test_rank_one_stops_at_triples(solves):
    # v v^T is conditionally positive definite on the pairs of distinct
    # entries (det K = -(v_i - v_j)^2) and singular on every triple, so
    # order 8 solves its 8 + 28 nonsingular systems, finds the 56 triples
    # singular and visits no larger support
    v = [F(1, 2), -1, F(3, 2), -2, 3, F(-1, 3), 5, F(-7, 4)]
    A = SymMatrix.rank_one(v)
    assert is_copositive(A) == unpruned_is_copositive(A)
    solves.clear()
    list(stationary_candidates(A))
    sizes = Counter((len(s), state[0] != 0) for s, _, state in solves)
    assert sizes == {(1, True): 8, (2, True): 28, (3, False): 56}


def test_singular_parent_with_a_nonsingular_child(solves):
    # a seeded search over small-integer matrices for nonsingular systems
    # whose S[:-1] is singular: the scan skips each of them
    rng = random.Random(41)
    branches = Counter()
    hits = 0
    for _ in range(200):
        A = random_symmetric(rng, rng.randint(3, 5), num_range=(-2, 2),
                             den_range=(1, 1), diag_range=(-1, 2))
        before = branches["pruned", "nonsingular child"]
        agree(A, solves, branches)
        assert is_copositive(A) == unpruned_is_copositive(A), A
        hits += branches["pruned", "nonsingular child"] > before
    assert hits >= 10
    assert branches["bordered", "negative"] > 0
    assert branches["bordered", "positive"] > 0
    assert branches["bordered", "singular"] > 0
    assert branches["pruned", "singular"] > 0


def test_hits_from_a_scan_of_another_order_are_used_as_stored(solves):
    # a cache shared across orders: each principal submatrix of order n - 1
    # is scanned first as a matrix of its own.  Every entry keeps the whole
    # state (D, f, v), so the order-n scan hits every support below n and
    # solves only the top support, if all its parents are conditionally
    # positive definite: no support is solved twice (integer entries, so
    # that the submatrices have the common denominator 1 of the whole, and
    # its keys)
    rng = random.Random(5)
    branches = Counter()
    for n in (3, 4, 5):
        for _ in range(3):
            for A in (random_symmetric(rng, n, den_range=(1, 1)),
                      random_psd(rng, n, n - 2)):
                alone = list(stationary_candidates(A))
                cache = {}
                solved = []  # each solved support's M_S
                for rest in itertools.combinations(range(n), n - 1):
                    solves.clear()
                    B = A.principal(rest)
                    list(stationary_candidates(B, cache=cache))
                    solved += [principal_block(B.integer_form[0], support)
                               for support, _, _ in solves]
                assert len(set(solved)) == len(solved), A
                solves.clear()
                assert list(stationary_candidates(A, cache=cache)) == alone, A
                visits, pd = scan_visits(A)
                top = tuple(range(n))
                assert [s for s, _, _ in solves] == [
                    s for s in visits if s == top], A
                for support, _, state in solves:
                    check_solve(A, support, state)
                    branches["singular" if not state[0] else
                             "nonsingular"] += 1
                assert is_copositive(A, cache=cache) == \
                    unpruned_is_copositive(A), A
    assert branches["singular"] > 0
    assert branches["nonsingular"] > 0


def test_benchmark_families_make_no_elimination(solves):
    # one full scan each of the dsd, bbt, rank1 and refute families at
    # n = 6..8 (seed 77): every support solved has conditionally positive
    # definite parents, and each family skips some
    families = benchmark_families()
    pruned = Counter()
    for family in ("dsd", "bbt", "rank1", "refute"):
        for n in (6, 7, 8):
            case = families.generate(family, n, 77, (0, 0))
            A = SymMatrix.from_rows(case.matrix)
            solves.clear()
            list(stationary_candidates(A))
            visits, _ = scan_visits(A)
            assert [s for s, _, _ in solves] == visits, (family, n)
            assert is_copositive(A) == unpruned_is_copositive(A), (family, n)
            pruned[family] += 2 ** n - 1 - len(visits)
    assert all(pruned[family] > 0 for family in ("dsd", "bbt", "rank1",
                                                 "refute")), pruned


def check_yielded(A: SymMatrix, candidates) -> int:
    """Every ``(support, p, q, total)`` the scan yields is an integer point
    ``p / q`` on the simplex, positive on its increasing support, and
    ``total`` is ``p^T M_S p`` summed entry by entry."""
    M, _ = A.integer_form
    count = 0
    for support, p, q, total in candidates:
        assert list(support) == sorted(set(support)), (A, support)
        assert len(p) == len(support), (A, support)
        assert all(type(x) is int for x in (*p, q, total)), (A, support)
        assert min(p) > 0 and sum(p) == q, (A, support)
        assert total == sum(p[a] * M[i][j] * p[b]
                            for a, i in enumerate(support)
                            for b, j in enumerate(support)), (A, support)
        count += 1
    return count


def test_every_yielded_point_checks_out():
    # census classes of order <= 5 through one shared cache, and seeded
    # rational matrices, PSD ones and the benchmark families without one
    cache = {}
    count = 0
    for n in range(1, 5):
        for offdiag in itertools.product(ALPHABET, repeat=n * (n - 1) // 2):
            A = Candidate(n, offdiag).matrix()
            count += check_yielded(A, stationary_candidates(A, cache=cache))
    for record in read_records(BASELINE):
        A = Candidate(5, record.canonical_offdiag).matrix()
        count += check_yielded(A, stationary_candidates(A, cache=cache))
    rng = random.Random(14)
    for n in (2, 3, 4, 5, 6):
        for _ in range(6):
            for A in (random_symmetric(rng, n), random_psd(rng, n, n - 1)):
                count += check_yielded(A, stationary_candidates(A))
    families = benchmark_families()
    for family in ("dsd", "bbt", "rank1", "refute"):
        case = families.generate(family, 7, 14, (0, 0))
        A = SymMatrix.from_rows(case.matrix)
        count += check_yielded(A, stationary_candidates(A))
    assert count > 10000
