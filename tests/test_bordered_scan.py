"""The bordered support scan against the general solve it replaced.

``stationary_candidates`` solves each support's system ``K_S (nu, u) = e_0``
in closed form at size 1, by bordering the adjugate of its parent
``S[:-1]``, else of another nonsingular parent ``S - {s}``, else by
extending a singular parent's kernel vector, and as a last resort by one
elimination.  The replaced chain stays in ``src/`` as the oracle:
``solve_affine`` gives the solution set, ``strictly_positive_point`` decides
positivity and ``eval_quadratic`` the value.  For every support the two must
agree on whether the solution is unique, whether it is positive, the point
and the value; every full adjugate the scan keeps must satisfy
``adj K_S K_S = det K_S I``, and every kernel vector it carries must solve
``K_S z = 0``.  Each test also asserts which branches its inputs reached.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

import copocert.copositivity as copositivity_mod
from copocert.census import ALPHABET, Candidate, read_records
from copocert.copositivity import stationary_candidates
from copocert.linalg import SymMatrix, eval_quadratic, solve_affine
from copocert.lp import strictly_positive_point
from copocert.scaling import DiagonalScaling, scale

from oracles import (
    benchmark_families,
    bordered_system,
    fraction_candidates,
    random_positive_diagonal,
    random_psd,
    random_symmetric,
    rational_support_system,
)

F = Fraction
BASELINE = "tests/baselines/census_n5.txt"


@pytest.fixture
def solves(monkeypatch):
    """Every ``_support_system`` call of the scan as ``(support, branch,
    det, rows)``, with branch "size 1", "bordered", "other parent",
    "kernel vector" or "eliminated"."""
    calls = []
    real = copositivity_mod._support_system

    def recording(M, support, parents, full):
        det, rows, branch = real(M, support, parents, full)
        calls.append((support, branch, det, rows))
        return det, rows, branch

    monkeypatch.setattr(copositivity_mod, "_support_system", recording)
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


def check_solve(A: SymMatrix, support, det, rows):
    """The oracle's decision and the integer identities of ``rows``;
    returns the oracle's ``(unique, point, value)``."""
    expected = oracle(A, support)
    assert (det != 0) == expected[0], (A, support)
    K = bordered_system(A.integer_form[0], support)
    if not det:
        if rows is not None:
            assert any(rows), (A, support)
            assert all(sum(a * z for a, z in zip(r, rows)) == 0 for r in K), \
                (A, support)
    elif len(rows) > 1:
        assert [[sum(a * b for a, b in zip(r, col)) for col in zip(*K)]
                for r in rows] == [[det * (i == j) for j in range(len(K))]
                                   for i in range(len(K))], (A, support)
    return expected


def agree(A: SymMatrix, solves, branches: Counter) -> None:
    """Scan A without a cache and compare every support with the oracle."""
    solves.clear()
    found = {}
    for value, x in fraction_candidates(A):
        support = tuple(i for i, c in enumerate(x) if c)
        assert support not in found, (A, support)
        found[support] = (x, value)
    det_of = {}
    for support, branch, det, rows in solves:
        det_of[support] = det
        _, point, value = check_solve(A, support, det, rows)
        got = found.pop(support, (None, None))
        assert got == (point, value), (A, support)
        assert all(type(c) is Fraction for c in got[0] or ()), (A, support)
        branches[branch, "singular" if not det else
                 "negative" if det < 0 else "positive"] += 1
        if branch == "size 1":
            continue
        parent_dets = [det_of[support[:j] + support[j + 1:]]
                       for j in range(len(support))]
        if branch == "bordered":
            assert det_of[support[:-1]] != 0, (A, support)
        else:
            assert det_of[support[:-1]] == 0, (A, support)
            # without a cache, every nonsingular parent of a support whose
            # S[:-1] is singular keeps its full adjugate for it
            assert any(parent_dets) == (branch == "other parent"), (A, support)
    assert not found, A
    assert [s for s, _, _, _ in solves] == [
        s for k in range(1, A.n + 1)
        for s in itertools.combinations(range(A.n), k)], A


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
    assert branches["bordered", "positive"] > 0
    assert branches["bordered", "singular"] > 0
    assert branches["other parent", "negative"] > 0
    assert branches["other parent", "positive"] > 0
    assert branches["other parent", "singular"] > 0
    assert branches["kernel vector", "singular"] > 0
    # every parent singular and no kernel vector extends: one class
    assert branches["eliminated", "negative"] + \
        branches["eliminated", "positive"] > 0


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
    assert branches["kernel vector", "singular"] > 0
    assert not branches["eliminated", "singular"]


def test_singular_parent_with_a_nonsingular_child(solves):
    # a seeded search over small-integer matrices for nonsingular systems
    # whose S[:-1] is singular: each borders another parent instead
    rng = random.Random(41)
    branches = Counter()
    hits = 0
    for _ in range(200):
        A = random_symmetric(rng, rng.randint(3, 5), num_range=(-2, 2),
                             den_range=(1, 1), diag_range=(-1, 2))
        before = branches["other parent", "negative"] + \
            branches["other parent", "positive"]
        agree(A, solves, branches)
        hits += branches["other parent", "negative"] + \
            branches["other parent", "positive"] > before
    assert hits >= 10
    assert branches["other parent", "negative"] > 0
    assert branches["other parent", "positive"] > 0
    assert branches["other parent", "singular"] > 0
    assert branches["kernel vector", "singular"] > 0


def test_eliminated_when_no_parent_borders(solves):
    # a cache shared across orders: each principal submatrix of order n - 1
    # is scanned first as a matrix of its own, where its top support keeps
    # only the first adjugate row, so an order-n support whose parents are
    # all nonsingular has none to border and is eliminated (integer entries,
    # so that the submatrices have the common denominator 1 of the whole,
    # and its keys)
    rng = random.Random(5)
    branches = Counter()
    for n in (3, 4, 5):
        for _ in range(3):
            for A in (random_symmetric(rng, n, den_range=(1, 1)),
                      random_psd(rng, n, n - 2)):
                alone = list(stationary_candidates(A))
                cache = {}
                for rest in itertools.combinations(range(n), n - 1):
                    list(stationary_candidates(A.principal(rest), cache=cache))
                solves.clear()
                assert list(stationary_candidates(A, cache=cache)) == alone, A
                ((support, branch, det, rows),) = solves
                assert support == tuple(range(n)), A
                check_solve(A, support, det, rows)
                branches[branch, "singular" if not det else "nonsingular"] += 1
    assert branches["eliminated", "singular"] > 0
    assert branches["eliminated", "nonsingular"] > 0


def test_benchmark_families_make_no_elimination(solves):
    # one full scan each of the dsd, bbt, rank1 and refute families at
    # n = 6..8 (seed 77), which made 333 eliminations, 249 on rank1, when
    # only S[:-1] was bordered
    families = benchmark_families()
    branches = Counter()
    for family in ("dsd", "bbt", "rank1", "refute"):
        for n in (6, 7, 8):
            case = families.generate(family, n, 77, (0, 0))
            solves.clear()
            list(stationary_candidates(SymMatrix.from_rows(case.matrix)))
            for _, branch, _, _ in solves:
                branches[family, branch] += 1
    assert not sum(v for (_, b), v in branches.items() if b == "eliminated")
    assert branches["rank1", "kernel vector"] > 0
    assert branches["dsd", "other parent"] > 0
    assert branches["refute", "other parent"] > 0


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
