"""The bordered support scan against the general solve it replaced.

``stationary_candidates`` solves each support's system ``K_S (nu, u) = e_0``
by bordering the adjugate of its parent's system, in closed form at size 1,
and by one elimination when the parent's system is singular.  The replaced
chain stays in ``src/`` as the oracle: ``solve_affine`` gives the solution
set, ``strictly_positive_point`` decides positivity and ``eval_quadratic``
the value.  For every support the two must agree on whether the solution is
unique, whether it is positive, the point and the value.  Each test also
asserts which branches of the scan its inputs reached.
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
    det)``, with branch "size 1", "bordered" or "eliminated"."""
    calls = []
    real = copositivity_mod._support_system

    def recording(M, support, parent, full):
        det, rows = real(M, support, parent, full)
        branch = ("size 1" if len(support) == 1
                  else "bordered" if parent is not None else "eliminated")
        calls.append((support, branch, det))
        return det, rows

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


def agree(A: SymMatrix, solves, branches: Counter) -> None:
    """Scan A without a cache and compare every support with the oracle."""
    solves.clear()
    found = {}
    for value, x in stationary_candidates(A):
        support = tuple(i for i, c in enumerate(x) if c)
        assert support not in found, (A, support)
        found[support] = (x, value)
    det_of = {}
    for support, branch, det in solves:
        det_of[support] = det
        unique, point, value = oracle(A, support)
        assert (det != 0) == unique, (A, support)
        got = found.pop(support, (None, None))
        assert got == (point, value), (A, support)
        assert all(type(c) is Fraction for c in got[0] or ()), (A, support)
        branches[branch, "singular" if not det else
                 "negative" if det < 0 else "positive"] += 1
        if branch == "eliminated":
            # without a cache, only a singular parent leaves nothing to border
            assert det_of[support[:-1]] == 0, (A, support)
    assert not found, A
    assert [s for s, _, _ in solves] == [
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
    assert branches["eliminated", "singular"] > 0
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
    assert branches["eliminated", "singular"] > 0


def test_singular_parent_with_a_nonsingular_child(solves):
    # a seeded search over small-integer matrices for the fallback that
    # eliminates a nonsingular system whose parent's system is singular
    rng = random.Random(41)
    branches = Counter()
    hits = 0
    for _ in range(200):
        A = random_symmetric(rng, rng.randint(3, 5), num_range=(-2, 2),
                             den_range=(1, 1), diag_range=(-1, 2))
        before = branches["eliminated", "negative"] + \
            branches["eliminated", "positive"]
        agree(A, solves, branches)
        hits += branches["eliminated", "negative"] + \
            branches["eliminated", "positive"] > before
    assert hits >= 10
    assert branches["eliminated", "negative"] > 0
    assert branches["eliminated", "positive"] > 0
