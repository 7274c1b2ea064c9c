"""Metamorphic properties: transformations that must not change the answers.

For a positive rational c, a positive diagonal D and a permutation P, the
matrices c A, D A D and P A P^T are copositive exactly when A is.  The sign
of the simplex minimum is kept (a zero of A maps to a zero of the image),
the minimal supports are kept (renumbered by P), and so is the nullity of
the extremality system.  Scaling by c changes the common denominator of the
entries, so these runs also exercise the per-matrix integer form.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copocert.copositivity import is_copositive
from copocert.errors import NotCopositiveError
from copocert.extremality import extremality_certificate
from copocert.linalg import SymMatrix
from copocert.scaling import DiagonalScaling

from oracles import (
    fraction_rows,
    hildebrand_t,
    permuted_matrix,
    random_positive_diagonal,
    scale,
)

F = Fraction


def sign(q) -> int:
    return (q > 0) - (q < 0)


def drawn(seed: int, n: int) -> SymMatrix:
    """A unit-diagonal {-1,0,1} pattern; on odd seeds its +1 entries are
    raised to rationals in [1, 4], which keeps copositivity and the pair
    zeros on the -1 entries while making the entries rational."""
    rng = random.Random(seed)
    rows = [[F(1) if i == j else F(0) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            e = F(rng.choice((-1, 0, 1)))
            if e == 1 and seed % 2:
                e = F(rng.randint(4, 16), rng.randint(1, 4))
            rows[i][j] = rows[j][i] = e
    return SymMatrix.from_rows(rows)


def summary(A: SymMatrix, relabel=None):
    """Verdict, sign of the minimum, and, when copositive, the minimal
    supports (mapped through ``relabel``) and the extremality nullity."""
    verdict = is_copositive(A)
    out = (verdict.copositive, sign(verdict.simplex_minimum))
    if not verdict.copositive:
        return out
    cert = extremality_certificate(A)
    relabel = relabel or (lambda i: i)
    supports = frozenset(frozenset(relabel(i) for i in z.support)
                         for z in cert.minimal_zeros)
    return out + (supports, cert.nullity)


orders = st.integers(min_value=1, max_value=5)
seeds = st.integers(min_value=0, max_value=10**6)
positive = st.fractions(min_value=F(1, 12), max_value=50, max_denominator=12)


@given(seeds, orders, positive)
@settings(max_examples=40, deadline=None)
def test_positive_multiple(seed, n, c):
    A = drawn(seed, n)
    cA = SymMatrix.from_rows([[c * x for x in row]
                              for row in fraction_rows(A)])
    assert summary(cA) == summary(A)
    verdict = is_copositive(A)
    if verdict.copositive:
        assert is_copositive(cA).simplex_minimum == c * verdict.simplex_minimum


@given(seeds, orders)
@settings(max_examples=40, deadline=None)
def test_positive_diagonal_scaling(seed, n):
    A = drawn(seed, n)
    D = DiagonalScaling(random_positive_diagonal(random.Random(seed + 1), n))
    assert summary(scale(A, D)) == summary(A)


@given(seeds, orders)
@settings(max_examples=40, deadline=None)
def test_permutation(seed, n):
    A = drawn(seed, n)
    perm = random.Random(seed + 2).sample(range(n), n)
    B = permuted_matrix(A, perm)  # B_ij = A_perm[i],perm[j]
    inverse = {p: i for i, p in enumerate(perm)}
    assert summary(B) == summary(A, relabel=inverse.__getitem__)
    verdict = is_copositive(A)
    if verdict.copositive:
        assert is_copositive(B).simplex_minimum == verdict.simplex_minimum


@pytest.mark.parametrize("seed", range(3))
def test_scaled_and_permuted_hildebrand_t(seed):
    # minimal zeros of support 3; P D T D P^T keeps them, renumbered by P
    rng = random.Random(seed)
    T = hildebrand_t([F(1, rng.randint(4, 9)) for _ in range(5)])
    D = DiagonalScaling(random_positive_diagonal(rng, 5))
    perm = rng.sample(range(5), 5)
    B = permuted_matrix(scale(T, D), perm)
    inverse = {p: i for i, p in enumerate(perm)}
    expected = summary(T, relabel=inverse.__getitem__)
    assert summary(B) == expected
    assert expected[2:] == (frozenset(frozenset(inverse[i] for i in s)
                                      for s in ((0, 1, 2), (1, 2, 3), (2, 3, 4),
                                                (0, 3, 4), (0, 1, 4))), 1)


def test_scalar_multiple_changes_the_denominator():
    A = drawn(0, 4)
    cA = SymMatrix.from_rows([[F(3, 7) * x for x in row]
                              for row in fraction_rows(A)])
    assert A.integer_form[1] == 1 and cA.integer_form[1] == 7
    try:
        zeros = extremality_certificate(A).minimal_zeros
    except NotCopositiveError:
        zeros = None
    assert summary(cA) == summary(A)
    if zeros is not None:
        assert [z.support for z in extremality_certificate(cA).minimal_zeros] \
            == [z.support for z in zeros]
