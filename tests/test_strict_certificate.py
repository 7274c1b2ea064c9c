"""The strict-copositivity certificate against the support scan.

``copositivity._strictly_copositive`` lets ``minimal_zeros`` answer "no
zeros" without the 2^n support scan.  Here it is checked three ways on
seeded B B^T + N matrices of orders 2-9 (B of full and of deficient rank),
on draws where only M or only its Z-part P is positive definite, on every
census class up to order 5 and on the degenerate families of
``tests/oracles.py``:

- its verdict equals Sylvester's criterion on M and on P, each leading
  minor from ``fraction_det``, after the pair screen;
- wherever it holds, the scan finds the matrix copositive with no zeros;
- ``minimal_zeros``, ``extremality_certificate`` and ``build_graph`` give
  the same results, or raise the same errors, with the certificate and
  the convex route switched off.

Each outcome (screen rejects, M positive definite, only P, neither) must
be met a minimum number of times, so a certificate that grows lax or
strict on one branch cannot pass unseen.
"""

import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import copocert.zeros as zeros_mod
from copocert.census import Candidate, read_records
from copocert.copositivity import _scan, _strictly_copositive
from copocert.errors import CopocertError
from copocert.extremality import extremality_certificate
from copocert.linalg import SymMatrix
from copocert.structure_graph import build_graph
from copocert.zeros import minimal_zeros

from oracles import (
    DEGENERATE_FAMILIES,
    bbt_plus_nonnegative,
    degenerate_matrix,
    positive_definite_by_minors,
)

F = Fraction
BASELINES = Path(__file__).resolve().parent / "baselines"


def only_m_definite(n: int, seed: int) -> SymMatrix:
    """``I + v v^T`` for v with at least two entries of each sign, each of
    absolute value at least 1: positive definite, while its Z-part
    ``diag(1 + v_i^2) - (the |v_i v_j| of the mixed-sign pairs)`` is not,
    as the sums of the weights ``v_i^2 / (1 + v_i^2) >= 1/2`` over the two
    sign classes have a product of at least 1."""
    rng = random.Random(f"only-m/{n}/{seed}")
    signs = [1, 1, -1, -1] + [rng.choice((1, -1)) for _ in range(n - 4)]
    rng.shuffle(signs)
    v = [s * F(rng.randint(2, 9), rng.randint(1, 2)) for s in signs]
    return SymMatrix.from_rows([[int(i == j) + v[i] * v[j] for j in range(n)]
                                for i in range(n)])


def only_p_definite(n: int, seed: int) -> SymMatrix:
    """A diagonally dominant Z-matrix (positive definite) plus one large
    positive pair, ``M_ij^2 > M_ii M_jj``: M is not positive definite, and
    its Z-part is the Z-matrix with that pair set to 0, still diagonally
    dominant."""
    rng = random.Random(f"only-p/{n}/{seed}")
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = -F(rng.randint(0, 3), rng.randint(1, 3))
    for i in range(n):
        rows[i][i] = 1 - sum(rows[i]) + F(rng.randint(0, 3), rng.randint(1, 3))
    i, j = rng.sample(range(n), 2)
    rows[i][j] = rows[j][i] = rows[i][i] + rows[j][j]
    return SymMatrix.from_rows(rows)


def census_classes():
    for n in range(1, 6):
        for record in read_records(BASELINES / f"census_n{n}.txt"):
            yield Candidate(n, record.canonical_offdiag).matrix()


def cases():
    """``(label, matrix)`` for every draw of the module docstring."""
    out = []
    for n in range(2, 10):
        for seed in range(6):
            out.append((f"bbt-{n}-{seed}", bbt_plus_nonnegative(n, seed)))
            rank = seed % (n - 1) + 1
            out.append((f"bbt-rank{rank}-{n}-{seed}",
                        bbt_plus_nonnegative(n, seed, rank)))
    for n in range(4, 10):
        for seed in range(4):
            out.append((f"only-m-{n}-{seed}", only_m_definite(n, seed)))
    for n in range(2, 10):
        for seed in range(4):
            out.append((f"only-p-{n}-{seed}", only_p_definite(n, seed)))
    out += [(f"census-{k}", A) for k, A in enumerate(census_classes())]
    for family in DEGENERATE_FAMILIES:
        for n in (5, 6, 7):
            for seed in range(8):
                out.append((f"{family}-{n}-{seed}",
                            degenerate_matrix(family, n, seed)))
    return out


CASES = cases()


def z_part(M):
    """The diagonal and the negative off-diagonal entries of M, 0 elsewhere."""
    return [[x if i == j or x < 0 else 0 for j, x in enumerate(row)]
            for i, row in enumerate(M)]


def outcome(M) -> str:
    """Which step decides the certificate, by the oracle: the pair screen,
    M positive definite, only P positive definite, or neither."""
    n = len(M)
    if any(M[i][i] <= 0 for i in range(n)) or any(
            M[i][j] < 0 and M[i][j] ** 2 >= M[i][i] * M[j][j]
            for i in range(n) for j in range(i + 1, n)):
        return "screen"
    if positive_definite_by_minors(M):
        return "M"
    if positive_definite_by_minors(z_part(M)):
        return "P"
    return "neither"


def test_certificate_equals_sylvesters_criterion():
    seen = Counter()
    for label, A in CASES:
        M = A.integer_form[0]
        step = outcome(M)
        seen[step] += 1
        assert _strictly_copositive(M) == (step in ("M", "P")), label
    # every branch is met often enough to be tested
    assert seen["screen"] >= 800
    assert seen["M"] >= 60
    assert seen["P"] >= 90
    assert seen["neither"] >= 45


def test_certified_matrices_are_copositive_without_zeros():
    certified = 0
    for label, A in CASES:
        if _strictly_copositive(A.integer_form[0]):
            certified += 1
            verdict = _scan(A)
            assert verdict.copositive and verdict.zeros == (), label
            assert verdict.simplex_minimum > 0, label
    assert certified >= 150


def _results(A):
    """What each of the three layers returns on A, or the error it raises."""
    def attempt(call):
        try:
            return call()
        except CopocertError as exc:
            return type(exc), str(exc), getattr(exc, "violator", None)
    return (attempt(lambda: minimal_zeros(A)),
            attempt(lambda: extremality_certificate(A)),
            attempt(lambda: build_graph(A, minimal_zeros(A))))


def test_layers_agree_with_the_certificate_switched_off(monkeypatch):
    with_certificate = [_results(A) for _, A in CASES]
    # the convex route off too, so that the scan answers instead
    monkeypatch.setattr(zeros_mod, "_strictly_copositive", lambda M: False)
    monkeypatch.setattr(zeros_mod, "_convex", lambda A: None)
    for (label, A), expected in zip(CASES, with_certificate):
        assert _results(A) == expected, label
