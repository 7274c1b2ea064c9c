"""Seeded matrix families whose copositivity facts are known by construction.

Every generator returns a ``Case``: the matrix plus the truth the benchmark
checks the program's output against.  None of the facts below is computed
with copocert; they follow from how the matrix is built.

* ``dsd``: D S D with S unit-diagonal, its -1 graph triangle-free, +1 on every
  pair joined by a -1 2-path, and 0/+1 elsewhere.  Such an S is copositive
  (for every j, any two -1 neighbours of j are joined by +1), its minimal
  zeros sit exactly on the -1 edges, and one vertex is left out of every -1
  edge, so the diagonal entry of that vertex is a free direction of the
  extremality system: copositive, pair zeros, not extremal.
* ``bbt``: B B^T + N with N >= 0 and a positive diagonal: strictly copositive,
  no zeros, and (generically) no sign-pattern scaling.
* ``rank1``: v v^T with v of mixed sign and no zero entry: copositive and
  extremal; its minimal zeros are the pairs {i, j} with v_i v_j < 0.
* ``refute``: a dsd matrix in which the +1 closing one -1, -1 path i-j-k is
  lowered to 9/10 (before scaling).  The 3-point vector (1, 2, 1) on
  {i, j, k} then has value -2/10 times a positive factor, so the matrix is
  not copositive and every command that needs copositivity must refuse it.

A case is built from two random streams.  The shape (the -1 graph, the 0/+1
fill, the lowered path, the sign split of v) depends only on the family, the
order and the case index; the seed draws the numbers (D, B, N, |v|) and a
relabelling of the indices.  Every seed thus meets the same mix of shapes
and varies what the arithmetic sees, so runs on different seeds compare
like with like.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

Matrix = tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class Case:
    """A generated matrix with the facts known about it."""

    family: str
    matrix: Matrix
    copositive: bool
    extremal: bool
    # sorted 0-based minimal supports; None when the matrix is not copositive
    supports: tuple[tuple[int, ...], ...] | None
    # the unit-diagonal {-1,0,1} core of a diagonal scaling, with the factors
    pattern: Matrix | None = None
    scaling: tuple[Fraction, ...] | None = None

    @property
    def order(self) -> int:
        return len(self.matrix)


def freeze(rows) -> Matrix:
    """Rows as a tuple of tuples of Fractions."""
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def _scaled(d, S) -> Matrix:
    n = len(S)
    return freeze([[d[i] * S[i][j] * d[j] for j in range(n)] for i in range(n)])


def _factor(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(1, 9))


def _minus_graph(rng: random.Random, n: int, edges: int, need_path: bool):
    """Random triangle-free graph on vertices 0..n-2 with ``edges`` edges.

    Vertex n-1 is isolated before the vertices are shuffled.
    """
    while True:
        pairs = [(i, j) for i in range(n - 1) for j in range(i + 1, n - 1)]
        rng.shuffle(pairs)
        adj = [set() for _ in range(n)]
        chosen = []
        for i, j in pairs:
            if len(chosen) == edges:
                break
            if not adj[i] & adj[j]:
                adj[i].add(j)
                adj[j].add(i)
                chosen.append((i, j))
        if len(chosen) == edges and (not need_path
                                     or any(len(a) >= 2 for a in adj)):
            break
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[i], perm[j]) for i, j in chosen]


def _pattern(rng: random.Random, n: int, edges) -> list[list[int]]:
    adj = [set() for _ in range(n)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    S = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if j in adj[i]:
                value = -1
            elif adj[i] & adj[j]:
                value = 1
            else:
                value = rng.choice((0, 1))
            S[i][j] = S[j][i] = value
    return S


def dsd(shape: random.Random, rng: random.Random, n: int) -> Case:
    edges = _minus_graph(shape, n, n - 2, need_path=False)
    S = _pattern(shape, n, edges)
    d = tuple(_factor(rng) for _ in range(n))
    supports = tuple(sorted(tuple(sorted(e)) for e in edges))
    return Case("dsd", _scaled(d, S), True, False, supports,
                pattern=freeze(S), scaling=d)


def bbt(shape: random.Random, rng: random.Random, n: int) -> Case:
    B = [[Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(n)]
         for _ in range(n)]
    A = [[sum(B[i][t] * B[j][t] for t in range(n)) for j in range(n)]
         for i in range(n)]
    for i in range(n):
        for j in range(i, n):
            low = 1 if i == j else 0
            extra = Fraction(rng.randint(low, 3), rng.randint(1, 4))
            A[i][j] += extra
            if i != j:
                A[j][i] += extra
    return Case("bbt", freeze(A), True, False, ())


def rank1(shape: random.Random, rng: random.Random, n: int) -> Case:
    signs = [-1] * (n // 2) + [1] * (n - n // 2)
    v = [s * _factor(rng) for s in signs]
    A = freeze([[v[i] * v[j] for j in range(n)] for i in range(n)])
    supports = tuple((i, j) for i in range(n) for j in range(i + 1, n)
                     if signs[i] != signs[j])
    S = freeze([[signs[i] * signs[j] for j in range(n)] for i in range(n)])
    return Case("rank1", A, True, True, supports, pattern=S,
                scaling=tuple(abs(x) for x in v))


def refute(shape: random.Random, rng: random.Random, n: int) -> Case:
    edges = _minus_graph(shape, n, n - 2, need_path=True)
    S = _pattern(shape, n, edges)
    paths = [(i, j, k) for j in range(n) for i in range(n) for k in range(i + 1, n)
             if S[i][j] == -1 and S[j][k] == -1 and i != j != k]
    i, _, k = shape.choice(paths)
    S = [[Fraction(x) for x in row] for row in S]
    S[i][k] = S[k][i] = Fraction(9, 10)
    d = tuple(_factor(rng) for _ in range(n))
    return Case("refute", _scaled(d, S), False, False, None)


def horn() -> Case:
    """The order-5 Horn matrix: -1 on cyclically adjacent pairs, +1 on the
    others.  Copositive and extremal; its minimal zeros sit on the five
    adjacent pairs."""
    rows = [[1 if i == j or (j - i) % 5 in (2, 3) else -1 for j in range(5)]
            for i in range(5)]
    supports = tuple(sorted(tuple(sorted((i, (i + 1) % 5))) for i in range(5)))
    return Case("horn", freeze(rows), True, True, supports, pattern=freeze(rows))


GENERATORS = {"dsd": dsd, "bbt": bbt, "rank1": rank1, "refute": refute}


def generate(family: str, n: int, seed: int, index) -> Case:
    """Case ``index`` of ``family`` at order ``n`` for ``seed``, reproducibly."""
    shape = random.Random(f"{family}:{n}:{index}")
    rng = random.Random(f"{family}:{n}:{index}:{seed}")
    case = GENERATORS[family](shape, rng, n)
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(case, perm)


def relabel(case: Case, perm) -> Case:
    """The same case with index i of the result standing for ``perm[i]``."""
    inverse = {old: new for new, old in enumerate(perm)}
    supports = None
    if case.supports is not None:
        supports = tuple(sorted(tuple(sorted(inverse[i] for i in s))
                                for s in case.supports))
    return Case(case.family, permuted(case.matrix, perm), case.copositive,
                case.extremal, supports,
                pattern=None if case.pattern is None else permuted(case.pattern, perm),
                scaling=None if case.scaling is None else tuple(case.scaling[i] for i in perm))


def permuted(rows, perm) -> Matrix:
    """Simultaneous permutation: entry (i, j) of the result is
    ``rows[perm[i]][perm[j]]``."""
    n = len(rows)
    return freeze([[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)])


def write_matrix(path: str, rows) -> None:
    """Write the plain-text matrix format the CLI reads."""
    with open(path, "w") as handle:
        handle.write(f"{len(rows)}\n")
        for row in rows:
            handle.write(" ".join(str(x) for x in row) + "\n")
