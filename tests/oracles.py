"""Independent oracles used to cross-check the library's answers.

Everything here recomputes results through a different route than the code
under test: grid scans instead of stationary-point enumeration, brute-force
matrix permutation instead of precomputed position maps, a counting formula
instead of explicit deduplication, Hoffman and Pereira's rule on -1
neighbourhoods instead of the census's triple sums, vertex enumeration
instead of the simplex method, kernels of principal submatrices instead of
the stationary systems the copositivity scan solves, and bisection of the
simplex (``subdivision_falsifier``) instead of the support scan.  The
rational path below (``fraction_solve_affine``, ``fraction_quadratic``) is
the ``Fraction`` back-substitution and form evaluation the integer-native
core replaced, kept as the reference for it.  ``lp_is_copositive`` is the
support scan as it was before it skipped systems with a positive-dimensional
solution set: the exact LP decides positivity on every feasible support.
``unpruned_is_copositive`` is the scan as it was before it skipped the
supports with a parent that is not conditionally positive definite, which
``conditionally_positive_definite`` decides from leading minors instead of
bordered determinants; ``degenerate_matrix`` draws the seeded families that
the two are compared on.  ``routes_off`` is the one way to switch routes
of the dispatch (``copositivity._decide``) off, ``through`` asks one route
alone, ``scan_is_copositive`` is ``is_copositive`` with every route but the
prefilter and the scan switched off, and ``shifted`` moves every simplex
value of a matrix by one constant.
``fraction_build_graph`` and ``bfs_component_analysis`` are the entry graph
as it was built before it was read off the extremality system: the gate
``(A u)_k = 0`` tested again in ``Fraction`` arithmetic (``matrix_apply``,
``dot``), and a breadth-first two-colouring.  ``fraction_extract_pattern``
and ``fraction_scaling_failure`` are the D S D decomposition as it was
before it read the integer form: signs, square roots and the square-product
condition on the ``Fraction`` entries.  ``hoffman_pereira_supports`` reads
the minimal supports of a copositive census class off its -1 entries.  The
helpers at the end were library functions that only tests called (among
them ``SymMatrix.identity`` and its siblings, ``scale``, ``inverse_rows``,
the scan's former elimination fallback, and ``bordered_adjugate``, its
former O(k^2) bordering step), and
``zero_from_coordinates`` is the ``Zero`` constructor ``minimal_zeros`` used
before it took the scan's points as they are.  ``bordered_state``
recomputes the state that the scan keeps per support from determinants
(``fraction_det``) and adjugate columns (``adjugate_columns``);
``block_state`` memoizes it by the principal submatrix.
``positive_definite_by_minors`` is Sylvester's criterion with every leading
minor from ``fraction_det``, the reference for the fraction-free
elimination of the strict-copositivity certificate, and
``bbt_plus_nonnegative`` draws the seeded B B^T + N matrices it is tested
on.  ``two_term_kernel`` is the canonical kernel vector per free component
that the extremality certificate built from its union-find before it
checked the span on the ratios; ``walk_find`` follows every parent link
without compressing, the reference for the union-find's ``find``; and
``two_term_disagreements`` holds the certificate's two-term path (nullity,
flag, span check) against the elimination of its own system, on seeded
triangle-free graph matrices (``graph_matrix``, ``scaled_graph_matrix``)
among others.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib.util
import itertools
import math
import random
import sys
from fractions import Fraction
from operator import mul
from pathlib import Path
from unittest import mock

import copocert.copositivity as copositivity_mod
from copocert.census import ALPHABET, MAX_ORDER, Candidate
from copocert.copositivity import (
    CopositivityVerdict,
    Zero,
    _prefilter_violator,
    stationary_candidates,
)
from copocert.extremality import _TwoTermSolutions, extremality_certificate
from copocert.linalg import (
    AffineSolutionSet,
    SymMatrix,
    _back_substitute,
    _bareiss_echelon,
    _int_rows,
    _primitive_int_row,
    canonical_vector,
    eval_quadratic,
    is_proportional,
    kernel_basis,
    solve_affine,
    unknowns,
    upper_size,
)
from copocert.errors import (
    InvariantError,
    NotUnitDiagonalError,
    ScalingConditionError,
    SupportCardinalityError,
)
from copocert.lp import strictly_positive_point
from copocert.scaling import DiagonalScaling, ScalingDecomposition
from copocert.structure_graph import (
    ComponentReport,
    GraphComponent,
    StructureGraph,
)


def simplex_grid(n: int, denom: int):
    """All points of the standard simplex with coordinates k/denom."""
    for cuts in itertools.combinations(range(denom + n - 1), n - 1):
        prev = -1
        parts = []
        for c in cuts:
            parts.append(c - prev - 1)
            prev = c
        parts.append(denom + n - 2 - prev)
        yield tuple(Fraction(p, denom) for p in parts)


def grid_min(A: SymMatrix, denom: int) -> Fraction:
    """Minimum of the quadratic form over the denominator-denom grid.

    An upper bound for the true simplex minimum; exact when the minimizer
    happens to lie on the grid.
    """
    return min(eval_quadratic(A, x) for x in simplex_grid(A.n, denom))


def hoffman_pereira_copositive(order: int, offdiag) -> bool:
    """Hoffman and Pereira's rule (JCTA 14, 1973) for the unit-diagonal
    {-1,0,1} matrix with strict upper triangle ``offdiag``: it is copositive
    iff any two -1 neighbours of a vertex are joined by +1."""
    entry = {}
    for (i, j), a in zip(itertools.combinations(range(order), 2), offdiag):
        entry[i, j] = entry[j, i] = a
    for v in range(order):
        minus = [u for u in range(order) if u != v and entry[u, v] == -1]
        if any(entry[u, w] != 1 for u, w in itertools.combinations(minus, 2)):
            return False
    return True


def hoffman_pereira_supports(order: int, offdiag) -> tuple[tuple[int, int], ...]:
    """The pairs ``(i, j)``, ``i < j``, with ``a_ij = -1``, sorted: by
    Hoffman and Pereira (JCTA 14, 1973) the minimal zero supports of a
    copositive unit-diagonal {-1,0,1} matrix, each zero ``e_i + e_j``."""
    return tuple(pair for pair, a in zip(
        itertools.combinations(range(order), 2), offdiag) if a == -1)


def burnside_class_count(n: int) -> int:
    """Number of permutation classes of {-1,0,1} off-diagonal tuples.

    Counts orbits of the symmetric group acting on strict-upper-triangle
    positions by averaging 3^(cycle count) over all permutations.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    index = {p: k for k, p in enumerate(pairs)}
    total = 0
    for perm in itertools.permutations(range(n)):
        maps = [index[tuple(sorted((perm[i], perm[j])))] for i, j in pairs]
        seen: set[int] = set()
        cycles = 0
        for start in range(len(pairs)):
            if start in seen:
                continue
            cycles += 1
            k = start
            while k not in seen:
                seen.add(k)
                k = maps[k]
        total += 3 ** cycles
    return total // math.factorial(n)


def upper_entries(A: SymMatrix) -> tuple[Fraction, ...]:
    """A's entries on and above the diagonal in row-major order: its
    coordinates in the unknowns of the extremality system."""
    return tuple(A.get(i, j) for i in range(A.n) for j in range(i, A.n))


def upper_index(n: int, i: int, j: int) -> int:
    """Position of entry (i, j) among the unknowns, by the closed formula
    for row-major upper-triangle storage."""
    i, j = min(i, j), max(i, j)
    return i * n - i * (i - 1) // 2 + (j - i)


def from_upper_entries(n: int, entries) -> SymMatrix:
    """The order-n symmetric matrix whose row-major upper triangle is
    ``entries``."""
    rows = [[0] * n for _ in range(n)]
    it = iter(entries)
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = next(it)
    return SymMatrix.from_rows(rows)


def permuted_matrix(A: SymMatrix, perm) -> SymMatrix:
    """P A P^T built entry by entry."""
    return SymMatrix.from_rows(
        [[A.get(perm[i], perm[j]) for j in range(A.n)] for i in range(A.n)])


def brute_canonical(c: Candidate) -> tuple[tuple[int, ...], int]:
    """Canonical off-diagonal tuple and orbit size via matrix permutation.

    Deliberately avoids the position-map machinery: each permutation is
    applied to the full matrix and the strict upper triangle is read back.
    """
    A = c.matrix()
    images = set()
    for perm in itertools.permutations(range(c.order)):
        B = permuted_matrix(A, perm)
        images.add(tuple(int(B.get(i, j))
                         for i in range(c.order)
                         for j in range(i + 1, c.order)))
    return min(images), len(images)


def zero_from_coordinates(coords) -> Zero:
    """The ``Zero`` of a nonnegative nonzero rational vector: its primitive
    integer multiple.

    ``minimal_zeros`` builds its zeros from the scan's integer points as
    they are, since the scan checks their sign and sum on integers.
    """
    coords = tuple(map(Fraction, coords))
    if any(c < 0 for c in coords):
        raise ValueError("zero coordinates must be nonnegative")
    if not any(coords):
        raise ValueError("zero vector is not a zero of a matrix")
    return Zero(tuple(_primitive_int_row(coords)))


def subspace_positive_point(solset: AffineSolutionSet):
    """A strictly positive vector in a linear subspace, or ``None``.

    Vertex enumeration of {x in span(kernel) : x >= 0, sum x = 1}: a positive
    vector exists iff the polytope is nonempty and the union of its vertex
    supports covers every coordinate; the vertex average is then positive.
    Exponential in the coordinate count; an oracle for small instances only.
    """
    if solset.particular is not None and any(solset.particular):
        raise ValueError("expected a linear subspace, got an affine one")
    kernel = solset.kernel
    if not kernel:
        return None
    ncols = len(kernel[0])
    k = len(kernel)
    sum_row = tuple(sum(kv[i] for i in range(ncols)) for kv in kernel)
    vertices = []
    # a vertex is pinned by k-1 independent zeroed coordinates plus the sum
    for zeroed in itertools.combinations(range(ncols), k - 1):
        rows = [tuple(kv[i] for kv in kernel) for i in zeroed]
        rows.append(sum_row)
        rhs = [Fraction(0)] * (k - 1) + [Fraction(1)]
        sol = solve_affine(rows, rhs, ncols=k)
        if not sol.feasible or sol.dimension != 0:
            continue
        x = tuple(sum(sol.particular[t] * kernel[t][i] for t in range(k))
                  for i in range(ncols))
        if all(c >= 0 for c in x):
            vertices.append(x)
    if not vertices:
        return None
    covered = set()
    for x in vertices:
        covered |= {i for i, c in enumerate(x) if c > 0}
    if covered != set(range(ncols)):
        return None
    return tuple(sum(col) / len(vertices) for col in zip(*vertices))


def subspace_positive_point_exists(solset: AffineSolutionSet) -> bool:
    """Whether a linear subspace contains a strictly positive vector."""
    return subspace_positive_point(solset) is not None


def zero_with_support(A: SymMatrix, support) -> Zero | None:
    """The sum-normalized zero of a copositive A supported exactly on
    ``support``, if any, found as a positive point of ker A_S.

    Kernel basis plus vertex enumeration, independent of the stationary
    scan that ``minimal_zeros`` reads its zeros from.
    """
    idx = sorted(set(support))
    if not idx or not all(0 <= i < A.n for i in idx):
        raise ValueError("support must be a nonempty subset of the index range")
    sub = principal(A, idx)
    kernel = kernel_basis(fraction_rows(sub), sub.n)
    point = subspace_positive_point(subspace(sub.n, kernel))
    if point is None:
        return None
    coords = [Fraction(0)] * A.n
    for v, i in zip(point, idx):
        coords[i] = v
    return zero_from_coordinates(coords)


def kernel_minimal_supports(A: SymMatrix) -> list[tuple[int, ...]]:
    """Inclusion-minimal supports S on which ker A_S meets the open orthant,
    by cardinality then lexicographically."""
    found = []
    for k in range(1, A.n + 1):
        for support in itertools.combinations(range(A.n), k):
            if any(set(f) < set(support) for f in found):
                continue
            if zero_with_support(A, support) is not None:
                found.append(support)
    return found


def random_symmetric(rng, n: int, num_range=(-6, 6), den_range=(1, 3),
                     diag_range=(0, 8)) -> SymMatrix:
    """Random rational symmetric matrix with a nonnegative-leaning diagonal."""
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = Fraction(rng.randint(*diag_range), rng.randint(*den_range))
        for j in range(i + 1, n):
            value = Fraction(rng.randint(*num_range), rng.randint(*den_range))
            rows[i][j] = rows[j][i] = value
    return SymMatrix.from_rows(rows)


def benchmark_families():
    """The benchmark's seeded matrix families, ``perfbench/families.py``."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "families.py"
    spec = importlib.util.spec_from_file_location("perfbench_families", path)
    module = sys.modules.get(spec.name)
    if module is None:
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look it up there
        spec.loader.exec_module(module)
    return module


def bordered_system(M, support):
    """``K_S = [[0, 1^T], [1, M_S]]`` for the integer rows ``M``."""
    return [[0] + [1] * len(support)] + [
        [1] + [M[r][s] for s in support] for r in support]


def random_positive_diagonal(rng, n: int):
    """Random scaling factors drawn from the rationals in [1/3, 4]."""
    return tuple(Fraction(rng.randint(1, 4), rng.randint(1, 3))
                 for _ in range(n))


def hildebrand_t(ts) -> SymMatrix:
    """Hildebrand's T(psi) (Linear Algebra Appl. 437, 2012) with
    ``tan(psi_i / 2) = ts[i]``: rows ``[1, -c4, c45, c23, -c3]``,
    ``[-c4, 1, -c5, c51, c34]``, ``[c45, -c5, 1, -c1, c12]``,
    ``[c23, c51, -c1, 1, -c2]``, ``[-c3, c34, c12, -c2, 1]`` with
    ``ci = cos psi_i`` and ``cij = cos(psi_i + psi_j)``.  Rational t gives
    ``cos = (1 - t^2) / (1 + t^2)`` and ``sin = 2t / (1 + t^2)``, so every
    entry is rational.  Extremal for psi > 0 with sum(psi) < pi."""
    ts = [Fraction(t) for t in ts]
    c = [(1 - t * t) / (1 + t * t) for t in ts]
    s = [2 * t / (1 + t * t) for t in ts]

    def cc(i, j):  # cos(psi_i + psi_j), 1-based as in the rows above
        return c[i - 1] * c[j - 1] - s[i - 1] * s[j - 1]

    c1, c2, c3, c4, c5 = c
    return SymMatrix.from_rows([
        [1, -c4, cc(4, 5), cc(2, 3), -c3],
        [-c4, 1, -c5, cc(5, 1), cc(3, 4)],
        [cc(4, 5), -c5, 1, -c1, cc(1, 2)],
        [cc(2, 3), cc(5, 1), -c1, 1, -c2],
        [-c3, cc(3, 4), cc(1, 2), -c2, 1],
    ])


# --- the all-Fraction elimination path -------------------------------------

def fraction_primitive_int_row(row) -> list[int]:
    """``_primitive_int_row`` computed through ``Fraction`` products."""
    denom = math.lcm(*(Fraction(x).denominator for x in row)) if row else 1
    ints = [int(Fraction(x) * denom) for x in row]
    g = math.gcd(*ints) if ints else 0
    return [x // g for x in ints] if g > 1 else ints


def _fraction_canonical(x) -> tuple[int, ...]:
    """The primitive int multiple of x with a positive first nonzero entry,
    as ``canonical_vector`` returns kernel vectors."""
    ints = fraction_primitive_int_row(x)
    lead = next((v for v in ints if v != 0), 0)
    return tuple(-v if lead < 0 else v for v in ints)


def _fraction_back_substitute(ech, pivots, x, rhs_col=None):
    for pr, pc in reversed(pivots):
        row = ech[pr]
        s = sum((row[j] * x[j] for j in range(pc + 1, len(x))), Fraction(0))
        top = (Fraction(row[rhs_col]) if rhs_col is not None else 0) - s
        x[pc] = top / row[pc]
    return x


def fraction_solve_affine(rows, rhs, ncols) -> AffineSolutionSet:
    """``solve_affine`` as it was before the integer-native core: every row
    scaled to a primitive integer row, Bareiss elimination, then
    back-substitution in ``Fraction`` arithmetic."""
    aug = [_primitive_int_row(list(r) + [b]) for r, b in zip(rows, rhs)]
    ech, pivots = _bareiss_echelon(aug, ncols)
    if any(ech[i][ncols] != 0 for i in range(len(pivots), len(ech))):
        return AffineSolutionSet(0, None, ())
    x = _fraction_back_substitute(ech, pivots, [Fraction(0)] * ncols, ncols)
    pivot_cols = {c for _, c in pivots}
    kernel = []
    for f in range(ncols):
        if f not in pivot_cols:
            v = [Fraction(0)] * ncols
            v[f] = Fraction(1)
            kernel.append(_fraction_canonical(
                _fraction_back_substitute(ech, pivots, v)))
    return AffineSolutionSet(len(kernel), tuple(x), tuple(kernel))


def fraction_quadratic(A: SymMatrix, x) -> Fraction:
    """``x^T A x`` summed term by term in ``Fraction`` arithmetic."""
    return sum((A.get(i, j) * x[i] * x[j]
                for i in range(A.n) for j in range(A.n) if x[i] and x[j]),
               Fraction(0))


def rational_support_system(A: SymMatrix, support):
    """Rows and right-hand side of ``A_S u - mu 1 = 0, sum u = 1``."""
    k = len(support)
    rows = [[A.get(i, j) for j in support] + [Fraction(-1)] for i in support]
    rows.append([Fraction(1)] * k + [Fraction(0)])
    return rows, [Fraction(0)] * k + [Fraction(1)]


# --- the entry graph by the Fraction gate and a BFS two-colouring ----------

def dot(u, v) -> Fraction:
    """Exact inner product of two rational vectors."""
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v) if a and b), Fraction(0))


def matrix_apply(A: SymMatrix, x) -> tuple[Fraction, ...]:
    """Matrix-vector product ``A x`` in ``Fraction`` arithmetic."""
    if len(x) != A.n:
        raise ValueError("vector length does not match matrix order")
    return tuple(dot(row, x) for row in fraction_rows(A))


def fraction_build_graph(A: SymMatrix, zeros) -> StructureGraph:
    """``build_graph`` as it was before it read its edges off
    ``build_system``: the gate ``(A u)_k = 0`` tested again on ``A u`` in
    ``Fraction`` arithmetic, with the same preconditions."""
    if not A.has_unit_diagonal():
        raise NotUnitDiagonalError("entry graph requires a unit diagonal")
    edges = set()
    for zero in zeros:
        if len(zero.point) != A.n:
            raise ValueError("zero order does not match matrix order")
        support = zero.support
        if len(support) != 2:
            raise SupportCardinalityError(f"support {support}")
        i, j = support
        if zero.coordinates[i] != zero.coordinates[j]:
            raise InvariantError("unbalanced pair-supported zero")
        image = matrix_apply(A, zero.coordinates)
        for k in range(A.n):
            if image[k] == 0:
                edges.add(tuple(sorted((tuple(sorted((i, k))),
                                        tuple(sorted((j, k)))))))
    return StructureGraph(A.n, tuple(sorted(edges)))


def bfs_component_analysis(G: StructureGraph) -> ComponentReport:
    """``component_analysis`` as it was before it read the components off
    the two-term union-find: breadth-first two-colouring from the smallest
    unvisited vertex; an edge joining two same-coloured vertices closes an
    odd cycle."""
    adj = {v: [] for v in G.vertices()}
    for a, b in G.edges:
        adj[a].append(b)
        adj[b].append(a)
    color = {}
    components = []
    for root in G.vertices():
        if root in color:
            continue
        color[root] = 0
        queue = collections.deque([root])
        members = [root]
        bipartite = True
        while queue:
            v = queue.popleft()
            for w in sorted(adj[v]):
                if w not in color:
                    color[w] = 1 - color[v]
                    members.append(w)
                    queue.append(w)
                elif color[w] == color[v]:
                    bipartite = False
        members.sort()
        classes = None
        if bipartite:
            lead = color[members[0]]
            classes = (tuple(v for v in members if color[v] == lead),
                       tuple(v for v in members if color[v] != lead))
        components.append(GraphComponent(tuple(members), bipartite, classes))
    return ComponentReport(G.order, tuple(components),
                           sum(c.bipartite for c in components))


# --- the D S D decomposition on Fraction entries ---------------------------

def _fraction_sign(q: Fraction) -> Fraction:
    if q > 0:
        return Fraction(1)
    if q < 0:
        return Fraction(-1)
    return Fraction(0)


def _fraction_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root in Q, or None.  q must be nonnegative."""
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def fraction_scaling_failure(A: SymMatrix) -> str | None:
    """``scaling._scaling_failure`` as it was before it read the integer
    form: the same conditions and messages on the ``Fraction`` entries."""
    for i in range(A.n):
        if A.get(i, i) <= 0:
            return f"diagonal entry {i + 1} is {A.get(i, i)}, must be positive"
    for i in range(A.n):
        for j in range(i + 1, A.n):
            a = A.get(i, j)
            if a != 0 and a * a != A.get(i, i) * A.get(j, j):
                base = str(a) if a > 0 and a.denominator == 1 else f"({a})"
                return (f"entry ({i + 1},{j + 1}): {base}^2 != "
                        f"{A.get(i, i)} * {A.get(j, j)}")
    return None


def fraction_extract_pattern(A: SymMatrix) -> ScalingDecomposition:
    """``scaling.extract_pattern`` as it was before it read the integer
    form: the signs of the ``Fraction`` entries and their square roots in
    Q, with the same all-or-nothing rule and self-check."""
    failure = fraction_scaling_failure(A)
    if failure is not None:
        raise ScalingConditionError(failure)
    pattern = SymMatrix.from_rows(
        [[1 if i == j else _fraction_sign(A.get(i, j)) for j in range(A.n)]
         for i in range(A.n)])
    roots = [_fraction_sqrt(A.get(i, i)) for i in range(A.n)]
    if all(r is not None for r in roots):
        D = DiagonalScaling(tuple(roots))
        if scale(pattern, D) != A:
            raise InvariantError("explicit scaling must reproduce A")
        return ScalingDecomposition(pattern, D)
    return ScalingDecomposition(pattern, None)


# --- the support scan with the exact LP on every feasible support ------------

def lp_stationary_candidates(A: SymMatrix):
    """Yield ``(value, point, dimension)`` for every support whose stationarity
    system has a solution strictly positive on the support, whatever the
    dimension of its solution set; supports by cardinality, then
    lexicographically."""
    n = A.n
    for k in range(1, n + 1):
        for support in itertools.combinations(range(n), k):
            sol = solve_affine(*rational_support_system(A, support), k + 1)
            if not sol.feasible:
                continue
            point = strictly_positive_point(sol, positive=range(k))
            if point is None:
                continue
            x = [Fraction(0)] * n
            for v, i in zip(point, support):
                x[i] = v
            yield eval_quadratic(A, x), tuple(x), sol.dimension


def lp_is_copositive(A: SymMatrix) -> CopositivityVerdict:
    """``is_copositive`` over ``lp_stationary_candidates``, with the same
    prefilter; ``zeros`` pairs the ``Zero`` of each kept point with its
    support's solution-set dimension."""
    hit = _prefilter_violator(A)
    if hit is not None:
        return CopositivityVerdict(False, hit[0], hit[1], ())
    best = None
    zeros = []
    supports = []
    for value, point, dimension in lp_stationary_candidates(A):
        if value < 0:
            return CopositivityVerdict(False, point, value, ())
        if best is None or value < best:
            best = value
        if value == 0:
            support = frozenset(i for i, c in enumerate(point) if c)
            if not any(s < support for s in supports):
                supports.append(support)
                zeros.append((zero_from_coordinates(point), dimension))
    return CopositivityVerdict(True, None, best, tuple(zeros))


# --- the support scan without pruning ---------------------------------------

def conditionally_positive_definite(A: SymMatrix, support) -> bool:
    """Whether ``A_S`` is positive definite on ``{v : sum(v) = 0}``: every
    leading principal minor of ``Z^T A_S Z`` is positive, for the basis
    ``Z = [e_i - e_last]`` of that subspace, in ``Fraction`` arithmetic."""
    *rest, last = support
    B = [[A.get(i, j) - A.get(i, last) - A.get(last, j) + A.get(last, last)
          for j in rest] for i in rest]
    # the r-th pivot of an elimination without row exchanges is the ratio
    # of the r-th leading minor to the one before it
    for r in range(len(B)):
        if B[r][r] <= 0:
            return False
        for i in range(r + 1, len(B)):
            f = B[i][r] / B[r][r]
            for j in range(r, len(B)):
                B[i][j] -= f * B[r][j]
    return True


def parents_of(support) -> list[tuple[int, ...]]:
    """The supports one smaller than ``support`` inside it (none for a
    singleton)."""
    if len(support) == 1:
        return []
    return [support[:j] + support[j + 1:] for j in range(len(support))]


def scan_visits(A: SymMatrix):
    """``(visits, pd)``: the supports whose parents are all conditionally
    positive definite, by cardinality and then lexicographically, which
    are the supports the pruned scan must visit; and
    ``conditionally_positive_definite`` on every support."""
    pd = {}
    visits = []
    for k in range(1, A.n + 1):
        for support in itertools.combinations(range(A.n), k):
            pd[support] = conditionally_positive_definite(A, support)
            if all(pd[p] for p in parents_of(support)):
                visits.append(support)
    return visits, pd


def unpruned_is_copositive(A: SymMatrix) -> CopositivityVerdict:
    """``is_copositive``'s decision rule over every support whose system
    has a unique solution, positive on the support, each solved by
    ``solve_affine``: the first negative value is the violator, else every
    value-0 point is a zero and the minimum is exact."""
    hit = _prefilter_violator(A)
    if hit is not None:
        return CopositivityVerdict(False, hit[0], hit[1], ())
    n = A.n
    best = None
    zeros = []
    for k in range(1, n + 1):
        for support in itertools.combinations(range(n), k):
            sol = solve_affine(*rational_support_system(A, support), k + 1)
            if not sol.feasible or sol.dimension:
                continue
            if min(sol.particular[:k]) <= 0:
                continue
            x = [Fraction(0)] * n
            for v, i in zip(sol.particular, support):
                x[i] = v
            value = fraction_quadratic(A, x)
            if value < 0:
                return CopositivityVerdict(False, tuple(x), value, ())
            if value == 0:
                zeros.append(zero_from_coordinates(x))
            if best is None or value < best:
                best = value
    return CopositivityVerdict(True, None, best, tuple(zeros))


class RouteDeclined(Exception):
    """Raised in place of the scan where ``routes_off`` switched it off."""


def _declined(*args):
    raise RouteDeclined


# each route of ``copositivity._decide``, in its order: the name the
# dispatch looks it up by, and what stands in for it once switched off
ROUTES = {
    "prefilter": ("_prefilter_violator", lambda A: None),
    "strict": ("_strictly_copositive", lambda M: False),
    "convex": ("_convex", lambda A: None),
    "scan": ("_scan", _declined),
}


@contextlib.contextmanager
def routes_off(*names):
    """Switch the routes ``names`` (keys of ``ROUTES``) of the dispatch off
    where it looks them up, in ``copositivity``, for the ``with`` block: a
    switched-off prefilter finds no violator, the certificate of strict
    copositivity never holds, the convex route always declines, and the
    scan raises RouteDeclined."""
    with contextlib.ExitStack() as stack:
        for name in names:
            attr, off = ROUTES[name]
            stack.enter_context(mock.patch.object(copositivity_mod, attr, off))
        yield


def through(route: str, A: SymMatrix, *,
            minimum: bool = True) -> CopositivityVerdict | None:
    """The dispatch's verdict on A with every route but ``route`` switched
    off, or None where ``route`` declines.  ``minimum`` is the dispatch's
    own: set, as ``is_copositive`` asks, or unset, as ``minimal_zeros``
    asks, when the certificate of strict copositivity is asked and the
    scan stays inside the components of G-."""
    with routes_off(*(name for name in ROUTES if name != route)):
        try:
            return copositivity_mod._decide(A, None, minimum)
        except RouteDeclined:
            return None


def scan_is_copositive(A: SymMatrix, *, cache: dict | None = None) -> CopositivityVerdict:
    """``is_copositive`` with the certificate of strict copositivity and the
    convex route switched off: the prefilter, the support scan inside the
    components of G- and, for a split input with no zero, the whole scan
    for the minimum.  The tests that pin the scan call this, as the routes
    answer many of their inputs without one; ``cache`` is handed to the
    scan."""
    with routes_off("strict", "convex"):
        return copositivity_mod._decide(A, cache, True)


def shifted(A: SymMatrix, c) -> SymMatrix:
    """``A + c J``, J the all-ones matrix: on the simplex
    ``x^T (A + c J) x = x^T A x + c``, so every value moves by exactly c,
    and A + cJ is conditionally positive definite iff A is."""
    return SymMatrix.from_rows([[A.get(i, j) + c for j in range(A.n)]
                                for i in range(A.n)])


DEGENERATE_FAMILIES = ("zero_diagonal", "psd_plus_nonnegative", "sign_pattern",
                       "hildebrand", "rank_one")


def degenerate_matrix(family: str, n: int, seed: int) -> SymMatrix:
    """A seeded order-n matrix of one of ``DEGENERATE_FAMILIES``, whose
    support systems are often singular or indefinite:

    - ``zero_diagonal``: small rational entries, about half the diagonal 0,
      mostly nonnegative in the rows of a zero diagonal entry;
    - ``psd_plus_nonnegative``: ``B B^T`` of rank 1 or 2 plus a sparse
      nonnegative symmetric part, scaled by a positive diagonal;
    - ``sign_pattern``: every entry, the diagonal too, in ``{-1, 0, 1}``,
      leaning to +1;
    - ``hildebrand``: T(psi) for random rational ``t`` in (0, 0.7), on either
      side of ``sum(psi) = pi``, with ``n - 5`` of its indices repeated
      (``n >= 5``), permuted and scaled by a positive diagonal;
    - ``rank_one``: ``v v^T`` for a rational v of mixed signs (``n >= 2``).
    """
    rng = random.Random(f"{family}/{n}/{seed}")
    F = Fraction
    if family == "zero_diagonal":
        zero = [rng.random() < 0.5 for _ in range(n)]
        rows = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            if not zero[i]:
                rows[i][i] = F(rng.randint(1, 4), rng.randint(1, 3))
            for j in range(i + 1, n):
                # mostly nonnegative next to a zero diagonal entry
                low = 0 if (zero[i] or zero[j]) and rng.random() < 0.9 else -2
                rows[i][j] = rows[j][i] = F(rng.randint(low, 3),
                                            rng.randint(1, 3))
        return SymMatrix.from_rows(rows)
    if family == "psd_plus_nonnegative":
        A = random_psd(rng, n, rng.randint(1, 2))
        rows = fraction_rows(A)
        for _ in range(rng.randint(0, n)):
            i, j = rng.randrange(n), rng.randrange(n)
            rows[i][j] += rng.randint(1, 3)
            if i != j:
                rows[j][i] = rows[i][j]
        return scale(SymMatrix.from_rows(rows),
                     DiagonalScaling(random_positive_diagonal(rng, n)))
    if family == "sign_pattern":
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = rng.choice((-1, 0, 0, 1, 1, 1, 1, 1, 1, 1))
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.choice((-1, 0, 1, 1))
        return SymMatrix.from_integer_rows(rows)
    if family == "hildebrand":
        if n < 5:
            raise ValueError("the hildebrand family starts at order 5")
        T = hildebrand_t([F(rng.randint(1, 6), 10) for _ in range(5)])
        index = list(range(5)) + [rng.randrange(5) for _ in range(n - 5)]
        perm = rng.sample(index, n)
        A = SymMatrix.from_rows([[T.get(a, b) for b in perm] for a in perm])
        return scale(A, DiagonalScaling(random_positive_diagonal(rng, n)))
    if family == "rank_one":
        signs = [1, -1] + [rng.choice((1, -1)) for _ in range(n - 2)]
        rng.shuffle(signs)
        return rank_one(
            [s * F(rng.randint(1, 5), rng.randint(1, 4)) for s in signs])
    raise ValueError(f"unknown family {family!r}")


def negative_components(A: SymMatrix) -> list[frozenset[int]]:
    """The components of G-, the graph on the indices of A that joins i
    and j when ``A_ij < 0``, by least element, read off the ``Fraction``
    entries by merging the parts of every negative pair."""
    parts = [{i} for i in range(A.n)]
    for i, j in itertools.combinations(range(A.n), 2):
        if A.get(i, j) < 0:
            a = next(part for part in parts if i in part)
            b = next(part for part in parts if j in part)
            if a is not b:
                a |= b
                parts.remove(b)
    return sorted((frozenset(part) for part in parts), key=min)


def connected_support(A: SymMatrix, support) -> bool:
    """Whether G- restricted to ``support`` is connected."""
    return len(negative_components(principal(A, support))) == 1


def split_matrix(n: int, seed: int) -> SymMatrix:
    """A seeded order-n matrix (``n >= 2``) whose G- has at least two
    components by construction: the indices are shuffled into two or three
    blocks, and every entry between two blocks is 0 or a positive ``a/b``,
    each with probability 1/2.  One draw in four makes every block a
    full-rank ``bbt_plus_nonnegative``, so the matrix is strictly
    copositive and its minimum often straddles blocks; the others draw
    each block from the ``DEGENERATE_FAMILIES`` its size admits."""
    rng = random.Random(f"split/{n}/{seed}")
    count = min(n, rng.choice((2, 3)))
    cuts = sorted(rng.sample(range(1, n), count - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    strict = rng.random() < 0.25
    index = list(range(n))
    rng.shuffle(index)
    rows = [[Fraction(rng.randint(1, 3), rng.randint(1, 4))
             if rng.random() < 0.5 else Fraction(0) for _ in range(n)]
            for _ in range(n)]
    start = 0
    for size in sizes:
        families = ["zero_diagonal", "psd_plus_nonnegative", "sign_pattern"]
        families += ["rank_one"] * (size >= 2) + ["hildebrand"] * (size >= 5)
        sub = rng.randrange(2 ** 32)
        B = (bbt_plus_nonnegative(size, sub) if strict
             else degenerate_matrix(rng.choice(families), size, sub))
        block = index[start:start + size]
        for a, i in enumerate(block):
            for b, j in enumerate(block):
                rows[i][j] = B.get(a, b)
        start += size
    return SymMatrix.from_rows([[rows[min(i, j)][max(i, j)] for j in range(n)]
                                for i in range(n)])


def random_psd(rng, n: int, rank: int) -> SymMatrix:
    """``B B^T`` for a random integer ``n x rank`` matrix B with entries in
    [-2, 2]: positive semidefinite, of rank at most ``rank``."""
    B = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(n)]
    return SymMatrix.from_rows(
        [[sum(a * b for a, b in zip(B[i], B[j])) for j in range(n)]
         for i in range(n)])


def bbt_plus_nonnegative(n: int, seed: int, rank: int | None = None) -> SymMatrix:
    """``B B^T + N`` for a seeded rational ``n x rank`` matrix B
    (``rank = n`` by default) with entries ``a / b``, ``|a| <= 5``,
    ``1 <= b <= 5``, and a symmetric ``N >= 0``.  At full rank N has a
    positive diagonal, as in the benchmark's ``bbt`` family, and the matrix
    is strictly copositive.  Below it ``B B^T`` is singular, and each entry
    of N, the diagonal too, is 0 with probability 1/2: the matrix is
    copositive and may have zeros."""
    rank = n if rank is None else rank
    rng = random.Random(f"bbt/{n}/{rank}/{seed}")
    F = Fraction
    B = [[F(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(rank)]
         for _ in range(n)]
    rows = [[sum(a * b for a, b in zip(B[i], B[j])) for j in range(n)]
            for i in range(n)]
    for i in range(n):
        for j in range(i, n):
            if rank == n:
                extra = F(rng.randint(int(i == j), 3), rng.randint(1, 4))
            else:
                extra = rng.choice((0, F(rng.randint(1, 3), rng.randint(1, 4))))
            rows[i][j] += extra
            if i != j:
                rows[j][i] += extra
    return SymMatrix.from_rows(rows)


def positive_definite_by_minors(M) -> bool:
    """Sylvester's criterion on an integer matrix: every leading principal
    minor, each from ``fraction_det``, is positive."""
    return all(fraction_det([row[:k] for row in M[:k]]) > 0
               for k in range(1, len(M) + 1))


# --- the two-term union-find against the elimination -------------------------

def walk_find(solutions: _TwoTermSolutions, v: int) -> tuple[int, Fraction]:
    """The root of v and ``x_v / x_root``, by following every parent link
    and multiplying the stored ratios, without compressing anything."""
    ratio = Fraction(1)
    while solutions.parent[v] != v:
        ratio *= Fraction(solutions.num[v], solutions.den[v])
        v = solutions.parent[v]
    return v, ratio


def two_term_kernel(solutions: _TwoTermSolutions) -> list[tuple[int, ...]]:
    """One canonical vector per free component, in order of its root: the
    component's ratios over the lcm of their denominators, 0 elsewhere."""
    ncols = len(solutions.parent)
    roots = [solutions.find(v) for v in range(ncols)]
    num, den = solutions.num, solutions.den
    vectors = []
    for r in solutions.free:
        scale = math.lcm(*(den[v] for v in range(ncols) if roots[v] == r))
        vectors.append(canonical_vector(
            [num[v] * (scale // den[v]) if roots[v] == r else 0
             for v in range(ncols)]))
    return vectors


def triangle_free_graph(n: int, seed: int) -> tuple[tuple[int, int], ...]:
    """A seeded triangle-free graph on n vertices: the pairs in a random
    order, each kept unless it closes a triangle, with probability 1 for
    an even seed (a maximal triangle-free graph) and 2/3 for an odd one."""
    rng = random.Random(f"triangle-free/{n}/{seed}")
    pairs = list(itertools.combinations(range(n), 2))
    rng.shuffle(pairs)
    keep = 1 if seed % 2 == 0 else 2 / 3
    neighbours = [set() for _ in range(n)]
    for i, j in pairs:
        if not neighbours[i] & neighbours[j] and rng.random() < keep:
            neighbours[i].add(j)
            neighbours[j].add(i)
    return tuple(sorted((i, j) for i, j in itertools.combinations(range(n), 2)
                        if j in neighbours[i]))


def graph_matrix(n: int, edges) -> SymMatrix:
    """``A_G``: unit diagonal, -1 on the edges of G, +1 on the pairs at
    distance 2 and 0 elsewhere.  Copositive when G is triangle-free, with
    its minimal zeros ``e_i + e_j`` on the edges."""
    neighbours = [set() for _ in range(n)]
    for i, j in edges:
        neighbours[i].add(j)
        neighbours[j].add(i)
    return SymMatrix.from_integer_rows(
        [[1 if i == j else -1 if j in neighbours[i]
          else int(bool(neighbours[i] & neighbours[j])) for j in range(n)]
         for i in range(n)])


def scaled_graph_matrix(n: int, seed: int) -> SymMatrix:
    """``D P A_G P^T D`` for the seeded triangle-free G, a seeded positive
    rational diagonal D and a seeded permutation P."""
    rng = random.Random(f"scaled-graph/{n}/{seed}")
    perm = list(range(n))
    rng.shuffle(perm)
    A = permuted_matrix(graph_matrix(n, triangle_free_graph(n, seed)), perm)
    return scale(A, DiagonalScaling(random_positive_diagonal(rng, n)))


def two_term_disagreements(A: SymMatrix) -> list[str]:
    """Where ``extremality_certificate(A)`` disagrees with the elimination
    of its own system (``kernel_basis``): the nullity, the extremal flag,
    and, at nullity 1, ``_TwoTermSolutions.spans`` against
    ``is_proportional`` to the basis vector, on A and on vectors that
    differ from it at one unknown, by a multiple and by sign.  Empty when
    they agree; A's system must have no row of more than two terms."""
    cert = extremality_certificate(A)
    rows = cert.system.rows
    if any(len(row) > 2 for row in rows):
        raise ValueError("the system has a row of more than two terms")
    ncols = upper_size(A.n)
    basis = kernel_basis(cert.system.dense_rows(), ncols)
    found = []
    if cert.nullity != len(basis):
        found.append(f"nullity {cert.nullity}, elimination {len(basis)}")
    if cert.extremal != (len(basis) == 1):
        found.append(f"extremal {cert.extremal}, elimination nullity {len(basis)}")
    solutions = _TwoTermSolutions(rows, ncols)
    if solutions.nullity != len(basis):
        found.append(f"union-find nullity {solutions.nullity}")
    elif solutions.nullity == 1:
        M = A.integer_form[0]
        upper = [M[i][j] for i, j in unknowns(A.n)[0]]
        vectors = [upper, list(basis[0]), [-3 * x for x in upper],
                   [0] * ncols]
        for c in range(ncols):
            vectors.append(upper[:c] + [upper[c] + 1] + upper[c + 1:])
        for vector in vectors:
            spans = solutions.spans(vector)
            if spans != (any(vector) and is_proportional(basis[0], vector)):
                found.append(f"spans {spans} on {vector}")
    return found


# --- former library functions that only tests used ---------------------------

def identity(n: int) -> SymMatrix:
    return SymMatrix.from_integer_rows([[int(i == j) for j in range(n)]
                                        for i in range(n)])


def all_ones(n: int) -> SymMatrix:
    return SymMatrix.from_integer_rows([[1] * n] * n)


def rank_one(x) -> SymMatrix:
    """``x x^T``."""
    return SymMatrix.from_rows([[a * b for b in x] for a in x])


def fraction_rows(A: SymMatrix) -> list[list[Fraction]]:
    return [[A.get(i, j) for j in range(A.n)] for i in range(A.n)]


def principal(A: SymMatrix, indices) -> SymMatrix:
    """The principal submatrix on a nonempty index set, in ascending
    order."""
    idx = sorted(indices)
    if not idx:
        raise ValueError("principal submatrix needs a nonempty index set")
    return SymMatrix.from_rows([[A.get(a, b) for b in idx] for a in idx])


def subspace(ncols: int, kernel) -> AffineSolutionSet:
    """The span of ``kernel`` inside an ``ncols``-dimensional space."""
    return AffineSolutionSet(len(kernel), (Fraction(0),) * ncols,
                             tuple(kernel))


def scale(S: SymMatrix, D: DiagonalScaling) -> SymMatrix:
    """Congruence by the positive diagonal D: entries D_i S_ij D_j."""
    d = D.entries
    if len(d) != S.n:
        raise ValueError("scaling order does not match matrix order")
    return SymMatrix.from_rows([[d[i] * S.get(i, j) * d[j] for j in range(S.n)]
                                for i in range(S.n)])


def fraction_candidates(A: SymMatrix, *, cache: dict | None = None):
    """``stationary_candidates`` as it yielded before it handed out
    integers: ``(value, point)``, the point ``p / q`` embedded in order n
    as ``Fraction``s and the value ``total / (q^2 d)``."""
    n = A.n
    d = A.integer_form[1]
    for support, p, q, total in stationary_candidates(A, cache=cache):
        x = [Fraction(0)] * n
        for c, i in zip(p, support):
            x[i] = Fraction(c, q)
        yield Fraction(total, q * q * d), tuple(x)


def inverse_rows(rows, count):
    """``(p, Y)`` for a square integer matrix K: ``p`` is the last pivot of
    one fraction-free elimination, which is ``det K`` up to sign, and ``Y``
    holds the first ``count`` columns of ``p K^-1`` (its first rows when K
    is symmetric), integral by Cramer's rule.  ``(0, None)`` when K is
    singular, decided by the pivot count alone.
    """
    m = len(rows)
    aug = [list(r) + [int(i == j) for j in range(count)]
           for i, r in enumerate(rows)]
    ech, pivots = _bareiss_echelon(aug, m)
    if len(pivots) < m:
        return 0, None
    cols = []
    for j in range(count):
        y, p = _back_substitute(ech, pivots, m, rhs_col=m + j)
        cols.append(y)
    return p, cols


def bordered_adjugate(adj, det, b, c, *, full=True):
    """``(det K, adj K)`` for ``K = [[K', b], [b^T, c]]`` from the adjugate
    and determinant of a nonsingular symmetric integer matrix K'.

    With ``w = adj(K') b``, Sylvester's identity (the step behind
    fraction-free elimination; Bareiss, Math. Comp. 22, 1968) gives

        det K = c det K' - b^T w,
        adj K = [[(det K adj K' + w w^T) / det K', -w], [-w^T, det K']].

    ``adj K`` is an integer matrix, so every division is exact; each one is
    checked.  No sign is lost: the result is exact, given the exact pair
    ``(adj K', det K')``.  ``adj K`` is returned by rows; only its first
    row when ``full`` is false.  When ``det K`` is 0 the second
    item is the integer kernel vector ``(w, -det K')`` of K in its place:
    ``K' w = det K' b`` and ``b^T w = c det K'``.
    """
    w = [sum(map(mul, row, b)) for row in adj]
    new = c * det - sum(map(mul, b, w))
    if not new:
        return 0, w + [-det]
    k = len(adj)
    rows = []
    for r in range(k if full else 1):
        wr = w[r]
        old = adj[r]
        row = [rows[s][r] for s in range(r)]  # symmetric: rows above hold it
        for s in range(r, k):
            q, rem = divmod(new * old[s] + wr * w[s], det)
            if rem:
                raise InvariantError("bordered adjugate division must be exact")
            row.append(q)
        row.append(-wr)
        rows.append(row)
    if full:
        rows.append([-x for x in w] + [det])
    return new, rows


def fraction_det(K) -> int:
    """``det K`` of a square integer matrix, by Gaussian elimination in
    ``Fraction`` arithmetic with every row exchange counted (1 when K is
    empty)."""
    rows = [[Fraction(x) for x in r] for r in K]
    m = len(rows)
    det = Fraction(1)
    for c in range(m):
        r = next((i for i in range(c, m) if rows[i][c]), None)
        if r is None:
            return 0
        if r != c:
            rows[c], rows[r] = rows[r], rows[c]
            det = -det
        det *= rows[c][c]
        for i in range(c + 1, m):
            f = rows[i][c] / rows[c][c]
            for j in range(c, m):
                rows[i][j] -= f * rows[c][j]
    if det.denominator != 1:
        raise InvariantError("the determinant of an integer matrix is an integer")
    return int(det)


def adjugate_columns(K, count):
    """``(det K, cols)`` with ``cols`` the first ``count`` columns of
    ``adj K``: ``det K`` times the columns ``inverse_rows`` gives over its
    pivot when K is nonsingular, else cofactors, ``adj[i][j]`` being
    ``(-1)^(i+j)`` times the determinant of K without row j and column i."""
    m = len(K)
    det = fraction_det(K)
    pivot, cols = inverse_rows(K, count)
    if pivot:
        if det not in (pivot, -pivot):
            raise InvariantError("the last Bareiss pivot is det K up to sign")
        return det, [[det // pivot * y for y in col] for col in cols]
    return det, [[(-1) ** (i + j) * fraction_det(
        [[K[r][c] for c in range(m) if c != i] for r in range(m) if r != j])
        for i in range(m)] for j in range(count)]


def bordered_state(M, support):
    """``(D, f, v)`` that the scan keeps for ``support`` X, recomputed from
    the matrices: ``D = det K_X`` and ``f``, column 0 of ``adj K_X``, by
    ``adjugate_columns``, and ``v = adj(K_X1) b`` for ``X1 = X[:-1]`` and
    ``b`` the last column of ``K_X`` above its diagonal (``adj`` of the
    1 x 1 ``K_()`` = [[0]] is [[1]])."""
    K = bordered_system(M, support)
    D, (f,) = adjugate_columns(K, 1)
    _, adj = adjugate_columns([r[:-1] for r in K[:-1]], len(K) - 1)
    b = [r[-1] for r in K[:-1]]
    v = [sum(col[i] * x for col, x in zip(adj, b)) for i in range(len(b))]
    return D, f, v


@functools.lru_cache(maxsize=None)
def block_state(block):
    """``bordered_state`` of the whole support of the integer block
    ``M_S``, given as a tuple of rows, on which alone it depends."""
    return bordered_state(block, range(len(block)))


def principal_block(M, support):
    """The rows of ``M_S`` as a tuple of tuples, a key for ``block_state``."""
    return tuple(tuple(M[i][j] for j in support) for i in support)


def min_on_simplex(A: SymMatrix) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Exact minimum of ``x^T A x`` over the standard simplex, with minimizer."""
    best = None
    arg = None
    for value, point in fraction_candidates(A):
        if best is None or value < best:
            best, arg = value, point
    return best, arg


def rank_nullity(rows, ncols=None) -> tuple[int, int]:
    """Exact ``(rank, nullity)`` of a rectangular rational matrix, with
    ``ncols`` read off its first row when not given."""
    if ncols is None:
        ncols = len(rows[0])
    _, pivots = _bareiss_echelon(_int_rows(rows), ncols)
    return len(pivots), ncols - len(pivots)


def canonical_form(c: Candidate) -> tuple[Candidate, int]:
    """Lexicographic minimum over the permutation orbit, plus the orbit size,
    from ``brute_canonical`` (full matrix permutations)."""
    canon, orbit = brute_canonical(c)
    if math.factorial(c.order) % orbit:
        raise InvariantError("orbit size must divide the group order")
    return Candidate(c.order, canon), orbit


def _split_simplex(corners, depth, seen, A):
    if depth == 0 or len(corners) < 2:
        return None
    # bisect the longest edge; ties resolved by index order for determinism
    best_pair = None
    best_len = None
    for a, b in itertools.combinations(range(len(corners)), 2):
        d = sum((x - y) ** 2 for x, y in zip(corners[a], corners[b]))
        if best_len is None or d > best_len:
            best_len = d
            best_pair = (a, b)
    a, b = best_pair
    mid = tuple((x + y) / 2 for x, y in zip(corners[a], corners[b]))
    if mid not in seen:
        seen.add(mid)
        if eval_quadratic(A, mid) < 0:
            return mid
    for drop, keep in ((a, b), (b, a)):
        child = list(corners)
        child[drop] = mid
        hit = _split_simplex(tuple(child), depth - 1, seen, A)
        if hit is not None:
            return hit
    return None


def subdivision_falsifier(A: SymMatrix, depth: int):
    """One-sided copositivity falsifier, independent of the support scan.

    Recursively bisects the standard simplex (longest edge first) and returns
    the first subdivision vertex with negative form value, or ``None`` after
    exhausting ``depth`` levels.  ``None`` does not certify copositivity.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    n = A.n
    corners = tuple(tuple(Fraction(int(k == i)) for k in range(n))
                    for i in range(n))
    seen = set()
    for c in corners:
        seen.add(c)
        if eval_quadratic(A, c) < 0:
            return c
    return _split_simplex(corners, depth, seen, A)


def iterate_candidates(n: int):
    """All 3^(n(n-1)/2) candidates, lexicographic in (-1, 0, 1)."""
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"order must be between 1 and {MAX_ORDER}, got {n}")
    m = n * (n - 1) // 2
    for off in itertools.product(ALPHABET, repeat=m):
        yield Candidate(n, off)
