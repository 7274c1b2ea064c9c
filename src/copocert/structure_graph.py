"""Entry graph of the minimal-zero system for pair-supported zeros.

When every minimal zero of a unit-diagonal copositive matrix is supported on
exactly two indices, each such zero is balanced (weight 1/2 on i and j), so
every fired constraint row ``(X u)_k = 0`` reduces, after clearing the common
factor, to a two-term equation ``X_ik + X_jk = 0``.  These equations define a
graph G on the n(n+1)/2 independent entries of the symmetric unknown X, one
edge per fired gate.

The solution space of the system then has dimension equal to the number of
bipartite connected components of G: entries in a component with an odd cycle
are forced to zero, while within a bipartite component one representative
value propagates with alternating sign along edges, giving exactly one degree
of freedom.  Isolated vertices are bipartite components and contribute one
dimension each (a free entry).

When there is a single bipartite component, the solution line is a signed
indicator of its two parity classes; fixing the class containing the diagonal
entries to +1 recovers the unit-diagonal {-1,0,1} matrix itself.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import (
    AmbiguousPatternError,
    InconsistentDiagonalError,
    InvariantError,
    NotUnitDiagonalError,
    SupportCardinalityError,
)
from .linalg import ONE, ZERO, SymMatrix, upper_size
from .zeros import MinimalZeroList

Vertex = tuple[int, int]


def _vertex(i, j) -> Vertex:
    return (i, j) if i <= j else (j, i)


@dataclass(frozen=True)
class StructureGraph:
    order: int
    edges: tuple[tuple[Vertex, Vertex], ...]

    def vertices(self) -> tuple[Vertex, ...]:
        n = self.order
        return tuple((i, j) for i in range(n) for j in range(i, n))

    def adjacency(self) -> dict[Vertex, list[Vertex]]:
        adj = {v: [] for v in self.vertices()}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return {v: sorted(nb) for v, nb in adj.items()}


@dataclass(frozen=True)
class GraphComponent:
    vertices: tuple[Vertex, ...]
    bipartite: bool
    # parity classes when bipartite; the first class holds the smallest vertex
    classes: tuple[tuple[Vertex, ...], tuple[Vertex, ...]] | None


@dataclass(frozen=True)
class ComponentReport:
    order: int
    components: tuple[GraphComponent, ...]
    # the solution-space dimension of the pair system
    bipartite_count: int


def build_graph(A: SymMatrix, Z: MinimalZeroList) -> StructureGraph:
    """One edge ``{X_ik, X_jk}`` per fired gate of a pair-supported zero."""
    if not A.has_unit_diagonal():
        raise NotUnitDiagonalError("entry graph requires a unit diagonal")
    if Z.matrix.n != A.n:
        raise ValueError("zero list order does not match matrix order")
    edges = set()
    fired = 0
    for zero in Z.zeros:
        support = zero.sorted_support()
        if len(support) != 2:
            raise SupportCardinalityError(
                f"support {tuple(s + 1 for s in support)} has cardinality "
                f"{len(support)}, expected 2")
        i, j = support
        if zero.coordinates[i] != zero.coordinates[j]:
            raise InvariantError(
                "pair-supported zero of a unit-diagonal matrix must be balanced")
        image = A.apply(zero.coordinates)
        for k in range(A.n):
            if image[k] != 0:
                continue
            a, b = _vertex(i, k), _vertex(j, k)
            if a == b:
                raise InvariantError(
                    "two-term equations never relate an entry to itself")
            edges.add((a, b) if a < b else (b, a))
            fired += 1
    if fired != len(edges):
        raise InvariantError("distinct gates always yield distinct edges")
    return StructureGraph(A.n, tuple(sorted(edges)))


def component_analysis(G: StructureGraph) -> ComponentReport:
    """Connected components with exact two-coloring.

    Breadth-first traversal from the smallest unvisited vertex; an edge
    joining two same-colored vertices closes an odd cycle and marks the
    component non-bipartite.
    """
    adj = G.adjacency()
    color: dict[Vertex, int] = {}
    components = []
    for root in G.vertices():
        if root in color:
            continue
        color[root] = 0
        queue = deque([root])
        members = [root]
        bipartite = True
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in color:
                    color[w] = 1 - color[v]
                    members.append(w)
                    queue.append(w)
                elif color[w] == color[v]:
                    bipartite = False
        members.sort()
        if bipartite:
            classes = (tuple(v for v in members if color[v] == color[members[0]]),
                       tuple(v for v in members if color[v] != color[members[0]]))
        else:
            classes = None
        components.append(GraphComponent(tuple(members), bipartite, classes))
    count = sum(1 for c in components if c.bipartite)
    return ComponentReport(G.order, tuple(components), count)


def reconstruct_pattern(report: ComponentReport) -> SymMatrix:
    """Recover the {-1,0,1} matrix from a single-bipartite-component report.

    Entries outside the bipartite component are zero; the parity class
    containing the diagonal entries gets +1, the opposite class -1.
    """
    if report.bipartite_count != 1:
        raise AmbiguousPatternError(
            f"{report.bipartite_count} bipartite components, need exactly 1")
    comp = next(c for c in report.components if c.bipartite)
    plus, minus = comp.classes
    n = report.order
    diag = [(i, i) for i in range(n)]
    in_plus = sum(1 for v in diag if v in plus)
    in_minus = sum(1 for v in diag if v in minus)
    if in_plus and in_minus:
        raise InconsistentDiagonalError("diagonal entries split across parity classes")
    if in_plus + in_minus != n:
        raise InconsistentDiagonalError("diagonal entry outside the bipartite component")
    if in_minus:
        plus, minus = minus, plus
    entries = [ZERO] * upper_size(n)
    index = {v: p for p, v in enumerate((i, j) for i in range(n) for j in range(i, n))}
    for v in plus:
        entries[index[v]] = ONE
    for v in minus:
        entries[index[v]] = -ONE
    return SymMatrix(n, tuple(entries))


def to_dot(G: StructureGraph, report: ComponentReport | None = None) -> str:
    """DOT rendering: one node per entry ``Xi_j`` (1-based), undirected edges,
    component and parity as node attributes."""
    if report is None:
        report = component_analysis(G)
    where: dict[Vertex, tuple[int, str]] = {}
    for cid, comp in enumerate(report.components):
        for v in comp.vertices:
            parity = "-"
            if comp.bipartite:
                parity = "0" if v in comp.classes[0] else "1"
            where[v] = (cid, parity)
    lines = ["graph entries {"]
    for v in G.vertices():
        cid, parity = where[v]
        lines.append(f'  "X{v[0] + 1}_{v[1] + 1}" [component={cid} parity="{parity}"];')
    for a, b in G.edges:
        lines.append(f'  "X{a[0] + 1}_{a[1] + 1}" -- "X{b[0] + 1}_{b[1] + 1}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
