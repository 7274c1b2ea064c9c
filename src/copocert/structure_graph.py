"""Entry graph of the minimal-zero system for pair-supported zeros.

When every minimal zero of a unit-diagonal copositive matrix is supported on
exactly two indices, each such zero is balanced (weight 1/2 on i and j), so
every row ``(X u)_k = 0`` of the extremality system (``build_system``)
reduces, after clearing the common factor, to a two-term equation
``X_ik + X_jk = 0``.  These equations define a graph G on the n(n+1)/2
independent entries of the symmetric unknown X, one edge per fired gate.

The solution space of the system then has dimension equal to the number of
bipartite connected components of G: entries in a component with an odd cycle
are forced to zero, while within a bipartite component one representative
value propagates with alternating sign along edges, giving exactly one degree
of freedom.  Isolated vertices are bipartite components and contribute one
dimension each (a free entry).  ``component_analysis`` reads the components
and their parity classes off the extremality module's two-term union-find,
with each edge a row ``x_a + x_b = 0``.

When there is a single bipartite component, the solution line is a signed
indicator of its two parity classes; fixing the class containing the diagonal
entries to +1 recovers the unit-diagonal {-1,0,1} matrix itself.
"""

from __future__ import annotations

from .copositivity import Zero
from .errors import (
    AmbiguousPatternError,
    InconsistentDiagonalError,
    InvariantError,
    NotUnitDiagonalError,
    SupportCardinalityError,
)
from .extremality import _TwoTermSolutions, build_system
from .linalg import SymMatrix, unknowns
from .records import record

Vertex = tuple[int, int]


@record
class StructureGraph:
    order: int
    edges: tuple[tuple[Vertex, Vertex], ...]

    def vertices(self) -> tuple[Vertex, ...]:
        return unknowns(self.order)[0]


@record
class GraphComponent:
    vertices: tuple[Vertex, ...]
    bipartite: bool
    # parity classes when bipartite; the first class holds the smallest vertex
    classes: tuple[tuple[Vertex, ...], tuple[Vertex, ...]] | None


@record
class ComponentReport:
    order: int
    components: tuple[GraphComponent, ...]
    # the solution-space dimension of the pair system
    bipartite_count: int


def build_graph(A: SymMatrix, zeros: tuple[Zero, ...]) -> StructureGraph:
    """One edge ``{X_ik, X_jk}`` per row of ``build_system(A, zeros)``,
    after checking that every zero is a balanced pair."""
    if not A.has_unit_diagonal():
        raise NotUnitDiagonalError("entry graph requires a unit diagonal")
    for zero in zeros:
        support = zero.support
        if len(support) != 2:
            raise SupportCardinalityError(
                f"support {tuple(s + 1 for s in support)} has cardinality "
                f"{len(support)}, expected 2")
        i, j = support
        if zero.point[i] != zero.point[j]:
            raise InvariantError(
                "pair-supported zero of a unit-diagonal matrix must be balanced")
    system = build_system(A, zeros)
    vertices = unknowns(A.n)[0]
    edges = set()
    for (a, _), (b, _) in system.rows:
        if a == b:
            raise InvariantError(
                "two-term equations never relate an entry to itself")
        # terms come in ascending column order, and columns order the vertices
        edges.add((vertices[a], vertices[b]))
    if len(system) != len(edges):
        raise InvariantError("distinct gates always yield distinct edges")
    return StructureGraph(A.n, tuple(sorted(edges)))


def component_analysis(G: StructureGraph) -> ComponentReport:
    """Connected components and exact parity classes of the entry graph.

    Each edge ``{a, b}`` is the two-term row ``x_a + x_b = 0``; the
    union-find puts every entry of a component at ``+1`` or ``-1`` times
    the component's root, and marks the component forced to 0 exactly
    when an odd cycle closes in it.  Components come in order of their
    smallest vertex, and the first parity class holds that vertex.
    """
    vertices = G.vertices()
    index = {v: c for c, v in enumerate(vertices)}
    solutions = _TwoTermSolutions(
        [((index[a], 1), (index[b], 1)) for a, b in G.edges], len(vertices))
    free = set(solutions.free)
    members: dict[int, list[tuple[Vertex, bool]]] = {}
    for column, v in enumerate(vertices):
        root = solutions.find(column)
        members.setdefault(root, []).append((v, solutions.num[column] > 0))
    components = []
    for root, group in members.items():
        classes = None
        if root in free:
            lead = group[0][1]
            classes = (tuple(v for v, sign in group if sign == lead),
                       tuple(v for v, sign in group if sign != lead))
        components.append(GraphComponent(
            tuple(v for v, _ in group), root in free, classes))
    return ComponentReport(G.order, tuple(components), solutions.nullity)


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
    rows = [[0] * n for _ in range(n)]
    for sign, entries in ((1, plus), (-1, minus)):
        for i, j in entries:
            rows[i][j] = rows[j][i] = sign
    return SymMatrix.from_integer_rows(rows)


def to_dot(G: StructureGraph, report: ComponentReport) -> str:
    """DOT rendering: one node per entry ``Xi_j`` (1-based), undirected edges,
    component and parity (from ``component_analysis(G)``) as node
    attributes."""
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
