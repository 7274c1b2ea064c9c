"""Strict-positivity decisions on affine solution sets, via exact LP.

Whether an affine set meets the open positive orthant is a strict-inequality
question, so it cannot be delegated to tolerance thresholds.  It is decided
here exactly: maximize the slack t subject to ``x in S`` and ``x_i >= t`` for
the coordinates that must be positive; a strictly positive point exists iff
the optimum is positive or the program is unbounded.  To avoid the unbounded
branch we additionally cap ``t <= 1``, which changes nothing about the sign
of the optimum (positivity of a point is scale-free along the slack), and
substitute ``t = 1 - s`` with ``s >= 0`` so a plain two-phase primal simplex
over Fractions applies.  Bland's rule handles ties and degeneracy, so the
pivot sequence is deterministic and finite.

A solution set of dimension zero is decided by a direct sign check instead;
every other dimension goes through the simplex.  No library path calls this
module any more: the copositivity scan reads positivity off the integer
signs of its bordered solves.  It stays for the tests, which use it as the
oracle of that scan (``tests/oracles.py``), and for the benchmark tracer
(``perfbench/tracer.py``), which looks up ``copocert.lp`` by module name;
``copocert/__init__.py`` imports it so that the module is loaded.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvariantError
from .linalg import ONE, ZERO, AffineSolutionSet, Vector

_OPTIMAL = "optimal"
_UNBOUNDED = "unbounded"
_INFEASIBLE = "infeasible"


def _pivot(T, rhs, basis, row, col):
    piv = T[row][col]
    T[row] = [x / piv for x in T[row]]
    rhs[row] /= piv
    for i in range(len(T)):
        if i == row:
            continue
        f = T[i][col]
        if f:
            T[i] = [a - f * b for a, b in zip(T[i], T[row])]
            rhs[i] -= f * rhs[row]
    basis[row] = col


def _optimize(T, rhs, basis, obj, allowed):
    """Run primal simplex to optimality with Bland's rule.

    ``T`` must be in canonical form with respect to ``basis``.  Returns the
    final status; tableau, rhs and basis are updated in place.
    """
    ncols = len(obj)
    while True:
        # reduced costs: obj_j - sum_i obj_basis[i] * T[i][j]
        enter = None
        for j in range(ncols):
            if j in basis or not allowed[j]:
                continue
            red = obj[j]
            for i, bi in enumerate(basis):
                cb = obj[bi]
                if cb and T[i][j]:
                    red -= cb * T[i][j]
            if red > 0:
                enter = j
                break  # Bland: smallest improving index
        if enter is None:
            return _OPTIMAL
        leave = None
        best = None
        for i in range(len(T)):
            t = T[i][enter]
            if t > 0:
                ratio = rhs[i] / t
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            return _UNBOUNDED
        _pivot(T, rhs, basis, leave, enter)


def simplex_maximize(rows, b, objective):
    """Exact solution of: maximize ``objective . x`` s.t. ``rows x = b, x >= 0``.

    Returns ``(status, x, value)`` with status one of ``"optimal"``,
    ``"unbounded"`` or ``"infeasible"``; for the unbounded/infeasible cases
    ``x`` and ``value`` are ``None``.
    """
    m = len(rows)
    nv = len(objective)
    T = []
    rhs = []
    for r, bi in zip(rows, b):
        r = [Fraction(x) for x in r]
        bi = Fraction(bi)
        if bi < 0:
            r = [-x for x in r]
            bi = -bi
        T.append(r)
        rhs.append(bi)
    ncols = nv + m
    for i in range(m):
        T[i] = T[i] + [ONE if k == i else ZERO for k in range(m)]
    basis = [nv + i for i in range(m)]
    allowed = [True] * ncols

    phase1 = [ZERO] * nv + [-ONE] * m
    if _optimize(T, rhs, basis, phase1, allowed) != _OPTIMAL:
        raise InvariantError("phase-1 objective is bounded above by zero")
    artificial_level = sum(rhs[i] for i in range(m) if basis[i] >= nv)
    if artificial_level > 0:
        return _INFEASIBLE, None, None

    # Drive leftover zero-level artificials out of the basis; a row where no
    # structural column can pivot is redundant and is dropped.
    for i in reversed(range(len(T))):
        if basis[i] >= nv:
            col = next((j for j in range(nv) if T[i][j] != 0), None)
            if col is None:
                del T[i]
                del rhs[i]
                del basis[i]
            else:
                _pivot(T, rhs, basis, i, col)
    for j in range(nv, ncols):
        allowed[j] = False

    obj = list(objective) + [ZERO] * m
    status = _optimize(T, rhs, basis, obj, allowed)
    if status == _UNBOUNDED:
        return _UNBOUNDED, None, None
    x = [ZERO] * nv
    for i, bi in enumerate(basis):
        if bi < nv:
            x[bi] = rhs[i]
    value = sum((objective[j] * x[j] for j in range(nv)), ZERO)
    return _OPTIMAL, tuple(x), value


def strictly_positive_point(solset: AffineSolutionSet, positive=None) -> Vector | None:
    """A rational point of the set with the masked coordinates all > 0.

    ``positive`` selects which coordinates must be strictly positive; by
    default all of them.  Returns ``None`` when no such point exists; the
    decision is exact in both directions.
    """
    if solset.particular is None:
        return None
    x0 = solset.particular
    pos = (tuple(range(len(x0))) if positive is None
           else tuple(sorted(set(positive))))
    if not pos:
        return x0
    kern = solset.kernel
    if not kern:
        return x0 if all(x0[i] > 0 for i in pos) else None

    # General case: variables c (free, split), s >= 0, surplus w_i >= 0 with
    #   (K c)_i + s - w_i = 1 - x0_i   for i in pos,
    # minimizing s; the best slack is t* = 1 - s*, positive iff a strictly
    # positive point exists.
    p = len(kern)
    m = len(pos)
    rows = []
    b = []
    for r, i in enumerate(pos):
        row = []
        for v in kern:
            row.append(v[i])   # c_j^+
        for v in kern:
            row.append(-v[i])  # c_j^-
        row.append(ONE)        # s
        row.extend(ONE if t == r else ZERO for t in range(m))  # -w flipped below
        rows.append(row)
        b.append(ONE - x0[i])
    for r in range(m):
        rows[r][2 * p + 1 + r] = -ONE
    objective = [ZERO] * (2 * p) + [-ONE] + [ZERO] * m
    status, x, value = simplex_maximize(rows, b, objective)
    if status != _OPTIMAL:
        raise InvariantError("slack program is feasible and bounded by 0")
    s_star = -value
    if s_star >= 1:
        return None
    coeff = [x[j] - x[p + j] for j in range(p)]
    point = list(x0)
    for cj, v in zip(coeff, kern):
        if cj:
            point = [a + cj * vb for a, vb in zip(point, v)]
    if not all(point[i] > 0 for i in pos):
        raise InvariantError("LP point must be strictly positive on the mask")
    return tuple(point)
