"""Zeros and minimal zeros of a copositive matrix.

A zero of a copositive A is a nonzero nonnegative vector u with
``u^T A u = 0``; its support is the set of strictly positive coordinates.  A
zero is minimal when no other zero has a support strictly contained in its
own.  Up to positive scaling there are finitely many minimal zeros, and each
support carries at most one.  That uniqueness is structural here: the
copositivity scan only yields points of supports whose stationarity system
has a unique solution, and every minimal zero's support is one of them.

Support characterization used throughout: for copositive A, the zeros with
support exactly S are precisely the embeddings of strictly positive vectors
in the kernel of the principal submatrix A_S.  Indeed, a zero u minimizes
the form over the nonnegative orthant (the minimum is 0 by copositivity), so
the first-order conditions give (A u)_i >= 0 with equality wherever u_i > 0,
i.e. A_S u_S = 0; conversely A_S u_S = 0 with u_S > 0 makes
``u^T A u = u_S^T A_S u_S = 0``.  This equivalence needs copositivity, which
is why ``minimal_zeros`` checks it.

``Zero`` and ``minimal_zeros`` live in ``copositivity``, next to
``is_copositive``: both questions go through one dispatch
(``copositivity._decide``), whose docstring says which routes each takes
and in which order.  The library imports them from there.  This module only
re-exports them, because the benchmark's tracer looks ``minimal_zeros`` up
by its module name here.
"""

from .copositivity import Zero, minimal_zeros  # noqa: F401
