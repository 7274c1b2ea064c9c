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
is why ``minimal_zeros`` checks it.  The zeros themselves are read off the
copositivity scan (see ``copositivity``), which visits once every support
that can hold one, each as a ``Zero``: its primitive integer point, from
which its support and its sum-normalized coordinates are read.  The scan is
skipped where an exact certificate proves A strictly copositive, as A then
has no zeros at all (``copositivity._strictly_copositive``), and where A is
conditionally positive definite with a minimum ``>= 0``, as A then has at
most one zero, the simplex minimizer (``copositivity._convex``).
"""

from __future__ import annotations

from .errors import NotCopositiveError
from .linalg import SymMatrix
from .copositivity import MAX_SCAN_ORDER, Zero, _convex, _scan, _strictly_copositive


def minimal_zeros(A: SymMatrix, *, cache: dict | None = None) -> tuple[Zero, ...]:
    """All minimal zeros of a copositive matrix, in scan order: by support
    cardinality, then lexicographically.

    They are the value-0 points of the copositivity scan, each of which is
    minimal (see ``copositivity``), so their supports form an antichain, and
    every zero of A has its support containing one of them.  The scan's
    points are taken as they are: it yields only points positive on their
    support, and checks on integers that their coordinates sum to 1.
    ``cache`` is handed to the scan (see ``stationary_candidates``).

    A strictly copositive matrix has no zeros, so when the O(n^3)
    certificate ``_strictly_copositive`` proves A so, the answer is ``()``
    with no scan.  It is asked only up to ``MAX_SCAN_ORDER``, so a larger
    order is refused (OrderTooLargeError) whatever it would say.  Then the
    convex route answers, or else the scan inside the components of the
    negative graph (``_scan``), whose violator and zeros are the whole
    scan's; the minimum, which only the whole scan may find, is not needed
    here.
    """
    if A.n <= MAX_SCAN_ORDER and _strictly_copositive(A.integer_form[0]):
        return ()
    verdict = _convex(A)
    if verdict is None:
        verdict = _scan(A, cache)
    if not verdict.copositive:
        raise NotCopositiveError(violator=verdict.violator)
    return verdict.zeros
