"""Census of unit-diagonal symmetric matrices over the {-1,0,1} alphabet.

Candidates are determined by their strict upper triangle (the diagonal is
implicitly all ones).  They are enumerated in lexicographic order of that
off-diagonal tuple with entry order (-1, 0, 1), deduplicated up to
simultaneous row/column permutation, and each permutation class is classified
in two steps.  First, Hoffman and Pereira's rule (JCTA 14, 1973): such a
matrix is copositive iff any two -1 neighbours of a vertex are joined by +1,
so a class is refuted by a triple ``i < j < k`` with
``3 + 2 (a_ij + a_ik + a_jk) < 0``, the exact integer value of the form at
``e_i + e_j + e_k``, read off the off-diagonal tuple.  Every other class is
built on integers (``SymMatrix.from_integer_rows``) and goes through the
exact extremality certificate, whose copositivity scan must then find no
violator: a refutation there contradicts the rule and aborts the sweep.

Permutations are the whole symmetry group here: sign conjugations do not
preserve copositivity, and positive diagonal scalings act trivially on
unit-diagonal matrices over this alphabet.  The canonical representative of a
class is the lexicographic minimum of its orbit, so a lex-order sweep meets
each class first at its representative and the record list is born sorted.
The sweep keeps one mark per candidate and marks a representative's whole
orbit when it meets it, so it stops only at representatives, and the orbit
sizes must add up to the candidate count.  The representatives of one run
that reach the certificate share a cache of support systems: they have few
distinct principal submatrices between them (8,454 at order 6, against
247,338 supports scanned), and each is solved once.

The sweep also aborts if an extremal record has a minimal support that is
not a pair; ``copocert census`` reports whether every copositive record has
only pair supports.  ``verify_pair_scaling_equivalence`` checks, for one
extremal matrix, the equivalence between that support property and being a
diagonal scaling of an extremal unit-diagonal {-1,0,1} matrix.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass

from .errors import (
    CensusInvariantError,
    NotCopositiveError,
    NotExtremalError,
)
from .extremality import extremality_certificate
from .linalg import SymMatrix
from .scaling import ScalingDecomposition, extract_pattern, has_sign_pattern_scaling

MAX_ORDER = 6

ALPHABET = (-1, 0, 1)


@dataclass(frozen=True)
class Candidate:
    order: int
    offdiag: tuple[int, ...]

    def __post_init__(self):
        m = self.order * (self.order - 1) // 2
        if len(self.offdiag) != m:
            raise ValueError(f"need {m} off-diagonal entries, got {len(self.offdiag)}")
        if any(e not in ALPHABET for e in self.offdiag):
            raise ValueError("off-diagonal entries must be -1, 0, or 1")

    def matrix(self) -> SymMatrix:
        n = self.order
        rows = [[1] * n for _ in range(n)]
        # the alphabet check admits any number equal to -1, 0 or 1
        off = map(int, self.offdiag)
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = next(off)
        return SymMatrix.from_integer_rows(rows)


@dataclass(frozen=True)
class CensusRecord:
    order: int
    canonical_offdiag: tuple[int, ...]
    copositive: bool
    extremal: bool
    minimal_supports: tuple[tuple[int, ...], ...]
    orbit_size: int

    def to_line(self) -> str:
        off = ",".join(str(e) for e in self.canonical_offdiag) or "-"
        sups = ";".join(",".join(str(i + 1) for i in s)
                        for s in self.minimal_supports) or "-"
        return (f"{self.order} {off} {int(self.copositive)} "
                f"{int(self.extremal)} {sups} {self.orbit_size}")

    @classmethod
    def from_line(cls, line: str) -> "CensusRecord":
        """Parse a line written by ``to_line``; anything else is a ValueError.

        The fields must describe a valid candidate and an orbit size that
        divides n!.  Supports hold increasing 1-based indices within the
        order, are in sorted order and form an antichain (none contains
        another, so they are distinct).  Only a copositive record may be
        extremal or have supports, and every support of an extremal record
        is a pair.  The record must render back to exactly this line (so
        flags are 0 or 1).
        """
        fields = line.split()
        if len(fields) != 6:
            raise ValueError(f"expected 6 fields, got {len(fields)}: {line!r}")
        order = int(fields[0])
        off = () if fields[1] == "-" else tuple(int(e) for e in fields[1].split(","))
        sups = () if fields[4] == "-" else tuple(
            tuple(int(i) - 1 for i in part.split(","))
            for part in fields[4].split(";"))
        Candidate(order, off)  # entry count and alphabet
        record = cls(order, off, fields[2] == "1", fields[3] == "1",
                     sups, int(fields[5]))
        if (order < 1 or record.orbit_size < 1
                or math.factorial(order) % record.orbit_size
                or any(not 0 <= i < order for s in sups for i in s)
                or any(list(s) != sorted(set(s)) for s in sups)
                or list(sups) != sorted(set(sups))
                or any(set(a) <= set(b) for a, b in
                       itertools.permutations(sups, 2))
                or (record.extremal or sups) and not record.copositive
                or record.extremal and any(len(s) != 2 for s in sups)
                or record.to_line() != line):
            raise ValueError(f"not a census record line: {line!r}")
        return record


@functools.lru_cache(maxsize=None)
def _place_values(n: int):
    """Sweep-index contributions of each off-diagonal position, per permutation.

    The sweep index of a tuple t is sum((t[k] + 1) * 3**(m - 1 - k)), its
    position in the (-1, 0, 1) product order.  Entry k of the result maps a
    digit d = t[k] + 1 in (1, 2) to d times the place value of the position
    to which each permutation moves position k, packed into one int with a
    32-bit field per permutation (field g holds permutation g).  Every sweep
    index is below 3^15 < 2^32 at order 6, so adding up the packed ints that
    t's nonzero digits pick never carries from one field into the next, and
    the sum holds the sweep index of every permuted image of t (``_images``
    unpacks it).
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = len(pairs)
    index = {p: k for k, p in enumerate(pairs)}
    perms = list(itertools.permutations(range(n)))
    columns = []
    for i, j in pairs:
        packed = sum(3 ** (m - 1 - index[tuple(sorted((p[i], p[j])))]) << 32 * g
                     for g, p in enumerate(perms))
        columns.append((0, packed, 2 * packed))
    return tuple(columns)


def _images(packed: int, group_order: int):
    """The 32-bit fields of a packed sum, as a sequence of ints.

    Native byte order on both sides, so each field reads back whole; the
    fields may come out in reverse permutation order, which no caller minds.
    """
    return memoryview(packed.to_bytes(4 * group_order, sys.byteorder)).cast("I")


def _digits(index: int, m: int) -> list[int]:
    """Base-3 digits of a sweep index, most significant first."""
    digits = [0] * m
    for k in range(m - 1, -1, -1):
        index, digits[k] = divmod(index, 3)
    return digits


@functools.lru_cache(maxsize=None)
def _triples(n: int):
    """``((i, j, k), (ij, ik, jk))`` for every ``i < j < k``, in
    lexicographic order: the triple and the positions of its three pairs in
    the off-diagonal tuple."""
    index = {p: k for k, p in enumerate(itertools.combinations(range(n), 2))}
    return tuple(((i, j, k), (index[i, j], index[i, k], index[j, k]))
                 for i, j, k in itertools.combinations(range(n), 3))


def _violating_triple(cand: Candidate):
    """The first ``(i, j, k)`` at which the form value
    ``3 + 2 (a_ij + a_ik + a_jk)`` of ``e_i + e_j + e_k`` is negative (-1
    or -3: two entries -1, the third not +1), or ``None``."""
    off = cand.offdiag
    for triple, (a, b, c) in _triples(cand.order):
        if off[a] + off[b] + off[c] < -1:
            return triple
    return None


def _classify(cand: Candidate, orbit: int, cache: dict) -> CensusRecord:
    if _violating_triple(cand) is not None:
        return CensusRecord(cand.order, cand.offdiag, False, False, (), orbit)
    try:
        cert = extremality_certificate(cand.matrix(), cache=cache)
    except NotCopositiveError as exc:
        raise CensusInvariantError(
            f"class {cand.offdiag} has no violating triple but the exact scan "
            f"refutes it, against Hoffman and Pereira's rule") from exc
    supports = tuple(sorted(z.support for z in cert.minimal_zeros))
    return CensusRecord(cand.order, cand.offdiag, True, cert.extremal,
                        supports, orbit)


def run_census(n: int) -> list[CensusRecord]:
    """One classified record per permutation class, sorted by representative.

    The sweep marks every candidate it has met in a bytearray of
    3^(n(n-1)/2) bytes indexed by sweep position: the first unmarked index
    is the next class representative, and marking its whole orbit leaves
    the rest of the class unvisited, so the permutations are applied once
    per class rather than once per candidate.  The orbit comes from one sum
    of packed place values (``_place_values``).  A representative with a
    violating triple (``_violating_triple``) is recorded as not copositive;
    every other one goes through the exact scan and certificate, and
    raises CensusInvariantError if the scan refutes it.  These share one
    support-system cache (``stationary_candidates``), created here and
    dropped on return, so each distinct principal submatrix is solved once
    per call.
    """
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"order must be between 1 and {MAX_ORDER}, got {n}")
    m = n * (n - 1) // 2
    total = 3 ** m
    columns = _place_values(n)
    group_order = math.factorial(n)
    cache: dict = {}
    seen = bytearray(total)
    records: list[CensusRecord] = []
    covered = 0
    index = seen.find(0)
    while index >= 0:
        digits = _digits(index, m)
        packed = 0
        for k, digit in enumerate(digits):
            if digit:
                packed += columns[k][digit]
        orbit = set(_images(packed, group_order))
        for j in orbit:
            seen[j] = 1
        covered += len(orbit)
        record = _classify(Candidate(n, tuple(d - 1 for d in digits)),
                           len(orbit), cache)
        if record.extremal:
            for s in record.minimal_supports:
                if len(s) != 2:
                    raise CensusInvariantError(
                        f"extremal record {record.canonical_offdiag} has "
                        f"minimal support {tuple(i + 1 for i in s)} of "
                        f"cardinality {len(s)}, expected 2")
        records.append(record)
        index = seen.find(0, index + 1)
    if covered != total:
        raise CensusInvariantError(
            f"orbit sizes sum to {covered}, not to the {total} candidates")
    offdiags = [r.canonical_offdiag for r in records]
    if offdiags != sorted(offdiags):
        raise CensusInvariantError(
            "lex sweep must emit class representatives in sorted order")
    return records


def write_records(records: list[CensusRecord], handle) -> None:
    """Write one ``to_line`` line per record to an open text file."""
    handle.writelines(record.to_line() + "\n" for record in records)


def read_records(path: str) -> list[CensusRecord]:
    records = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line and not line.startswith("#"):
                records.append(CensusRecord.from_line(line))
    return records


@dataclass(frozen=True)
class EquivalenceReport:
    """Two faces of the same extremality property, computed independently.

    pair_supports: all minimal supports of A have cardinality two.
    scaled_extremal_pattern: A is a diagonal scaling of a unit-diagonal
    {-1,0,1} matrix whose own extremality nullity is 1.
    """

    order: int
    supports: tuple[tuple[int, ...], ...]
    pair_supports: bool
    decomposition: ScalingDecomposition | None
    pattern_nullity: int | None
    scaled_extremal_pattern: bool

    @property
    def equivalent(self) -> bool:
        return self.pair_supports == self.scaled_extremal_pattern


def verify_pair_scaling_equivalence(A: SymMatrix) -> EquivalenceReport:
    """Check both characterizations of A on one certified extremal input.

    Raises NotCopositiveError or NotExtremalError when the input fails its
    precondition; the two predicates are computed by disjoint code paths
    (zero enumeration vs scaling extraction plus pattern extremality).
    """
    cert = extremality_certificate(A)
    if not cert.extremal:
        raise NotExtremalError(
            f"input is not extremal, nullity {cert.nullity}")
    supports = tuple(sorted(z.support for z in cert.minimal_zeros))
    pair = all(len(s) == 2 for s in supports)
    decomposition = None
    pattern_nullity = None
    scaled = False
    if has_sign_pattern_scaling(A):
        decomposition = extract_pattern(A)
        pattern_cert = extremality_certificate(decomposition.pattern)
        pattern_nullity = pattern_cert.nullity
        scaled = pattern_cert.extremal
    return EquivalenceReport(A.n, supports, pair, decomposition,
                             pattern_nullity, scaled)
