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
The sweep marks a representative's orbit when it meets it, so it stops only at
representatives, and the orbit sizes must add up to the candidate count.  It
runs in two phases.  The first keeps one mark per candidate of the first third
of the range, whose first entry, at pair (0, 1), is -1, because of a lemma:
every class with a -1 entry has its representative there, since a permutation
moves any -1 pair onto (0, 1), and its tuples there are the images of the
representative t under the 2 (n-2)! permutations that map one of t's -1 pairs
onto (0, 1).  Among those images, t itself appears once per automorphism of t,
counted under the -1 pair that the automorphism maps onto (0, 1), so the orbit
size is ``n! / |Aut t|`` with no set of images built.  The second phase sweeps
the 2^m {0, 1} candidates, which sort after all of those, with marks and whole
orbits of their own.  The representatives of one run that reach the
certificate share a cache of support systems: they have few distinct principal
submatrices between them, and each is solved once.  Those with every entry 0
or 1 are strictly copositive (their Z-part is the identity), so
``minimal_zeros`` certifies them without a scan (the route order is in
``copositivity._decide``): at order 6, 3,770 of the
3,926 copositive classes are scanned, visiting 39,279 of the 237,510
supports of those classes, with 9 systems solved.  The scan stays inside
the components of each class's -1 graph (see ``copositivity``); without
that cut it visited 91,723 of them and solved 23 systems.

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

from .errors import (
    CensusInvariantError,
    NotCopositiveError,
    NotExtremalError,
)
from .extremality import extremality_certificate
from .linalg import SymMatrix
from .records import record
from .scaling import ScalingDecomposition, extract_pattern, has_sign_pattern_scaling

MAX_ORDER = 6

ALPHABET = (-1, 0, 1)

CHUNK = 5  # base-3 digits per table lookup of the sweep: 243 entries


@record
class Candidate:
    order: int
    offdiag: tuple[int, ...]

    def __init__(self, order, offdiag, /):
        # written out (see records): the sweep builds one per class
        m = order * (order - 1) // 2
        if len(offdiag) != m:
            raise ValueError(f"need {m} off-diagonal entries, got {len(offdiag)}")
        if any(e not in ALPHABET for e in offdiag):
            raise ValueError("off-diagonal entries must be -1, 0, or 1")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "offdiag", offdiag)

    def matrix(self) -> SymMatrix:
        n = self.order
        rows = [[1] * n for _ in range(n)]
        # the alphabet check admits any number equal to -1, 0 or 1
        off = map(int, self.offdiag)
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = next(off)
        return SymMatrix.from_integer_rows(rows)


@record
class CensusRecord:
    order: int
    canonical_offdiag: tuple[int, ...]
    copositive: bool
    extremal: bool
    minimal_supports: tuple[tuple[int, ...], ...]
    orbit_size: int

    def __init__(self, order, canonical_offdiag, copositive, extremal,
                 minimal_supports, orbit_size, /):
        # written out (see records): the sweep builds one per class
        assign = object.__setattr__
        assign(self, "order", order)
        assign(self, "canonical_offdiag", canonical_offdiag)
        assign(self, "copositive", copositive)
        assign(self, "extremal", extremal)
        assign(self, "minimal_supports", minimal_supports)
        assign(self, "orbit_size", orbit_size)

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


def _place_values(pairs, perms, radix: int) -> list[int]:
    """Entry k: for each permutation g of ``perms``, the place value
    ``radix ** (m - 1 - k')`` of the position k' to which g moves position
    k, in the 32-bit field g of one int.

    A tuple's index in the product order of its alphabet, with digits in
    ``range(radix)``, is the sum of each digit times its place value, so
    the sum over the positions of each digit times its entry here holds,
    in field g, the index of the tuple permuted by g.  Every index is below
    ``3 ** 15 < 2 ** 32`` (order 6), so no field carries into the next.
    """
    m = len(pairs)
    index = {p: k for k, p in enumerate(pairs)}
    return [sum(radix ** (m - 1 - index[tuple(sorted((p[i], p[j])))]) << 32 * g
                for g, p in enumerate(perms))
            for i, j in pairs]


@functools.lru_cache(maxsize=None)
def _sweep_tables(n: int):
    """``(chunks, lookups, size, graphs)``, the tables of ``_classes``.

    Phase 1 reads a sweep index ``CHUNK`` base-3 digits at a time: its
    chunk values are its base-``3 ** CHUNK`` digits, most significant
    first (``_chunk_values``).  ``lookups[k]`` belongs to pair k, with the
    ``size = 2 (n - 2)!`` permutations that map pair k onto (0, 1): per
    chunk, the packed sum of each chunk value's digits times their place
    values (``_place_values``), so the sum over the chunks of a tuple
    holds the sweep indices of its images under those permutations, in
    32-bit fields (``_images``).  ``chunks[c][r]`` is
    ``(entries, negative)`` for value r of chunk c: the entries of its
    positions and the lookups of the positions with entry -1.  ``graphs``
    is ``_place_values`` over all n! permutations for the {0, 1} tuples of
    phase 2, read in base 2.
    """
    pairs = list(itertools.combinations(range(n), 2))
    perms = list(itertools.permutations(range(n)))
    m = len(pairs)
    spans = [range(max(0, m - CHUNK * (c + 1)), m - CHUNK * c)
             for c in range(-(-m // CHUNK))][::-1]
    lookups = []
    for a, b in pairs:
        places = _place_values(
            pairs, [p for p in perms if {p[a], p[b]} == {0, 1}], 3)
        per_chunk = []
        for span in spans:
            sums = [0]
            for k in span:
                sums = [x + digit * places[k] for x in sums
                        for digit in (0, 1, 2)]
            per_chunk.append(sums)
        lookups.append(per_chunk)
    chunks = [[(entries, [lookups[k] for k, e in zip(span, entries) if e < 0])
               for entries in itertools.product(ALPHABET, repeat=len(span))]
              for span in spans]
    # each permutation maps exactly one pair onto (0, 1)
    size = len(perms) // max(m, 1)
    return chunks, lookups, size, _place_values(pairs, perms, 2)


def _chunk_values(index: int, count: int) -> list[int]:
    """The ``count`` base-``3 ** CHUNK`` digits of a sweep index, most
    significant first."""
    values = [0] * count
    for c in range(count - 1, -1, -1):
        index, values[c] = divmod(index, 3 ** CHUNK)
    return values


def _images(packed: int, count: int):
    """The ``count`` 32-bit fields of a packed sum, as a sequence of ints.

    Native byte order on both sides, so each field reads back whole; the
    fields may come out in reverse permutation order, which no caller minds.
    """
    return memoryview(packed.to_bytes(4 * count, sys.byteorder)).cast("I")


def _classes(n: int):
    """Yield ``(offdiag, orbit size)`` for each class's representative, the
    lexicographic minimum of its orbit, in lexicographic order: phase 1
    over the first third of the range, with orbit sizes ``n! / |Aut|``,
    then phase 2 over the {0, 1} tuples (see ``run_census``)."""
    m = n * (n - 1) // 2
    chunks, _, size, graphs = _sweep_tables(n)
    group_order = math.factorial(n)
    seen = bytearray(3 ** m // 3)
    index = seen.find(0)
    while index >= 0:
        values = _chunk_values(index, len(chunks))
        offdiag = ()
        packed = []  # per -1 pair, its images' fields as bytes
        for table, value in zip(chunks, values):
            entries, negative = table[value]
            offdiag += entries
            for lookup in negative:
                packed.append(sum(map(list.__getitem__, lookup, values))
                              .to_bytes(4 * size, sys.byteorder))
        images = memoryview(b"".join(packed)).cast("I").tolist()
        for j in images:
            seen[j] = 1
        yield offdiag, group_order // images.count(index)
        index = seen.find(0, index + 1)
    seen = bytearray(2 ** m)
    index = seen.find(0)
    while index >= 0:
        offdiag = tuple(index >> (m - 1 - k) & 1 for k in range(m))
        orbit = set(_images(sum(x for x, bit in zip(graphs, offdiag) if bit),
                            group_order))
        for j in orbit:
            seen[j] = 1
        yield offdiag, len(orbit)
        index = seen.find(0, index + 1)


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

    ``_classes`` sweeps the candidates in two phases.  Phase 1 keeps one
    mark per candidate of the first third of the range, 3^(m-1) bytes for
    ``m = n(n-1)/2``: every class with a -1 entry has its lexicographic
    minimum there, since a permutation moves any -1 pair onto pair (0, 1).
    The first unmarked index is the next representative, and marking its
    images under the 2 (n-2)! permutations that map each of its -1 pairs
    onto (0, 1) marks every tuple of its orbit in that range, so the
    permutations are applied once per class rather than once per
    candidate.  Those images meet the representative once per
    automorphism, each counted under the -1 pair it maps onto (0, 1), so
    the orbit size is ``n! / |Aut|``.  Phase 2 sweeps the 2^m {0, 1}
    candidates with whole orbits.  Orbit sizes must sum to 3^m and the
    records must be born sorted (CensusInvariantError otherwise).  A
    representative with a violating triple (``_violating_triple``) is
    recorded as not copositive; every other one goes through the
    extremality certificate, whose exact scan is skipped where
    ``minimal_zeros`` proves the class strictly copositive (the {0, 1}
    ones), and raises CensusInvariantError if the scan refutes it, or if
    it is extremal with a minimal support that is not a pair.  The scans
    share one support-system cache
    (``stationary_candidates``), created here and dropped on return, so
    each distinct principal submatrix is solved once per call.
    """
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"order must be between 1 and {MAX_ORDER}, got {n}")
    total = 3 ** (n * (n - 1) // 2)
    cache: dict = {}
    records: list[CensusRecord] = []
    covered = 0
    for offdiag, orbit in _classes(n):
        covered += orbit
        record = _classify(Candidate(n, offdiag), orbit, cache)
        if record.extremal:
            for s in record.minimal_supports:
                if len(s) != 2:
                    raise CensusInvariantError(
                        f"extremal record {record.canonical_offdiag} has "
                        f"minimal support {tuple(i + 1 for i in s)} of "
                        f"cardinality {len(s)}, expected 2")
        records.append(record)
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


@record
class EquivalenceReport:
    """Two faces of the same extremality property, computed independently
    (a pattern equal to the input shares the input's certificate).

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
    precondition.  The two predicates are computed by disjoint code paths
    (zero enumeration vs scaling extraction plus pattern extremality),
    except that a pattern equal to A itself (a unit-diagonal {-1,0,1}
    input) takes A's certificate instead of scanning A a second time; the
    scaling extraction still runs independently.
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
        pattern_cert = (cert if decomposition.pattern == A else
                        extremality_certificate(decomposition.pattern))
        pattern_nullity = pattern_cert.nullity
        scaled = pattern_cert.extremal
    return EquivalenceReport(A.n, supports, pair, decomposition,
                             pattern_nullity, scaled)
