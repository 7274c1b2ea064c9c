"""Census of unit-diagonal symmetric matrices over the {-1,0,1} alphabet.

Candidates are determined by their strict upper triangle (the diagonal is
implicitly all ones).  They are enumerated in lexicographic order of that
off-diagonal tuple with entry order (-1, 0, 1), deduplicated up to
simultaneous row/column permutation, and each permutation class is classified
by the exact copositivity, minimal-zero, and extremality oracles.

Permutations are the whole symmetry group here: sign conjugations do not
preserve copositivity, and positive diagonal scalings act trivially on
unit-diagonal matrices over this alphabet.  The canonical representative of a
class is the lexicographic minimum of its orbit, so a lex-order sweep meets
each class first at its representative and the record list is born sorted.

Two cross-class checks ride on top of the census: every copositive record
must have only cardinality-two minimal supports, and every extremal record
must satisfy the equivalence between that support property and being a
diagonal scaling of an extremal unit-diagonal {-1,0,1} matrix.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import (
    CandidateBudgetError,
    CensusInvariantError,
    CheckpointFormatError,
    NotCopositiveError,
    NotExtremalError,
)
from .extremality import extremality_certificate
from .linalg import ONE, SymMatrix
from .scaling import ScalingDecomposition, extract_pattern, has_sign_pattern_scaling

MAX_ORDER = 6
DEFAULT_CANDIDATE_BUDGET = 60000
BUDGET_ENV = "COPOCERT_MAX_CANDIDATES"
_CHECKPOINT_EVERY = 50000
_CHECKPOINT_KEYS = {"order", "next_index", "records"}

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
        entries = []
        pos = 0
        for i in range(self.order):
            for j in range(i, self.order):
                if i == j:
                    entries.append(ONE)
                else:
                    entries.append(Fraction(self.offdiag[pos]))
                    pos += 1
        return SymMatrix(self.order, tuple(entries))


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
        fields = line.split()
        if len(fields) != 6:
            raise ValueError(f"expected 6 fields, got {len(fields)}: {line!r}")
        order = int(fields[0])
        off = () if fields[1] == "-" else tuple(int(e) for e in fields[1].split(","))
        sups = () if fields[4] == "-" else tuple(
            tuple(int(i) - 1 for i in part.split(","))
            for part in fields[4].split(";"))
        return cls(order, off, fields[2] == "1", fields[3] == "1",
                   sups, int(fields[5]))


def _getter(src: tuple[int, ...]):
    if len(src) >= 2:
        return operator.itemgetter(*src)
    if len(src) == 1:
        return lambda t, s=src[0]: (t[s],)
    return lambda t: ()


@functools.lru_cache(maxsize=None)
def _permutation_getters(n: int):
    """Position maps sending an off-diagonal tuple to its permuted image.

    Entry k of the image holds the source entry at position of the permuted
    pair; the identity permutation comes first.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    index = {p: k for k, p in enumerate(pairs)}
    getters = []
    for perm in itertools.permutations(range(n)):
        src = tuple(index[tuple(sorted((perm[i], perm[j])))] for i, j in pairs)
        getters.append(_getter(src))
    return tuple(getters)


def _is_canonical(offdiag, getters) -> bool:
    return not any(g(offdiag) < offdiag for g in getters)


def _classify(cand: Candidate, orbit: int) -> CensusRecord:
    try:
        cert = extremality_certificate(cand.matrix())
    except NotCopositiveError:
        return CensusRecord(cand.order, cand.offdiag, False, False, (), orbit)
    supports = tuple(sorted(z.sorted_support() for z in cert.minimal_zeros))
    return CensusRecord(cand.order, cand.offdiag, True, cert.extremal,
                        supports, orbit)


def _write_checkpoint(path: str, order: int, next_index: int,
                      records: list[CensusRecord]) -> None:
    state = {"order": order, "next_index": next_index,
             "records": [r.to_line() for r in records]}
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".census-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(state, handle)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_checkpoint(path: str, order: int) -> tuple[int, list[CensusRecord]]:
    """Resume state saved by ``_write_checkpoint``, validated in full.

    Raises CheckpointFormatError unless the file holds exactly the keys
    written, for the requested order n, with ``next_index`` between 0 and the
    candidate count 3^(n(n-1)/2), and every record line a well-formed record
    of that order whose candidate comes after the previous record's and
    before ``next_index`` in the sweep (a resumed sweep would otherwise
    classify it twice).
    """
    try:
        with open(path) as handle:
            state = json.load(handle)
    except (OSError, ValueError) as exc:
        raise CheckpointFormatError(f"cannot read checkpoint {path}: {exc}")
    if not isinstance(state, dict) or set(state) != _CHECKPOINT_KEYS:
        raise CheckpointFormatError(
            f"checkpoint must be an object with keys {sorted(_CHECKPOINT_KEYS)}")
    if state["order"] != order:
        raise CheckpointFormatError(
            f"checkpoint is for order {state['order']}, requested {order}")
    next_index, lines = state["next_index"], state["records"]
    total = 3 ** (order * (order - 1) // 2)
    if type(next_index) is not int or not 0 <= next_index <= total:
        raise CheckpointFormatError(
            f"checkpoint next_index {next_index!r} is outside 0..{total}")
    if not isinstance(lines, list):
        raise CheckpointFormatError("checkpoint records must be a list")
    records = []
    last = -1  # sweep position of the previous record
    for k, line in enumerate(lines, start=1):
        try:
            record = CensusRecord.from_line(line)
            Candidate(record.order, record.canonical_offdiag)
            valid = record.order == order and record.to_line() == line
        except (AttributeError, ValueError):
            valid = False
        if not valid:
            raise CheckpointFormatError(
                f"checkpoint record {k} is not an order-{order} record: "
                f"{line!r}")
        index = functools.reduce(lambda acc, e: 3 * acc + e + 1,
                                 record.canonical_offdiag, 0)
        if not last < index < next_index:
            raise CheckpointFormatError(
                f"checkpoint record {k} is out of sweep order or not before "
                f"next_index {next_index}: {line!r}")
        last = index
        records.append(record)
    return next_index, records


def run_census(n: int, allow_large: bool = False,
               checkpoint: str | None = None, resume: bool = False,
               progress: Callable[[int, int], None] | None = None,
               ) -> list[CensusRecord]:
    """One classified record per permutation class, sorted by representative.

    The candidate budget (default 60000, override via COPOCERT_MAX_CANDIDATES)
    guards against accidentally launching the 14.3M-candidate order-6 sweep;
    allow_large bypasses it.  With a checkpoint path, progress is persisted
    every 50000 candidates and a resumed run continues from the last
    completed index.
    """
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"order must be between 1 and {MAX_ORDER}, got {n}")
    m = n * (n - 1) // 2
    total = 3 ** m
    budget = int(os.environ.get(BUDGET_ENV, DEFAULT_CANDIDATE_BUDGET))
    if total > budget and not allow_large:
        raise CandidateBudgetError(
            f"{total} candidates at order {n} exceed the budget of {budget}; "
            f"pass allow_large or raise {BUDGET_ENV}")
    start = 0
    records: list[CensusRecord] = []
    if resume:
        if checkpoint is None:
            raise ValueError("resume requires a checkpoint path")
        if os.path.exists(checkpoint):
            start, records = _load_checkpoint(checkpoint, n)
    getters = _permutation_getters(n)
    others = getters[1:]
    done = start
    # raw tuples; a Candidate is built only for class representatives
    for offdiag in itertools.islice(
            itertools.product(ALPHABET, repeat=m), start, None):
        done += 1
        if _is_canonical(offdiag, others):
            orbit = len({g(offdiag) for g in getters})
            record = _classify(Candidate(n, offdiag), orbit)
            if record.extremal:
                for s in record.minimal_supports:
                    if len(s) != 2:
                        raise CensusInvariantError(
                            f"extremal record {record.canonical_offdiag} has "
                            f"minimal support {tuple(i + 1 for i in s)} of "
                            f"cardinality {len(s)}, expected 2")
            records.append(record)
        if checkpoint and done % _CHECKPOINT_EVERY == 0:
            _write_checkpoint(checkpoint, n, done, records)
        if progress and done % 10000 == 0:
            progress(done, total)
    if done != total:
        raise CensusInvariantError("candidate stream must be exhausted")
    offdiags = [r.canonical_offdiag for r in records]
    if offdiags != sorted(offdiags):
        raise CensusInvariantError(
            "lex sweep must emit class representatives in sorted order")
    if checkpoint and os.path.exists(checkpoint):
        os.unlink(checkpoint)
    return records


def write_records(records: list[CensusRecord], path: str) -> None:
    with open(path, "w") as handle:
        for record in records:
            handle.write(record.to_line() + "\n")


def read_records(path: str) -> list[CensusRecord]:
    records = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line and not line.startswith("#"):
                records.append(CensusRecord.from_line(line))
    return records


@dataclass(frozen=True)
class PairSupportReport:
    """Outcome of checking that copositive records only ever have
    cardinality-two minimal supports."""

    order: int
    copositive_records: int
    support_count: int
    violations: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_pair_supports(records: list[CensusRecord]) -> PairSupportReport:
    """Every minimal support of every copositive record has cardinality 2."""
    if not records:
        raise ValueError("empty record list")
    order = records[0].order
    checked = 0
    count = 0
    violations = []
    for record in records:
        if not record.copositive:
            continue
        checked += 1
        for support in record.minimal_supports:
            count += 1
            if len(support) != 2:
                violations.append((record.canonical_offdiag, support))
    return PairSupportReport(order, checked, count, tuple(violations))


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
    supports = tuple(sorted(z.sorted_support() for z in cert.minimal_zeros))
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
