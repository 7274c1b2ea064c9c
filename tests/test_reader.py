"""The one-pass matrix reader against the reader it replaced.

``cli.parse_matrix_file`` checks each row with one pattern, reads only the
upper triangle and compares a lower entry with its mirror as text;
``oracles.reference_parse_matrix_file`` is the reader before that, with
every entry matched, converted and cross-multiplied on its own.  On every
file here the two must agree: an equal ``SymMatrix``, or the same error
class, message, line and column.
"""

from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copocert.cli import MAX_DIGITS, parse_matrix_file

from oracles import (
    READER_KINDS,
    benchmark_families,
    reader_file,
    reader_kind,
    reader_outcome,
    reference_parse_matrix_file,
)

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def compare(tmp_path):
    """Write bytes to a file, read it with both readers and return the
    reference's outcome after checking that the two agree."""
    path = tmp_path / "matrix.txt"

    def _compare(data: bytes):
        path.write_bytes(data)
        reference = reader_outcome(reference_parse_matrix_file, path)
        assert reader_outcome(parse_matrix_file, path) == reference
        return reference

    return _compare


def test_seeded_files_cover_every_diagnostic(compare):
    kinds = Counter(reader_kind(compare(reader_file(seed)[0]))
                    for seed in range(1500))
    assert set(kinds) == {kind for _, kind in READER_KINDS}


# bytes that break a file in the places the two readers could part: line
# breaks of either kind, whitespace that is not one, a comment mark,
# digits, signs, slashes and bytes that are not UTF-8 text
EDITS = [c.encode("utf-8") for c in
         ("0", "1", "00", "/", "/0", "-", "+", " ", "#", "x", "\n", "\r",
          "\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u0663")]
EDITS += [b"\xff", b"\xc3", b"\x80", b"9" * (MAX_DIGITS + 1)]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 10**9),
       edits=st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(EDITS),
                                st.booleans()), max_size=3))
def test_drawn_files_with_edits(tmp_path_factory, seed, edits):
    # a seeded file, with a few bytes inserted, or written over, at drawn
    # offsets
    data, _ = reader_file(seed)
    for at, piece, overwrite in edits:
        at %= len(data) + 1
        data = data[:at] + piece + data[at + len(piece) * overwrite:]
    path = tmp_path_factory.mktemp("drawn") / "matrix.txt"
    path.write_bytes(data)
    assert reader_outcome(parse_matrix_file, path) == reader_outcome(
        reference_parse_matrix_file, path)


def test_fixtures(compare):
    # every text file under fixtures/; all but the expected outputs are
    # matrices
    paths = sorted(FIXTURES.glob("**/*.txt"))
    matrices = [path for path in paths if "expected" not in path.parts]
    assert len(matrices) >= 9
    for path in paths:
        outcome = compare(path.read_bytes())
        assert (outcome[0] == "ok") == (path in matrices), path


def test_benchmark_family_files(compare, tmp_path):
    families = benchmark_families()
    path = tmp_path / "family.txt"
    cases = [families.horn()] + [
        families.generate(family, n, seed, index)
        for family in ("dsd", "bbt", "rank1", "refute") for n in (6, 7, 8)
        for seed in (1, 2, 7) for index in (0, 1)]
    for case in cases:
        families.write_matrix(str(path), case.matrix)
        assert compare(path.read_bytes())[0] == "ok"


BIG = "1" * (MAX_DIGITS + 1)


@pytest.mark.parametrize("data, kind", [
    (b"2\r1 1/2\r1/2 1\r", "valid"),
    (b"2\r\n1 1/2\r\n1/2 1\r\n", "valid"),
    (b"2\n\r1 0\r\n\n0 1", "valid"),
    (b"2\r1 0\r0\r", "row_length"),
    # whitespace inside a line that str.splitlines() would break it at
    ("2\n1\x0c1/2\n1/2 1\n".encode(), "valid"),
    ("2\n1\x1c1/2\n1/2\x1d1\n".encode(), "valid"),
    ("2\n1\x851/2\n1/2 1\n".encode(), "valid"),
    ("2\n1\u20281/2\n1/2\u20291\n".encode(), "valid"),
    ("# note\x0c2 2\n2\n1 0\n0 1\n".encode(), "valid"),
    ("#\x85 3\n2\n1 0\n0 1\n# \u2028 9 9\n".encode(), "valid"),
    ("2\n1 0\n0 1\x0c# 5\n".encode(), "row_length"),
    # mirrors written in other forms of the same value
    (b"2\n1 2/4\n1/2 1\n", "valid"),
    (b"2\n1 +1\n1 1\n", "valid"),
    (b"2\n1 -0\n0 1\n", "valid"),
    (b"2\n1 0/3\n-0/7 1\n", "valid"),
    (b"2\n1 007\n7 1\n", "valid"),
    (b"2\n1 1/05\n1/5 1\n", "valid"),
    (b"3\n1 -6/4 0\n-3/2 1 2\n0 02/1 1\n", "valid"),
    (b"2\n1 2/4\n1/3 1\n", "asymmetric"),
    (b"3\n1 1 2\n1 1 3\n1 3 1\n", "asymmetric"),
    # zero denominators below the diagonal
    (b"2\n1 1/2\n1/00 1\n", "zero_denominator"),
    (b"2\n1 0\n0/00 1\n", "zero_denominator"),
    (b"2\n1 1/0\n1/0 1\n", "zero_denominator"),
    # a line the reader cannot decode, or an integer too long to read,
    # before and after a format error
    (f"2\n1 {BIG}\n1 1 1\n".encode(), "digits"),
    (f"2 2\n1 0\n0 {BIG}/3\n".encode(), "digits"),
    (f"2\n1 0\n0 1\n# {BIG}\n".encode(), "valid"),
    (b"2\n1 0\xff\n0 1 1\n", "utf8"),
    (b"x\n1\n# \xff\n", "utf8"),
    (b"2\n1 1/2\n1/3 \xc3\n", "utf8"),
], ids=["cr", "crlf", "mixed-ends", "cr-short-row", "form-feed-row",
        "separators-row", "nel-row", "line-separator-row",
        "form-feed-comment", "nel-comment", "form-feed-trailing-comment",
        "mirror-unreduced", "mirror-plus", "mirror-minus-zero",
        "mirror-zero-over", "mirror-leading-zeros",
        "mirror-padded-denominator", "mirror-order-3", "asymmetric-unreduced",
        "asymmetric-order-3", "zero-denominator-lower",
        "zero-over-zero-lower", "zero-denominator-both",
        "overlong-before-format-error", "overlong-after-format-error",
        "overlong-in-comment", "non-utf8-before-format-error",
        "non-utf8-after-format-error", "non-utf8-before-asymmetry"])
def test_named_files(compare, data, kind):
    assert reader_kind(compare(data)) == kind
