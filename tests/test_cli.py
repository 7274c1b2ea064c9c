"""Command-line interface: parsing diagnostics, reports, exit codes."""

import math
import os
import random
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import copocert.copositivity as copositivity_mod
from copocert import cli
from copocert.census import run_census
from copocert.cli import MAX_DIGITS, main, parse_matrix_file
from copocert.errors import MatrixFormatError
from copocert.linalg import SymMatrix, eval_quadratic, horn_matrix

from oracles import fraction_rows, identity

F = Fraction


def machine_block(out: str) -> dict:
    lines = out.splitlines()
    body = lines[lines.index("[machine]") + 1:lines.index("[human]")]
    parsed = {}
    for line in body:
        key, _, value = line.partition("=")
        parsed[key] = value
    return parsed


def records_section(out: str) -> list:
    lines = out.splitlines()
    return lines[lines.index("[records]") + 1:]


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


PAIR = SymMatrix.from_rows([[1, -1], [-1, 1]])


class TestParseMatrixFile:
    def test_roundtrip(self, write_matrix):
        path = write_matrix("2\n1 -1/2\n-1/2 3\n")
        A = parse_matrix_file(path)
        assert fraction_rows(A) == [[1, F(-1, 2)], [F(-1, 2), 3]]

    def test_comments_and_blank_lines(self, write_matrix):
        path = write_matrix("# header\n\n2\n# rows\n0 1\n\n1 0\n")
        assert fraction_rows(parse_matrix_file(path)) == [[0, 1], [1, 0]]

    def test_signed_entries(self, write_matrix):
        path = write_matrix("2\n+1 -1/2\n-1/2 1\n")
        assert parse_matrix_file(path).get(0, 1) == F(-1, 2)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MatrixFormatError) as exc:
            parse_matrix_file(str(tmp_path / "absent.txt"))
        assert exc.value.line == 0 and exc.value.column == 0

    def test_empty_file(self, write_matrix):
        path = write_matrix("# only comments\n")
        with pytest.raises(MatrixFormatError, match="no data lines"):
            parse_matrix_file(path)

    def test_order_line_extra_tokens(self, write_matrix):
        path = write_matrix("2 2\n1 0\n0 1\n")
        with pytest.raises(MatrixFormatError) as exc:
            parse_matrix_file(path)
        assert (exc.value.line, exc.value.column) == (1, 3)

    @pytest.mark.parametrize("tok", ["x", "0", "-1", "2.0"])
    def test_order_must_be_positive_integer(self, write_matrix, tok):
        path = write_matrix(f"{tok}\n1\n")
        with pytest.raises(MatrixFormatError, match="positive integer"):
            parse_matrix_file(path)

    def test_too_few_rows(self, write_matrix):
        path = write_matrix("3\n1 0 0\n0 1 0\n")
        with pytest.raises(MatrixFormatError, match="expected 3 matrix rows"):
            parse_matrix_file(path)

    def test_too_many_rows(self, write_matrix):
        path = write_matrix("1\n1\n2\n")
        with pytest.raises(MatrixFormatError) as exc:
            parse_matrix_file(path)
        assert "unexpected content" in str(exc.value)
        assert exc.value.line == 3

    def test_short_row(self, write_matrix):
        path = write_matrix("2\n1 0\n0\n")
        with pytest.raises(MatrixFormatError, match="has 1 entries, expected 2"):
            parse_matrix_file(path)

    def test_negative_denominator_rejected(self, write_matrix):
        path = write_matrix("1\n1/-2\n")
        with pytest.raises(MatrixFormatError) as exc:
            parse_matrix_file(path)
        assert "not an integer or p/q rational" in str(exc.value)
        assert (exc.value.line, exc.value.column) == (2, 1)

    def test_zero_denominator(self, write_matrix):
        path = write_matrix("1\n1/0\n")
        with pytest.raises(MatrixFormatError, match="zero denominator"):
            parse_matrix_file(path)

    def test_zero_denominator_position(self, write_matrix):
        path = write_matrix("2\n1  -3/0\n-3/0 1\n")
        with pytest.raises(MatrixFormatError, match="zero denominator") as exc:
            parse_matrix_file(path)
        assert (exc.value.line, exc.value.column) == (2, 4)

    def test_entries_read_as_their_fractions(self, write_matrix):
        tokens = ["+0", "-0/5", "007/014", "-12/8", "+3/1",
                  "12345678901234567890/3", "-7"]
        n = len(tokens)
        rows = [[tokens[abs(i - j)] for j in range(n)] for i in range(n)]
        path = write_matrix(f"{n}\n" + "\n".join(map(" ".join, rows)) + "\n")
        A = parse_matrix_file(path)
        assert fraction_rows(A) == [[F(t) for t in row] for row in rows]

    def test_order_line_non_decimal_digit(self, write_matrix):
        # superscript two: str.isdigit() holds, but int() refuses it
        path = write_matrix("\u00b2\n1 0\n0 1\n")
        with pytest.raises(MatrixFormatError, match="positive integer") as exc:
            parse_matrix_file(path)
        assert (exc.value.line, exc.value.column) == (1, 1)

    def test_bytes_not_utf8(self, tmp_path):
        path = tmp_path / "matrix.txt"
        path.write_bytes(b"2\n1 \xc3\xa9\xff\n0 1\n")
        with pytest.raises(MatrixFormatError, match="0xff") as exc:
            parse_matrix_file(str(path))
        # the column counts characters: the e-acute is one
        assert (exc.value.line, exc.value.column) == (2, 4)

    def test_asymmetric_points_at_lower_entry(self, write_matrix):
        path = write_matrix("2\n1 2\n3 1\n")
        with pytest.raises(MatrixFormatError) as exc:
            parse_matrix_file(path)
        assert "asymmetric" in str(exc.value)
        assert (exc.value.line, exc.value.column) == (3, 1)

    @pytest.mark.parametrize("text, message, where", [
        ("2\n1 2/4\n1/3 1\n",
         "asymmetric entries: (1,2) is 1/2, (2,1) is 1/3", (3, 1)),
        ("3\n1 0 -0/7\n0 1 -6/4\n0  +3/2 1\n",
         "asymmetric entries: (2,3) is -3/2, (3,2) is 3/2", (4, 4)),
        ("2\n1  -3/0\n-3/0 1\n", "zero denominator in '-3/0'", (2, 4)),
        ("1\n+0/0\n", "zero denominator in '+0/0'", (2, 1)),
    ], ids=["asymmetric-unreduced", "asymmetric-signed", "zero-denominator",
            "zero-over-zero"])
    def test_entry_diagnostics(self, write_matrix, text, message, where):
        # the entries print in lowest terms, as their Fractions do
        with pytest.raises(MatrixFormatError) as exc:
            parse_matrix_file(write_matrix(text))
        assert str(exc.value) == message
        assert (exc.value.line, exc.value.column) == where

    @pytest.mark.parametrize("text, message, where", [
        ("2\n1 \u0661\n1 1\n",
         "entry '\u0661' is not an integer or p/q rational", (2, 3)),
        ("2\n1 1/\uff12\n1/2 1\n",
         "entry '1/\uff12' is not an integer or p/q rational", (2, 3)),
        ("\uff13\n1 0 0\n0 1 0\n0 0 1\n",
         "order must be a positive integer, got '\uff13'", (1, 1)),
        ("\u0662\n1 0\n0 1\n",
         "order must be a positive integer, got '\u0662'", (1, 1)),
    ], ids=["arabic-indic-entry", "fullwidth-denominator",
            "fullwidth-order", "arabic-indic-order"])
    def test_only_ascii_digits(self, write_matrix, text, message, where):
        # str.isdecimal() and the regex \d hold for these digits, and int()
        # reads them, but the grammar admits ASCII digits only
        with pytest.raises(MatrixFormatError) as exc:
            parse_matrix_file(write_matrix(text))
        assert str(exc.value) == message
        assert (exc.value.line, exc.value.column) == where

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.lists(st.tuples(st.integers(-40, 40),
                                     st.integers(1, 12),
                                     st.sampled_from(["", "+", "-0"])),
                           min_size=n * (n + 1) // 2,
                           max_size=n * (n + 1) // 2)))
    def test_written_forms_read_as_from_rows(self, upper):
        # unreduced p/q, a leading +, -0 and 0/q all name the Fraction p/q
        n = math.isqrt(8 * len(upper) + 1) // 2
        cells = iter(upper)
        tokens = [[None] * n for _ in range(n)]
        values = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                p, q, sign = next(cells)
                if sign == "-0":
                    p = 0
                    text = "-0" if q == 1 else f"-0/{q}"
                else:
                    text = f"{sign if p >= 0 else ''}{p}" + (
                        f"/{q}" if q > 1 else "")
                tokens[i][j] = text
                # the mirror entry is written in another form of p/q
                tokens[j][i] = text if i == j else f"{2 * p}/{2 * q}"
                values[i][j] = values[j][i] = F(p, q)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "matrix.txt")
            with open(path, "w") as handle:
                handle.write(f"{n}\n" + "".join(
                    " ".join(row) + "\n" for row in tokens))
            A = parse_matrix_file(path)
        assert A == SymMatrix.from_rows(values)
        assert A.integer_form == SymMatrix.from_rows(values).integer_form


class TestCheck:
    def test_copositive(self, capsys, write_matrix):
        path = write_matrix(identity(2))
        code, out = run(capsys, ["check", path])
        mach = machine_block(out)
        assert code == 0
        assert mach["copositive"] == "yes"
        assert mach["simplex_minimum"] == "1/2"
        assert "violator" not in mach

    def test_not_copositive(self, capsys, write_matrix):
        A = SymMatrix.from_rows([[0, -1], [-1, 0]])
        path = write_matrix(A)
        code, out = run(capsys, ["check", path])
        mach = machine_block(out)
        assert code == 1
        assert mach["copositive"] == "no"
        violator = tuple(F(t) for t in mach["violator"].split(","))
        assert all(c >= 0 for c in violator) and any(violator)
        assert eval_quadratic(A, violator) == F(mach["simplex_minimum"]) < 0

    def test_parse_error_exit_two(self, capsys, write_matrix):
        path = write_matrix("2\n1 2\n3 1\n")
        code, out = run(capsys, ["check", path])
        mach = machine_block(out)
        assert code == 2
        assert mach["error"] == "ParseError"
        assert (mach["line"], mach["column"]) == ("3", "1")

    @pytest.mark.parametrize("data,where", [
        ("\u00b2\n1 0\n0 1\n".encode("utf-8"), ("1", "1")),
        (b"2\n1 0\n0 \xff\n", ("3", "3")),
    ], ids=["superscript-order", "byte-0xff"])
    def test_undecodable_input_exit_two(self, capsys, tmp_path, data, where):
        path = tmp_path / "matrix.txt"
        path.write_bytes(data)
        code, out = run(capsys, ["check", str(path)])
        mach = machine_block(out)
        assert code == 2
        assert mach["error"] == "ParseError"
        assert (mach["line"], mach["column"]) == where


class TestZeros:
    def test_pair_zero(self, capsys, write_matrix):
        code, out = run(capsys, ["zeros", write_matrix(PAIR)])
        mach = machine_block(out)
        assert code == 0
        assert mach["zero_count"] == "1"
        assert mach["zero_1"] == "1/2,1/2"
        assert mach["support_1"] == "1,2"

    def test_no_zeros(self, capsys, write_matrix):
        code, out = run(capsys, ["zeros", write_matrix(identity(3))])
        mach = machine_block(out)
        assert code == 0 and mach["zero_count"] == "0"
        assert "no zeros" in out

    def test_not_copositive_exit_one(self, capsys, write_matrix):
        path = write_matrix(SymMatrix.from_rows([[1, -2], [-2, 1]]))
        code, out = run(capsys, ["zeros", path])
        mach = machine_block(out)
        assert code == 1
        assert mach["error"] == "NotCopositive"
        assert "violator" in mach


class TestExtremal:
    def test_extremal(self, capsys, write_matrix):
        code, out = run(capsys, ["extremal", write_matrix(PAIR)])
        mach = machine_block(out)
        assert code == 0
        assert mach["extremal"] == "yes" and mach["nullity"] == "1"

    def test_not_extremal(self, capsys, write_matrix):
        code, out = run(capsys,
                        ["extremal", write_matrix(identity(2))])
        mach = machine_block(out)
        assert code == 1
        assert mach["extremal"] == "no"

    def test_horn(self, capsys, write_matrix):
        code, out = run(capsys, ["extremal", write_matrix(horn_matrix())])
        mach = machine_block(out)
        assert code == 0
        assert mach["zero_count"] == "5" and mach["nullity"] == "1"


class TestGraph:
    def test_pair_matrix(self, capsys, write_matrix):
        code, out = run(capsys, ["graph", write_matrix(PAIR)])
        mach = machine_block(out)
        assert code == 0
        assert mach["vertices"] == "3" and mach["edges"] == "2"
        assert mach["components"] == "1" and mach["bipartite"] == "1"
        assert mach["dimension"] == "1"
        assert mach["pattern"] == "1,-1;-1,1"

    def test_dot_output(self, capsys, write_matrix, tmp_path):
        dot_path = str(tmp_path / "graph.dot")
        code, out = run(capsys,
                        ["graph", write_matrix(PAIR), "--dot", dot_path])
        assert code == 0
        assert machine_block(out)["dot"] == dot_path
        text = open(dot_path).read()
        assert text.startswith("graph ") and text.endswith("}\n")
        assert '"X1_2" -- "X2_2"' in text or '"X2_2" -- "X1_2"' in text

    def test_unwritable_dot_exit_two(self, capsys, write_matrix, tmp_path):
        dot_path = str(tmp_path / "missing" / "graph.dot")
        code, out = run(capsys,
                        ["graph", write_matrix(PAIR), "--dot", dot_path])
        mach = machine_block(out)
        assert code == 2
        assert mach["error"] == "WriteError"
        assert mach["message"].startswith(f"cannot write {dot_path}: ")

    def test_identity_dimension(self, capsys, write_matrix):
        code, out = run(capsys, ["graph", write_matrix(identity(2))])
        mach = machine_block(out)
        assert code == 0
        assert mach["edges"] == "0" and mach["dimension"] == "3"
        assert "pattern" not in mach

    def test_non_unit_diagonal_exit_one(self, capsys, write_matrix):
        path = write_matrix(SymMatrix.from_rows([[2, -1], [-1, 1]]))
        code, out = run(capsys, ["graph", path])
        assert code == 1
        assert machine_block(out)["error"] == "NotUnitDiagonal"

    def test_wide_support_exit_one(self, capsys, write_matrix):
        A = SymMatrix.from_rows([
            [1, F(-1, 2), F(-1, 2)],
            [F(-1, 2), 1, F(-1, 2)],
            [F(-1, 2), F(-1, 2), 1]])
        code, out = run(capsys, ["graph", write_matrix(A)])
        assert code == 1
        assert machine_block(out)["error"] == "SupportCardinalityNotTwo"


class TestNormalize:
    def test_explicit(self, capsys, write_matrix):
        A = SymMatrix.from_rows([[1, -2, 1], [-2, 4, -2], [1, -2, 1]])
        code, out = run(capsys, ["normalize", write_matrix(A)])
        mach = machine_block(out)
        assert code == 0
        assert mach["pattern"] == "1,-1,1;-1,1,-1;1,-1,1"
        assert mach["explicit"] == "yes"
        assert mach["scaling"] == "1,2,1"

    def test_implicit(self, capsys, write_matrix):
        A = SymMatrix.from_rows([[2, 0], [0, 3]])
        code, out = run(capsys, ["normalize", write_matrix(A)])
        mach = machine_block(out)
        assert code == 0
        assert mach["pattern"] == "1,0;0,1"
        assert mach["explicit"] == "no"
        assert "scaling" not in mach

    def test_condition_fails(self, capsys, write_matrix):
        path = write_matrix(SymMatrix.from_rows([[1, 2], [2, 1]]))
        code, out = run(capsys, ["normalize", path])
        assert code == 1
        assert machine_block(out)["error"] == "ScalingConditionFails"


class TestCensusCommand:
    def test_stdout_records(self, capsys):
        code, out = run(capsys, ["census", "-n", "2"])
        mach = machine_block(out)
        assert code == 0
        assert mach["classes"] == "3" and mach["copositive"] == "3"
        assert mach["extremal"] == "1" and mach["pair_supports_ok"] == "yes"
        assert records_section(out) == [
            "2 -1 1 1 1,2 1", "2 0 1 0 - 1", "2 1 1 0 - 1"]

    def test_output_file(self, capsys, tmp_path):
        out_path = str(tmp_path / "census3.txt")
        code, out = run(capsys, ["census", "-n", "3", "-o", out_path])
        mach = machine_block(out)
        assert code == 0
        assert mach["output"] == out_path
        assert "[records]" not in out
        assert open(out_path).read() == "".join(
            r.to_line() + "\n" for r in run_census(3))

    def test_unwritable_output_exit_two(self, capsys, tmp_path):
        out_path = str(tmp_path / "missing" / "census2.txt")
        code, out = run(capsys, ["census", "-n", "2", "-o", out_path])
        mach = machine_block(out)
        assert code == 2
        assert mach["error"] == "WriteError"
        assert mach["message"].startswith(f"cannot write {out_path}: ")
        assert "[records]" not in out

    def test_unwritable_output_fails_before_the_sweep(self, capsys,
                                                      monkeypatch, tmp_path):
        def no_sweep(n):
            raise AssertionError("the sweep ran before the output was opened")

        monkeypatch.setattr(cli, "run_census", no_sweep)
        out_path = str(tmp_path / "missing" / "census6.txt")
        code, out = run(capsys, ["census", "-n", "6", "-o", out_path])
        assert code == 2
        assert machine_block(out)["error"] == "WriteError"

    @pytest.mark.parametrize("order", ["0", "7"])
    def test_order_out_of_range_exit_two(self, capsys, order):
        with pytest.raises(SystemExit) as exc:
            main(["census", "-n", order])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestVerify:
    def test_equivalent_scaled(self, capsys, write_matrix):
        A = SymMatrix.from_rows([[1, -2, 1], [-2, 4, -2], [1, -2, 1]])
        code, out = run(capsys, ["verify", write_matrix(A)])
        mach = machine_block(out)
        assert code == 0
        assert mach["pair_supports"] == "yes"
        assert mach["pattern"] == "1,-1,1;-1,1,-1;1,-1,1"
        assert mach["scaling"] == "1,2,1"
        assert mach["pattern_nullity"] == "1"
        assert mach["scaled_extremal_pattern"] == "yes"
        assert mach["equivalent"] == "yes"

    def test_both_predicates_false(self, capsys, write_matrix):
        path = write_matrix(SymMatrix.from_rows([[1, 0], [0, 0]]))
        code, out = run(capsys, ["verify", path])
        mach = machine_block(out)
        assert code == 0
        assert mach["pair_supports"] == "no"
        assert mach["scaled_extremal_pattern"] == "no"
        assert mach["equivalent"] == "yes"
        assert "pattern" not in mach

    def test_not_extremal_exit_one(self, capsys, write_matrix):
        code, out = run(capsys, ["verify", write_matrix(identity(3))])
        mach = machine_block(out)
        assert code == 1
        assert mach["error"] == "NotExtremalInput"

    def test_horn(self, capsys, write_matrix):
        code, out = run(capsys, ["verify", write_matrix(horn_matrix())])
        mach = machine_block(out)
        assert code == 0
        assert mach["supports"] == "1,2;1,5;2,3;3,4;4,5"
        assert mach["equivalent"] == "yes"


class TestOrderGuard:
    """The 2^n support scan refuses orders above ``MAX_SCAN_ORDER`` (16)."""

    @pytest.mark.parametrize("command",
                             ["check", "zeros", "extremal", "graph", "verify"])
    def test_order_17_exits_two_before_scanning(self, capsys, monkeypatch,
                                                write_matrix, command):
        def no_scan(*args):
            raise AssertionError("a support system was solved")

        monkeypatch.setattr(copositivity_mod, "_support_state", no_scan)
        path = write_matrix(identity(17))
        code, out = run(capsys, [command, path])
        mach = machine_block(out)
        assert code == 2
        assert mach["error"] == "OrderTooLarge"
        assert "order 17" in mach["message"]

    @pytest.mark.parametrize("command",
                             ["check", "zeros", "extremal", "graph", "verify"])
    @pytest.mark.parametrize("branch, violator", [
        ("diagonal", "0," * 16 + "1"),
        ("pair", "0," * 15 + "1/2,1/2"),
    ], ids=["diagonal", "pair"])
    def test_prefilter_still_refutes_order_17(self, capsys, monkeypatch,
                                              write_matrix, command, branch,
                                              violator):
        # the prefilter runs ahead of the order gate, so both of its
        # branches refute an order-17 matrix, with no support solved: a
        # negative diagonal entry, and a zero-diagonal pair with a negative
        # coupling
        def no_scan(*args):
            raise AssertionError("a support system was solved")

        monkeypatch.setattr(copositivity_mod, "_support_state", no_scan)
        rows = [[int(i == j) for j in range(17)] for i in range(17)]
        if branch == "diagonal":
            rows[16][16] = -1
        else:
            rows[15][15] = rows[16][16] = 0
            rows[15][16] = rows[16][15] = -1
        code, out = run(capsys, [command,
                                 write_matrix(SymMatrix.from_rows(rows))])
        mach = machine_block(out)
        assert code == 1
        assert mach["violator"] == violator
        if command == "check":
            assert mach["simplex_minimum"] == ("-1" if branch == "diagonal"
                                               else "-1/2")
        else:
            assert mach["error"] == "NotCopositive"

    def test_order_16_starts_the_scan(self):
        scan = copositivity_mod.stationary_candidates(identity(16))
        assert next(scan) == ((0,), (1,), 1, 1)
        assert copositivity_mod.MAX_SCAN_ORDER == 16


class TestLongIntegers:
    """Integers past CPython's default limit on int/str conversion, 4300
    digits (Python 3.10.7 and later; earlier versions have no limit)."""

    get_limit = staticmethod(getattr(sys, "get_int_max_str_digits",
                                     lambda: None))

    @pytest.mark.parametrize("text, where", [
        (f"2\n{'7' * 5000} 0\n0 1\n", (3, 1)),
        (f"2\n1 0\n0 -1/{'3' * 4301}\n", (4, 3)),
        (f"{'1' * 5000}\n1\n", (2, 1)),
    ], ids=["entry", "denominator", "order-line"])
    def test_over_long_integer_is_a_parse_error(self, capsys, write_matrix,
                                                text, where):
        limit = self.get_limit()
        code, out = run(capsys, ["check", write_matrix("#\n" + text)])
        machine = machine_block(out)
        assert code == 2 and machine["error"] == "ParseError"
        assert (int(machine["line"]), int(machine["column"])) == where
        assert machine["message"].endswith(
            f"more than the {MAX_DIGITS} allowed")
        assert self.get_limit() == limit

    def test_longest_integer_is_read(self, write_matrix):
        # a sign does not count: 4300 digits pass, as they do in int()
        big = "-" + "9" * MAX_DIGITS
        A = parse_matrix_file(write_matrix(f"2\n1 {big}\n{big} 1\n"))
        assert A.integer_form[0][0][1] == 1 - 10 ** MAX_DIGITS

    def test_long_results_printed_exactly(self, capsys, write_matrix):
        # b < min(a, c): the minimum (ac - b^2) / (a + c - 2b) is interior,
        # with a numerator of about 5000 digits
        rng = random.Random(2500)
        a, c = (rng.randrange(5 * 10 ** 2499, 10 ** 2500) for _ in range(2))
        b = rng.randrange(10 ** 2499, 2 * 10 ** 2499)
        limit = self.get_limit()
        path = write_matrix(f"2\n{a} {b}\n{b} {c}\n")
        code, out = run(capsys, ["check", path])
        assert code == 0 and self.get_limit() == limit
        value = machine_block(out)["simplex_minimum"]
        assert len(value) > MAX_DIGITS
        expected = F(a * c - b * b, a + c - 2 * b)
        if limit is not None:
            sys.set_int_max_str_digits(0)
        try:
            assert value == str(expected)
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, capsys, write_matrix):
        path = write_matrix(horn_matrix())
        outputs = []
        for _ in range(2):
            main(["verify", path])
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_no_state_leaks_between_calls(self, capsys, write_matrix,
                                          tmp_path):
        path = write_matrix(PAIR)
        dot_path = str(tmp_path / "graph.dot")
        assert main(["graph", path, "--dot", dot_path]) == 0
        assert machine_block(capsys.readouterr().out)["dot"] == dot_path
        assert main(["graph", path]) == 0
        assert "dot" not in machine_block(capsys.readouterr().out)

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
