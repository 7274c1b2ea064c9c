"""Command-line front end: file parsing, report rendering, exit codes.

Every subcommand prints a [machine] block of key=value lines that alone
determines the verdict, followed by a [human] block of aligned text.  Output
is deterministic: fixed key order, no timestamps, exact rationals rendered by
Fraction.__str__.  Exit codes: 0 when the queried property holds, 1 when it
fails or a precondition is unmet, 2 on input and output errors (a malformed
matrix file, a matrix too large for the support scan, an output path that
cannot be written, or bad arguments, the latter reported by argparse).
Index sets are rendered 1-based.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import re
import sys
from fractions import Fraction

from .census import (
    MAX_ORDER,
    run_census,
    verify_pair_scaling_equivalence,
    write_records,
)
from .copositivity import is_copositive, minimal_zeros
from .errors import (
    CopocertError,
    MatrixFormatError,
    OrderTooLargeError,
    OutputError,
)
from .extremality import extremality_certificate
from .linalg import SymMatrix, upper_size
from .scaling import extract_pattern
from .structure_graph import (
    build_graph,
    component_analysis,
    reconstruct_pattern,
    to_dot,
)

_TOKEN = re.compile(r"\S+")
_ENTRY = re.compile(r"^([+-]?[0-9]+)(?:/([0-9]+))?$")
_DIGITS = re.compile(r"[0-9]+")

# the most digits an integer in a matrix file may have: CPython's default
# limit on int/str conversion (3.10.7 and later), on every version
MAX_DIGITS = 4300


def _column(text: str, t: int) -> int:
    """1-based column of the t-th whitespace-separated token of ``text``."""
    return [m.start() for m in _TOKEN.finditer(text)][t] + 1


def parse_matrix_file(path: str) -> SymMatrix:
    """Read a symmetric rational matrix from a UTF-8 text file.

    First non-comment line holds the order n, then n rows of n entries,
    each an integer p or a rational p/q with positive q, not necessarily in
    lowest terms, in ASCII digits, no integer longer than ``MAX_DIGITS``.
    Lines starting with '#' and blank lines are skipped.  Asymmetric input
    is rejected.  Entries are read as integer pairs (p, q) and compared by
    cross-multiplying; a ``Fraction`` is built only for a diagnostic, and
    token columns are found only for one.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read().splitlines()
    except OSError as exc:
        raise MatrixFormatError(f"cannot read {path}: {exc.strerror}",
                                line=0, column=0)
    data = []
    for lineno, line in enumerate(raw, start=1):
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MatrixFormatError(
                f"byte 0x{line[exc.start]:02x} is not UTF-8 text",
                line=lineno, column=len(line[:exc.start].decode("utf-8")) + 1)
        tokens = text.split()
        if tokens and not tokens[0].startswith("#"):
            # a token's length bounds the digits of the integers in it
            if max(map(len, tokens)) > MAX_DIGITS:
                for t, tok in enumerate(tokens):
                    digits = max(map(len, _DIGITS.findall(tok)), default=0)
                    if digits > MAX_DIGITS:
                        raise MatrixFormatError(
                            f"integer of {digits} digits, more than the "
                            f"{MAX_DIGITS} allowed",
                            line=lineno, column=_column(text, t))
            data.append((lineno, text, tokens))
    if not data:
        raise MatrixFormatError("no data lines", line=len(raw) + 1, column=1)
    lineno, text, tokens = data[0]
    if len(tokens) != 1:
        raise MatrixFormatError(
            f"order line must hold a single integer, got {len(tokens)} tokens",
            line=lineno, column=_column(text, 1))
    tok = tokens[0]
    if not (tok.isascii() and tok.isdecimal()) or int(tok) < 1:
        raise MatrixFormatError(f"order must be a positive integer, got {tok!r}",
                                line=lineno, column=_column(text, 0))
    n = int(tok)
    if len(data) - 1 < n:
        raise MatrixFormatError(
            f"expected {n} matrix rows, found {len(data) - 1}",
            line=len(raw) + 1, column=1)
    if len(data) - 1 > n:
        extra_line, extra_text, _ = data[n + 1]
        raise MatrixFormatError(
            f"unexpected content after {n} matrix rows",
            line=extra_line, column=_column(extra_text, 0))
    entries = []
    for r in range(n):
        lineno, text, tokens = data[r + 1]
        if len(tokens) != n:
            raise MatrixFormatError(
                f"row {r + 1} has {len(tokens)} entries, expected {n}",
                line=lineno, column=_column(text, min(n, len(tokens) - 1)))
        row = []
        for t, tok in enumerate(tokens):
            match = _ENTRY.match(tok)
            if not match:
                raise MatrixFormatError(
                    f"entry {tok!r} is not an integer or p/q rational",
                    line=lineno, column=_column(text, t))
            num, den = match.groups()
            den = int(den) if den else 1
            if not den:
                raise MatrixFormatError(f"zero denominator in {tok!r}",
                                        line=lineno, column=_column(text, t))
            row.append((int(num), den))
        entries.append(row)
    for i in range(n):
        for j in range(i + 1, n):
            (p, q), (r, s) = entries[i][j], entries[j][i]
            if p * s != r * q:
                lineno, text, _ = data[j + 1]
                raise MatrixFormatError(
                    f"asymmetric entries: ({i + 1},{j + 1}) is "
                    f"{Fraction(p, q)}, ({j + 1},{i + 1}) is {Fraction(r, s)}",
                    line=lineno, column=_column(text, i))
    return SymMatrix.from_ratios(entries)


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _vec(v) -> str:
    return ",".join(str(c) for c in v)


def _support(s) -> str:
    return ",".join(str(i + 1) for i in sorted(s))


def _supports(supports) -> str:
    return ";".join(_support(s) for s in supports) or "-"


def _rows(A: SymMatrix) -> str:
    M, d = A.integer_form
    if d == 1:
        # an integer entry prints as its Fraction does
        return ";".join(",".join(map(str, row)) for row in M)
    return ";".join(",".join(str(A.get(i, j)) for j in range(A.n))
                    for i in range(A.n))


@contextlib.contextmanager
def _writing(path: str):
    """Turn an OSError raised while writing ``path`` into an OutputError."""
    try:
        yield
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror}") from exc


def _emit(machine, human, extra: str = "") -> None:
    lines = ["[machine]"]
    lines += [f"{key}={value}" for key, value in machine]
    lines.append("[human]")
    lines += [f"  {label:<18}{value}" for label, value in human]
    out = "\n".join(lines) + "\n" + extra
    sys.stdout.write(out)


def _emit_error(command: str, exc: CopocertError) -> None:
    machine = [("command", command), ("error", exc.code)]
    if isinstance(exc, MatrixFormatError):
        machine += [("line", exc.line), ("column", exc.column)]
    if getattr(exc, "violator", None) is not None:
        machine.append(("violator", _vec(exc.violator)))
    machine.append(("message", str(exc)))
    _emit(machine, [("error", f"{exc.code}: {exc}")])


def cmd_check(args) -> int:
    A = parse_matrix_file(args.path)
    verdict = is_copositive(A)
    machine = [("command", "check"), ("order", A.n),
               ("copositive", _yn(verdict.copositive)),
               ("simplex_minimum", verdict.simplex_minimum)]
    human = [("order", A.n), ("copositive", _yn(verdict.copositive))]
    if verdict.copositive:
        human.append(("simplex minimum", verdict.simplex_minimum))
    else:
        machine.append(("violator", _vec(verdict.violator)))
        human += [("violator", _vec(verdict.violator)),
                  ("attained value", verdict.simplex_minimum)]
    _emit(machine, human)
    return 0 if verdict.copositive else 1


def cmd_zeros(args) -> int:
    A = parse_matrix_file(args.path)
    zeros = minimal_zeros(A)
    machine = [("command", "zeros"), ("order", A.n),
               ("copositive", "yes"), ("zero_count", len(zeros))]
    human = [("order", A.n), ("minimal zeros", len(zeros))]
    for k, zero in enumerate(zeros, start=1):
        point, support = _vec(zero.coordinates), _support(zero.support)
        machine += [(f"zero_{k}", point), (f"support_{k}", support)]
        human.append((f"zero {k}", f"({point})  support {{{support}}}"))
    if not zeros:
        human.append(("note", "no zeros"))
    _emit(machine, human)
    return 0


def cmd_extremal(args) -> int:
    A = parse_matrix_file(args.path)
    cert = extremality_certificate(A)
    machine = [("command", "extremal"), ("order", A.n),
               ("zero_count", len(cert.minimal_zeros)),
               ("system_rows", len(cert.system)),
               ("nullity", cert.nullity),
               ("extremal", _yn(cert.extremal))]
    human = [("order", A.n), ("system rows", len(cert.system)),
             ("nullity", cert.nullity), ("extremal", _yn(cert.extremal))]
    _emit(machine, human)
    return 0 if cert.extremal else 1


def cmd_graph(args) -> int:
    A = parse_matrix_file(args.path)
    zeros = minimal_zeros(A)
    graph = build_graph(A, zeros)
    report = component_analysis(graph)
    machine = [("command", "graph"), ("order", A.n),
               ("vertices", upper_size(A.n)), ("edges", len(graph.edges)),
               ("components", len(report.components)),
               ("bipartite", report.bipartite_count),
               ("dimension", report.bipartite_count)]
    human = [("order", A.n), ("vertices", upper_size(A.n)),
             ("edges", len(graph.edges)),
             ("components", len(report.components)),
             ("bipartite", report.bipartite_count),
             ("dimension", report.bipartite_count)]
    if report.bipartite_count == 1:
        pattern = _rows(reconstruct_pattern(report))
        machine.append(("pattern", pattern))
        human.append(("pattern", pattern))
    if args.dot:
        with _writing(args.dot), open(args.dot, "w") as handle:
            handle.write(to_dot(graph, report))
        machine.append(("dot", args.dot))
        human.append(("dot file", args.dot))
    _emit(machine, human)
    return 0


def cmd_normalize(args) -> int:
    A = parse_matrix_file(args.path)
    dec = extract_pattern(A)
    pattern = _rows(dec.pattern)
    machine = [("command", "normalize"), ("order", A.n),
               ("pattern", pattern), ("explicit", _yn(dec.explicit))]
    human = [("order", A.n), ("pattern", pattern),
             ("scaling", "explicit" if dec.explicit else "implicit (irrational)")]
    if dec.explicit:
        machine.append(("scaling", _vec(dec.scaling.entries)))
        human.append(("factors", _vec(dec.scaling.entries)))
    _emit(machine, human)
    return 0


def cmd_census(args) -> int:
    with contextlib.ExitStack() as stack:
        handle = None
        if args.output:
            # opened before the sweep, so a bad path fails at once
            stack.enter_context(_writing(args.output))
            handle = stack.enter_context(open(args.output, "w"))
        records = run_census(args.order)
        if handle:
            write_records(records, handle)
    pairs_ok = all(len(s) == 2 for r in records if r.copositive
                   for s in r.minimal_supports)
    machine = [("command", "census"), ("order", args.order),
               ("classes", len(records)),
               ("copositive", sum(r.copositive for r in records)),
               ("extremal", sum(r.extremal for r in records)),
               ("pair_supports_ok", _yn(pairs_ok))]
    human = [("order", args.order), ("classes", len(records)),
             ("copositive", sum(r.copositive for r in records)),
             ("extremal", sum(r.extremal for r in records)),
             ("pair supports", "all cardinality 2" if pairs_ok else "VIOLATED")]
    extra = ""
    if args.output:
        machine.append(("output", args.output))
        human.append(("written to", args.output))
    else:
        extra = "[records]\n" + "".join(r.to_line() + "\n" for r in records)
    _emit(machine, human, extra)
    return 0 if pairs_ok else 1


def cmd_verify(args) -> int:
    A = parse_matrix_file(args.path)
    report = verify_pair_scaling_equivalence(A)
    machine = [("command", "verify"), ("order", A.n),
               ("supports", _supports(report.supports)),
               ("pair_supports", _yn(report.pair_supports))]
    if report.decomposition is not None:
        machine += [("pattern", _rows(report.decomposition.pattern)),
                    ("scaling", _vec(report.decomposition.scaling.entries)
                     if report.decomposition.explicit else "implicit"),
                    ("pattern_nullity", report.pattern_nullity)]
    machine += [("scaled_extremal_pattern", _yn(report.scaled_extremal_pattern)),
                ("equivalent", _yn(report.equivalent))]
    human = [("order", A.n), ("supports", _supports(report.supports)),
             ("pair supports", _yn(report.pair_supports)),
             ("scaled pattern", _yn(report.scaled_extremal_pattern)),
             ("equivalent", _yn(report.equivalent))]
    _emit(machine, human)
    return 0 if report.equivalent else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="copocert",
        description="Exact copositivity and extremality certificates "
                    "for rational symmetric matrices.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("check", help="test copositivity with witness")
    p.add_argument("path", help="matrix file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("zeros", help="enumerate minimal zeros")
    p.add_argument("path", help="matrix file")
    p.set_defaults(func=cmd_zeros)

    p = sub.add_parser("extremal", help="certify extremality via nullity")
    p.add_argument("path", help="matrix file")
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("graph", help="entry graph of the pair-support system")
    p.add_argument("path", help="matrix file")
    p.add_argument("--dot", metavar="OUT", help="write DOT to this file")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("normalize", help="extract the sign-pattern core")
    p.add_argument("path", help="matrix file")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("census", help="classify unit-diagonal {-1,0,1} matrices")
    p.add_argument("-n", "--order", type=int, required=True,
                   choices=range(1, MAX_ORDER + 1))
    p.add_argument("-o", "--output", help="write records to this file")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("verify",
                       help="check the pair-support / scaled-pattern equivalence")
    p.add_argument("path", help="matrix file")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # exact results may have more digits than CPython (3.10.7 and later)
    # converts to str by default: lifted for the command, then restored
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (MatrixFormatError, OrderTooLargeError, OutputError) as exc:
        _emit_error(args.subcommand, exc)
        return 2
    except CopocertError as exc:
        _emit_error(args.subcommand, exc)
        return 1
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    raise SystemExit(main())
