"""Golden CLI output: stdout and exit code pinned byte for byte.

``tests/fixtures`` holds a few matrix files (the Horn matrix, an extremal
unit-diagonal pattern, a rational D S D scaling of a pattern, a rational
rank-one v v^T, a rational non-copositive matrix, and a strictly
copositive one whose graph of negative entries is split and whose least
value sits on a support across its two components, which only the second,
whole scan of ``is_copositive`` finds).  ``expected/`` holds,
for each of them and each of ``check``, ``zeros``, ``extremal``, ``verify``,
``normalize`` and ``graph``, the exact stdout of the command, plus the
output of ``census -n 3`` and ``census -n 4``; ``exit_codes.txt`` lists the
exit code of every case.  For ``graph --dot`` on the Horn matrix and on the
pattern, ``NAME.graph.dot`` holds the DOT file and ``NAME.graph-dot.out``
the stdout, run with the DOT path ``NAME.dot`` relative to the working
directory.  A speedup must leave all of it unchanged.

``order16/bbt16.txt`` is a strictly copositive B B^T + N of order 16 on
which every support is conditionally positive definite, the support scan's
worst case; ``order16/bbt16.COMMAND.out`` holds the stdout of ``check``,
``zeros``, ``extremal`` and ``graph`` on it, written before those commands
skipped the scan.  The four must now come out the same without a single
support solved: ``zeros``, ``extremal`` and ``graph`` through the strict
certificate, ``check`` through the convex route.
"""

from pathlib import Path

import pytest

import copocert.copositivity as copositivity_mod
from copocert.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
EXPECTED = FIXTURES / "expected"
ORDER16 = FIXTURES / "order16"


def _cases():
    for line in (EXPECTED / "exit_codes.txt").read_text().splitlines():
        name, code = line.split()
        yield name, int(code)


def _argv(name):
    if name.startswith("census"):
        return ["census", "-n", name[len("census"):]]
    matrix, command = name.rsplit(".", 1)
    return [command, str(FIXTURES / f"{matrix}.txt")]


def test_every_fixture_has_all_commands():
    names = {name for name, _ in _cases()}
    for path in FIXTURES.glob("*.txt"):
        for command in ("check", "zeros", "extremal", "verify", "normalize",
                        "graph"):
            assert f"{path.stem}.{command}" in names


@pytest.mark.parametrize("name,code", list(_cases()))
def test_golden_output(capsys, name, code):
    assert main(_argv(name)) == code
    assert capsys.readouterr().out == (EXPECTED / f"{name}.out").read_text()


@pytest.mark.parametrize("name", ["horn", "pattern"])
def test_golden_dot(capsys, monkeypatch, tmp_path, name):
    monkeypatch.chdir(tmp_path)
    argv = ["graph", str(FIXTURES / f"{name}.txt"), "--dot", f"{name}.dot"]
    assert main(argv) == 0
    assert capsys.readouterr().out == \
        (EXPECTED / f"{name}.graph-dot.out").read_text()
    assert (tmp_path / f"{name}.dot").read_bytes() == \
        (EXPECTED / f"{name}.graph.dot").read_bytes()


@pytest.mark.parametrize("command,code",
                         [("check", 0), ("zeros", 0), ("extremal", 1),
                          ("graph", 1)])
def test_order_16_strictly_copositive_without_a_scan(capsys, monkeypatch,
                                                     command, code):
    def no_scan(*args):
        raise AssertionError("a support system was solved")

    monkeypatch.setattr(copositivity_mod, "_support_state", no_scan)
    assert main([command, str(ORDER16 / "bbt16.txt")]) == code
    assert capsys.readouterr().out == \
        (ORDER16 / f"bbt16.{command}.out").read_text()
