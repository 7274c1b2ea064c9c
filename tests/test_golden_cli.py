"""Golden CLI output: stdout and exit code pinned byte for byte.

``tests/fixtures`` holds a few matrix files (the Horn matrix, an extremal
unit-diagonal pattern, a rational D S D scaling of a pattern, a rational
rank-one v v^T and a rational non-copositive matrix).  ``expected/`` holds,
for each of them and each of ``check``, ``zeros``, ``extremal``, ``verify``,
``normalize`` and ``graph``, the exact stdout of the command, plus the
output of ``census -n 3`` and ``census -n 4``; ``exit_codes.txt`` lists the
exit code of every case.  A speedup must leave all of it unchanged.
"""

from pathlib import Path

import pytest

from copocert.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
EXPECTED = FIXTURES / "expected"


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
