"""Independent re-checks of the CLI's [machine] block, in exact arithmetic.

Nothing here imports copocert: violators, zeros and patterns are verified
against the generated matrix with plain ``fractions.Fraction`` arithmetic,
and verdicts are compared with the facts the generator built in.  Each check
returns ``None`` when the output is right, else a one-line reason.
"""

from __future__ import annotations

from fractions import Fraction

from families import Case


def parse_machine(out: str) -> dict[str, str]:
    """Key/value pairs of the [machine] block, in order."""
    lines = out.splitlines()
    if not lines or lines[0] != "[machine]":
        raise ValueError("output does not start with [machine]")
    machine = {}
    for line in lines[1:]:
        if line == "[human]":
            return machine
        key, sep, value = line.partition("=")
        if not sep or key in machine:
            raise ValueError(f"bad machine line {line!r}")
        machine[key] = value
    raise ValueError("no [human] block")


def _vector(text: str) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in text.split(","))


def _rows(text: str):
    return tuple(tuple(Fraction(x) for x in row.split(","))
                 for row in text.split(";"))


def _support(text: str) -> tuple[int, ...]:
    return tuple(int(i) - 1 for i in text.split(","))


def _quadratic(A, u) -> Fraction:
    n = len(A)
    return sum((A[i][j] * u[i] * u[j] for i in range(n) for j in range(n)),
               Fraction(0))


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _violator(A, m) -> str | None:
    if "violator" not in m:
        return "no violator"
    u = _vector(m["violator"])
    if len(u) != len(A) or any(x < 0 for x in u):
        return "violator is not a nonnegative vector of the right length"
    if _quadratic(A, u) >= 0:
        return "violator has nonnegative form value"
    return None


def _refused(case: Case, command: str, m, code: int) -> str | None:
    if code != 1 or m.get("command") != command:
        return f"expected exit 1 from {command}, got {code}"
    if m.get("error") != "NotCopositive":
        return f"expected error=NotCopositive, got {m.get('error')}"
    return _violator(case.matrix, m)


def _zeros(case: Case, m) -> str | None:
    """The listed zeros are zeros of A with exactly the expected supports."""
    A = case.matrix
    count = int(m["zero_count"])
    if count != len(case.supports):
        return f"zero_count {count}, expected {len(case.supports)}"
    found = []
    for k in range(1, count + 1):
        u = _vector(m[f"zero_{k}"])
        support = _support(m[f"support_{k}"])
        if any(x < 0 for x in u) or sum(u) != 1:
            return f"zero {k} is not a nonnegative vector with sum 1"
        if tuple(i for i, x in enumerate(u) if x > 0) != support:
            return f"zero {k} does not have support {m[f'support_{k}']}"
        for i in support:
            if sum(A[i][j] * u[j] for j in support) != 0:
                return f"zero {k}: row {i + 1} of A_S u_S is not 0"
        found.append(support)
    if tuple(sorted(found)) != case.supports:
        return "minimal supports differ from the generated ones"
    return None


def check(case: Case, m, code: int) -> str | None:
    if not case.copositive:
        if code != 1 or m.get("copositive") != "no":
            return f"expected copositive=no with exit 1, got {code}"
        bad = _violator(case.matrix, m)
        if bad:
            return bad
        if Fraction(m["simplex_minimum"]) != _quadratic(case.matrix,
                                                        _vector(m["violator"])):
            return "simplex_minimum is not the violator's value"
        return None
    if code != 0 or m.get("copositive") != "yes":
        return f"expected copositive=yes with exit 0, got {code}"
    minimum = Fraction(m["simplex_minimum"])
    if (minimum == 0) != bool(case.supports) or minimum < 0:
        return f"simplex_minimum {minimum} contradicts the zeros"
    return None


def zeros(case: Case, m, code: int) -> str | None:
    if not case.copositive:
        return _refused(case, "zeros", m, code)
    if code != 0:
        return f"expected exit 0, got {code}"
    return _zeros(case, m)


def extremal(case: Case, m, code: int) -> str | None:
    if not case.copositive:
        return _refused(case, "extremal", m, code)
    if code != (0 if case.extremal else 1):
        return f"unexpected exit code {code}"
    if m.get("extremal") != _yn(case.extremal):
        return f"extremal={m.get('extremal')}, expected {_yn(case.extremal)}"
    if int(m["zero_count"]) != len(case.supports):
        return "zero_count differs from the generated zeros"
    nullity = int(m["nullity"])
    if nullity < 1 or (nullity == 1) != case.extremal:
        return f"nullity {nullity} contradicts the verdict"
    return None


def graph(case: Case, m, code: int) -> str | None:
    """The graph request runs on the case's pattern when it has one."""
    if case.pattern is None:
        if code != 1 or m.get("error") != "NotUnitDiagonal":
            return f"expected NotUnitDiagonal with exit 1, got {code}"
        return None
    if code != 0:
        return f"expected exit 0, got {code}"
    n = case.order
    if int(m["vertices"]) != n * (n + 1) // 2:
        return "wrong vertex count"
    if int(m["edges"]) == 0:
        return "pair zeros must fire gates"
    bipartite = int(m["bipartite"])
    if (bipartite == 1) != case.extremal or int(m["dimension"]) != bipartite:
        return f"bipartite={bipartite} contradicts extremal={_yn(case.extremal)}"
    if case.extremal and _rows(m["pattern"]) != case.pattern:
        return "reconstructed pattern differs from the generated one"
    return None


def normalize(case: Case, m, code: int) -> str | None:
    if case.pattern is None:
        if code != 1 or m.get("error") != "ScalingConditionFails":
            return f"expected ScalingConditionFails with exit 1, got {code}"
        return None
    if code != 0 or m.get("explicit") != "yes":
        return f"expected an explicit scaling with exit 0, got {code}"
    if _rows(m["pattern"]) != case.pattern:
        return "pattern differs from the generated one"
    if _vector(m["scaling"]) != case.scaling:
        return "scaling differs from the generated one"
    return None


def verify(case: Case, m, code: int) -> str | None:
    if not case.copositive:
        return _refused(case, "verify", m, code)
    if not case.extremal:
        if code != 1 or m.get("error") != "NotExtremalInput":
            return f"expected NotExtremalInput with exit 1, got {code}"
        return None
    if code != 0 or m.get("equivalent") != "yes":
        return f"expected equivalent=yes with exit 0, got {code}"
    pair = all(len(s) == 2 for s in case.supports)
    if m.get("pair_supports") != _yn(pair):
        return "pair_supports contradicts the generated supports"
    supports = tuple(_support(s) for s in m["supports"].split(";"))
    if supports != case.supports:
        return "supports differ from the generated ones"
    return None


def census(baseline: list[str], out: str, m, code: int) -> str | None:
    """The records must equal the baseline file line for line."""
    if code != 0 or m.get("pair_supports_ok") != "yes":
        return f"expected pair_supports_ok=yes with exit 0, got {code}"
    _, sep, records = out.partition("\n[records]\n")
    if not sep:
        return "no [records] block"
    if records.splitlines() != baseline:
        return "records differ from the baseline file"
    fields = [line.split() for line in baseline]
    expected = {"classes": len(fields),
                "copositive": sum(f[2] == "1" for f in fields),
                "extremal": sum(f[3] == "1" for f in fields)}
    for key, value in expected.items():
        if int(m[key]) != value:
            return f"{key}={m[key]}, baseline has {value}"
    return None


CHECKS = {"check": check, "zeros": zeros, "extremal": extremal,
          "graph": graph, "normalize": normalize, "verify": verify}
