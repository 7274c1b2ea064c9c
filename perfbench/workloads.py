"""The three workloads as lists of CLI requests, one list per pass.

A pass is the unit a workload repeats; pass ``p`` of seed ``s`` is always the
same list of requests on the same generated files.

* census-n5: one ``census -n 5`` (records compared with the committed
  baseline) plus check/zeros/extremal/verify on a seeded relabelling of the
  Horn matrix.  Integer input; the census is about 99% of the pass.  With
  one census request in five, the request median falls among the extremal
  requests and the 90th percentile among the census requests, whatever the
  number of passes; one matrix rather than several census classes keeps the
  small requests alike.
* certify-rational: one copositive dsd and one bbt matrix at each order 6,
  7, 8, a second dsd matrix at order 6 and one rank1 matrix at order 7,
  each sent through check, zeros, extremal, normalize and graph, plus verify
  for the extremal (rank1) one.  rank1 stops at order 7: at order 8 it took
  60% of a pass, so a run held too few passes to be steady.  With three
  cases cheaper than order 7 and three dearer, each command's median falls
  in the middle of the order-7 cases, where their latencies are dense; with
  one order-6 case fewer it fell at their upper edge, in the gap before the
  order-8 ones, and moved with every draw.  graph runs on the
  matrix's unit-diagonal pattern, which is what normalize returns for it:
  the command needs a unit diagonal.  Full 2^n scans with rational growth.
* refute-rational: four non-copositive matrices per order 6, 7, 8, each sent
  through check, zeros, extremal and verify, all of which must exit 1 with a
  violator.  Short scans, so CLI parsing and rendering weigh more.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Callable

import checks
import families
from families import Case

WORKLOADS = ("census-n5", "certify-rational", "refute-rational")
ORDERS = (6, 7, 8)
CERTIFY_STRATA = tuple((family, n) for family in ("dsd", "bbt") for n in ORDERS) + (
    ("dsd", 6), ("rank1", 7))
REFUTE_PER_ORDER = 4
CERTIFY_COMMANDS = ("check", "zeros", "extremal", "normalize", "graph")
# the commands every workload sends, each with its own median latency
CORE_COMMANDS = ("check", "zeros", "extremal", "verify")
BASELINE = os.path.join("tests", "baselines", "census_n5.txt")


@dataclass(frozen=True)
class Request:
    family: str
    order: int
    command: str
    argv: tuple[str, ...]
    # (stdout, parsed [machine] block, exit code) -> None or a failure reason
    check: Callable[[str, dict, int], str | None]


def _case_request(case: Case, command: str, path: str) -> Request:
    verdict = checks.CHECKS[command]
    return Request(case.family, case.order, command, (command, path),
                   lambda out, m, code: verdict(case, m, code))


class Workload:
    """Builds the requests of each pass and writes the files they read."""

    def __init__(self, name: str, seed: int, root: str, workdir: str):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.seed = seed
        self.workdir = workdir
        with open(os.path.join(root, BASELINE)) as handle:
            self.baseline = [line.rstrip("\n") for line in handle if line.strip()]

    def _write(self, rows, *key) -> str:
        path = os.path.join(self.workdir, "-".join(str(k) for k in key) + ".txt")
        families.write_matrix(path, rows)
        return path

    def requests(self, p: int) -> list[Request]:
        if self.name == "census-n5":
            return self._census(p)
        if self.name == "certify-rational":
            return self._certify(p)
        return self._refute(p)

    def _census(self, p: int) -> list[Request]:
        baseline = self.baseline
        out = [Request("census", 5, "census", ("census", "-n", "5"),
                       lambda text, m, code: checks.census(baseline, text, m, code))]
        perm = list(range(5))
        random.Random(f"horn:{self.seed}:{p}").shuffle(perm)
        case = families.relabel(families.horn(), perm)
        path = self._write(case.matrix, "horn", p)
        out += [_case_request(case, c, path) for c in CORE_COMMANDS]
        return out

    def _certify(self, p: int) -> list[Request]:
        out = []
        for k, (family, n) in enumerate(CERTIFY_STRATA):
            case = families.generate(family, n, self.seed, (p, k))
            path = self._write(case.matrix, family, n, p, k)
            for command in CERTIFY_COMMANDS:
                target = path
                if command == "graph" and case.pattern is not None:
                    target = self._write(case.pattern, family, n, p, k, "pattern")
                out.append(_case_request(case, command, target))
            if case.extremal:
                out.append(_case_request(case, "verify", path))
        return out

    def _refute(self, p: int) -> list[Request]:
        out = []
        for n in ORDERS:
            for k in range(REFUTE_PER_ORDER):
                case = families.generate("refute", n, self.seed, (p, k))
                path = self._write(case.matrix, "refute", n, p, k)
                out += [_case_request(case, c, path) for c in CORE_COMMANDS]
        return out
