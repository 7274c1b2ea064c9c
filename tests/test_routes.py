"""Every route of the copositivity dispatch against the scan.

``copositivity._decide`` asks the certificate of strict copositivity (for
``minimal_zeros`` only), then the convex route, then the scan inside the
components of the negative graph and, where ``is_copositive`` needs the
minimum of a split input with no zero, the whole scan.  Here every input
is sent through each route alone, the others switched off
(``oracles.through``), on every matrix file in ``tests/fixtures`` and on the
benchmark's ``dsd``, ``bbt``, ``rank1`` and ``refute`` families at orders
6-8.  Each route that answers must give the scan's verdict, violator,
minimum and zeros; where the certificate holds, the scan must find the
input copositive with no zero.  Each route must answer a minimum number of
times, and the route each input takes is pinned.
"""

from collections import Counter
from pathlib import Path
from unittest import mock

import copocert.copositivity as copositivity_mod
from copocert.cli import parse_matrix_file
from copocert.linalg import SymMatrix

from oracles import benchmark_families, through

FIXTURES = Path(__file__).resolve().parent / "fixtures"
INDICES = range(6)

# the route that answers each input, first for is_copositive, then for
# minimal_zeros: p the prefilter, t the certificate of strict copositivity,
# c the convex route, s the scan inside the components, w the whole scan
# after it; one code per index of INDICES for the benchmark families
PINNED = {
    "dsd_rational": "ss",
    "hildebrand_equal": "ss",
    "hildebrand_mixed": "ss",
    "hildebrand_noncopositive": "ss",
    "horn": "ss",
    "noncopositive_rational": "ss",
    "pattern": "ss",
    "rank1_rational": "ss",
    "split_rational": "ws",
    ("dsd", 6): "ss ss ss ss ss ss",
    ("dsd", 7): "ss ss ss ss ss ss",
    ("dsd", 8): "ss ss ss ss ss ss",
    ("bbt", 6): "ct ct ct ct ct ct",
    ("bbt", 7): "ct ct ct st st ct",
    ("bbt", 8): "ss ct ss ct ct ct",
    ("rank1", 6): "ss ss ss ss ss ss",
    ("rank1", 7): "ss ss ss ss ss ss",
    ("rank1", 8): "ss ss ss ss ss ss",
    ("refute", 6): "ss ss ss ss ss ss",
    ("refute", 7): "ss ss ss ss ss ss",
    ("refute", 8): "ss ss ss ss ss ss",
}
CODES = {"prefilter": "p", "strict": "t", "convex": "c", "scan": "s",
         "whole": "w"}


def inputs():
    """``(label, matrix, pinned routes)`` for every input of the module
    docstring."""
    for path in sorted(FIXTURES.glob("*.txt")):
        yield path.stem, parse_matrix_file(path), PINNED[path.stem]
    families = benchmark_families()
    for family in ("dsd", "bbt", "rank1", "refute"):
        for n in (6, 7, 8):
            codes = PINNED[family, n].split()
            for k in INDICES:
                case = families.generate(family, n, 0, (0, k))
                yield ((family, n, k), SymMatrix.from_rows(case.matrix),
                       codes[k])


INPUTS = list(inputs())


def route_taken(A: SymMatrix, minimum: bool) -> str:
    """The route of the dispatch that answers A: the first of the
    prefilter, the certificate and the convex route that answers alone,
    as the dispatch asks them in that order, else "whole" where the scan
    ran twice and "scan" where it ran once."""
    for route in ("prefilter", "strict", "convex"):
        if through(route, A, minimum=minimum) is not None:
            return route
    with mock.patch.object(copositivity_mod, "_scan",
                           wraps=copositivity_mod._scan) as scan:
        copositivity_mod._decide(A, None, minimum)
    return "whole" if scan.call_count == 2 else "scan"


def test_every_route_that_answers_equals_the_scan():
    hits = Counter()
    for label, A, _ in INPUTS:
        # the scan alone, prefilter off, with the exact minimum
        scanned = through("scan", A)
        for minimum in (True, False):
            for route in ("strict", "convex", "scan"):
                verdict = through(route, A, minimum=minimum)
                if verdict is None:
                    continue
                hits[route, minimum] += 1
                if route == "strict":
                    assert scanned.copositive and scanned.zeros == (), label
                    assert scanned.simplex_minimum > 0, label
                elif route == "scan" and not minimum:
                    # inside the components: the minimum may be the least
                    # value there, above the simplex minimum
                    assert (verdict.copositive, verdict.violator,
                            verdict.zeros) == (scanned.copositive,
                                               scanned.violator,
                                               scanned.zeros), label
                else:
                    assert verdict == scanned, (label, route, minimum)
    # seen: the certificate 16, the convex route 14 for each question, the
    # scan all 81 inputs for each.  The certificate, which says nothing of
    # the minimum, is never asked for it.  The prefilter is a gate ahead of
    # every route, and answers none of these inputs; its two branches are
    # pinned through every command in test_cli.py
    assert hits["strict", True] == 0
    for key, floor in ((("strict", False), 12), (("convex", True), 10),
                       (("convex", False), 10), (("scan", True), len(INPUTS)),
                       (("scan", False), len(INPUTS))):
        assert hits[key] >= floor, hits


def test_each_input_takes_its_pinned_route():
    taken = Counter()
    for label, A, pinned in INPUTS:
        codes = ""
        for minimum in (True, False):
            route = route_taken(A, minimum)
            taken[route] += 1
            codes += CODES[route]
        assert codes == pinned, label
    # seen: scan 131, certificate 16, convex 14, whole 1 (split_rational)
    assert taken["strict"] >= 12 and taken["convex"] >= 10
    assert taken["whole"] >= 1 and taken["scan"] >= 100
