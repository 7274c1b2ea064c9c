"""The pruned support scan against the unpruned one.

``stationary_candidates`` solves a support only when each of its parents is
conditionally positive definite; the proof that this changes no verdict is
in the ``copositivity`` docstring.  ``oracles.unpruned_is_copositive``
applies ``is_copositive``'s decision rule to every support whose system has
a unique positive solution, each solved by ``solve_affine``.  The two
verdicts must be equal as a whole (flag, violator, simplex minimum and
zeros) on families whose support systems are often singular or indefinite
(``oracles.degenerate_matrix``).  The verdicts are taken with the convex
route switched off (``oracles.scan_is_copositive``), so that every input
reaches the scan.
"""

from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import copocert.copositivity as copositivity_mod
from copocert.copositivity import (
    _negative_components,
    _prefilter_violator,
    minimal_zeros,
    stationary_candidates,
)
from copocert.cli import parse_matrix_file
from copocert.errors import InvariantError
from copocert.linalg import SymMatrix

from oracles import (
    DEGENERATE_FAMILIES,
    benchmark_families,
    connected_support,
    degenerate_matrix,
    negative_components,
    scan_is_copositive,
    scan_visits,
    split_matrix,
    unpruned_is_copositive,
)

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


@pytest.mark.parametrize("family", DEGENERATE_FAMILIES)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_verdict_equals_the_unpruned_scan(family, data):
    low = 5 if family == "hildebrand" else 2
    n = data.draw(st.integers(min_value=low, max_value=6), label="n")
    A = degenerate_matrix(family, n, data.draw(seeds, label="seed"))
    assert scan_is_copositive(A) == unpruned_is_copositive(A)


def test_families_reach_every_kind_of_verdict():
    # seeded, so that every kind is reached whatever Hypothesis draws
    kinds = Counter()
    for family in DEGENERATE_FAMILIES:
        for seed in range(20):
            A = degenerate_matrix(family, 6, seed)
            verdict = scan_is_copositive(A)
            assert verdict == unpruned_is_copositive(A), (family, seed)
            kind = ("prefilter" if _prefilter_violator(A) else
                    "zeros" if verdict.zeros else
                    "positive" if verdict.copositive else "violator")
            kinds[family, kind] += 1
    for family in DEGENERATE_FAMILIES:
        assert kinds[family, "zeros"] > 0, family
    assert all(sum(kinds[f, kind] for f in DEGENERATE_FAMILIES) > 0
               for kind in ("prefilter", "zeros", "positive", "violator"))


# --- the scan inside the components of the negative graph --------------------
#
# ``is_copositive`` hands ``stationary_candidates`` the labels of the
# components of G-, the graph of the negative entries, and the scan drops
# the pairs across two components, so every support it visits lies inside
# one.  By Lemma C (``copositivity`` docstring) the first violator and every
# minimal zero sit on supports connected in G-; a positive minimum may not,
# so a split matrix with no zero is scanned once more, whole.


def inside_one_component(support, labels):
    return len({labels[i] for i in support}) == 1


def benchmark_matrices(orders=(6, 7, 8)):
    """The benchmark's ``dsd`` and ``refute`` matrices: a vertex of each is
    on no -1 edge, so G- is split."""
    families = benchmark_families()
    for family in ("dsd", "refute"):
        for n in orders:
            for seed in range(2):
                for k in range(3):
                    case = families.generate(family, n, seed, (0, k))
                    yield (family, n, seed, k), SymMatrix.from_rows(case.matrix)


def sample_matrices():
    for n in range(2, 7):
        for seed in range(12):
            yield ("split", n, seed), split_matrix(n, seed)
    for family in DEGENERATE_FAMILIES:
        for seed in range(12):
            yield (family, 6, seed), degenerate_matrix(family, 6, seed)
    yield from benchmark_matrices(orders=(6, 7))


def test_labels_are_the_components_of_the_negative_graph():
    split = 0
    for name, A in sample_matrices():
        labels = _negative_components(A.integer_form[0])
        components = negative_components(A)
        if labels is None:
            assert len(components) == 1, name
            continue
        split += 1
        assert sorted((frozenset(i for i in range(A.n) if labels[i] == x)
                       for x in set(labels)), key=min) == components, name
    assert split >= 100


def test_labelled_scan_visits_the_supports_inside_one_component(monkeypatch):
    solved = []
    real = copositivity_mod._support_state

    def recording(M, support, det, first, second):
        solved.append(support)
        return real(M, support, det, first, second)

    monkeypatch.setattr(copositivity_mod, "_support_state", recording)
    dropped = 0
    for name, A in sample_matrices():
        labels = _negative_components(A.integer_form[0])
        if labels is None:
            continue
        whole = list(stationary_candidates(A))
        solved.clear()
        yielded = list(stationary_candidates(A, labels=labels))
        visits, _ = scan_visits(A)
        inside = [s for s in visits if inside_one_component(s, labels)]
        assert solved == inside, name
        dropped += len(visits) - len(inside)
        assert yielded == [c for c in whole
                           if inside_one_component(c[0], labels)], name
    assert dropped >= 1000


@given(n=st.integers(min_value=2, max_value=7), seed=seeds)
@settings(max_examples=80, deadline=None)
def test_split_matrices_equal_the_unpruned_scan(n, seed):
    A = split_matrix(n, seed)
    assert len(negative_components(A)) >= 2
    assert scan_is_copositive(A) == unpruned_is_copositive(A)


def test_benchmark_dsd_and_refute_equal_the_unpruned_scan():
    for name, A in benchmark_matrices():
        assert _negative_components(A.integer_form[0]) is not None, name
        assert scan_is_copositive(A) == unpruned_is_copositive(A), name


def test_violators_and_minimal_zeros_are_connected_in_the_negative_graph():
    counts = Counter()
    for name, A in sample_matrices():
        verdict = scan_is_copositive(A)
        if verdict.violator is not None:
            support = [i for i, x in enumerate(verdict.violator) if x]
            assert connected_support(A, support), name
            counts["violator"] += 1
        for zero in verdict.zeros:
            assert connected_support(A, zero.support), name
            counts["zero"] += len(zero.support) > 1
    assert counts["violator"] >= 40 and counts["zero"] >= 100, counts


def test_split_inputs_reach_every_kind_of_verdict():
    # seeded; "straddles" counts the positive minima that the scan inside
    # the components misses, which only the whole second scan finds
    kinds = Counter()
    for seed in range(80):
        A = split_matrix(6, seed)
        verdict = scan_is_copositive(A)
        assert verdict == unpruned_is_copositive(A), seed
        kind = ("prefilter" if _prefilter_violator(A) else
                "zeros" if verdict.zeros else
                "positive" if verdict.copositive else "violator")
        kinds[kind] += 1
        if kind == "positive":
            M, d = A.integer_form
            least = min(Fraction(total, q * q * d) for _, _, q, total in
                        stationary_candidates(
                            A, labels=_negative_components(M)))
            kinds["straddles"] += least > verdict.simplex_minimum
    for kind, floor in (("prefilter", 4), ("violator", 3), ("zeros", 20),
                        ("positive", 20), ("straddles", 15)):
        assert kinds[kind] >= floor, kinds


@pytest.mark.parametrize("rows", [
    [[1, -1, 0], [-1, 1, 0], [0, 0, 1]],   # a zero on the pair (0, 1)
    [[1, -2, 0], [-2, 1, 0], [0, 0, 1]],   # a violator on it
])
def test_the_whole_scan_must_not_meet_what_the_split_one_missed(
        monkeypatch, rows):
    # labels that split the pair (0, 1) of its negative entry: the scan
    # inside them meets neither the zero nor the violator on that pair, and
    # the whole scan that follows must refuse the value <= 0 it then meets
    A = SymMatrix.from_integer_rows(rows)
    assert scan_is_copositive(A).copositive == (rows[0][1] == -1)
    monkeypatch.setattr(copositivity_mod, "_negative_components",
                        lambda M: list(range(len(M))))
    with pytest.raises(InvariantError):
        scan_is_copositive(A)


def test_minimal_zeros_takes_the_scan_inside_the_components(monkeypatch):
    # split_rational.txt is strictly copositive, certified neither by
    # _strictly_copositive nor by the convex route, and its minimum
    # straddles the two components of G-: the scan inside them solves 26
    # supports, which is all minimal_zeros pays, and is_copositive pays the
    # whole scan's 47 on top for the minimum
    A = parse_matrix_file(Path(__file__).parent / "fixtures" /
                          "split_rational.txt")
    solved = []
    real = copositivity_mod._support_state

    def counted(M, support, *args):
        solved.append(support)
        return real(M, support, *args)

    monkeypatch.setattr(copositivity_mod, "_support_state", counted)
    assert minimal_zeros(A) == ()
    assert len(solved) == 26
    solved.clear()
    verdict = copositivity_mod.is_copositive(A)
    assert verdict.copositive and verdict.simplex_minimum == Fraction(248, 11981)
    assert len(solved) == 26 + 47
