"""The pruned support scan against the unpruned one.

``stationary_candidates`` solves a support only when each of its parents is
conditionally positive definite; the proof that this changes no verdict is
in the ``copositivity`` docstring.  ``oracles.unpruned_is_copositive``
applies ``is_copositive``'s decision rule to every support whose system has
a unique positive solution, each solved by ``solve_affine``.  The two
verdicts must be equal as a whole (flag, violator, simplex minimum and
zeros) on families whose support systems are often singular or indefinite
(``oracles.degenerate_matrix``).
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copocert.copositivity import _prefilter_violator, is_copositive

from oracles import (
    DEGENERATE_FAMILIES,
    degenerate_matrix,
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
    assert is_copositive(A) == unpruned_is_copositive(A)


def test_families_reach_every_kind_of_verdict():
    # seeded, so that every kind is reached whatever Hypothesis draws
    kinds = Counter()
    for family in DEGENERATE_FAMILIES:
        for seed in range(20):
            A = degenerate_matrix(family, 6, seed)
            verdict = is_copositive(A)
            assert verdict == unpruned_is_copositive(A), (family, seed)
            kind = ("prefilter" if _prefilter_violator(A) else
                    "zeros" if verdict.zeros else
                    "positive" if verdict.copositive else "violator")
            kinds[family, kind] += 1
    for family in DEGENERATE_FAMILIES:
        assert kinds[family, "zeros"] > 0, family
    assert all(sum(kinds[f, kind] for f in DEGENERATE_FAMILIES) > 0
               for kind in ("prefilter", "zeros", "positive", "violator"))
