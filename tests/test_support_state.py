"""The state the support scan keeps per support against its definition.

For each visited support X, ``stationary_candidates`` keeps ``D = det K_X``
and, when X is conditionally positive definite (``D < 0``), ``f``, the
first column of ``adj K_X``, and ``v = adj(K_X1) b``, where ``X1 = X[:-1]``
and ``b`` is the last column of ``K_X`` above its diagonal; any other X is
never a parent and keeps ``(D, None, None)``.
It computes them in O(k) from the states of the parents ``X1`` and
``X[:-2] + X[-1:]`` and from ``det K_X[:-2]`` (the recurrence in the
``copositivity`` docstring).  ``oracles.bordered_state`` recomputes all
three from ``K_X`` and ``K_X1`` alone: determinants by ``Fraction``
elimination and adjugate columns through ``inverse_rows``.  Both must agree
on all three on every support ``oracles.conditionally_positive_definite``
accepts and on ``D`` on every other visited support, for states the scan
computes and for states it reads from a cache that other matrices, of
other orders, filled.
"""

from collections import Counter
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import copocert.copositivity as copositivity_mod
from copocert.census import Candidate, read_records
from copocert.copositivity import _key_getters, stationary_candidates
from copocert.linalg import SymMatrix

from oracles import (
    DEGENERATE_FAMILIES,
    block_state,
    degenerate_matrix,
    principal_block,
    scan_visits,
)

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


def mask(support) -> int:
    """The index of ``support`` in ``_key_getters``: its elements' bits."""
    return sum(1 << i for i in support)


@contextmanager
def recorded_states():
    """Every state ``_support_state`` returns, as ``(support, state)``."""
    calls = []
    real = copositivity_mod._support_state

    def recording(M, support, *args):
        state = real(M, support, *args)
        calls.append((support, state))
        return state

    with mock.patch.object(copositivity_mod, "_support_state", recording):
        yield calls


def check_states(A: SymMatrix, cache: dict | None) -> int:
    """Scan A and compare the state of every visited support with the
    oracle; the solved supports are the visited ones without a cache, and
    a subset of them with one.  Returns the number of supports checked."""
    visits, pd = scan_visits(A)
    M, d = A.integer_form
    with recorded_states() as calls:
        list(stationary_candidates(A, cache=cache))
    solved = dict(calls)
    if cache is None:
        assert list(solved) == visits, A
        states = solved
    else:
        assert set(solved) <= set(visits), A
        flat = (*[x for i, row in enumerate(M) for x in row[i:]], d)
        getters = _key_getters(A.n)
        states = {s: cache[getters[mask(s)](flat)][1:] for s in visits}
    for support in visits:
        D, f, v = block_state(principal_block(M, support))
        if not pd[support]:
            f = v = None
        assert tuple(states[support]) == (D, f, v), (A, support)
    return len(visits)


@pytest.mark.parametrize("shared", [False, True], ids=["alone", "shared"])
@pytest.mark.parametrize("family", DEGENERATE_FAMILIES)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_degenerate_families(family, shared, data):
    # three matrices per example, of orders 2..8, through one cache when
    # it is shared, so that hits come from scans of other orders
    low = 5 if family == "hildebrand" else 2
    cache = {} if shared else None
    for _ in range(3):
        n = data.draw(st.integers(min_value=low, max_value=8), label="n")
        A = degenerate_matrix(family, n, data.draw(seeds, label="seed"))
        check_states(A, cache)


@pytest.mark.parametrize("shared", [False, True], ids=["alone", "shared"])
def test_census_classes_up_to_order_5(shared):
    # every class of the baselines, orders 1..5 through one cache when it
    # is shared, as one census run of each order would share it
    cache = {} if shared else None
    classes = checked = 0
    for n in range(1, 6):
        for record in read_records(f"tests/baselines/census_n{n}.txt"):
            checked += check_states(
                Candidate(n, record.canonical_offdiag).matrix(), cache)
            classes += 1
    assert classes == 1 + 3 + 10 + 66 + 792
    assert checked > classes


@pytest.mark.parametrize("family", DEGENERATE_FAMILIES)
def test_nonnegative_determinant_keeps_only_it(family):
    # seeded matrices of orders up to 7 through one cache: a support
    # solved with det K_S >= 0 is not conditionally positive definite, so
    # its state is (D, None, None), its cache entry (None, D, None, None),
    # and it is not yielded; every yielded support has D < 0
    cache = {}
    solved = Counter()
    for seed in range(4):
        for n in range(5 if family == "hildebrand" else 3, 8):
            A = degenerate_matrix(family, n, seed)
            M, d = A.integer_form
            flat = (*[x for i, row in enumerate(M) for x in row[i:]], d)
            getters = _key_getters(n)
            with recorded_states() as calls:
                yielded = {c[0] for c in stationary_candidates(A, cache=cache)}
            for support, state in calls:
                entry = cache[getters[mask(support)](flat)]
                if state[0] < 0:
                    assert entry[1:] == state, (A, support)
                    solved["negative"] += 1
                    continue
                assert state == (state[0], None, None), (A, support)
                assert entry == (None, state[0], None, None), (A, support)
                assert support not in yielded, (A, support)
                solved["nonnegative"] += 1
            assert all(cache[getters[mask(s)](flat)][1] < 0
                       for s in yielded), A
    assert solved["negative"] > 0 and solved["nonnegative"] > 0, solved
