"""The per-loop memo: census, cyclic closures, subgroup flags and isomorphism
signatures against fresh, brute-force answers."""

import dataclasses
import gc
import random
import weakref

import pytest

from loupe import Caps, build_ln, cyclic_group, symmetric_group
from loupe.core import (
    _greedy_generators,
    division,
    element_order,
    find_isomorphism,
    generated_subloop,
    is_cyclic_group,
    validate_loop,
)
from loupe.errors import CapExceeded
from loupe.identities import is_diassociative
from loupe.isotopes import is_g_loop, principal_isotope
from loupe.smarandache import is_s_loop
from loupe.substructures import all_subloops

from oracles import (
    census_by_extension,
    element_order_by_powers,
    find_isomorphism_by_backtrack,
    is_cyclic_group_by_powers,
    is_diassociative_by_pairs,
    is_g_loop_by_isotopes,
    is_isomorphic_by_search,
    is_s_loop_by_closures,
    random_loop,
)


def _census_outcome(L, caps):
    try:
        return [S.elements for S in all_subloops(L, caps).subloops]
    except CapExceeded as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", ["L15(8)", "Z5", "S3", "klein", "cloop12", "L5(2)xS3"])
def test_memoised_census_honours_tighter_caps(corpus, name):
    warm = corpus[name]
    count = len(all_subloops(warm).subloops)
    tighter = [Caps(census=k) for k in range(1, count + 1)]
    tighter += [Caps(census_order=k) for k in range(max(1, warm.size - 2), warm.size + 1)]
    for caps in tighter:
        # a fresh copy has an empty memo, so it enumerates from scratch
        assert _census_outcome(warm, caps) == _census_outcome(dataclasses.replace(warm), caps)
    # the cap is exact: one subloop too many always reports count cap + 1
    expected = (CapExceeded, f"census size exceeded cap ({count} > {count - 1})")
    if count > 1:
        assert _census_outcome(dataclasses.replace(warm), Caps(census=count - 1)) == expected
        assert _census_outcome(warm, Caps(census=count - 1)) == expected


def test_memo_is_ignored_by_equality_hashing_and_replace():
    warm = build_ln(9, 5)
    all_subloops(warm)
    find_isomorphism(warm, warm)
    division(warm)
    cold = dataclasses.replace(warm)
    assert set(warm._memo) == {"census", "cyclic", "subgroup", "signatures", "gens", "div"}
    assert not cold._memo
    assert warm == cold
    assert hash(warm) == hash(cold)
    assert repr(warm) == repr(cold)


@pytest.mark.parametrize(
    "construct",
    [lambda: build_ln(15, 8), lambda: cyclic_group(6), lambda: symmetric_group(4)],
    ids=["build_ln", "cyclic_group", "symmetric_group"],
)
def test_constructors_return_a_fresh_loop(construct):
    warm = construct()
    all_subloops(warm)
    find_isomorphism(warm, warm)
    division(warm)
    assert warm._memo
    fresh = construct()
    assert fresh == warm
    assert fresh is not warm
    assert not fresh._memo


def test_analysed_loop_dies_with_its_last_reference():
    L = build_ln(15, 8)
    all_subloops(L)
    find_isomorphism(L, L)
    division(L)
    is_diassociative(L)
    ref = weakref.ref(L)
    del L
    gc.collect()
    assert ref() is None


def _differential_loops(corpus):
    rng = random.Random(20031)
    randoms = [(f"random{i}", random_loop(rng, 4 + i % 5)) for i in range(60)]
    randoms += [(f"random{i}", random_loop(rng, 9)) for i in range(60, 72)]
    return list(corpus.items()) + randoms


def test_cyclic_kernels_agree_with_power_walk_oracles(corpus):
    for name, L in _differential_loops(corpus):
        for _ in range(2):  # the second round reads the memo
            assert [element_order(L, x) for x in range(L.size)] == [
                element_order_by_powers(L, x) for x in range(L.size)
            ], name
            assert is_s_loop(L) == is_s_loop_by_closures(L), name
            for S in all_subloops(L).subloops:
                assert is_cyclic_group(L, S) == is_cyclic_group_by_powers(L, S), (name, S)


def test_census_agrees_with_unpruned_extension_oracle(corpus):
    for name, L in _differential_loops(corpus):
        expected = census_by_extension(L)
        count = len(expected.subloops)
        fresh = dataclasses.replace(L)
        for _ in range(2):  # the second round reads the memo
            assert all_subloops(fresh) == expected, name
        for cap in sorted({1, 2, 3, 5, count - 1, count} - {0}):
            want = (
                (CapExceeded, f"census size exceeded cap ({cap + 1} > {cap})")
                if count > cap
                else [S.elements for S in expected.subloops]
            )
            caps = Caps(census=cap)
            assert _census_outcome(dataclasses.replace(L), caps) == want, (name, cap)
            assert _census_outcome(fresh, caps) == want, (name, cap)


def test_diassociativity_and_g_loop_agree_with_oracles(corpus):
    for name, L in _differential_loops(corpus):
        fresh = dataclasses.replace(L)
        expected = is_diassociative_by_pairs(L)
        for _ in range(2):  # the second round reads the memo
            assert is_diassociative(fresh) == expected, name
        if L.size <= 8:
            expected = is_g_loop_by_isotopes(L)
            for _ in range(2):
                assert is_g_loop(fresh) == expected, name


def _relabelled(L, rng):
    """L carried by a random bijection fixing e: isomorphic to L by construction."""
    p = [0] + rng.sample(range(1, L.size), L.size - 1)
    inv = sorted(range(L.size), key=p.__getitem__)
    n = L.size
    return validate_loop([[p[L.table[inv[i]][inv[j]]] for j in range(n)] for i in range(n)])


def _isomorphism(L1, L2):
    """find_isomorphism's witness, checked to be the smallest one the backtracking oracle finds."""
    assert generated_subloop(L1, _greedy_generators(L1)).order == L1.size
    witness = find_isomorphism(L1, L2)
    mapping = None if witness is None else witness.mapping
    assert mapping == find_isomorphism_by_backtrack(L1, L2), (L1.table, L2.table)
    return mapping is not None


def test_find_isomorphism_agrees_with_unpruned_search(corpus):
    rng = random.Random(2003)
    loops = [L for _, L in _differential_loops(corpus) if L.size <= 9]
    checked = set()
    for i, L in enumerate(loops):
        for M in loops[i:] + [_relabelled(L, rng)]:
            if M.size == L.size:
                expected = is_isomorphic_by_search(L, M)
                checked.add(expected)
                assert _isomorphism(L, M) == expected == _isomorphism(M, L), (L.table, M.table)
    assert checked == {False, True}


def test_find_isomorphism_agrees_on_every_isotope(corpus):
    verdicts = set()
    for name, L in _differential_loops(corpus):
        if L.size > 8:
            continue
        for a in range(L.size):
            for b in range(L.size):
                iso = principal_isotope(L, a, b)
                expected = is_isomorphic_by_search(L, iso)
                verdicts.add(expected)
                assert _isomorphism(L, iso) == expected, (name, a, b)
    assert verdicts == {False, True}
