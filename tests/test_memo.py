"""The per-loop memo: census, cyclic closures, subgroup flags and isomorphism
signatures against fresh, brute-force answers."""

import dataclasses
import random

import pytest

from loupe import Caps, build_ln
from loupe.core import division, element_order, find_isomorphism, is_cyclic_group
from loupe.errors import CapExceeded
from loupe.identities import is_diassociative
from loupe.isotopes import is_g_loop
from loupe.smarandache import is_s_loop
from loupe.substructures import all_subloops

from oracles import (
    census_by_extension,
    element_order_by_powers,
    is_cyclic_group_by_powers,
    is_diassociative_by_pairs,
    is_g_loop_by_isotopes,
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
    assert set(warm._memo) == {"census", "cyclic", "subgroup", "signatures", "div"}
    assert not cold._memo
    assert warm == cold
    assert hash(warm) == hash(cold)
    assert repr(warm) == repr(cold)


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
