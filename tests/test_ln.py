"""Construction, counting and closed-form predictions for the modular family."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from loupe import (
    LnParams,
    all_h_subloops,
    build_ln,
    certify_subloop,
    count_ln,
    count_strictly_noncommutative,
    enumerate_ln_params,
    h_subloop,
    ln_predicted_flags,
    predicted_cycle_class,
    predicted_normalizers,
    validate_loop,
)
from loupe.errors import BadIndex, InvalidN, InvalidParams, NotADivisor
from loupe.identities import Law, StrictForm, check_law, check_strict
from loupe.representation import cycle_class, right_regular_representation
from loupe.substructures import first_normalizer, second_normalizer

from conftest import L5_2_TABLE, L5_3_TABLE, L5_4_TABLE, family_params
from oracles import build_ln_by_formula


def table_of(n, m):
    return [list(r) for r in build_ln(n, m).table]


def test_reference_tables():
    assert table_of(5, 2) == L5_2_TABLE
    assert table_of(5, 3) == L5_3_TABLE
    assert table_of(5, 4) == L5_4_TABLE
    assert build_ln(5, 3).table[1][2] == 4
    assert build_ln(7, 3).table[1] == (1, 0, 4, 7, 3, 6, 2, 5)
    assert build_ln(9, 8).table[1] == (1, 0, 9, 8, 7, 6, 5, 4, 3, 2)
    assert build_ln(9, 5).table[1] == (1, 0, 6, 2, 7, 3, 8, 4, 9, 5)


def test_rotated_rows_agree_with_formula_oracle():
    # row i is the base sequence m*k mod n rotated by i/m - i: same tables and labels
    params = family_params(59)
    assert len(params) == 578
    for n, m in params:
        assert build_ln(n, m) == build_ln_by_formula(n, m), (n, m)


def test_invalid_params():
    with pytest.raises(InvalidParams):
        build_ln(6, 2)
    with pytest.raises(InvalidParams):
        build_ln(5, 1)
    with pytest.raises(InvalidParams):
        build_ln(9, 4)  # gcd(m-1, n) = 3
    with pytest.raises(InvalidParams):
        build_ln(9, 3)  # gcd(m, n) = 3
    with pytest.raises(InvalidParams):
        build_ln(3, 2)


def test_enumerate_params():
    assert enumerate_ln_params(5) == [2, 3, 4]
    assert enumerate_ln_params(15) == [2, 8, 14]
    assert enumerate_ln_params(7) == [2, 3, 4, 5, 6]
    with pytest.raises(InvalidN):
        enumerate_ln_params(6)


def test_count_formula_matches_enumeration():
    assert count_ln(5) == 3
    assert count_ln(15) == 3
    assert count_ln(9) == 3
    for n in range(5, 100, 2):
        assert count_ln(n) == len(enumerate_ln_params(n)), n


def test_strictly_noncommutative_counts():
    assert count_strictly_noncommutative(5) == 2
    assert count_strictly_noncommutative(9) == 0
    assert count_strictly_noncommutative(7) == 4
    for n in (5, 7, 9, 15):
        observed = [
            m
            for m in enumerate_ln_params(n)
            if check_strict(build_ln(n, m), StrictForm.STRICT_NON_COMMUTATIVE).holds
        ]
        assert len(observed) == count_strictly_noncommutative(n), n
    assert [
        m
        for m in enumerate_ln_params(5)
        if check_strict(build_ln(5, m), StrictForm.STRICT_NON_COMMUTATIVE).holds
    ] == [2, 4]


def test_predicted_flags_reference_points():
    assert ln_predicted_flags(LnParams(7, 3)).wip
    assert ln_predicted_flags(LnParams(5, 3)).commutative
    flags52 = ln_predicted_flags(LnParams(5, 2))
    assert flags52.right_alternative
    assert not (flags52.commutative or flags52.left_alternative or flags52.wip)


@given(st.sampled_from(family_params(25)))
def test_flags_agree_with_brute_force(params):
    L = build_ln(*params)
    flags = ln_predicted_flags(LnParams(*params))
    assert flags.commutative == check_law(L, Law.COMMUTATIVE).holds
    assert flags.right_alternative == check_law(L, Law.RIGHT_ALTERNATIVE).holds
    assert flags.left_alternative == check_law(L, Law.LEFT_ALTERNATIVE).holds
    assert flags.wip == check_law(L, Law.WIP).holds


def test_exactly_one_commutative_member_per_n():
    for n in range(5, 30, 2):
        commutative = [
            m for m in enumerate_ln_params(n) if ln_predicted_flags(LnParams(n, m)).commutative
        ]
        assert commutative == [(n + 1) // 2]


@given(st.sampled_from(family_params(25)))
def test_build_invariants(params):
    L = build_ln(*params)
    revalidated = validate_loop(L.table)
    assert revalidated.table == L.table
    assert all(L.table[i][i] == 0 for i in range(1, L.size))
    assert check_law(L, Law.FLEXIBLE).holds


def test_h_subloop_examples():
    assert h_subloop(LnParams(15, 2), 1, 3).elements == (0, 1, 4, 7, 10, 13)
    assert h_subloop(LnParams(45, 8), 1, 15).elements == (0, 1, 16, 31)
    assert h_subloop(LnParams(15, 2), 1, 15).elements == (0, 1)
    with pytest.raises(NotADivisor):
        h_subloop(LnParams(15, 2), 1, 4)
    with pytest.raises(BadIndex):
        h_subloop(LnParams(15, 2), 4, 3)


def test_h_subloops_census_structure():
    params = LnParams(15, 8)
    L = build_ln(15, 8)
    groups = all_h_subloops(params)
    assert sorted(groups) == [3, 5, 15]
    assert len(groups[3]) == 3 and all(S.order == 6 for S in groups[3])
    assert len(groups[5]) == 5 and all(S.order == 4 for S in groups[5])
    for t, subs in groups.items():
        for S in subs:
            certify_subloop(L, S.elements)
        for i, a in enumerate(subs):
            for b in subs[i + 1:]:
                assert a.as_set() & b.as_set() == {0}
        union = set().union(*(S.as_set() for S in subs))
        assert union == set(range(16))
    params52 = LnParams(5, 2)
    groups52 = all_h_subloops(params52)
    assert sorted(groups52) == [5]
    assert [S.elements for S in groups52[5]] == [(0, i) for i in range(1, 6)]


def test_subloop_orders_divide_only_for_prime_n():
    # every subloop order d+1 has d | n; full divisibility of the loop order
    # by all subloop orders happens exactly at prime n
    from loupe.substructures import all_subloops

    for n, m in ((5, 2), (7, 3), (15, 2)):
        L = build_ln(n, m)
        census = all_subloops(L)
        for S in census.subloops:
            if S.order > 1:
                assert n % (S.order - 1) == 0
        lagrange = all(L.size % S.order == 0 for S in census.subloops if S.order > 1)
        assert lagrange == (n in (5, 7))


def test_predicted_normalizers_examples():
    p458 = LnParams(45, 8)
    first, second = predicted_normalizers(p458, 1, 15)
    assert first.order == 46
    assert second.elements == (0, 1, 6, 11, 16, 21, 26, 31, 36, 41)
    p152 = LnParams(15, 2)
    first152, _ = predicted_normalizers(p152, 1, 3)
    assert first152.order == 16
    with pytest.raises(NotADivisor):
        predicted_normalizers(p152, 1, 4)


def test_normalizer_equality_iff_gcd_condition():
    from math import gcd

    for n, m in ((15, 2), (15, 8), (45, 8)):
        params = LnParams(n, m)
        L = build_ln(n, m)
        for t in (d for d in range(2, n) if n % d == 0):
            for i in range(1, t + 1):
                H = h_subloop(params, i, t)
                equal = first_normalizer(L, H) == second_normalizer(L, H)
                assert equal == (gcd(m * m - m + 1, t) == gcd(2 * m - 1, t))


def test_predicted_cycle_class_values():
    assert predicted_cycle_class(LnParams(45, 8)).as_dict() == {2: 2, 4: 3, 6: 1, 12: 2}
    assert predicted_cycle_class(LnParams(7, 4)).as_dict() == {2: 1, 3: 2}
    onum = predicted_cycle_class(LnParams(7, 3))
    perms = right_regular_representation(build_ln(7, 3))
    assert cycle_class(perms[1]) == onum


def test_wip_formula_over_whole_family():
    for n, m in family_params(45):
        L = build_ln(n, m)
        assert check_law(L, Law.WIP).holds == ((m * m - m + 1) % n == 0), (n, m)


@given(st.sampled_from(family_params(25)))
def test_prediction_matches_brute_force(params):
    L = build_ln(*params)
    predicted = predicted_cycle_class(LnParams(*params))
    assert predicted.total() == L.size
    for perm in right_regular_representation(L)[1:]:
        assert cycle_class(perm) == predicted
