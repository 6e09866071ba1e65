"""Right regular representations, the loop-set characterization, cycle classes."""

import pytest

from loupe import LnParams, build_ln, certify_subloop, cyclic_group, predicted_cycle_class
from loupe.core import CycleClass
from loupe.errors import HasSSubloops, NotAnSSubloop
from loupe.representation import (
    compose,
    cycle_class,
    cycles,
    permutation_order,
    render_cycles,
    render_representation,
    representation_report,
    right_regular_representation,
    s_pseudo_representation,
    s_representation,
    validate_albert,
)

from conftest import family_params

L7_4_LINES = [
    "I",
    "(e 1) (2 5 3) (4 6 7)",
    "(e 2) (1 5 7) (3 6 4)",
    "(e 3) (1 2 6) (4 7 5)",
    "(e 4) (1 6 5) (2 3 7)",
    "(e 5) (1 3 4) (2 7 6)",
    "(e 6) (1 7 3) (2 4 5)",
    "(e 7) (1 4 2) (3 5 6)",
]


def test_reference_rendering_matches_frozen_lines():
    assert render_representation(build_ln(7, 4)) == L7_4_LINES


def test_identity_translation(corpus):
    for n, m in ((5, 2), (9, 5)):
        perms = right_regular_representation(build_ln(n, m))
        assert perms[0] == tuple(range(n + 1))
    # R_a is column a of the table: x -> xa
    for name, L in corpus.items():
        perms = right_regular_representation(L)
        assert perms == [tuple(L.table[x][a] for x in range(L.size)) for a in range(L.size)], name


def test_cycle_class_values():
    assert cycle_class(tuple(range(6))).as_dict() == {1: 6}
    perms = right_regular_representation(build_ln(7, 4))
    assert cycle_class(perms[1]).as_dict() == {2: 1, 3: 2}
    assert permutation_order(perms[1]) == 6
    assert cycle_class(perms[1]).order == 6
    perms45 = right_regular_representation(build_ln(45, 8))
    assert cycle_class(perms45[3]).as_dict() == {2: 2, 4: 3, 6: 1, 12: 2}


def test_albert_conditions():
    for n, m in ((7, 4), (5, 3), (9, 8)):
        perms = right_regular_representation(build_ln(n, m))
        assert validate_albert(perms).holds, (n, m)
    assert not validate_albert([tuple(range(4))]).holds
    # two permutations agreeing at a point break the quotient condition
    bad = [tuple(range(3)), (0, 2, 1)]
    verdict = validate_albert(bad)
    assert not verdict.holds


def test_representation_report():
    for params in ((7, 4), (45, 8), (5, 2)):
        report = representation_report(build_ln(*params), predicted_cycle_class(LnParams(*params)))
        assert report.uniform_class
        assert report.matches_prediction
        assert report.transpositions_present


def test_representation_report_rejects_a_wrong_or_mixed_class():
    # L_45(8) is uniform, but the class of L_7(4) is not its class
    report = representation_report(build_ln(45, 8), predicted_cycle_class(LnParams(7, 4)))
    assert report.uniform_class
    assert not report.matches_prediction
    # in C_4, R_1 is a 4-cycle but R_2 is two transpositions, so R_1's class is not shared
    C4 = cyclic_group(4)
    report = representation_report(C4, cycle_class(right_regular_representation(C4)[1]))
    assert not report.uniform_class
    assert not report.matches_prediction


def test_representation_report_of_the_trivial_loop_is_vacuous():
    # no translation besides the identity: one shared class, the empty one
    trivial = cyclic_group(1)
    report = representation_report(trivial, CycleClass(()))
    assert report.uniform_class and report.transpositions_present
    assert report.cycle_class == CycleClass(())
    assert report.matches_prediction
    report = representation_report(trivial, CycleClass(((2, 1),)))
    assert report.uniform_class and report.cycle_class == CycleClass(())
    assert not report.matches_prediction


def test_transposition_membership_family():
    for n, m in family_params(15):
        perms = right_regular_representation(build_ln(n, m))
        for a in range(1, n + 1):
            assert perms[a][0] == a and perms[a][a] == 0, (n, m, a)


def test_no_k_cycle_when_gcd_is_one():
    # if gcd((m-1)^k + (-1)^(k-1), n) = 1 then no translation carries a
    # k-cycle beyond the obligatory (a, e) transposition
    from math import gcd

    for n, m in family_params(15):
        perms = right_regular_representation(build_ln(n, m))
        lengths = set()
        for p in perms[1:]:
            lengths.update(len(c) for c in cycles(p) if 0 not in c)
        for k in range(2, n):
            if gcd((m - 1) ** k + (-1) ** (k - 1), n) == 1:
                assert k not in lengths, (n, m, k)


def test_s_representation_requires_s_subloop():
    L = build_ln(7, 4)
    with pytest.raises(NotAnSSubloop):
        s_representation(L, certify_subloop(L, [0, 1]))
    L152 = build_ln(15, 2)
    H = certify_subloop(L152, [0, 1, 4, 7, 10, 13])
    perms = s_representation(L152, H)
    assert len(perms) == 6
    assert all(len(p) == 16 for p in perms)
    assert perms[0] == tuple(range(16))


def test_pseudo_representation():
    L = build_ln(7, 4)
    blocks = s_pseudo_representation(L)
    by_subgroup = {S.elements: perms for S, perms in blocks}
    assert by_subgroup[(0, 1)] == [
        tuple(range(8)),
        tuple(L.table[x][1] for x in range(8)),
    ]
    assert render_cycles(by_subgroup[(0, 1)][1], L.labels) == "(e 1) (2 5 3) (4 6 7)"
    # products of members from different subgroups leave the pseudo set
    pseudo = {perms[1] for _, perms in blocks}
    listed = sorted(pseudo)
    for p in listed:
        for q in listed:
            if p != q:
                assert compose(p, q) not in pseudo
    with pytest.raises(HasSSubloops):
        s_pseudo_representation(build_ln(15, 2))


def test_involutory_right_alternative_translations_are_matchings():
    # right-alternative with x*x = e: every translation is a pairing and no
    # two translations share a pair
    L = build_ln(5, 2)
    seen = set()
    for a, perm in enumerate(right_regular_representation(L)):
        if a == 0:
            continue
        for cyc in cycles(perm):
            assert len(cyc) == 2
            pair = tuple(sorted(cyc))
            assert pair not in seen
            seen.add(pair)
    assert len(seen) == 15
