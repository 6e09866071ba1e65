"""Quantified identities, strict forms, multiplication groups and u.p. scans."""

import dataclasses
import random

import pytest

from loupe import build_ln, cyclic_group, direct_product, symmetric_group
from loupe.core import associativity_failure
from loupe.errors import NotIPLoop
from loupe.identities import (
    Law,
    SpecialKind,
    StrictForm,
    check_law,
    check_strict,
    inner_mapping_group,
    is_a_loop,
    is_arif,
    is_diassociative,
    is_power_associative,
    multiplication_group,
    special_commutativity,
    up_tup_check,
)
from loupe.substructures import all_subloops

from oracles import random_loop

ALL_LAWS = list(Law)


def violates(L, law, witness, detail=""):
    """Re-evaluate a witness through the table; it must break the law as stated.

    Each law is written from its textbook statement, not from the library's
    rows; a law of several clauses (Bruck, IP, Jordan, Steiner) replays the
    clause that the verdict's ``detail`` names."""
    t = L.table

    def inverse(x):  # the two-sided inverse of x, or None when its one-sided inverses differ
        right, left = t[x].index(0), [row[x] for row in t].index(0)
        return right if right == left else None

    def associator(x, y, z):  # the w with (xy)z = (x(yz))w
        return t[t[x][t[y][z]]].index(t[t[x][y]][z])

    if law is Law.COMMUTATIVE:
        x, y = witness
        return t[x][y] != t[y][x]
    if law is Law.ASSOCIATIVE:
        x, y, z = witness
        return t[t[x][y]][z] != t[x][t[y][z]]
    if law is Law.MOUFANG1:
        x, y, z = witness
        return t[t[x][y]][t[z][x]] != t[t[x][t[y][z]]][x]
    if law is Law.MOUFANG2:
        x, y, z = witness
        return t[t[t[x][y]][z]][y] != t[x][t[y][t[z][y]]]
    if law is Law.MOUFANG3:
        x, y, z = witness
        return t[x][t[y][t[x][z]]] != t[t[t[x][y]][x]][z]
    if law is Law.BOL:
        x, y, z = witness
        return t[t[t[x][y]][z]][y] != t[x][t[t[y][z]][y]]
    if law is Law.WIP:
        x, y, z = witness
        return t[t[x][y]][z] == 0 and t[x][t[y][z]] != 0
    if law is Law.RIGHT_ALTERNATIVE:
        x, y = witness
        return t[t[x][y]][y] != t[x][t[y][y]]
    if law is Law.LEFT_ALTERNATIVE:
        x, y = witness
        return t[t[x][x]][y] != t[x][t[x][y]]
    if law is Law.FLEXIBLE:
        x, y = witness
        return t[t[x][y]][x] != t[x][t[y][x]]
    if law is Law.SEMI_ALTERNATIVE:
        x, y, z = witness
        return associator(x, y, z) != associator(y, z, x)
    # a Bruck loop is a left Bol loop with the automorphic inverse property;
    # an IP loop has two-sided inverses with x^-1(xy) = y = (yx)x^-1
    if law in (Law.BRUCK, Law.IP) and detail == "no two-sided inverse":
        (x,) = witness
        return inverse(x) is None
    if law is Law.BRUCK and detail == "(xy)^-1 = x^-1 y^-1 fails":
        x, y = witness
        return inverse(t[x][y]) != t[inverse(x)][inverse(y)]
    if law is Law.BRUCK and detail == "x(yx)z = x(y(xz)) fails":
        x, y, z = witness
        return t[t[x][t[y][x]]][z] != t[x][t[y][t[x][z]]]
    if law is Law.IP and detail == "":
        x, y = witness
        return t[inverse(x)][t[x][y]] != y or t[t[y][x]][inverse(x)] != y
    # a Jordan loop is commutative with x^2(yx) = (x^2 y)x; a Steiner loop is
    # commutative with xx = e and x(xy) = y
    if law in (Law.JORDAN, Law.STEINER) and detail == "commutativity fails":
        x, y = witness
        return t[x][y] != t[y][x]
    if law is Law.JORDAN and detail == "square law fails":
        x, y = witness
        return t[t[x][x]][t[y][x]] != t[t[t[x][x]][y]][x]
    if law is Law.STEINER and detail == "not involutory":
        (x,) = witness
        return t[x][x] != 0
    if law is Law.STEINER and detail == "x(xy) = y fails":
        x, y = witness
        return t[x][t[x][y]] != y
    raise ValueError(f"no clause of {law} reads {detail!r}")


def test_commutative_and_wip_reference_points():
    assert check_law(build_ln(5, 3), Law.COMMUTATIVE).holds
    assert check_law(build_ln(7, 3), Law.WIP).holds
    assert not check_law(build_ln(5, 2), Law.WIP).holds


def test_bol_fails_with_reusable_witness():
    L = build_ln(5, 2)
    verdict = check_law(L, Law.BOL)
    assert not verdict.holds
    assert violates(L, Law.BOL, verdict.witness)


def test_groups_satisfy_moufang_laws():
    for G in (cyclic_group(5), symmetric_group(3)):
        for law in (Law.MOUFANG1, Law.MOUFANG2, Law.MOUFANG3, Law.BOL, Law.IP):
            assert check_law(G, law).holds, law
    # the inverse condition of the Bruck law needs commuting inverses
    assert check_law(cyclic_group(5), Law.BRUCK).holds
    assert not check_law(symmetric_group(3), Law.BRUCK).holds


def test_false_witnesses_reproduce_violations(corpus):
    """Every failing witness of every law replays, cold (a fresh loop per law)
    and warm (one loop whose census and laws have filled its memo); three
    commutative random loops reach Jordan's square law, so every clause of
    every law is replayed somewhere."""
    rng = random.Random(1958)
    randoms = [(f"commutative{n}", random_loop(rng, n, commutative=True)) for n in (5, 6, 7)]
    clauses = set()
    for name, L in list(corpus.items()) + randoms:
        warm = dataclasses.replace(L)
        all_subloops(warm)
        for law in Law:
            cold = check_law(dataclasses.replace(L), law)
            assert check_law(warm, law) == cold, (name, law)
            if not cold.holds:
                assert violates(L, law, cold.witness, cold.detail), (name, law)
                clauses.add((law, cold.detail))
    assert {law for law, _ in clauses} == set(Law)
    assert len(clauses) == len(Law) + 6  # Bruck and Steiner have 3 clauses, IP and Jordan 2


def test_associative_law_agrees_with_subgroup_check(corpus):
    from loupe import certify_subloop, is_subgroup

    for name, L in corpus.items():
        whole = certify_subloop(L, range(L.size))
        assert check_law(L, Law.ASSOCIATIVE).holds == is_subgroup(L, whole), name


def test_strict_forms():
    assert check_strict(build_ln(5, 2), StrictForm.STRICT_NON_COMMUTATIVE).holds
    assert check_strict(build_ln(5, 4), StrictForm.STRICT_NON_RIGHT_ALT).holds
    assert check_strict(build_ln(5, 2), StrictForm.STRICT_NON_LEFT_ALT).holds
    assert not check_strict(build_ln(5, 3), StrictForm.STRICT_NON_COMMUTATIVE).holds
    # the right-alternative member cannot be strictly non-right-alternative
    assert not check_strict(build_ln(5, 2), StrictForm.STRICT_NON_ALTERNATIVE).holds
    assert check_strict(build_ln(5, 4), StrictForm.STRICT_NON_RIGHT_ALT).holds
    assert check_law(build_ln(5, 4), Law.LEFT_ALTERNATIVE).holds


def test_power_associativity(noncomm5):
    for n, m in ((5, 2), (7, 3), (9, 5)):
        assert is_power_associative(build_ln(n, m)).holds
    assert not is_diassociative(build_ln(5, 2)).holds
    assert is_power_associative(cyclic_group(6)).holds
    assert is_diassociative(symmetric_group(3)).holds
    assert not is_power_associative(noncomm5).holds


def test_diassociativity_decides_each_distinct_subloop_once(chein_s3):
    # a Moufang loop that is not a group runs the pair scan: its 78 pairs with
    # x <= y generate 23 distinct subloops, each decided once, beside the
    # whole-loop verdict of Light's test
    L = dataclasses.replace(chein_s3)
    assert is_diassociative(L).holds
    assert len(L._memo["subgroup"]) == 24
    # a group is decided by Light's test alone, and no pair is closed
    assert is_diassociative(symmetric_group(5)).holds
    G = direct_product(symmetric_group(4), cyclic_group(2))
    assert is_diassociative(G).holds
    assert list(G._memo["subgroup"]) == [tuple(range(G.size))]


def test_diassociativity_holds_unscanned_in_a_known_group():
    G = direct_product(symmetric_group(4), cyclic_group(2))
    assert associativity_failure(G) is None
    assert is_diassociative(G).holds
    assert list(G._memo["subgroup"]) == [tuple(range(G.size))]  # no pair closed


def test_power_associative_orders_unambiguous(corpus):
    from loupe import element_order

    for name, L in corpus.items():
        if is_power_associative(L).holds:
            assert all(element_order(L, x) is not None for x in range(L.size)), name


def test_moufang_implies_diassociative_on_corpus(corpus):
    for name, L in corpus.items():
        if all(check_law(L, law).holds for law in (Law.MOUFANG1, Law.MOUFANG2, Law.MOUFANG3)):
            assert is_diassociative(L).holds, name
        if is_diassociative(L).holds:
            assert is_power_associative(L).holds, name


def test_jordan_on_commutative_family_members():
    for n in (5, 7, 9):
        m = (n + 1) // 2
        assert check_law(build_ln(n, m), Law.JORDAN).holds
    assert not check_law(build_ln(5, 2), Law.JORDAN).holds


def test_steiner_implies_commutative_involutory(corpus, klein):
    assert check_law(klein, Law.STEINER).holds
    for name, L in corpus.items():
        verdict = check_law(L, Law.STEINER)
        if verdict.holds:
            assert check_law(L, Law.COMMUTATIVE).holds
            assert all(L.table[x][x] == 0 for x in range(L.size)), name


def test_semi_right_commutative_table():
    L = build_ln(5, 3)  # commutative order-6 member
    assert special_commutativity(L, SpecialKind.SEMI_RIGHT_COMMUTATIVE).holds
    strong = special_commutativity(L, SpecialKind.STRONGLY_SEMI_RIGHT_COMMUTATIVE)
    assert not strong.holds
    assert strong.witness == (1, 2, 3)


def test_strongly_src_implies_commutative(corpus):
    for name, L in corpus.items():
        if L.size > 8:
            continue
        if special_commutativity(L, SpecialKind.STRONGLY_SEMI_RIGHT_COMMUTATIVE).holds:
            assert check_law(L, Law.COMMUTATIVE).holds, name


def test_commutative_loops_are_semi_right_commutative(corpus):
    for name, L in corpus.items():
        if L.size <= 8 and check_law(L, Law.COMMUTATIVE).holds:
            assert special_commutativity(L, SpecialKind.SEMI_RIGHT_COMMUTATIVE).holds, name


def test_simple_and_hamiltonian():
    assert special_commutativity(build_ln(15, 8), SpecialKind.SIMPLE).holds
    assert special_commutativity(build_ln(5, 2), SpecialKind.SIMPLE).holds
    assert special_commutativity(cyclic_group(4), SpecialKind.HAMILTONIAN).holds
    assert not special_commutativity(build_ln(5, 2), SpecialKind.HAMILTONIAN).holds


def test_inner_commutative():
    L = build_ln(5, 2)
    assert special_commutativity(L, SpecialKind.INNER_COMMUTATIVE).holds
    # its proper subloops are the order-2 cyclic groups
    assert not special_commutativity(L, SpecialKind.STRICTLY_INNER_COMMUTATIVE).holds
    assert not special_commutativity(build_ln(5, 3), SpecialKind.INNER_COMMUTATIVE).holds


def test_ca_loop():
    assert special_commutativity(cyclic_group(5), SpecialKind.CA_LOOP).holds
    assert special_commutativity(cyclic_group(5), SpecialKind.CA_LOOP).witness == (0,)
    assert not special_commutativity(build_ln(5, 2), SpecialKind.CA_LOOP).holds


def test_pseudo_commutative_variants():
    z6 = cyclic_group(6)
    for variant in ("ax.b=bx.a", "ax.b=b.xa", "a.xb=bx.a", "a.xb=b.xa"):
        assert special_commutativity(
            z6, SpecialKind.PSEUDO_COMMUTATIVE, pseudo_variant=variant
        ).holds
    assert special_commutativity(z6, SpecialKind.STRONGLY_PSEUDO_COMMUTATIVE).holds
    with pytest.raises(ValueError):
        special_commutativity(z6, SpecialKind.PSEUDO_COMMUTATIVE, pseudo_variant="zzz")


def test_pseudo_associative_on_groups():
    assert special_commutativity(cyclic_group(4), SpecialKind.PSEUDO_ASSOCIATIVE).holds
    assert special_commutativity(
        cyclic_group(4), SpecialKind.STRONGLY_PSEUDO_ASSOCIATIVE
    ).holds
    assert not special_commutativity(
        symmetric_group(3), SpecialKind.PSEUDO_ASSOCIATIVE
    ).holds


def test_multiplication_group_sizes():
    z5 = cyclic_group(5)
    assert len(multiplication_group(z5)) == 5
    assert inner_mapping_group(z5) == [tuple(range(5))]
    # regression value for the order-6 family member: the closure is all of S_6
    mlt = multiplication_group(build_ln(5, 2))
    assert len(mlt) == 720
    inner = inner_mapping_group(build_ln(5, 2))
    assert len(inner) == 120


def test_multiplication_group_cap():
    from loupe.errors import CapExceeded

    with pytest.raises(CapExceeded):
        multiplication_group(build_ln(5, 2), cap=100)


def test_a_loop_checks():
    assert is_a_loop(cyclic_group(6)).holds
    assert is_a_loop(cyclic_group(5)).holds
    with pytest.raises(NotIPLoop) as err:
        is_arif(build_ln(5, 2))
    x, y = err.value.witness
    L = build_ln(5, 2)
    inv = [L.ldiv(v, 0) for v in range(6)]
    assert L.table[inv[x]][L.table[x][y]] != y or L.table[L.table[y][x]][inv[x]] != y
    assert is_arif(klein_group()).holds


def klein_group():
    from loupe import direct_product

    return direct_product(cyclic_group(2), cyclic_group(2))


def test_up_tup_checks():
    z2 = cyclic_group(2)
    verdict = up_tup_check(z2, "up", 2)
    assert not verdict.holds
    assert verdict.witness == ((0, 1), (0, 1))
    trivial = cyclic_group(1)
    assert up_tup_check(trivial, "up", 1).holds
    # any loop with an involution fails: both products of {e,x} x {e,x} repeat
    for L in (build_ln(5, 2), cyclic_group(4)):
        assert not up_tup_check(L, "up").holds
        assert not up_tup_check(L, "tup").holds
