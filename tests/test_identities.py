"""Quantified identities, strict forms, multiplication groups and u.p. scans."""

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

ALL_LAWS = list(Law)


def violates(L, law, witness, detail=""):
    """Re-evaluate a witness through the table; it must break the law as stated."""
    t = L.table
    if law is Law.COMMUTATIVE:
        x, y = witness
        return t[x][y] != t[y][x]
    if law is Law.BOL:
        x, y, z = witness
        return t[t[t[x][y]][z]][y] != t[x][t[t[y][z]][y]]
    if law is Law.MOUFANG1:
        x, y, z = witness
        return t[t[x][y]][t[z][x]] != t[t[x][t[y][z]]][x]
    if law is Law.WIP:
        x, y, z = witness
        return t[t[x][y]][z] == 0 and t[x][t[y][z]] != 0
    if law is Law.RIGHT_ALTERNATIVE:
        x, y = witness
        return t[t[x][y]][y] != t[x][t[y][y]]
    if law is Law.LEFT_ALTERNATIVE:
        x, y = witness
        return t[t[x][x]][y] != t[x][t[x][y]]
    raise NotImplementedError(law)


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
    for name, L in corpus.items():
        for law in (Law.COMMUTATIVE, Law.BOL, Law.MOUFANG1, Law.WIP,
                    Law.RIGHT_ALTERNATIVE, Law.LEFT_ALTERNATIVE):
            verdict = check_law(L, law)
            if not verdict.holds:
                assert violates(L, law, verdict.witness), (name, law)


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


def test_diassociativity_decides_each_distinct_subloop_once():
    # S_5 has 7,260 pairs but 156 distinct 2-generated subloops
    assert is_diassociative(symmetric_group(5)).holds
    G = direct_product(symmetric_group(4), cyclic_group(2))
    assert is_diassociative(G).holds
    assert len(G._memo["subgroup"]) == 91


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
