"""Principal isotopes, the G-loop decision, and subloop-level isotopes."""

import dataclasses
import random
from collections import Counter

import pytest

from loupe import (
    build_ln,
    certify_subloop,
    cyclic_group,
    direct_product,
    symmetric_group,
    validate_loop,
)
from loupe.coloring import enumerate_involutory_right_alt
from loupe.core import is_associative
from loupe.errors import BadIndex, CapExceeded
from loupe.identities import Law, StrictForm, check_law, check_strict
from loupe import isotopes
from loupe.isotopes import is_g_loop, is_s_g_loop, principal_isotope, s_principal_isotope

from oracles import is_g_loop_by_backtrack, is_g_loop_by_isotopes, random_loop

# (4, e)-isotope of the commutative order-6 member, written over the original
# element order (identity sits at the original element 4)
ISOTOPE_53_4E = [
    [4, 5, 3, 1, 0, 2],
    [3, 2, 5, 0, 1, 4],
    [5, 3, 1, 4, 2, 0],
    [2, 4, 0, 5, 3, 1],
    [0, 1, 2, 3, 4, 5],
    [1, 0, 4, 2, 5, 3],
]


def original_layout(iso, source):
    """Undo the identity relocation: express the isotope over source labels."""
    perm = [source.labels.index(lab) for lab in iso.labels]
    inv = [perm.index(x) for x in range(len(perm))]
    size = iso.size
    return [
        [perm[iso.table[inv[x]][inv[y]]] for y in range(size)] for x in range(size)
    ]


def test_reference_isotope_table():
    L = build_ln(5, 3)
    iso = principal_isotope(L, 4, 0)
    assert iso.labels[0] == "4"
    assert original_layout(iso, L) == ISOTOPE_53_4E
    assert check_strict(iso, StrictForm.STRICT_NON_COMMUTATIVE).holds
    assert check_law(L, Law.COMMUTATIVE).holds  # the source was commutative


def test_identity_isotope_is_original():
    for n, m in ((5, 2), (7, 3)):
        L = build_ln(n, m)
        assert principal_isotope(L, 0, 0).table == L.table


def test_isotopes_are_certified_loops_with_identity_ba(corpus):
    for name in ("L5(2)", "L5(3)", "noncomm5", "Z6", "S3"):
        L = corpus[name]
        for a in range(L.size):
            for b in range(L.size):
                iso = principal_isotope(L, a, b)
                assert iso.size == L.size
                assert iso.labels[0] == L.labels[L.table[b][a]], (name, a, b)
                validate_loop(iso.table)


def test_bad_pair_rejected():
    with pytest.raises(BadIndex):
        principal_isotope(build_ln(5, 2), 9, 0)


def test_g_loop_decision():
    assert is_g_loop(cyclic_group(4)).holds
    assert is_g_loop(symmetric_group(3)).holds
    assert is_g_loop(cyclic_group(1)).holds
    verdict = is_g_loop(build_ln(5, 2))
    assert not verdict.holds
    assert verdict.witness is not None


def _product(*factors):
    L = factors[0]
    for M in factors[1:]:
        L = direct_product(L, M)
    return L


@pytest.mark.parametrize("name", ["C3xS3", "C2_4", "L5_2xC2_2"])
def test_g_loop_agrees_with_backtracking_oracle(name):
    C2, C3, S3 = cyclic_group(2), cyclic_group(3), symmetric_group(3)
    L = {
        "C3xS3": _product(C3, S3),
        "C2_4": _product(C2, C2, C2, C2),
        "L5_2xC2_2": _product(build_ln(5, 2), C2, C2),
    }[name]
    expected = is_g_loop_by_backtrack(L)
    assert expected.holds == (name != "L5_2xC2_2")
    for _ in range(2):  # the second round reads the memo
        assert is_g_loop(L) == expected


def test_non_associative_moufang_loop_is_a_g_loop(chein_s3):
    L = dataclasses.replace(chein_s3)
    assert not is_associative(L)
    assert all(check_law(L, law).holds for law in (Law.MOUFANG1, Law.MOUFANG2, Law.MOUFANG3))
    expected = is_g_loop_by_backtrack(L)
    assert expected.holds
    assert is_g_loop(dataclasses.replace(chein_s3)) == expected


# A non-associative, non-Moufang loop of order 6 that is still a G-loop (found by
# random search): no theory shortcut applies, so is_g_loop decides it by testing
# its 2n - 1 = 11 isotopes (e, b) and (a, e).
G_LOOP_6_TABLE = [
    [0, 1, 2, 3, 4, 5],
    [1, 3, 5, 2, 0, 4],
    [2, 0, 3, 4, 5, 1],
    [3, 4, 1, 5, 2, 0],
    [4, 5, 0, 1, 3, 2],
    [5, 2, 4, 0, 1, 3],
]


def test_g_loop_outside_theory_agrees_with_oracles():
    L = validate_loop(G_LOOP_6_TABLE)
    assert not is_associative(L) and not check_law(L, Law.MOUFANG1).holds
    expected = is_g_loop_by_backtrack(L)
    assert expected.holds
    assert is_g_loop(validate_loop(G_LOOP_6_TABLE)) == expected == is_g_loop_by_isotopes(L)


def test_g_loop_builds_only_the_one_sided_isotopes(monkeypatch):
    built = []
    monkeypatch.setattr(
        isotopes, "principal_isotope",
        lambda L, a, b: built.append((a, b)) or principal_isotope(L, a, b),
    )
    assert is_g_loop(validate_loop(G_LOOP_6_TABLE)).holds
    assert len(built) == 11
    assert built == [(0, b) for b in range(6)] + [(a, 0) for a in range(1, 6)]


def test_g_loop_agrees_with_backtracking_oracle_on_random_loops():
    """Every isotope pair is searched by the oracle.  Random loops first fail at an
    (e, b)-isotope; the involutory right-alternative loops of order 6 at (1, e)."""
    rng = random.Random(7)
    loops = [random_loop(rng, n) for n in range(5, 8) for _ in range(20)]
    loops += [random_loop(rng, n, commutative=True) for n in range(5, 8) for _ in range(10)]
    loops += enumerate_involutory_right_alt(6)
    kinds = Counter()
    for L in loops:
        expected = is_g_loop_by_backtrack(L)
        assert is_g_loop(L) == expected, L.table
        kinds["g-loop" if expected else "(e, b)" if expected.witness[0] == 0 else "(a, e)"] += 1
    assert len(kinds) == 3, kinds


def test_g_loop_cap_comes_before_theory():
    with pytest.raises(CapExceeded):
        is_g_loop(symmetric_group(4), cap=575)
    assert is_g_loop(symmetric_group(4), cap=576).holds


def test_family_members_are_not_g_loops():
    for n, m in ((5, 3), (5, 4), (7, 2)):
        assert not is_g_loop(build_ln(n, m)).holds, (n, m)


def test_s_principal_isotope():
    L = build_ln(15, 2)
    H = certify_subloop(L, [0, 1, 4, 7, 10, 13])
    iso = s_principal_isotope(L, H, 1, 0)
    assert iso.size == 6
    with pytest.raises(BadIndex):
        s_principal_isotope(L, H, 2, 0)


def test_no_family_member_is_s_g_loop():
    for n, m in ((5, 2), (7, 3), (15, 2), (15, 8)):
        assert not is_s_g_loop(build_ln(n, m)).holds, (n, m)


def test_diagonal_isotope_of_commutative_subloop_is_commutative():
    from loupe.core import is_commutative_subset, subloop_as_loop
    from loupe.smarandache import s_substructures

    L = build_ln(15, 8)  # the commutative member of its class
    for A in s_substructures(L).s_subloops:
        sub = subloop_as_loop(L, A)
        if not is_commutative_subset(L, A.elements):
            continue
        for a in range(sub.size):
            iso = principal_isotope(sub, a, a)
            assert check_law(iso, Law.COMMUTATIVE).holds


def test_diagonal_isotope_of_noncommutative_subloop_stays_noncommutative():
    from loupe.core import subloop_as_loop
    from loupe.smarandache import s_substructures

    L = build_ln(15, 2)
    A = s_substructures(L).s_subloops[0]
    sub = subloop_as_loop(L, A)
    assert not check_law(sub, Law.COMMUTATIVE).holds
    for a in range(sub.size):
        assert not check_law(principal_isotope(sub, a, a), Law.COMMUTATIVE).holds
