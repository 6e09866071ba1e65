"""The division layer and the table-driven law engine against the scans and
hand-written branches they replace: division tables, every law and strict
form, special triples and principal isotopes, cold and from the memo."""

import dataclasses
import random
from itertools import product

import pytest

from loupe import build_ln, cyclic_group, direct_product, symmetric_group
from loupe.core import (
    associator,
    commutator,
    division,
    left_divide,
    right_divide,
    two_sided_inverse,
)
from loupe.identities import _GROUP_LAWS, Law, StrictForm, check_law, check_strict
from loupe.isotopes import principal_isotope
from loupe.smarandache import TripleLaw, special_triple
from loupe.substructures import all_subloops

from oracles import (
    associator_by_scan,
    check_law_by_branches,
    check_strict_by_branches,
    ldiv_by_scan,
    principal_isotope_by_validation,
    random_loop,
    rdiv_by_scan,
    special_triple_by_formulas,
    two_sided_inverse_by_scan,
)

DIVIDING = {Law.BRUCK, Law.WIP, Law.SEMI_ALTERNATIVE, Law.IP}
DETAILS = {
    (Law.STEINER, "not involutory"),
    (Law.STEINER, "commutativity fails"),
    (Law.STEINER, "x(xy) = y fails"),
    (Law.JORDAN, "commutativity fails"),
    (Law.JORDAN, "square law fails"),
    (Law.BRUCK, "no two-sided inverse"),
    (Law.BRUCK, "(xy)^-1 = x^-1 y^-1 fails"),
    (Law.BRUCK, "x(yx)z = x(y(xz)) fails"),
    (Law.IP, "no two-sided inverse"),
}


def _random_loops():
    """Random loops of order 1-9, some not IP; the commutative and involutory ones
    reach every detail branch of Steiner, Jordan and Bruck."""
    rng = random.Random(2000)
    loops = [(f"random{i}", random_loop(rng, 1 + i % 9)) for i in range(18)]
    # a symmetric square of odd order 9 can take the backtracking filler seconds
    loops += [(f"commutative{i}", random_loop(rng, 1 + i % 8, commutative=True)) for i in range(16)]
    for i in range(8):
        n = 2 + 2 * (i % 4)  # a symmetric square with e on the diagonal needs even order
        loops.append((f"involutory{i}", random_loop(rng, n, involutory=True)))
        loops.append((f"steiner{i}", random_loop(rng, n, commutative=True, involutory=True)))
    return loops


@pytest.fixture(scope="module")
def loops(corpus):
    return list(corpus.items()) + _random_loops()


def test_random_loops_reach_every_detail_branch():
    verdicts = [(L, law, check_law(L, law)) for _, L in _random_loops() for law in Law]
    assert {(law, v.detail) for _, law, v in verdicts if v.detail} == DETAILS
    # some first counterexample fails both checks of the Jordan or Steiner pair pass,
    # so the order of the checks decides its detail
    both = {
        Law.JORDAN: lambda t, a, b: t[t[a][a]][t[b][a]] != t[t[t[a][a]][b]][a],
        Law.STEINER: lambda t, x, y: t[x][t[x][y]] != y,
    }
    for law, second_fails in both.items():
        assert any(
            v.detail == "commutativity fails" and second_fails(L.table, *v.witness)
            for L, law_, v in verdicts
            if law_ is law
        ), law


def test_division_agrees_with_scans(loops):
    for name, L in loops:
        fresh = dataclasses.replace(L)
        for _ in range(2):  # the second round reads the memo
            ld, rd = division(fresh)
            for a, b in product(range(L.size), repeat=2):
                assert ld[a][b] == fresh.ldiv(a, b) == left_divide(fresh, a, b), (name, a, b)
                assert rd[a][b] == fresh.rdiv(a, b) == right_divide(fresh, a, b), (name, a, b)
                assert ld[a][b] == ldiv_by_scan(L, a, b), (name, a, b)
                assert rd[a][b] == rdiv_by_scan(L, a, b), (name, a, b)
            for x in range(L.size):
                assert two_sided_inverse(fresh, x) == two_sided_inverse_by_scan(L, x), (name, x)
            for x, y, z in product(range(L.size), repeat=3):
                assert associator(fresh, x, y, z) == associator_by_scan(L, x, y, z), name
            for x, y in product(range(L.size), repeat=2):
                w = commutator(fresh, x, y)
                assert L.table[L.table[y][x]][w] == L.table[x][y], (name, x, y)
        assert division(fresh) is fresh._memo["div"]


def test_division_beyond_a_byte():
    L = direct_product(symmetric_group(3), cyclic_group(50))  # order 300: rows are not bytes
    ld, rd = division(L)
    t = L.table
    for a, b in product(range(L.size), repeat=2):
        assert t[a][ld[a][b]] == b and t[rd[a][b]][a] == b, (a, b)


def test_laws_and_strict_forms_agree_with_branches(loops):
    for name, L in loops:
        expected = {law: check_law_by_branches(L, law) for law in Law}
        strict = {form: check_strict_by_branches(L, form) for form in StrictForm}
        fresh = dataclasses.replace(L)
        for _ in range(2):  # the second round reads the memo
            for law in Law:
                assert check_law(fresh, law) == expected[law], (name, law)
            for form in StrictForm:
                assert check_strict(fresh, form) == strict[form], (name, form)


def _group_loops():
    """The products of the group-report benchmark workload, and S_4."""
    C2, C3, S3, S4 = cyclic_group(2), cyclic_group(3), symmetric_group(3), symmetric_group(4)
    factors = {
        "S4xC2": (S4, C2),
        "S4": (S4,),
        "S3xS3": (S3, S3),
        "C2_4": (C2, C2, C2, C2),
        "C2_2xS3": (C2, C2, S3),
        "C3xS3": (C3, S3),
        "L5_2xS3": (build_ln(5, 2), S3),
        "L5_2xC2_2": (build_ln(5, 2), C2, C2),
    }
    loops = []
    for name, (L, *rest) in factors.items():
        for M in rest:
            L = direct_product(L, M)
        loops.append((name, L))
    return loops


def test_group_laws_read_the_associativity_memo(corpus, chein_s3):
    loops = list(corpus.items()) + [("chein_s3", chein_s3)] + _group_loops()
    for name, L in loops:
        expected = {law: check_law_by_branches(L, law) for law in Law}
        group = expected[Law.ASSOCIATIVE].holds
        for law in Law:  # each law scanned on a copy with an empty memo
            assert check_law(dataclasses.replace(L), law) == expected[law], (name, law)
        # the census, or the associative law itself, records the verdict of the whole loop
        for warm in (all_subloops, lambda M: check_law(M, Law.ASSOCIATIVE)):
            fresh = dataclasses.replace(L)
            warm(fresh)
            for law in Law:
                assert check_law(fresh, law) == expected[law], (name, law)
            assert fresh._memo["subgroup"][tuple(range(fresh.size))] == group, name
        if group:
            assert all(expected[law].holds for law in _GROUP_LAWS), name


def test_special_triples_agree_with_formulas(loops):
    rng = random.Random(1958)
    for name, L in loops:
        triples = list(product(range(L.size), repeat=3))
        if len(triples) > 300:
            triples = rng.sample(triples, 300)
        for (x, y, z), law, strong in product(triples, TripleLaw, (False, True)):
            assert special_triple(L, x, y, z, law, strong) == special_triple_by_formulas(
                L, x, y, z, law, strong
            ), (name, x, y, z, law, strong)


def test_principal_isotopes_agree_with_validation(loops):
    for name, L in loops:
        pairs = list(product(range(L.size), repeat=2))
        expected = [principal_isotope_by_validation(L, a, b) for a, b in pairs]
        fresh = dataclasses.replace(L)
        for _ in range(2):  # the second round reads the memo
            for (a, b), iso in zip(pairs, expected):
                assert principal_isotope(fresh, a, b) == iso, (name, a, b)


def test_product_only_laws_leave_division_unbuilt(loops):
    for name, L in loops:
        fresh = dataclasses.replace(L)
        for law in Law:
            if law not in DIVIDING:
                check_law(fresh, law)
        for form in StrictForm:
            check_strict(fresh, form)
        for law, strong in product(TripleLaw, (False, True)):
            special_triple(fresh, 0, 0, 0, law, strong)
        assert "div" not in fresh._memo, name
        for law in DIVIDING:
            cold = dataclasses.replace(L)
            check_law(cold, law)
            assert "div" in cold._memo, (name, law)
