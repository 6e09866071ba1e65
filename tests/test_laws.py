"""The division layer and the table-driven law engine against the scans and
hand-written branches they replace: division tables, every law, strict form,
special property and S-law row, special triples and principal isotopes, cold
and from the memo."""

import dataclasses
import random
from itertools import product

import pytest

from loupe import build_ln, core, cyclic_group, direct_product, symmetric_group
from loupe.core import (
    associator,
    certify_subloop,
    commutator,
    division,
    is_associative,
    left_divide,
    right_divide,
    subloop_as_loop,
    two_sided_inverse,
)
from loupe.identities import (
    _GROUP_LAWS,
    PSEUDO_COMMUTATIVE_VARIANTS,
    Law,
    SpecialKind,
    StrictForm,
    Verdict,
    check_law,
    check_strict,
    special_commutativity,
)
from loupe.isotopes import principal_isotope
from loupe.smarandache import (
    RelativeKind,
    SLaw,
    SMode,
    TripleLaw,
    _s_subloop_satisfies,
    relative_substructure,
    s_law_check,
    s_substructures,
    special_triple,
)
from loupe.substructures import DerivedKind, all_subloops, derived_subloop

from oracles import (
    associator_by_scan,
    census_by_extension,
    check_law_by_branches,
    check_strict_by_branches,
    has_associative_triple_by_scan,
    ldiv_by_scan,
    principal_isotope_by_validation,
    pseudo_associators_by_scan,
    random_loop,
    rdiv_by_scan,
    special_commutativity_by_branches,
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


def test_associativity_scan_has_one_owner(corpus, monkeypatch):
    """check_law and is_associative share core.associativity_failure: each decides
    a fresh loop with one scan and reads the verdict the other recorded."""
    scans = []
    scan = core._associativity_failure
    monkeypatch.setattr(core, "_associativity_failure", lambda t, e: scans.append(e) or scan(t, e))
    for name, L in list(corpus.items()) + _group_loops():
        expected = check_law_by_branches(L, Law.ASSOCIATIVE)
        fresh = dataclasses.replace(L)
        assert check_law(fresh, Law.ASSOCIATIVE) == expected, name
        assert is_associative(fresh) == expected.holds, name
        if expected.holds:
            assert all(check_law(fresh, law).holds for law in _GROUP_LAWS), name
        assert len(scans) == 1, name
        scans.clear()
        fresh = dataclasses.replace(L)
        assert is_associative(fresh) == expected.holds, name
        assert check_law(fresh, Law.ASSOCIATIVE) == expected, name
        # a failing verdict scans again for its first counterexample
        assert len(scans) == (1 if expected.holds else 2), name
        scans.clear()


def test_pseudo_associators_agree_with_scan(corpus):
    # a domain holding e admits every candidate through the triple (e, e, e),
    # so both pseudo-associator subloops are A relative to A and L otherwise
    for name, L in corpus.items():
        if L.size > 16:
            continue
        whole = certify_subloop(L, range(L.size))
        for kind in (DerivedKind.PSEUDO_ASSOCIATOR, DerivedKind.STRONGLY_PSEUDO_ASSOCIATOR):
            assert derived_subloop(L, kind) == whole, (name, kind)
        for A in census_by_extension(L).subloops:
            for candidates, must in product((A.elements, range(L.size)), (False, True)):
                assert pseudo_associators_by_scan(L, A.elements, candidates, must) == (
                    set(candidates)), (name, A, must)
            assert relative_substructure(L, A, RelativeKind.PSEUDO_ASSOCIATOR) == A, (name, A)
            assert relative_substructure(
                L, A, RelativeKind.STRONGLY_PSEUDO_ASSOCIATOR) == whole, (name, A)


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


DEFAULT = PSEUDO_COMMUTATIVE_VARIANTS[0]
# every special kind, with each reading of the pseudo-commutative law
SPECIAL_CASES = [
    (kind, variant)
    for kind in SpecialKind
    for variant in (PSEUDO_COMMUTATIVE_VARIANTS if kind is SpecialKind.PSEUDO_COMMUTATIVE
                    else (DEFAULT,))
]


def _special_loops():
    """Random loops of order 1-8, four commutative and four not of each order."""
    rng = random.Random(1996)
    return [
        (f"random{i}", random_loop(rng, 1 + (i // 2) % 8, commutative=bool(i % 2)))
        for i in range(64)
    ]


def _breaks(t, kind, variant, w) -> bool:
    """Replay a failing witness through the formula the oracle states for its kind."""
    if kind is SpecialKind.STRONGLY_SEMI_RIGHT_COMMUTATIVE:
        def clause(p, q, r):
            pq, qp = t[p][q], t[q][p]
            return pq == t[r][qp] or pq == t[t[r][q]][p]

        x, y, z = w
        return len(set(w)) == 3 and not (clause(x, y, z) or clause(y, z, x) or clause(z, x, y))
    if kind is SpecialKind.PSEUDO_COMMUTATIVE:
        a, b, x = w
        lhs = t[t[a][x]][b] if variant.startswith("ax.b") else t[a][t[x][b]]
        rhs = t[t[b][x]][a] if variant.endswith("bx.a") else t[b][t[x][a]]
        return t[a][b] == t[b][a] and lhs != rhs
    if kind is SpecialKind.STRONGLY_PSEUDO_COMMUTATIVE:
        a, b, x = w
        return a != b and not {t[t[a][x]][b], t[a][t[x][b]]} & {t[t[b][x]][a], t[b][t[x][a]]}
    a, b, c, x = w
    associates = t[t[a][b]][c] == t[a][t[b][c]]
    return ((associates or kind is SpecialKind.STRONGLY_PSEUDO_ASSOCIATIVE)
            and t[t[a][b]][t[x][c]] != t[t[a][x]][t[b][c]])


_UNIVERSAL = {
    SpecialKind.STRONGLY_SEMI_RIGHT_COMMUTATIVE, SpecialKind.PSEUDO_COMMUTATIVE,
    SpecialKind.STRONGLY_PSEUDO_COMMUTATIVE, SpecialKind.PSEUDO_ASSOCIATIVE,
    SpecialKind.STRONGLY_PSEUDO_ASSOCIATIVE,
}
_LEFT_ALT = lambda t, x, y: t[t[x][x]][y] == t[x][t[x][y]]
_RIGHT_ALT = lambda t, x, y: t[t[x][y]][y] == t[x][t[y][y]]
# the binary law a strict form forbids, keyed by the form and its failure's detail
_FORBIDDEN = {
    (StrictForm.STRICT_NON_COMMUTATIVE, ""): lambda t, x, y: t[x][y] == t[y][x],
    (StrictForm.STRICT_NON_LEFT_ALT, ""): _LEFT_ALT,
    (StrictForm.STRICT_NON_RIGHT_ALT, ""): _RIGHT_ALT,
    (StrictForm.STRICT_NON_ALTERNATIVE, "left alternative law holds somewhere"): _LEFT_ALT,
    (StrictForm.STRICT_NON_ALTERNATIVE, "right alternative law holds somewhere"): _RIGHT_ALT,
}


def _s_law_by_scan(L, mode):
    """``s_law_check`` of the associative-triple S-law, each S-subloop decided by the oracle."""
    subloops = s_substructures(L).s_subloops
    if not subloops:
        if mode is SMode.EXISTS:
            return Verdict(False, None, "no S-subloops")
        return Verdict(True, None, "no S-subloops (vacuous)")
    for A in subloops:
        if has_associative_triple_by_scan(subloop_as_loop(L, A)) == (mode is SMode.EXISTS):
            return Verdict(mode is SMode.EXISTS, A.elements)
    return Verdict(mode is not SMode.EXISTS)


def test_special_properties_strict_forms_and_s_law_agree_with_branches(corpus):
    verdicts = []
    for name, L in list(corpus.items()) + _special_loops():
        expected = {
            (kind, variant): special_commutativity_by_branches(L, kind, variant)
            for kind, variant in SPECIAL_CASES
        }
        strict = {form: check_strict_by_branches(L, form) for form in StrictForm}
        census = census_by_extension(L).subloops  # the whole loop is its last member
        triples = [has_associative_triple_by_scan(subloop_as_loop(L, A)) for A in census]
        s_laws = {mode: _s_law_by_scan(L, mode) for mode in SMode}
        fresh = dataclasses.replace(L)
        for warm in (False, True):  # an empty memo, then one holding the census and flags
            if warm:
                all_subloops(fresh)
            for (kind, variant), verdict in expected.items():
                got = special_commutativity(fresh, kind, pseudo_variant=variant)
                assert got == verdict, (name, kind, variant, warm)
            for form in StrictForm:
                assert check_strict(fresh, form) == strict[form], (name, form, warm)
            got = [_s_subloop_satisfies(fresh, A, SLaw.ASSOCIATIVE_TRIPLE) for A in census]
            assert got == triples, (name, warm)
            for mode in SMode:
                got = s_law_check(fresh, SLaw.ASSOCIATIVE_TRIPLE, mode)
                assert got == s_laws[mode], (name, mode, warm)
        verdicts.append((L, expected, strict, triples[-1]))

    failed = set()
    for L, expected, strict, _ in verdicts:
        t = L.table
        for (kind, variant), verdict in expected.items():
            if kind in _UNIVERSAL and not verdict.holds:
                failed.add((kind, variant))
                assert _breaks(t, kind, variant, verdict.witness), (kind, variant, verdict)
        for form, verdict in strict.items():
            if not verdict.holds:
                x, y = verdict.witness
                assert x != y and 0 not in (x, y), (form, verdict)
                assert _FORBIDDEN[form, verdict.detail](t, x, y), (form, verdict)
    # every universal kind and reading fails somewhere and holds somewhere, as
    # does the CA-loop
    universal = {case for case in SPECIAL_CASES if case[0] in _UNIVERSAL}
    assert failed == universal
    holds = {case for _, expected, _, _ in verdicts for case, v in expected.items() if v.holds}
    assert universal | {(SpecialKind.CA_LOOP, DEFAULT)} <= holds
    assert any(not e[SpecialKind.CA_LOOP, DEFAULT].holds for _, e, _, _ in verdicts)
    # semi-right commutativity never fails: c = (ab)/(ba) solves ab = c(ba)
    assert all(e[SpecialKind.SEMI_RIGHT_COMMUTATIVE, DEFAULT].holds for _, e, _, _ in verdicts)
    # the associative-triple S-law holds on some whole loops and fails on others
    assert {whole for *_, whole in verdicts} == {False, True}
