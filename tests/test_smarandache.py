"""Subgroup-bearing structure: S-flags, relative substructures, cosets, hyperloops."""

import random
from itertools import count, islice

import pytest

from loupe import (
    Caps,
    FiniteLoop,
    LnParams,
    build_ln,
    certify_subloop,
    cyclic_group,
    direct_product,
    enumerate_ln_params,
    h_subloop,
    symmetric_group,
)
from loupe.core import factorize
from loupe.errors import (
    BadIndex,
    HasSSubloops,
    NotASubgroup,
    NotNormal,
    NotPrime,
    QNotInSubloop,
    SearchCapExceeded,
)
from loupe.identities import Law, Verdict
from loupe.representation import s_pseudo_representation
from loupe.smarandache import (
    RelativeKind,
    SLaw,
    SMode,
    TripleLaw,
    a_hyperloop,
    coset_cover_search,
    hyper_partition_check,
    hyperloop,
    is_normal_subgroup,
    is_s_cauchy_loop,
    is_s_loop,
    is_s_subloop,
    left_coset,
    relative_substructure,
    right_coset,
    s_classical_report,
    s_homomorphism_check,
    s_law_check,
    s_p_sylow,
    s_substructures,
    satisfies_sylow_criteria,
    special_triple,
)
from loupe.substructures import all_subloops

from oracles import (
    centre_by_scan,
    commutant_by_scan,
    hyper_partition_check_by_scan,
    hyperloop_by_pairs,
    is_s_loop_by_filter,
    is_s_subloop_by_filter,
    moufang_centre_by_scan,
    nucleus_by_scan,
    random_loop,
    random_products,
    relative_substructure_by_scan,
    s_classical_report_by_filter,
    s_p_sylow_by_filter,
    s_pseudo_representation_by_filter,
    s_substructures_by_filter,
)


def test_is_s_loop(cloop12, corpus):
    for n, m in ((5, 2), (7, 3), (9, 5)):
        verdict = is_s_loop(build_ln(n, m))
        assert verdict.holds and verdict.witness == (0, 1)
    assert is_s_loop(cloop12).holds
    assert certify_subloop(cloop12, [0, 1, 2])  # the advertised group is present
    assert not is_s_loop(corpus["trivial"]).holds
    # prime-order groups have no proper subgroup of size two or more
    assert not is_s_loop(cyclic_group(5)).holds
    assert is_s_loop(cyclic_group(6)).holds


def test_s_loop_monotone_under_group_factors(corpus):
    for name in ("L5(2)", "L7(3)", "Z6"):
        L = corpus[name]
        for G in (cyclic_group(3), symmetric_group(3)):
            assert is_s_loop(direct_product(L, G)).holds, name


def test_power_associative_implies_s_loop(corpus):
    from loupe.identities import is_diassociative, is_power_associative

    for name, L in corpus.items():
        if L.size == 1:
            continue
        # single-generated groups of prime order have no proper nontrivial
        # subgroup, so they are the one legitimate exception
        if name in ("Z2", "Z3", "Z5"):
            continue
        if is_power_associative(L).holds:
            assert is_s_loop(L).holds, name
            assert s_classical_report(L).flags["s_commutative"], name
        if is_diassociative(L).holds:
            assert is_s_loop(L).holds, name


def test_s_substructures():
    L152 = build_ln(15, 2)
    st = s_substructures(L152)
    assert (0, 1, 4, 7, 10, 13) in {S.elements for S in st.s_subloops}
    for S in st.s_subloops:
        assert is_s_subloop(L152, S)
    st52 = s_substructures(build_ln(5, 2))
    assert st52.s_subloops == ()
    assert st52.s_subgroup_loop
    for n, m in ((5, 2), (7, 3), (15, 8)):
        assert s_substructures(build_ln(n, m)).s_simple, (n, m)


def test_s_normal_subloops_in_mixed_product(l52xs3):
    st = s_substructures(l52xs3)
    assert not st.s_simple
    sets = {S.elements for S in st.s_normal_subloops}
    assert tuple(a * 6 for a in range(6)) in sets  # the loop factor x identity


def test_s_cauchy():
    assert is_s_cauchy_loop(build_ln(11, 3)).holds
    assert is_s_cauchy_loop(build_ln(5, 2)).holds
    report = s_classical_report(build_ln(11, 3))
    assert report.flags["s_cauchy"]


def test_lagrange_flags():
    report458 = s_classical_report(build_ln(45, 8))
    assert not report458.flags["s_lagrange"]
    assert report458.witnesses["s_lagrange"] == (0, 1, 16, 31)
    assert report458.flags["s_weakly_lagrange"]
    report152 = s_classical_report(build_ln(15, 2))
    assert report152.flags["s_weakly_lagrange"]
    assert not report152.flags["s_pseudo_lagrange"]
    assert report152.witnesses["s_pseudo_lagrange"] == (0, 1, 4, 7, 10, 13)
    for n in (5, 7, 11, 13):
        for m in enumerate_ln_params(n):
            report = s_classical_report(build_ln(n, m))
            assert report.flags["s_lagrange"], (n, m)
            assert report.flags["s_lagrange_criteria"], (n, m)


def test_sylow_flags(l52xs3):
    assert satisfies_sylow_criteria(build_ln(7, 2)).holds
    assert satisfies_sylow_criteria(build_ln(15, 8)).holds
    assert not satisfies_sylow_criteria(build_ln(11, 2)).holds
    assert not satisfies_sylow_criteria(build_ln(5, 2)).holds
    assert satisfies_sylow_criteria(l52xs3).holds
    report = s_classical_report(l52xs3)
    assert report.flags["s_sylow_criteria"]
    assert not s_classical_report(build_ln(5, 2)).flags["s_sylow_criteria"]


def test_sylow_criteria_for_mersenne_like_orders():
    for n in (7, 15):  # loop orders 8 and 16
        for m in enumerate_ln_params(n):
            assert satisfies_sylow_criteria(build_ln(n, m)).holds, (n, m)


def test_sylow_criteria_for_full_symmetric_factor():
    prod = direct_product(build_ln(5, 2), symmetric_group(6))
    assert prod.size == 4320
    assert satisfies_sylow_criteria(prod).holds


def test_s_loop_ii(l52xs3):
    assert not s_classical_report(build_ln(5, 2)).flags["s_loop_ii"]
    report = s_classical_report(l52xs3)
    assert report.flags["s_loop_ii"]
    rotations = certify_subloop(l52xs3, [0, 3, 4])  # {e} x (rotation subgroup)
    assert is_normal_subgroup(l52xs3, rotations)
    assert report.flags["s_loop_ii"] and is_s_loop(l52xs3).holds  # level II implies level I


def test_mixed_products_are_s_loop_ii(corpus):
    for name in ("L5(2)", "L5(3)", "L7(3)"):
        prod = direct_product(corpus[name], symmetric_group(3))
        assert s_classical_report(prod).flags["s_loop_ii"], name


def test_level_ii_criteria(l52xs3):
    report = s_classical_report(l52xs3)
    assert report.flags["s_lagrange_criteria_ii"]
    # an order-2 normal subgroup would need a central involution; there is none
    assert not report.flags["s_sylow_criteria_ii"]
    prime_report = s_classical_report(build_ln(5, 2))
    assert not prime_report.flags["s_lagrange_criteria_ii"]
    assert not prime_report.flags["s_sylow_criteria_ii"]


def test_commutative_and_cyclic_flags(l52xs3):
    report73 = s_classical_report(build_ln(7, 3))
    assert report73.flags["s_commutative"]
    assert report73.flags["s_strongly_commutative"]
    assert report73.flags["s_cyclic"]
    assert report73.flags["s_strongly_cyclic"]
    product_report = s_classical_report(l52xs3)
    assert product_report.flags["s_commutative"]
    assert not product_report.flags["s_strongly_commutative"]  # a subgroup is the full S3
    # every strictly non-commutative member of the two smallest prime classes
    from loupe.identities import StrictForm, check_strict

    for n in (5, 7):
        for m in enumerate_ln_params(n):
            L = build_ln(n, m)
            if not check_strict(L, StrictForm.STRICT_NON_COMMUTATIVE).holds:
                continue
            report = s_classical_report(L)
            assert report.flags["s_strongly_commutative"], (n, m)
            assert report.flags["s_strongly_cyclic"], (n, m)


def test_s_p_sylow():
    report = s_p_sylow(build_ln(7, 2), 2)
    assert report.s_strong_p_sylow
    report11 = s_p_sylow(build_ln(11, 2), 3)
    assert report11.s_p_sylow_subloops == ()
    assert report11.s_p_sylow_subgroup_pairs == ()
    with pytest.raises(NotPrime):
        s_p_sylow(build_ln(5, 2), 5)
    with pytest.raises(NotPrime):
        s_p_sylow(build_ln(5, 2), 4)
    # order-4 subgroups inside order-16 S-subloops witness the subgroup form
    report452 = s_p_sylow(build_ln(45, 8), 2)
    assert report452.s_p_sylow_subgroup_pairs


def test_relative_substructures():
    L458 = build_ln(45, 8)
    A = certify_subloop(L458, [0, 1, 16, 31])
    relative = relative_substructure(L458, A, RelativeKind.ASSOCIATOR)
    assert relative.elements == (0, 1, 16, 31)
    from loupe.substructures import DerivedKind, derived_subloop

    absolute = derived_subloop(L458, DerivedKind.ASSOCIATOR)
    assert absolute.order == 46  # proper relative associator differs from absolute
    # prime n: no S-subloops, so relative notions with A = L match the absolute ones
    for n, m in ((5, 2), (7, 2)):
        L = build_ln(n, m)
        whole = certify_subloop(L, range(L.size))
        assert relative_substructure(L, whole, RelativeKind.COMMUTATOR).order == L.size
        assert relative_substructure(L, whole, RelativeKind.NUCLEUS).elements == (0,)
        sc = relative_substructure(L, whole, RelativeKind.CENTRE)
        assert sc.elements == (0,)


def test_relative_normalizers_match_plain_ones():
    from loupe.substructures import first_normalizer, second_normalizer

    L = build_ln(15, 2)
    H = h_subloop(LnParams(15, 2), 1, 3)
    assert relative_substructure(L, H, RelativeKind.FIRST_NORMALIZER) == first_normalizer(L, H)
    assert relative_substructure(L, H, RelativeKind.SECOND_NORMALIZER) == second_normalizer(L, H)
    assert relative_substructure(L, H, RelativeKind.FIRST_NORMALIZER) == set(range(16))


def test_s_law_checks():
    for n in (5, 7):
        L = build_ln(n, 2)
        for law in (Law.BOL, Law.BRUCK, Law.MOUFANG1):
            assert not s_law_check(L, law, SMode.EXISTS).holds, (n, law)
    L215 = build_ln(21, 5)
    assert s_law_check(L215, Law.WIP, SMode.EXISTS).holds
    from loupe.identities import check_law

    assert check_law(L215, Law.WIP).holds  # the whole loop is WIP here
    for n, m in ((5, 2), (15, 2), (15, 8), (21, 5)):
        assert s_law_check(build_ln(n, m), SLaw.PAIRWISE_ASSOCIATIVE, SMode.FOR_ALL).holds


def test_s_associative_family():
    # prime members have no S-subloops at all, so no S-associative triples
    assert not s_law_check(build_ln(5, 2), SLaw.ASSOCIATIVE_TRIPLE, SMode.EXISTS).holds
    # the order-6 S-subloops here carry no associative triple of distinct
    # non-identity elements (their only subgroups have order 2)
    assert not s_law_check(build_ln(15, 2), SLaw.ASSOCIATIVE_TRIPLE, SMode.EXISTS).holds
    # an S-subloop containing a subgroup of order 4 always carries one
    assert s_law_check(build_ln(45, 8), SLaw.ASSOCIATIVE_TRIPLE, SMode.EXISTS).holds


def test_special_triples():
    L158 = build_ln(15, 8)
    assert special_triple(L158, 2, 4, 13, TripleLaw.BOL).holds
    assert not special_triple(L158, 13, 4, 2, TripleLaw.BOL).holds
    assert not special_triple(L158, 2, 4, 13, TripleLaw.BOL, strong=True).holds
    assert special_triple(L158, 0, 0, 0, TripleLaw.BOL).holds
    assert special_triple(L158, 0, 0, 0, TripleLaw.MOUFANG, strong=True).holds
    assert special_triple(L158, 0, 0, 0, TripleLaw.BRUCK).holds


def test_s_homomorphism():
    L53, L73 = build_ln(5, 3), build_ln(7, 3)
    A = certify_subloop(L53, [0, 4])
    A2 = certify_subloop(L73, [0, 7])
    assert s_homomorphism_check(L53, L73, A, A2, {0: 0, 4: 7}).holds
    trivial = certify_subloop(L53, [0])
    assert s_homomorphism_check(L53, L53, trivial, trivial, {0: 0}).holds
    B = certify_subloop(L53, [0, 1])
    collapse = s_homomorphism_check(L53, L53, B, B, {0: 0, 1: 0})
    assert not collapse.holds and collapse.detail == "not surjective onto the codomain subgroup"
    # swapping 1 and 2 in Z_4 first breaks the product at (1, 1): 1+1 = 2 maps to 1, not 2+2 = 0
    z4 = cyclic_group(4)
    whole = certify_subloop(z4, range(4))
    swap = s_homomorphism_check(z4, z4, whole, whole, {0: 0, 1: 2, 2: 1, 3: 3})
    assert swap == Verdict(False, (1, 1), "not multiplicative")
    with pytest.raises(NotASubgroup):
        H = certify_subloop(build_ln(15, 2), [0, 1, 4, 7, 10, 13])
        s_homomorphism_check(build_ln(15, 2), L53, H, A, {})


def test_level_ii_homomorphism_check_names_the_first_unnormal_element():
    # in S_3, {e, 1} has equal cosets at e and 1, then 2A = {2, 4} but A2 = {2, 3}
    L = symmetric_group(3)
    A = certify_subloop(L, [0, 1])
    assert s_homomorphism_check(L, L, A, A, {0: 0, 1: 1}).holds
    with pytest.raises(NotNormal) as info:
        s_homomorphism_check(L, L, A, A, {0: 0, 1: 1}, level_ii=True)
    assert info.value.witness == (1, 2, None)
    assert left_coset(L, A, 2) != right_coset(L, A, 2)
    rotations = certify_subloop(L, [0, 3, 4])
    assert s_homomorphism_check(L, L, rotations, rotations, {0: 0, 3: 3, 4: 4}, level_ii=True).holds


def test_cosets_of_reference_loop():
    L = build_ln(5, 2)
    A = certify_subloop(L, [0, 1])
    assert right_coset(L, A, 2) == {2, 3}
    assert left_coset(L, A, 2) == {2, 5}
    rights = {m: right_coset(L, A, m) for m in range(1, 6)}
    assert rights == {1: {0, 1}, 2: {2, 3}, 3: {3, 5}, 4: {4, 2}, 5: {5, 4}}
    lefts = {m: left_coset(L, A, m) for m in range(1, 6)}
    assert lefts == {1: {0, 1}, 2: {5, 2}, 3: {3, 4}, 4: {4, 3}, 5: {5, 2}}
    # left cosets partition, right cosets do not
    assert sorted(map(sorted, set(map(frozenset, lefts.values())))) == [
        [0, 1], [2, 5], [3, 4]
    ]
    assert any(
        a & b and a != b
        for a in map(frozenset, rights.values())
        for b in map(frozenset, rights.values())
    )
    assert right_coset(L, A, 0) == {0, 1}
    L98 = build_ln(9, 8)
    assert right_coset(L98, certify_subloop(L98, [0, 7]), 1) == {1, 4}
    # a representative outside L is rejected, not wrapped round to the last element
    for coset, m in ((right_coset, -1), (left_coset, -1), (right_coset, 6), (left_coset, 6)):
        with pytest.raises(BadIndex):
            coset(L, A, m)


def test_cosets_of_commutative_order8_member():
    # commutative member: left and right cosets agree but still overlap
    L = build_ln(7, 4)
    A = certify_subloop(L, [0, 5])
    rights = {m: right_coset(L, A, m) for m in range(1, 8)}
    assert rights == {
        1: {1, 3}, 2: {2, 7}, 3: {3, 4}, 4: {4, 1}, 5: {5, 0}, 6: {6, 2}, 7: {7, 6}
    }
    assert all(right_coset(L, A, m) == left_coset(L, A, m) for m in range(8))
    B = certify_subloop(L, [0, 4])
    assert {m: right_coset(L, B, m) for m in (1, 2, 3, 5, 6, 7)} == {
        1: {1, 6}, 2: {2, 3}, 3: {3, 7}, 5: {5, 1}, 6: {6, 5}, 7: {7, 2}
    }
    assert coset_cover_search(L, A, "right") == []


def test_coset_equivalent_sets_of_order16_member():
    # two disjoint representative families cover the loop for the same subgroup
    L = build_ln(15, 14)
    A = certify_subloop(L, [0, 4])
    assert right_coset(L, A, 1) == {1, 7}
    assert right_coset(L, A, 8) == {8, 15}
    assert left_coset(L, A, 1) == {1, 13}
    assert left_coset(L, A, 2) == {2, 15}
    covers = coset_cover_search(L, A, "right")
    assert covers == [(0, 1, 2, 3, 8, 9, 10, 11)]
    blocks = [right_coset(L, A, m) for m in covers[0]]
    assert sorted(x for b in blocks for x in b) == list(range(16))
    # a disjoint second representative family names the same partition:
    # the canonical search reports each partition once
    alternative = [right_coset(L, A, m) for m in (4, 5, 6, 7, 12, 13, 14, 15)]
    assert {frozenset(b) for b in alternative} == {frozenset(b) for b in blocks}


def test_coset_cover_search():
    L = build_ln(5, 2)
    A = certify_subloop(L, [0, 1])
    covers = coset_cover_search(L, A, "right")
    assert (0, 2, 5) in covers and (0, 3, 4) in covers
    blocks = [right_coset(L, A, m) for m in (0, 2, 5)]
    assert blocks == [{0, 1}, {2, 3}, {4, 5}]
    # groups always admit the classical partition
    z6 = cyclic_group(6)
    sub = certify_subloop(z6, [0, 3])
    assert coset_cover_search(z6, sub, "right")
    # order-4 subgroup of the order-10 member: cosets overlap, no exact cover
    L98 = build_ln(9, 8)
    B = certify_subloop(L98, [0, 1, 4, 7])
    assert coset_cover_search(L98, B, "right") == []


def test_coset_cover_search_cap_is_exact():
    # exactly two covers: a cap of two returns both, a cap of one trips on the second
    L = build_ln(7, 3)
    A = certify_subloop(L, [0, 2])
    assert coset_cover_search(L, A, "right", Caps(search=2)) == [(0, 1, 5, 7), (0, 3, 4, 6)]
    with pytest.raises(SearchCapExceeded, match=r"\(2 > 1\)"):
        coset_cover_search(L, A, "right", Caps(search=1))


def test_hyperloops_of_left_alternative_member():
    L = build_ln(5, 4)
    assert hyperloop(L, 5) == {(0, 5), (1, 2), (2, 4), (3, 1), (4, 3), (5, 0)}
    assert hyperloop(L, 0) == {(z, z) for z in range(6)}
    assert len(a_hyperloop(L, 5)) == 18
    assert hyper_partition_check(L, "hyperloop").holds
    assert not hyper_partition_check(L, "a_hyperloop").holds
    assert hyper_partition_check(cyclic_group(1), "hyperloop").holds
    within = certify_subloop(L, [0, 1])
    with pytest.raises(QNotInSubloop):
        hyperloop(L, 3, within=within)
    assert hyperloop(L, 1, within=within)


def test_hyperloop_families_partition_for_corpus(corpus):
    for name, L in corpus.items():
        if L.size > 20:
            continue
        assert hyper_partition_check(L, "hyperloop").holds, name


def test_hyperloop_agrees_with_pairs(corpus):
    rng = random.Random(1999)
    randoms = [random_loop(rng, 1 + i % 8, commutative=bool(i % 2)) for i in range(32)]
    for L in list(corpus.values()) + randoms:
        for q in range(L.size):
            assert hyperloop(L, q) == hyperloop_by_pairs(L, q), (L.size, q)


def test_hyper_partition_check_agrees_with_scan(corpus):
    rng = random.Random(2003)
    randoms = [random_loop(rng, 1 + i % 8, commutative=bool(i % 2)) for i in range(32)]
    a_verdicts = set()
    for L in list(corpus.values()) + randoms:
        for variant in ("hyperloop", "a_hyperloop"):
            expected = hyper_partition_check_by_scan(L, variant)
            assert hyper_partition_check(L, variant) == expected, (L.size, variant)
            if variant == "a_hyperloop":
                a_verdicts.add(expected.holds)
    # groups tile under the A-variant too, and some loop does not
    assert a_verdicts == {True, False}
    with pytest.raises(ValueError):
        hyper_partition_check(cyclic_group(2), "hyper")


def test_hyperloop_rejects_q_out_of_range():
    L = build_ln(5, 4)
    for maker in (hyperloop, a_hyperloop):
        for q in (L.size, -1):
            with pytest.raises(BadIndex):
                maker(L, q)
        # a q outside the supplied subloop is reported as such, in range or not
        with pytest.raises(QNotInSubloop):
            maker(L, L.size, within=certify_subloop(L, [0, 1]))


def test_a_hyperloop_families_do_not_partition():
    for n, m in ((5, 2), (5, 4), (7, 4)):
        assert not hyper_partition_check(build_ln(n, m), "a_hyperloop").holds


def _differential_loops():
    """Groups and every L_n(m) with n <= 9."""
    from loupe import enumerate_ln_params

    klein = direct_product(cyclic_group(2), cyclic_group(2))
    groups = [cyclic_group(1), cyclic_group(2), cyclic_group(6), klein, symmetric_group(3),
              direct_product(symmetric_group(3), cyclic_group(2)), symmetric_group(4)]
    family = [build_ln(n, m) for n in (5, 7, 9) for m in enumerate_ln_params(n)]
    return groups + family


def test_relative_substructures_of_whole_loop_match_absolute_ones():
    from loupe.substructures import (
        DerivedKind,
        NucleusPosition,
        centre,
        derived_subloop,
        moufang_centre,
        nucleus,
    )

    for L in _differential_loops():
        whole = certify_subloop(L, range(L.size))
        pairs = [
            (RelativeKind.NUCLEUS_LEFT, nucleus(L, NucleusPosition.LEFT)),
            (RelativeKind.NUCLEUS_MIDDLE, nucleus(L, NucleusPosition.MIDDLE)),
            (RelativeKind.NUCLEUS_RIGHT, nucleus(L, NucleusPosition.RIGHT)),
            (RelativeKind.NUCLEUS, nucleus(L)),
            (RelativeKind.MOUFANG_CENTRE, moufang_centre(L)),
            (RelativeKind.CENTRE, centre(L)),
            (RelativeKind.COMMUTATOR, derived_subloop(L, DerivedKind.COMMUTATOR)),
            (RelativeKind.ASSOCIATOR, derived_subloop(L, DerivedKind.ASSOCIATOR)),
            (RelativeKind.PSEUDO_ASSOCIATOR, derived_subloop(L, DerivedKind.PSEUDO_ASSOCIATOR)),
        ]
        for kind, absolute in pairs:
            assert relative_substructure(L, whole, kind) == absolute, (L.size, kind)


def test_relative_and_classical_substructures_match_scan_oracles(corpus, chein_s3):
    from loupe.substructures import (
        NucleusPosition,
        centre,
        commutant,
        commutant_is_closed,
        moufang_centre,
        nucleus,
    )

    rng = random.Random(19)
    loops = list(corpus.values()) + random_products() + [
        chein_s3, direct_product(chein_s3, cyclic_group(2))
    ]
    loops += [random_loop(rng, n, commutative) for n in range(1, 9) for commutative in (False, True)
              for _ in range(3)]
    # about one random loop of order 6 in 30 has one-sided nuclei that differ,
    # which tells the three slots apart
    sided = (NucleusPosition.LEFT, NucleusPosition.MIDDLE, NucleusPosition.RIGHT)
    order_6 = (random_loop(rng, 6) for _ in count())
    loops += islice((L for L in order_6 if len({nucleus_by_scan(L, range(6), p) for p in sided}) > 1), 6)
    assert nucleus(cyclic_group(1)).elements == (0,)
    for L in loops:
        whole = range(L.size)
        for position in NucleusPosition:
            assert nucleus(L, position) == nucleus_by_scan(L, whole, position), (L, position)
        c = commutant_by_scan(L, whole)
        assert commutant(L) == c, L
        assert commutant_is_closed(L) == all(L.table[x][y] in c for x in c for y in c), L
        assert moufang_centre(L) == moufang_centre_by_scan(L, whole), L
        assert centre(L) == centre_by_scan(L, whole), L
        for A in all_subloops(L).subloops:
            for kind in RelativeKind:
                expected = relative_substructure_by_scan(L, A, kind)
                assert relative_substructure(L, A, kind) == expected, (L, A, kind)


def test_is_normal_subgroup_is_normality_condition_one():
    from loupe.core import normality_witness
    from loupe.substructures import all_subloops

    for L in _differential_loops():
        for S in all_subloops(L).subloops:
            witness = normality_witness(L, S)
            condition_one = witness is None or witness[0] != 1
            assert is_normal_subgroup(L, S) == condition_one, (L.size, S.elements)


def test_is_cyclic_group():
    from loupe.core import is_cyclic_group

    def whole(L):
        return certify_subloop(L, range(L.size))

    assert is_cyclic_group(cyclic_group(1), whole(cyclic_group(1)))
    assert is_cyclic_group(cyclic_group(6), whole(cyclic_group(6)))
    assert not is_cyclic_group(symmetric_group(3), whole(symmetric_group(3)))
    klein = direct_product(cyclic_group(2), cyclic_group(2))
    assert not is_cyclic_group(klein, whole(klein))
    # a loop that is not a group is never a cyclic group
    L = build_ln(5, 2)
    assert not is_cyclic_group(L, whole(L))


# the order in which the CLI prints the report's flags
FLAG_NAMES = (
    "s_simple",
    "s_subgroup_loop",
    "s_cauchy",
    "s_lagrange",
    "s_weakly_lagrange",
    "s_pseudo_lagrange",
    "s_weakly_pseudo_lagrange",
    "s_lagrange_criteria",
    "s_sylow_criteria",
    "s_commutative",
    "s_strongly_commutative",
    "s_cyclic",
    "s_strongly_cyclic",
    "s_loop_ii",
    "s_lagrange_criteria_ii",
    "s_sylow_criteria_ii",
)


def test_report_sets_every_flag_in_printed_order(corpus):
    for name, L in corpus.items():
        flags = s_classical_report(L).flags
        assert tuple(flags) == FLAG_NAMES, name
        assert all(type(value) is bool for value in flags.values()), name


def _pseudo_representation(function, L):
    try:
        return function(L)
    except HasSSubloops:
        return HasSSubloops


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_s_layer_agrees_with_filter_oracles(corpus, warm):
    """Cold runs each function on a copy of the loop with an empty memo; warm runs
    it on the loop itself after ``all_subloops``.  The oracles get their own copy."""
    met = {"s_subloops": 0, "s_normal": 0, "pseudo": 0}
    for where, L in [*corpus.items(), *enumerate(random_products())]:
        if warm:
            all_subloops(L)

        def subject() -> FiniteLoop:
            return L if warm else FiniteLoop(size=L.size, table=L.table, labels=L.labels)

        R = FiniteLoop(size=L.size, table=L.table, labels=L.labels)
        assert is_s_loop(subject()) == is_s_loop_by_filter(R), where
        for S in all_subloops(R).subloops:
            assert is_s_subloop(subject(), S) == is_s_subloop_by_filter(R, S), (where, S)
        structures = s_substructures(subject())
        assert structures == s_substructures_by_filter(R), where
        report, expected = s_classical_report(subject()), s_classical_report_by_filter(R)
        assert report == expected, where
        assert list(report.flags) == list(expected.flags), where
        assert list(report.witnesses) == list(expected.witnesses), where
        for p, _ in factorize(L.size):
            assert s_p_sylow(subject(), p) == s_p_sylow_by_filter(R, p), (where, p)
        pseudo = _pseudo_representation(s_pseudo_representation, subject())
        assert pseudo == _pseudo_representation(s_pseudo_representation_by_filter, R), where
        met["s_subloops"] += bool(structures.s_subloops)
        met["s_normal"] += bool(structures.s_normal_subloops)
        met["pseudo"] += pseudo is not HasSSubloops and bool(pseudo)
    assert all(met.values()), met
