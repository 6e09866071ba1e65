"""Census completeness, nuclei, centres, derived subloops and normalizers."""

import dataclasses

import pytest

from loupe import (
    LnParams,
    all_h_subloops,
    build_ln,
    certify_subloop,
    cyclic_group,
    direct_product,
    symmetric_group,
)
from loupe import core
from loupe.errors import CapExceeded
from loupe.config import Caps
from loupe.substructures import (
    DerivedKind,
    NucleusPosition,
    SeriesKind,
    all_subloops,
    centre,
    commutant,
    commutant_is_closed,
    derived_series_target,
    derived_subloop,
    first_normalizer,
    frattini_subloop,
    is_normal_subloop,
    moufang_centre,
    nucleus,
    second_normalizer,
)

from oracles import frattini_literal, is_associative_by_triples


def test_census_of_reference_loops():
    census = all_subloops(build_ln(5, 2))
    assert len(census.subloops) == 7
    assert [s.elements for s in census.subloops[:6]] == [
        (0,), (0, 1), (0, 2), (0, 3), (0, 4), (0, 5)
    ]
    census158 = all_subloops(build_ln(15, 8))
    assert len(census158.subloops) == 25
    assert sum(census158.subgroup_flags) == 21  # trivial + 15 of order 2 + 5 of order 4
    orders = sorted(S.order for S in census158.subgroups())
    assert orders == [1] + [2] * 15 + [4] * 5
    assert all_subloops(cyclic_group(1)).subloops[0].elements == (0,)


def test_census_respects_caps():
    with pytest.raises(CapExceeded):
        all_subloops(build_ln(5, 2), Caps(census_order=4))
    with pytest.raises(CapExceeded):
        all_subloops(build_ln(15, 2), Caps(census=3))


def test_census_matches_h_subloop_family():
    for n, m in ((9, 5), (15, 2), (25, 7)):
        L = build_ln(n, m)
        census = {S.elements for S in all_subloops(L).subloops}
        expected = {(0,), tuple(range(L.size))}
        for subs in all_h_subloops(LnParams(n, m)).values():
            expected.update(S.elements for S in subs)
        assert census == expected, (n, m)


def test_flags_reverify():
    from loupe import is_subgroup
    from loupe.core import normality_witness

    L = build_ln(15, 8)
    census = all_subloops(L)
    for S, grp, nrm in zip(census.subloops, census.subgroup_flags, census.normal_flags):
        assert grp == is_subgroup(L, S)
        assert nrm == (normality_witness(L, S) is None)


def test_group_census_flags_follow_from_one_associativity_scan(corpus, klein, monkeypatch):
    s3 = symmetric_group(3)
    groups = {
        "S4": symmetric_group(4),
        "C2^4": direct_product(klein, klein),
        "S3xS3": direct_product(s3, s3),
        "C2^2xS3": direct_product(klein, s3),
    }
    scan = core._associativity_failure
    calls = []

    def counted(t, elems):
        calls.append(len(elems))
        return scan(t, elems)

    monkeypatch.setattr(core, "_associativity_failure", counted)
    named = list(groups.items()) + [
        (name, L) for name, L in corpus.items() if is_associative_by_triples(L, L.elements())
    ]
    assert len(named) == 12
    for name, G in named:
        G = dataclasses.replace(G)
        calls.clear()
        census = all_subloops(G)
        assert calls == [G.size], name
        assert census.subgroup_flags == tuple(
            is_associative_by_triples(G, S.elements) for S in census.subloops
        ), name
        assert all(census.subgroup_flags), name


def test_normality():
    L158 = build_ln(15, 8)
    for i in range(1, 4):
        H = certify_subloop(L158, sorted({0} | {(i + 3 * k - 1) % 15 + 1 for k in range(5)}))
        verdict = is_normal_subloop(L158, H)
        assert not verdict.holds
        assert verdict.witness is not None
    L = build_ln(5, 2)
    assert is_normal_subloop(L, certify_subloop(L, [0])).holds
    assert is_normal_subloop(L, certify_subloop(L, range(6))).holds
    prod = direct_product(L, symmetric_group(3))
    factor = certify_subloop(prod, range(6))  # {e} x S3
    assert is_normal_subloop(prod, factor).holds


def test_family_members_are_simple():
    for n in (5, 7, 9, 11, 13, 15):
        from loupe import enumerate_ln_params

        for m in enumerate_ln_params(n):
            census = all_subloops(build_ln(n, m))
            nontrivial_normal = [
                S
                for S, f in zip(census.subloops, census.normal_flags)
                if f and S.order > 1 and S.is_proper()
            ]
            assert nontrivial_normal == [], (n, m)


def test_nucleus_values():
    L = build_ln(5, 2)
    assert nucleus(L, NucleusPosition.FULL).elements == (0,)
    assert nucleus(L, NucleusPosition.LEFT).elements == (0,)
    z6 = cyclic_group(6)
    assert nucleus(z6, NucleusPosition.FULL).elements == tuple(range(6))
    for n, m in ((7, 3), (11, 2)):
        assert nucleus(build_ln(n, m), NucleusPosition.LEFT).elements == (0,), (n, m)


def test_moufang_centre_and_centre():
    L52 = build_ln(5, 2)
    assert moufang_centre(L52).elements == (0,)
    assert commutant(L52) == frozenset({0})
    assert commutant_is_closed(L52)
    commutative = build_ln(5, 3)
    assert moufang_centre(commutative).elements == tuple(range(6))
    for n, m in ((5, 2), (5, 3), (7, 4), (7, 2)):
        L = build_ln(n, m)
        c = moufang_centre(L)
        assert c.elements in ((0,), tuple(range(L.size))), (n, m)
        z = centre(L)
        assert set(z.elements) <= set(c.elements)
        assert set(z.elements) <= set(nucleus(L).elements)
        assert z.elements == (0,)


def test_derived_subloops():
    assert derived_subloop(build_ln(7, 3), DerivedKind.ASSOCIATOR).order == 8
    assert derived_subloop(build_ln(5, 2), DerivedKind.COMMUTATOR).order == 6
    assert derived_subloop(build_ln(5, 3), DerivedKind.COMMUTATOR).elements == (0,)
    z6 = cyclic_group(6)
    assert derived_subloop(z6, DerivedKind.ASSOCIATOR).elements == (0,)
    assert derived_subloop(z6, DerivedKind.PSEUDO_COMMUTATOR).elements == (0,)
    assert derived_subloop(z6, DerivedKind.STRONGLY_PSEUDO_COMMUTATOR).elements == (0,)
    # in an abelian group every insertion point satisfies (ab)(tc) = (at)(bc)
    assert derived_subloop(z6, DerivedKind.PSEUDO_ASSOCIATOR).order == 6
    # commutator subloop is trivial exactly on the commutative members
    for n, m in ((5, 2), (5, 3), (5, 4), (7, 4)):
        L = build_ln(n, m)
        derived = derived_subloop(L, DerivedKind.COMMUTATOR)
        from loupe.identities import Law, check_law

        assert (derived.elements == (0,)) == check_law(L, Law.COMMUTATIVE).holds


def test_frattini():
    assert frattini_subloop(cyclic_group(4)).elements == (0, 2)
    assert frattini_subloop(build_ln(5, 2)).elements == (0,)
    assert frattini_subloop(cyclic_group(1)).elements == (0,)
    for L in (cyclic_group(4), cyclic_group(6), build_ln(5, 2), cyclic_group(1)):
        assert frattini_subloop(L).elements == frattini_literal(L).elements


def test_derived_series_targets():
    z6 = cyclic_group(6)
    assert derived_series_target(z6, SeriesKind.CENTRALLY_DERIVED).elements == (0,)
    assert derived_series_target(z6, SeriesKind.NUCLEARLY_DERIVED).elements == (0,)
    L = build_ln(5, 2)
    assert derived_series_target(L, SeriesKind.CENTRALLY_DERIVED).order == 6
    s3 = symmetric_group(3)
    target = derived_series_target(s3, SeriesKind.CENTRALLY_DERIVED)
    assert target.order == 3  # the rotation subgroup
    assert derived_series_target(s3, SeriesKind.NUCLEARLY_DERIVED).elements == (0,)


def test_normalizers_contain_subloop_and_match_predictions():
    from loupe import h_subloop, predicted_normalizers

    for n, m in ((15, 2), (15, 8)):
        params = LnParams(n, m)
        L = build_ln(n, m)
        for t in (d for d in range(2, n + 1) if n % d == 0):
            for i in range(1, t + 1):
                H = h_subloop(params, i, t)
                fn = first_normalizer(L, H)
                assert H.as_set() <= fn
                p1, p2 = predicted_normalizers(params, i, t)
                if t < n:
                    assert fn == p1.as_set(), (n, m, i, t)
                    assert second_normalizer(L, H) == p2.as_set(), (n, m, i, t)


def test_second_normalizer_bracketing_immaterial_on_flexible_loops():
    for n, m in ((15, 2), (15, 8), (9, 5)):
        L = build_ln(n, m)
        params = LnParams(n, m)
        for subs in all_h_subloops(params).values():
            for H in subs:
                assert second_normalizer(L, H, "left") == second_normalizer(L, H, "right")


def test_normalizers_of_trivial_subloop():
    L = build_ln(5, 2)
    triv = certify_subloop(L, [0])
    assert first_normalizer(L, triv) == set(range(6))
    assert second_normalizer(L, triv) == set(range(6))
