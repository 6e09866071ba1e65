"""Census completeness, nuclei, centres, derived subloops and normalizers."""

import dataclasses
import random

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
from loupe import core, substructures
from loupe.errors import CapExceeded
from loupe.config import DEFAULT_CAPS, Caps
from loupe.identities import is_power_associative
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

from conftest import family_params
from oracles import (
    census_by_extension,
    census_by_full_closure,
    frattini_literal,
    is_associative_by_triples,
    random_loop,
    random_products,
    strongly_pseudo_commutator_gens_by_triples,
)


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
    """The one associativity scan of a group's census is Light's test of the whole
    loop; no ordered scan runs, and every subgroup flag follows from that verdict."""
    s3 = symmetric_group(3)
    groups = {
        "S4": symmetric_group(4),
        "C2^4": direct_product(klein, klein),
        "S3xS3": direct_product(s3, s3),
        "C2^2xS3": direct_product(klein, s3),
    }
    decisions, scans = [], []
    light, scan = core._light_associative, core._associativity_failure
    monkeypatch.setattr(core, "_light_associative", lambda L: decisions.append(L.size) or light(L))
    monkeypatch.setattr(core, "_associativity_failure", lambda t, e: scans.append(e) or scan(t, e))
    named = list(groups.items()) + [
        (name, L) for name, L in corpus.items() if is_associative_by_triples(L, L.elements())
    ]
    assert len(named) == 12
    for name, G in named:
        G = dataclasses.replace(G)
        decisions.clear()
        census = all_subloops(G)
        assert (decisions, scans) == ([G.size], []), name
        assert census.subgroup_flags == tuple(
            is_associative_by_triples(G, S.elements) for S in census.subloops
        ), name
        assert all(census.subgroup_flags), name


def _census_cold_and_warm(G, caps=DEFAULT_CAPS):
    """``all_subloops`` on a fresh copy of G and on a copy whose memo already holds
    the verdict, closures and flags, each checked against the full-closure census."""
    expected = census_by_full_closure(dataclasses.replace(G), caps)
    assert all_subloops(dataclasses.replace(G), caps) == expected
    warm = dataclasses.replace(G)
    census_by_full_closure(warm, caps)
    assert all_subloops(warm, caps) == expected
    return expected


def test_group_census_by_coset_search_matches_full_closure(klein):
    s3 = symmetric_group(3)
    groups = [
        ("S3", s3),
        ("S4", symmetric_group(4)),
        ("C2^4", direct_product(klein, klein)),
        ("S3xS3", direct_product(s3, s3)),
        ("C2^2xS3", direct_product(klein, s3)),
        ("C3xS3", direct_product(cyclic_group(3), s3)),
        ("S4xC2", direct_product(symmetric_group(4), cyclic_group(2))),
    ]
    groups += [
        (f"random_products[{i}]", L)
        for i, L in enumerate(random_products())
        if is_associative_by_triples(L, L.elements())
    ]
    assert len(groups) == 16
    for name, G in groups:
        expected = _census_cold_and_warm(G)
        assert all(expected.subgroup_flags), name
        assert census_by_extension(dataclasses.replace(G)) == expected, name


def test_s5_census_by_coset_search_matches_full_closure():
    S5 = symmetric_group(5)
    census = _census_cold_and_warm(S5, Caps(census_order=150))
    assert (len(census.subloops), sum(census.normal_flags)) == (156, 3)
    # the census cap trips at the same subloop, with the same message, on both paths
    messages = []
    for run in (all_subloops, census_by_full_closure):
        with pytest.raises(CapExceeded) as caught:
            run(dataclasses.replace(S5), Caps(census_order=150, census=100))
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    assert "(101 > 100)" in messages[0]


def _census_outcome(run, L, caps):
    try:
        return run(L, caps)
    except CapExceeded as exc:
        return str(exc)


def test_pair_memo_census_matches_both_oracles(corpus, klein):
    """The pair memo skips extensions known to give L and pairs <x, b> already
    formed; cold and warm, the census and every census cap still match the
    memo-free full-closure census and the unpruned extension census."""
    l52 = build_ln(5, 2)
    loops = [(f"L{n}({m})", build_ln(n, m)) for n, m in family_params(21)]
    loops += [("L5(2)xS3", direct_product(l52, symmetric_group(3)))]
    loops += [("L5(2)xC2^2", direct_product(l52, klein))]
    loops += [(name, L) for name, L in corpus.items() if not is_power_associative(L).holds]
    loops += [(f"random_products[{i}]", L) for i, L in enumerate(random_products())]
    assert len(loops) == 94 and "noncomm5" in dict(loops)
    for name, L in loops:
        expected = _census_cold_and_warm(L)
        assert census_by_extension(dataclasses.replace(L)) == expected, name
        count = len(expected.subloops)
        for cap in sorted({1, 2, 3, count - 1, count} - {0}):
            caps = Caps(census=cap)
            want = _census_outcome(census_by_full_closure, dataclasses.replace(L), caps)
            if count > cap:
                assert want == f"census size exceeded cap ({cap + 1} > {cap})", (name, cap)
            warm = dataclasses.replace(L)
            census_by_full_closure(warm)
            for G in (dataclasses.replace(L), warm):
                assert _census_outcome(all_subloops, G, caps) == want, (name, cap)


@pytest.mark.parametrize("n, m, bound", [(59, 2, 494), (45, 8, 551)])
def test_pair_memo_bounds_the_extension_closures(monkeypatch, n, m, bound):
    # without the memo these censuses close 1,770 and 1,827 extensions; testing
    # only g of each coset gS against the memo, not all of gS, leaves 1,335 and 1,014.
    # Either skip alone brings L_59(2) to 494, but L_45(8) needs both: it closes
    # 902 without the skip of pairs already found and 1,031 without the spanning one
    calls = []
    close = substructures._close
    monkeypatch.setattr(substructures, "_close", lambda *args: calls.append(1) or close(*args))
    census = all_subloops(build_ln(n, m))
    assert census == census_by_full_closure(build_ln(n, m))
    assert len(calls) <= bound


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


def test_strongly_pseudo_commutator_subloop_matches_the_triple_scan(l52xs3):
    rng = random.Random(19)
    loops = [random_loop(rng, n, commutative) for n in range(1, 9) for commutative in (False, True)
             for _ in range(4)]
    for L in loops + [build_ln(15, 8), l52xs3]:
        expected = core.generated_subloop(L, strongly_pseudo_commutator_gens_by_triples(L))
        assert derived_subloop(L, DerivedKind.STRONGLY_PSEUDO_COMMUTATOR) == expected, L
    assert derived_subloop(build_ln(15, 8), DerivedKind.STRONGLY_PSEUDO_COMMUTATOR).order == 1
    assert derived_subloop(l52xs3, DerivedKind.STRONGLY_PSEUDO_COMMUTATOR).order == 18


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
