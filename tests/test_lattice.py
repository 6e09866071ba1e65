"""Inclusion lattices: axioms, modularity, forbidden sublattices, DOT export."""

import random

import pytest

from loupe import Caps, build_ln, cyclic_group, direct_product, symmetric_group
from loupe.errors import ClosureBlowup
from loupe.lattice import (
    build_lattice,
    check_distributive,
    check_modular,
    export_dot,
    find_forbidden_sublattice,
    lattice_summary,
)
from loupe.substructures import all_subloops

from oracles import (
    build_lattice_by_rescan,
    covers_by_scan,
    forbidden_sublattice_by_counting,
    random_loop,
)


def subloop_lattice(L):
    return build_lattice(L, all_subloops(L).subloops)


def subgroup_lattice(L):
    return build_lattice(L, all_subloops(L).subgroups())


def test_empty_family_gives_two_chain():
    L = build_ln(5, 2)
    lat = build_lattice(L, [])
    assert lat.size == 2
    assert lat.covers() == [(0, 1)]


def test_lattice_axioms_exhaustively(corpus):
    for name in ("L5(2)", "L15(8)", "Z6", "S3", "klein"):
        L = corpus[name]
        lat = subloop_lattice(L)
        n = lat.size
        assert n <= 40
        for x in range(n):
            assert lat.meet[x][x] == x and lat.join[x][x] == x
            for y in range(n):
                assert lat.meet[x][y] == lat.meet[y][x]
                assert lat.join[x][y] == lat.join[y][x]
                assert lat.meet[x][lat.join[x][y]] == x
                assert lat.join[x][lat.meet[x][y]] == x
                for z in range(n):
                    assert lat.meet[x][lat.meet[y][z]] == lat.meet[lat.meet[x][y]][z]
                    assert lat.join[x][lat.join[y][z]] == lat.join[lat.join[x][y]][z]


def test_order6_member_lattice_modular_not_distributive():
    lat = subloop_lattice(build_ln(5, 2))
    assert lat.size == 7
    assert check_modular(lat).holds
    verdict = check_distributive(lat)
    assert not verdict.holds
    assert find_forbidden_sublattice(lat, "diamond") is not None
    assert find_forbidden_sublattice(lat, "pentagon") is None


def test_order16_member_subgroup_lattice_non_modular():
    lat = subgroup_lattice(build_ln(15, 8))
    assert lat.size == 22
    verdict = check_modular(lat)
    assert not verdict.holds
    assert find_forbidden_sublattice(lat, "pentagon") is not None


def test_modular_scan_agrees_with_pentagon_search(corpus):
    for name in ("L5(2)", "L15(8)", "Z6", "S3", "klein", "L9(5)"):
        L = corpus[name]
        for lat in (subloop_lattice(L), subgroup_lattice(L)):
            assert check_modular(lat).holds == (
                find_forbidden_sublattice(lat, "pentagon") is None
            ), name


def test_distributive_equation_agrees_with_forbidden_shapes(corpus):
    for name in ("L5(2)", "Z6", "klein", "L9(5)"):
        L = corpus[name]
        lat = subloop_lattice(L)
        eq = all(
            lat.join[x][lat.meet[y][z]]
            == lat.meet[lat.join[x][y]][lat.join[x][z]]
            for x in range(lat.size)
            for y in range(lat.size)
            for z in range(lat.size)
        )
        assert eq == check_distributive(lat).holds, name


def test_h_family_diamond():
    from loupe import LnParams, h_subloop

    L = build_ln(15, 8)
    family = [h_subloop(LnParams(15, 8), i, 3) for i in (1, 2, 3)]
    lat = build_lattice(L, family)
    assert lat.size == 5
    assert check_modular(lat).holds
    assert not check_distributive(lat).holds
    assert find_forbidden_sublattice(lat, "diamond") == tuple(range(5))


def test_normal_subgroup_lattice_of_s4_is_modular():
    s4 = symmetric_group(4)
    census = all_subloops(s4)
    lat = build_lattice(s4, census.normal_subloops())
    assert lat.size == 4  # trivial, the doubly even 4-set, the even half, all
    assert check_modular(lat).holds


def test_mixed_product_subgroup_lattice():
    prod = direct_product(build_ln(5, 2), cyclic_group(5))
    census = all_subloops(prod)
    subgroups = census.subgroups()
    assert len(subgroups) == 12
    lat = build_lattice(prod, subgroups)
    assert lat.size == 13  # the full loop tops the lattice without being a group
    assert not check_modular(lat).holds
    assert find_forbidden_sublattice(lat, "pentagon") is not None


def test_export_dot():
    lat = subloop_lattice(build_ln(5, 2))
    dot = export_dot(lat)
    assert dot.startswith("digraph")
    assert dot.count("{") == dot.count("}")
    assert dot.count(" -> ") == 10  # five atoms doubly covered
    assert dot.count("[label=") == 7
    two = build_lattice(build_ln(5, 2), [])
    dot2 = export_dot(two)
    assert dot2.count(" -> ") == 1 and dot2.count("[label=") == 2


def test_lattice_summary_roundtrip():
    lat = subloop_lattice(cyclic_group(4))
    summary = lattice_summary(lat)
    assert summary["modular"] and summary["distributive"]
    assert summary["nodes"] == ["{e}", "{e,2}", "{e,1,2,3}"]
    assert summary["covers"] == [(0, 1), (1, 2)]


def _lattice_families(corpus):
    """(name, loop, family) over the memo corpus and random loops of order 1-9.

    Families are the census, the subgroups, the normal subloops, random
    sub-families of the census and raw element lists (subsets not closed
    under the product, some missing the identity), each as a list; a raw
    family is also handed over as a one-shot generator.
    """
    rng = random.Random(1967)
    loops = list(corpus.items()) + [(f"random{i}", random_loop(rng, 1 + i % 9)) for i in range(36)]
    for name, L in loops:
        census = all_subloops(L)
        yield name, L, census.subloops
        yield name, L, census.subgroups()
        yield name, L, census.normal_subloops()
        for _ in range(3):
            k = rng.randint(0, len(census.subloops))
            yield name, L, rng.sample(census.subloops, k)
        for _ in range(2):
            yield name, L, [rng.sample(range(L.size), rng.randint(1, L.size)) for _ in range(4)]


def test_build_lattice_and_covers_agree_with_rescan_oracle(corpus):
    grown = 0
    for name, L, family in _lattice_families(corpus):
        lat = build_lattice(L, family)
        assert lat == build_lattice_by_rescan(L, family), name
        assert lat.covers() == covers_by_scan(lat), name
        if family and isinstance(family[0], list):
            assert build_lattice(L, (tuple(S) for S in family)) == lat, name
        grown += lat.size > len(family) + 2
    assert grown > 20  # many families were not closed under intersection


def test_forbidden_sublattice_witnesses_agree_with_counting_oracle(corpus):
    checked = 0
    for name, L, family in _lattice_families(corpus):
        lat = build_lattice(L, family)
        if lat.size <= Caps().lattice_nodes:
            checked += 1
            for shape in ("pentagon", "diamond"):
                expected = forbidden_sublattice_by_counting(lat, shape)
                assert find_forbidden_sublattice(lat, shape) == expected, (name, shape)
    assert checked > 300


def test_lattice_build_cap_is_exact(corpus):
    # a family already past the cap trips it, as does one that grows past it
    L = build_ln(15, 8)
    subgroups = all_subloops(L).subgroups()
    assert build_lattice(L, subgroups, Caps(lattice_build=22)).size == 22
    for cap in (1, 5, 21):
        with pytest.raises(ClosureBlowup, match=rf"lattice nodes exceeded cap \({cap + 1} > {cap}\)"):
            build_lattice(L, subgroups, Caps(lattice_build=cap))
    for name, L, family in _lattice_families(corpus):
        size = build_lattice(L, family).size
        assert build_lattice(L, family, Caps(lattice_build=size)).size == size
        if size == 1:
            continue
        with pytest.raises(ClosureBlowup, match=rf"\({size} > {size - 1}\)"):
            build_lattice(L, family, Caps(lattice_build=size - 1))
