"""The Mlt/Inn layer against closure oracles: the multiplication-group kernel,
the memoised inner mapping group, A-loop and ARIF verdicts decided from
Bruck's generators of Inn, and the trimmed normality scan."""

import collections
import dataclasses
import random

import pytest

from loupe import build_ln, cyclic_group, direct_product, identities, symmetric_group, validate_loop
from loupe.coloring import enumerate_involutory_right_alt
from loupe.core import compose, normality_witness
from loupe.errors import CapExceeded, NotIPLoop
from loupe.identities import (
    Law,
    _bruck_generators,
    check_law,
    inner_mapping_group,
    is_a_loop,
    is_arif,
    multiplication_group,
)
from loupe.substructures import all_subloops

from conftest import KIND3_8_TABLE
from oracles import (
    bruck_generators_by_formula,
    is_a_loop_by_scan,
    is_arif_by_scan,
    multiplication_group_by_closure,
    normality_witness_by_scan,
    random_loop,
)

DEFAULT_MLT = 50_000
SMALL_CAP = 5000  # bounds the oracle closure on loops above order 8


def _outcome(f, *args):
    try:
        return f(*args)
    except (CapExceeded, NotIPLoop) as exc:
        return type(exc), str(exc)


def _cap_error(cap):
    return CapExceeded, f"multiplication group exceeded cap ({cap + 1} > {cap})"


def _expected(L, cap):
    """(Mlt, Inn, is_a_loop, is_arif) outcomes from the closure oracle."""
    ip = check_law(L, Law.IP)
    not_ip = (NotIPLoop, str(NotIPLoop(ip.witness)))
    mlt = _outcome(multiplication_group_by_closure, L, cap)
    if not isinstance(mlt, list):
        return mlt, mlt, mlt, mlt if ip.holds else not_ip
    inn = [p for p in mlt if p[0] == 0]
    return mlt, inn, is_a_loop_by_scan(L, inn), is_arif_by_scan(L, inn) if ip.holds else not_ip


@pytest.fixture(scope="module")
def order8():
    """Order-8 involutory right-alternative loops: the first of each |Mlt|
    stratum in enumeration order, two more groups and one more with Mlt = S_8."""
    loops = enumerate_involutory_right_alt(8)
    return [(f"irra8#{i}", dataclasses.replace(loops[i])) for i in (0, 1, 6, 14, 61, 425, 400)]


@pytest.fixture(scope="module")
def cases(corpus, order8):
    """(name, loop, cap, oracle outcomes) over the corpus, the order-8 sample and
    random loops of order 1-8; above order 8 a smaller cap bounds the oracle."""
    rng = random.Random(1958)
    randoms = [(f"random{n}.{k}", random_loop(rng, n)) for n in range(1, 8) for k in range(3)]
    randoms.append(("random8", random_loop(rng, 8)))
    out = []
    for name, L in list(corpus.items()) + order8 + randoms:
        cap = DEFAULT_MLT if L.size <= 8 else SMALL_CAP
        out.append((name, L, cap, _expected(L, cap)))
    strata = {len(mlt) for name, _, _, (mlt, *_) in out if name.startswith("irra8")}
    assert strata == {8, 64, 288, 1152, 40320}
    return out


def test_mlt_layer_agrees_with_closure_oracles(cases):
    for name, L, cap, (mlt, inn, a_loop, arif) in cases:
        # decide the laws cold, then read the group; and the other way round
        cold, warm = dataclasses.replace(L), dataclasses.replace(L)
        assert _outcome(multiplication_group, L, cap) == mlt, name
        assert _outcome(inner_mapping_group, warm, cap) == inn, name
        for _ in range(2):  # the second round reads the memo
            assert _outcome(is_a_loop, cold, cap) == a_loop, name
            assert _outcome(is_arif, cold, cap) == arif, name
            assert _outcome(inner_mapping_group, cold, cap) == inn, name
            assert _outcome(is_a_loop, warm, cap) == a_loop, name
            assert _outcome(is_arif, warm, cap) == arif, name


@pytest.mark.parametrize("n", [256, 257], ids=["bytes", "tuples"])
def test_mlt_of_a_cyclic_group_is_its_rows(n):
    # order 256 composes bytes permutations, order 257 tuples; every translation
    # of Z_n is a row, and the rows form the group
    L = cyclic_group(n)
    assert multiplication_group(L, n) == sorted(L.table)
    assert _outcome(multiplication_group, dataclasses.replace(L), n - 1) == _cap_error(n - 1)


def test_cap_one_below_the_group_order_binds_inside_the_last_coset(cases):
    """L_7(3) (|Mlt| = 20,160) and the order-8 loop with Mlt = S_8 (40,320) close
    their last generator in cosets of 6 and of 120 elements, so |Mlt| - 1 is
    crossed in the middle of the last coset added."""
    big = [(name, L, mlt) for name, L, _, (mlt, *_) in cases if len(mlt) in (20160, 40320)]
    assert {len(mlt) for _, _, mlt in big} == {20160, 40320}
    assert "L7(3)" in {name for name, _, _ in big}
    for name, L, mlt in big:
        order = len(mlt)
        assert multiplication_group(dataclasses.replace(L), order) == mlt, name
        assert _outcome(multiplication_group, dataclasses.replace(L), order - 1) == _cap_error(order - 1), name


def _close(gens, n):
    identity = tuple(range(n))
    seen, frontier = {identity}, [identity]
    while frontier:
        fresh = {compose(p, g) for p in frontier for g in gens} - seen
        seen |= fresh
        frontier = list(fresh)
    return sorted(seen)


def test_bruck_generators_generate_the_inner_mapping_group(cases):
    closed = 0
    for name, L, _, (_, inn, _, _) in cases:
        gens = _bruck_generators(L)
        assert len(gens) <= 2 * L.size**2 + L.size, name
        assert all(g[0] == 0 and sorted(g) == list(range(L.size)) for g in gens), name
        if isinstance(inn, list):
            assert gens <= set(inn), name
            if len(inn) <= 1000:  # bounds the test's own Python closure
                assert _close(gens, L.size) == inn, name
                closed += 1
    assert closed >= 40


def test_bruck_generators_composed_by_the_mlt_kernel_agree_with_their_formulas(cases, monkeypatch):
    """Every corpus loop, each order-8 |Mlt| stratum, the random loops and S_5, on
    both sides of the kernel: its tuple side, which loops above order 256 take,
    is forced on the same loops."""
    tuple_kernel = identities._permutation_kernel(257)
    for name, L in [(name, L) for name, L, _, _ in cases] + [("S5", symmetric_group(5))]:
        expected = bruck_generators_by_formula(L)
        assert _bruck_generators(L) == expected, name
        with monkeypatch.context() as m:
            m.setattr(identities, "_permutation_kernel", lambda n: tuple_kernel)
            assert _bruck_generators(L) == expected, name


@pytest.mark.parametrize(
    "L",
    [cyclic_group(1), cyclic_group(2), symmetric_group(3), build_ln(5, 2), build_ln(5, 3)],
    ids=["trivial", "Z2", "S3", "L5(2)", "L5(3)"],
)
def test_memoised_inner_mapping_group_honours_tighter_caps(L):
    mlt, inn, a_loop, _ = _expected(L, DEFAULT_MLT)
    order = len(mlt)
    warm = dataclasses.replace(L)
    inner_mapping_group(warm)
    assert warm._memo["inn"] == tuple(inn)
    assert len(mlt) == L.size * len(inn)
    # on the trivial loop order - 1 is 0, which e alone exceeds before any generator is taken
    for cap in sorted({1, 2, 3, 2 * L.size + 1, order - 1, order, order + 1}):
        fresh = dataclasses.replace(L)
        assert _outcome(multiplication_group, fresh, cap) == (_cap_error(cap) if order > cap else mlt)
        want = _cap_error(cap) if order > cap else inn
        assert _outcome(inner_mapping_group, fresh, cap) == want, cap
        assert _outcome(inner_mapping_group, warm, cap) == want, cap
        # a failing verdict reads its witness from Inn, so the cap binds it too
        want = _cap_error(cap) if order > cap and not a_loop.holds else a_loop
        assert _outcome(is_a_loop, dataclasses.replace(L), cap) == want, cap
        assert _outcome(is_a_loop, warm, cap) == want, cap


def test_a_loop_and_arif_hold_without_a_closure_beyond_the_cap(order8):
    groups = [("S3", symmetric_group(3)), ("S4", symmetric_group(4)), ("Z6", cyclic_group(6))]
    groups.append(("Z2xS3", direct_product(cyclic_group(2), symmetric_group(3))))
    groups += [(name, L) for name, L in order8 if len(multiplication_group(L)) == 8]
    assert len(groups) >= 7
    for name, L in groups:
        order = len(multiplication_group(L))
        cold = dataclasses.replace(L)
        assert is_a_loop(cold, order - 1).holds, name
        assert is_arif(cold, 1).holds, name
        assert "inn" not in cold._memo, name
        assert _outcome(inner_mapping_group, cold, order - 1) == _cap_error(order - 1), name


@pytest.mark.parametrize(
    "L, mlt, inn",
    [
        (cyclic_group(1), [(0,)], [(0,)]),
        (cyclic_group(2), [(0, 1), (1, 0)], [(0, 1)]),
    ],
    ids=["trivial", "Z2"],
)
def test_inn_memo_is_ignored_by_equality_hashing_and_replace(L, mlt, inn):
    warm = dataclasses.replace(L)
    assert multiplication_group(warm) == mlt
    assert inner_mapping_group(warm) == inn
    assert is_a_loop(warm).holds and is_arif(warm).holds
    assert warm._memo["inn"] == tuple(inn)
    assert len(mlt) == L.size * len(inn)
    # callers get a fresh list: mutating it leaves the memo intact
    inner_mapping_group(warm).append(None)
    assert inner_mapping_group(warm) == inn
    cold = dataclasses.replace(warm)
    assert not cold._memo
    assert warm == cold == L
    assert hash(warm) == hash(cold)
    assert repr(warm) == repr(cold)


def test_trimmed_normality_witness_agrees_with_full_scan(corpus, klein):
    """Cold (fresh memo, no census) and warm (after the census) on the corpus,
    five more products, 60 random loops of order 4-9 and the order-8 loop
    ``KIND3_8_TABLE``, these last 61 each with its transpose."""
    s3 = symmetric_group(3)
    loops = list(corpus.items()) + [
        ("S4", symmetric_group(4)),
        ("C2^4", direct_product(klein, klein)),
        ("S3xS3", direct_product(s3, s3)),
        ("C2^2xS3", direct_product(klein, s3)),
        ("L5(2)xC2^2", direct_product(build_ln(5, 2), klein)),
    ]
    rng = random.Random(2003)
    randoms = [(f"random{i}", random_loop(rng, 4 + i % 6)) for i in range(60)]
    randoms.append(("kind3", validate_loop(KIND3_8_TABLE)))
    randoms += [(name + "^T", validate_loop(list(zip(*L.table)))) for name, L in randoms]
    kinds = collections.Counter()
    for name, L in loops + randoms:
        cold, warm = dataclasses.replace(L), dataclasses.replace(L)
        for S in all_subloops(warm).subloops:
            expected = normality_witness_by_scan(L, S)
            assert normality_witness(cold, S) == expected, (name, S)
            assert normality_witness(warm, S) == expected, (name, S)
            if expected is not None:
                kinds[expected[0]] += 1
        assert "census" not in cold._memo, name
    assert set(kinds) == {1, 2, 3}, kinds
