"""One coset kernel: normalizers, level-II normality and its witness, coset covers
and quotients agree with oracles that write every coset out from the table."""

from collections import Counter

import pytest

from loupe import validate_loop
from loupe.core import FiniteLoop, normality_witness, quotient_loop
from loupe.errors import CapExceeded, NotASubgroup, NotNormal
from loupe.smarandache import coset_cover_search, is_normal_subgroup, s_homomorphism_check
from loupe.substructures import all_subloops, first_normalizer

from conftest import KIND3_8_TABLE
from oracles import (
    coset_cover_search_by_formula,
    first_normalizer_by_scan,
    is_associative_by_triples,
    normality_witness_by_scan,
    quotient_loop_by_validation,
    random_products,
)


def _search(search, L, S, side):
    try:
        return search(L, S, side)
    except (NotASubgroup, CapExceeded) as exc:
        return type(exc)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_coset_kernel_agrees_with_formula_oracles(corpus, warm):
    """Cold runs each kernel on a copy of the loop with an empty memo; warm runs
    it on the loop itself after ``all_subloops``."""
    nontrivial_proper_normal = 0
    for L in [*corpus.values(), *random_products()]:
        for S in all_subloops(L).subloops:
            M = L if warm else FiniteLoop(size=L.size, table=L.table, labels=L.labels)
            witness = normality_witness_by_scan(L, S)
            where = (L.size, S.elements)
            assert first_normalizer(M, S) == first_normalizer_by_scan(L, S), where
            assert is_normal_subgroup(M, S) == (witness is None or witness[0] != 1), where
            for side in ("right", "left"):
                assert _search(coset_cover_search, M, S, side) == _search(
                    coset_cover_search_by_formula, L, S, side
                ), (where, side)
            if witness and witness[0] == 1 and is_associative_by_triples(L, S.elements):
                identity = {s: s for s in S.elements}
                with pytest.raises(NotNormal) as info:
                    s_homomorphism_check(M, M, S, S, identity, level_ii=True)
                assert info.value.witness == witness, where
            if witness is None:
                Q, R = quotient_loop(M, S), quotient_loop_by_validation(L, S)
                assert (Q.table, Q.labels) == (R.table, R.labels), where
                nontrivial_proper_normal += S.is_proper() and not S.is_trivial()
    assert nontrivial_proper_normal > 0


def _replays_normality_failure(L: FiniteLoop, H, witness) -> bool:
    """Whether ``witness`` = (c, x, y) shows H's condition c failing, from the coset
    sets alone: (1) xH != Hx with y None, (2) (Hx)y != H(xy), (3) y(xH) != (yx)H."""
    t, hs = L.table, H.elements
    c, x, y = witness
    if c == 1:
        return y is None and {t[x][h] for h in hs} != {t[h][x] for h in hs}
    if c == 2:
        return {t[t[h][x]][y] for h in hs} != {t[h][t[x][y]] for h in hs}
    return c == 3 and {t[y][t[x][h]] for h in hs} != {t[t[y][x]][h] for h in hs}


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_normality_witness_replays_from_coset_definitions(corpus, warm):
    """Every failing ``normality_witness`` over the census of the corpus, of
    ``random_products()`` and of ``KIND3_8_TABLE`` (the one loop here whose witness
    is condition 3) shows its condition failing when replayed."""
    kinds = Counter()
    for L in [*corpus.values(), *random_products(), validate_loop(KIND3_8_TABLE)]:
        for S in all_subloops(L).subloops:
            M = L if warm else FiniteLoop(size=L.size, table=L.table, labels=L.labels)
            witness = normality_witness(M, S)
            if witness is not None:
                assert _replays_normality_failure(L, S, witness), (L.size, S.elements, witness)
                kinds[witness[0]] += 1
    assert set(kinds) == {1, 2, 3}, kinds
