"""One coset kernel: normalizers, level-II normality and its witness, coset covers
and quotients agree with oracles that write every coset out from the table."""

import pytest

from loupe.core import FiniteLoop, quotient_loop
from loupe.errors import CapExceeded, NotASubgroup, NotNormal
from loupe.smarandache import coset_cover_search, is_normal_subgroup, s_homomorphism_check
from loupe.substructures import all_subloops, first_normalizer

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
