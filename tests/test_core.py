"""Carrier type, validation, division calculus and small constructors."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from loupe import (
    associator,
    build_ln,
    certify_subloop,
    commutator,
    cyclic_group,
    direct_product,
    element_order,
    find_isomorphism,
    generated_subloop,
    is_subgroup,
    left_divide,
    mul,
    quotient_loop,
    right_divide,
    subloop_as_loop,
    symmetric_group,
    two_sided_inverse,
    validate_loop,
)
from loupe.core import (
    is_associative,
    power_ambiguity,
)
from loupe.errors import (
    LatinColumnViolation,
    LatinRowViolation,
    NoIdentity,
    NotClosed,
    NotNormal,
    SizeCapExceeded,
)

from conftest import L5_2_TABLE, family_params
from oracles import all_closed_subsets


SMALL_PARAMS = family_params(25)


def test_validate_reference_table():
    L = validate_loop(L5_2_TABLE)
    assert L.size == 6
    assert L.table == build_ln(5, 2).table
    assert L.labels == ("e", "1", "2", "3", "4", "5")


def test_validate_group_table():
    assert validate_loop([[0, 1, 2], [1, 2, 0], [2, 0, 1]]).size == 3


def test_validate_rejects_row_corruption():
    rows = [list(r) for r in L5_2_TABLE]
    rows[1][2] = 2
    with pytest.raises(LatinRowViolation) as err:
        validate_loop(rows)
    assert err.value.row == 1


def test_validate_rejects_column_corruption():
    # swap two entries inside one row: rows stay Latin, a column breaks
    rows = [list(r) for r in L5_2_TABLE]
    rows[1][2], rows[1][3] = rows[1][3], rows[1][2]
    with pytest.raises(LatinColumnViolation):
        validate_loop(rows)


def test_validate_rejects_quasigroup_without_identity():
    rows = [[1, 0, 2], [2, 1, 0], [0, 2, 1]]
    with pytest.raises(NoIdentity):
        validate_loop(rows)


def test_validate_relocates_identity():
    # cyclic group of order 3 written with identity at position 1
    rows = [[1, 0, 2], [0, 1, 2]]  # placeholder replaced below
    perm = [1, 0, 2]
    z3 = cyclic_group(3)
    rows = [
        [perm.index(z3.table[perm[i]][perm[j]]) for j in range(3)] for i in range(3)
    ]
    shuffled = [[perm[rows[i][j]] for j in range(3)] for i in range(3)]
    # build a table whose identity is not at slot 0 directly instead
    table = [[2, 0, 1], [0, 1, 2], [1, 2, 0]]
    L = validate_loop(table, labels=["x", "e", "y"])
    assert L.labels[0] == "e"
    assert L.table[0] == (0, 1, 2)
    assert is_associative(L)


def test_mul_reference_values():
    L52 = build_ln(5, 2)
    assert mul(L52, 1, 2) == 3
    L74 = build_ln(7, 4)
    assert mul(L74, 2, 4) == 3
    for x in range(L52.size):
        assert mul(L52, 0, x) == x
        assert mul(L52, x, 0) == x


def test_divisions_match_table_scan_oracle():
    L = build_ln(5, 2)
    for a in range(L.size):
        for b in range(L.size):
            assert L.table[a][left_divide(L, a, b)] == b
            assert L.table[right_divide(L, a, b)][a] == b
    # frozen values from scanning row 2 / column 1 of the reference table
    assert left_divide(L, 2, 0) == 2
    assert right_divide(L, 1, 3) == 4
    assert left_divide(L, 0, 4) == 4


@given(st.sampled_from(SMALL_PARAMS), st.data())
def test_divisions_invert_multiplication(params, data):
    L = build_ln(*params)
    a = data.draw(st.integers(0, L.size - 1))
    b = data.draw(st.integers(0, L.size - 1))
    assert mul(L, a, left_divide(L, a, b)) == b
    assert mul(L, right_divide(L, a, b), a) == b


def test_two_sided_inverse(noncomm5):
    L = build_ln(9, 5)
    for i in range(1, L.size):
        assert two_sided_inverse(L, i) == i
    assert two_sided_inverse(L, 0) == 0
    # element b of the order-5 loop: right inverse c but left inverse d
    assert noncomm5.ldiv(2, 0) == 3
    assert noncomm5.rdiv(2, 0) == 4
    assert two_sided_inverse(noncomm5, 2) is None
    assert two_sided_inverse(noncomm5, 1) == 1
    L52 = build_ln(5, 2)
    assert all(two_sided_inverse(L52, i) == i for i in range(6))


def test_associator_values():
    L = build_ln(5, 2)
    lhs = L.table[L.table[1][2]][3]
    rhs = L.table[1][L.table[2][3]]
    w = associator(L, 1, 2, 3)
    assert L.table[rhs][w] == lhs
    assert w == 2
    for y in range(6):
        for z in range(6):
            assert associator(L, 0, y, z) == 0
    z6 = cyclic_group(6)
    assert all(
        associator(z6, x, y, z) == 0
        for x in range(6)
        for y in range(6)
        for z in range(6)
    )


def test_commutator_values():
    L = build_ln(5, 2)
    assert commutator(L, 1, 2) == 4
    assert all(commutator(L, x, x) == 0 for x in range(6))
    commutative = build_ln(5, 3)
    assert all(
        commutator(commutative, x, y) == 0 for x in range(6) for y in range(6)
    )


def test_generated_subloop_examples():
    assert generated_subloop(build_ln(5, 2), (1,)).elements == (0, 1)
    assert generated_subloop(build_ln(15, 8), (1, 6)).elements == (0, 1, 6, 11)
    assert generated_subloop(build_ln(5, 2), ()).elements == (0,)


@given(st.sampled_from(SMALL_PARAMS), st.data())
def test_generated_subloop_idempotent_monotone(params, data):
    L = build_ln(*params)
    seed = data.draw(st.sets(st.integers(0, L.size - 1), max_size=3))
    S = generated_subloop(L, seed)
    again = generated_subloop(L, S.elements)
    assert again.elements == S.elements
    bigger = data.draw(st.sets(st.integers(0, L.size - 1), max_size=2))
    T = generated_subloop(L, set(seed) | bigger)
    assert S.as_set() <= T.as_set()
    certify_subloop(L, S.elements)  # closure certificate always passes


def test_is_subgroup():
    L52 = build_ln(5, 2)
    assert is_subgroup(L52, certify_subloop(L52, [0, 1]))
    L152 = build_ln(15, 2)
    H = certify_subloop(L152, [0, 1, 4, 7, 10, 13])
    assert not is_subgroup(L152, H)
    z4 = cyclic_group(4)
    assert is_subgroup(z4, certify_subloop(z4, range(4)))


def test_certify_subloop_rejects_open_sets():
    L = build_ln(5, 2)
    with pytest.raises(NotClosed):
        certify_subloop(L, [0, 1, 2])


def test_quotient_by_group_factor(l52xs3):
    N = certify_subloop(l52xs3, [s for s in range(6)])  # {e} x S3
    Q = quotient_loop(l52xs3, N)
    assert Q.size == 6
    assert find_isomorphism(Q, build_ln(5, 2)) is not None


def test_quotient_trivial_cases():
    L = build_ln(5, 2)
    assert quotient_loop(L, certify_subloop(L, [0])).table == L.table
    assert quotient_loop(L, certify_subloop(L, range(6))).size == 1


def test_group_quotients():
    z6 = cyclic_group(6)
    q = quotient_loop(z6, certify_subloop(z6, [0, 3]))
    assert find_isomorphism(q, cyclic_group(3)) is not None
    s3 = symmetric_group(3)
    rotations = certify_subloop(s3, [0, 3, 4])
    q2 = quotient_loop(s3, rotations)
    assert find_isomorphism(q2, cyclic_group(2)) is not None


def test_same_order_non_isomorphic_loops():
    klein = direct_product(cyclic_group(2), cyclic_group(2))
    assert find_isomorphism(cyclic_group(4), klein) is None
    assert find_isomorphism(build_ln(5, 2), build_ln(5, 3)) is None


def test_quotient_requires_normality():
    L = build_ln(5, 2)
    with pytest.raises(NotNormal):
        quotient_loop(L, certify_subloop(L, [0, 1]))


def test_direct_product(l52xs3, klein):
    assert l52xs3.size == 36
    L = build_ln(5, 2)
    prod = direct_product(L, cyclic_group(1))
    assert find_isomorphism(prod, L) is not None
    assert is_associative(klein)
    assert all(
        klein.table[x][y] == klein.table[y][x] for x in range(4) for y in range(4)
    )


def test_direct_product_projects_back_to_factors(l52xs3):
    # the slice over the second factor's identity is the first factor
    L = build_ln(5, 2)
    s3 = symmetric_group(3)
    slice_elems = [a * s3.size for a in range(L.size)]
    S = certify_subloop(l52xs3, slice_elems)
    assert find_isomorphism(subloop_as_loop(l52xs3, S), L) is not None


def test_group_constructors():
    assert cyclic_group(1).size == 1
    assert cyclic_group(7).size == 7
    s3 = symmetric_group(3)
    assert s3.size == 6
    assert any(s3.table[x][y] != s3.table[y][x] for x in range(6) for y in range(6))
    with pytest.raises(SizeCapExceeded):
        symmetric_group(7)


def test_find_isomorphism():
    L52 = build_ln(5, 2)
    assert find_isomorphism(L52, cyclic_group(6)) is None
    assert find_isomorphism(L52, L52).mapping == tuple(range(6))


def test_h1_of_l98_is_klein(klein):
    L98 = build_ln(9, 8)
    H = certify_subloop(L98, [0, 1, 4, 7])
    witness = find_isomorphism(subloop_as_loop(L98, H), klein)
    assert witness is not None


def test_isomorphism_witnesses_compose_and_invert():
    L = build_ln(5, 3)
    iso = find_isomorphism(L, L)
    m = iso.mapping
    composed = tuple(m[m[x]] for x in range(len(m)))
    assert all(
        composed[L.table[x][y]] == L.table[composed[x]][composed[y]]
        for x in range(6)
        for y in range(6)
    )
    inverse = tuple(m.index(x) for x in range(len(m)))
    assert all(
        inverse[L.table[x][y]] == L.table[inverse[x]][inverse[y]]
        for x in range(6)
        for y in range(6)
    )


def test_element_order(noncomm5):
    L = build_ln(7, 3)
    assert element_order(L, 0) == 1
    assert all(element_order(L, i) == 2 for i in range(1, 8))
    assert element_order(noncomm5, 2) is None
    witness = power_ambiguity(noncomm5, 2)
    a, b, c = witness
    t = noncomm5.table
    assert t[t[a][b]][c] != t[a][t[b][c]]


@given(
    st.integers(2, 5).flatmap(
        lambda k: st.lists(
            st.lists(st.integers(0, k - 1), min_size=k, max_size=k),
            min_size=k,
            max_size=k,
        )
    )
)
def test_validator_never_crashes_on_arbitrary_tables(rows):
    from loupe.errors import LoupeError

    try:
        L = validate_loop(rows)
    except (LoupeError, ValueError):
        return
    # anything that validates really is a loop
    size = L.size
    assert all(sorted(row) == list(range(size)) for row in L.table)
    assert all(
        sorted(L.table[i][j] for i in range(size)) == list(range(size))
        for j in range(size)
    )
    assert L.table[0] == tuple(range(size))


def test_vanishing_associator_means_associative(corpus):
    from loupe import certify_subloop

    for name, L in corpus.items():
        if L.size > 12:
            continue
        all_trivial = all(
            associator(L, x, y, z) == 0
            for x in range(L.size)
            for y in range(L.size)
            for z in range(L.size)
        )
        whole = certify_subloop(L, range(L.size))
        assert all_trivial == is_subgroup(L, whole), name


def test_census_oracle_small_loops(corpus):
    from loupe.substructures import all_subloops

    for name in ("L5(2)", "noncomm5", "Z6", "klein", "L7(4)"):
        L = corpus[name]
        brute = {s.elements for s in all_closed_subsets(L)}
        census = {s.elements for s in all_subloops(L).subloops}
        assert brute == census, name
