"""Loop/edge-coloring correspondence and the enumeration of both sides."""

import pytest

from loupe import build_ln, cyclic_group
from loupe.coloring import (
    EdgeColoring,
    coloring_from_text,
    coloring_to_loop,
    coloring_to_text,
    count_one_factorizations,
    enumerate_involutory_right_alt,
    loop_to_coloring,
    validate_proper,
)
from loupe.errors import (
    ImproperColoring,
    NotInvolutory,
    NotRightAlternative,
    OddOrder,
)
from loupe.identities import Law, check_law
from loupe.smarandache import is_s_loop

from oracles import enumerate_involutory_right_alt_by_validation


def test_loop_to_coloring_reference():
    L = build_ln(5, 2)
    col = loop_to_coloring(L)
    assert len(col.color_of) == 15
    assert validate_proper(col).holds
    # the edge from the identity to a is colored a
    for (u, v), c in col.color_of:
        if u == 0:
            assert c == v


def test_loop_to_coloring_preconditions():
    with pytest.raises(NotRightAlternative):
        loop_to_coloring(build_ln(5, 3))
    with pytest.raises(OddOrder):
        loop_to_coloring(cyclic_group(5))
    with pytest.raises(NotInvolutory):
        loop_to_coloring(cyclic_group(4))


def test_roundtrip_both_directions():
    L = build_ln(5, 2)
    col = loop_to_coloring(L)
    back = coloring_to_loop(col)
    assert back.table == L.table
    again = loop_to_coloring(back)
    assert again.color_of == col.color_of


def test_improper_coloring_rejected():
    mapping = {}
    color = 1
    for u in range(4):
        for v in range(u + 1, 4):
            mapping[(u, v)] = 1  # constant coloring of K4
    col = EdgeColoring.from_dict(4, mapping)
    assert not validate_proper(col).holds
    with pytest.raises(ImproperColoring):
        coloring_to_loop(col)


def test_enumeration_counts():
    order4 = enumerate_involutory_right_alt(4)
    assert len(order4) == 1
    assert count_one_factorizations(4) == 1
    klein = order4[0]
    assert check_law(klein, Law.ASSOCIATIVE).holds
    assert check_law(klein, Law.COMMUTATIVE).holds

    order6 = enumerate_involutory_right_alt(6)
    assert len(order6) == 6
    assert count_one_factorizations(6) == 6
    tables = {L.table for L in order6}
    assert len(tables) == 6
    assert build_ln(5, 2).table in tables


def test_enumerated_loops_are_admissible_s_loops():
    for L in enumerate_involutory_right_alt(6):
        assert check_law(L, Law.RIGHT_ALTERNATIVE).holds
        assert all(L.table[x][x] == 0 for x in range(6))
        assert validate_proper(loop_to_coloring(L)).holds
        assert is_s_loop(L).holds


def test_enumeration_roundtrips_through_colorings():
    for L in enumerate_involutory_right_alt(6):
        assert coloring_to_loop(loop_to_coloring(L)).table == L.table


def test_order8_counts_agree():
    loops = enumerate_involutory_right_alt(8)
    assert len(loops) == count_one_factorizations(8) == 6240


@pytest.mark.parametrize("order", [2, 4, 6, 8])
def test_enumeration_agrees_with_validating_oracle(order):
    # same loops, tables, labels and order as filtering every matching and revalidating
    assert enumerate_involutory_right_alt(order) == enumerate_involutory_right_alt_by_validation(order)


def test_text_format_roundtrip():
    col = loop_to_coloring(build_ln(5, 2))
    text = coloring_to_text(col)
    lines = text.splitlines()
    assert len(lines) == 15
    assert all(len(line.split()) == 3 for line in lines)
    assert coloring_from_text(text).color_of == col.color_of


def test_order_cap():
    from loupe.config import Caps
    from loupe.errors import SizeCapExceeded

    with pytest.raises(SizeCapExceeded):
        enumerate_involutory_right_alt(10)
    with pytest.raises(OddOrder):
        enumerate_involutory_right_alt(5)
    with pytest.raises(SizeCapExceeded):
        enumerate_involutory_right_alt(8, Caps(color_search=100))
