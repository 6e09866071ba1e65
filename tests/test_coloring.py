"""Loop/edge-coloring correspondence and the enumeration of both sides."""

import random
import tracemalloc
from itertools import combinations, permutations

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
from loupe.config import Caps
from loupe.errors import (
    ImproperColoring,
    NoIdentity,
    NotInvolutory,
    NotRightAlternative,
    OddOrder,
    SizeCapExceeded,
)
from loupe.identities import Law, check_law
from loupe.smarandache import is_s_loop

from oracles import (
    coloring_to_loop_by_validation,
    count_one_factorizations_by_filter,
    enumerate_involutory_right_alt_by_validation,
    loop_to_coloring_by_cycles,
)


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


@pytest.mark.parametrize("n_vertices", [2, 4, 6, 8])
def test_counter_agrees_with_filtering_oracle(n_vertices):
    # matching only the edges off the anchor counts what filtering every matching counts
    expected = {2: 1, 4: 1, 6: 6, 8: 6240}[n_vertices]
    count = count_one_factorizations(n_vertices)
    assert count == count_one_factorizations_by_filter(n_vertices) == expected
    with pytest.raises(OddOrder):
        count_one_factorizations(n_vertices + 1)


def test_text_format_roundtrip():
    col = loop_to_coloring(build_ln(5, 2))
    text = coloring_to_text(col)
    lines = text.splitlines()
    assert len(lines) == 15
    assert all(len(line.split()) == 3 for line in lines)
    assert coloring_from_text(text).color_of == col.color_of


def test_order_cap():
    with pytest.raises(SizeCapExceeded):
        enumerate_involutory_right_alt(10)
    with pytest.raises(OddOrder):
        enumerate_involutory_right_alt(5)
    with pytest.raises(SizeCapExceeded):
        enumerate_involutory_right_alt(8, Caps(color_search=100))


@pytest.mark.parametrize("order, nodes", [(4, 3), (6, 29), (8, 23_571)])
def test_color_search_cap_is_exact(order, nodes):
    # each matching through {0, a} that misses the used edges is one search node
    loops = enumerate_involutory_right_alt(order, Caps(color_search=nodes))
    assert len(loops) == count_one_factorizations(order)
    with pytest.raises(
        SizeCapExceeded, match=rf"coloring search nodes exceeded cap \({nodes} > {nodes - 1}\)"
    ):
        enumerate_involutory_right_alt(order, Caps(color_search=nodes - 1))


def _loops_with_colorings():
    for k in (2, 4, 6, 8):
        yield from enumerate_involutory_right_alt(k)
    for n in (5, 7, 9, 11, 13):
        yield build_ln(n, 2)


def test_table_reads_agree_with_cycle_and_validation_oracles():
    # u\v off row u colors as the cycle walk does; the rebuilt table needs no revalidation
    for L in _loops_with_colorings():
        col = loop_to_coloring(L)
        assert col.color_of == loop_to_coloring_by_cycles(L).color_of
        back = coloring_to_loop(col)
        assert back == coloring_to_loop_by_validation(col) == L


def _outcome(build, col):
    try:
        return build(col)
    except (ImproperColoring, ValueError):
        return None


def _random_colorings(rng):
    """Proper colorings, renamed, split and merged classes, and random colors, for n <= 8."""
    loops = [L for k in (2, 4, 6) for L in enumerate_involutory_right_alt(k)]
    loops += rng.sample(enumerate_involutory_right_alt(8), 20)
    for L in loops:
        n = L.size
        base = dict(loop_to_coloring(L).color_of)
        edges = sorted(base)
        yield EdgeColoring.from_dict(n, base)
        names = rng.sample(range(-10, 60), n - 1)
        yield EdgeColoring.from_dict(n, {e: names[c - 1] for e, c in base.items()})
        split = rng.choice(edges)
        yield EdgeColoring.from_dict(n, {**base, split: 99})
        if n > 2:
            a, b = rng.sample(range(1, n), 2)
            yield EdgeColoring.from_dict(n, {e: a if c == b else c for e, c in base.items()})
    for n in (3, 5, 7):
        # a proper n-coloring of K_n for odd n: one color more than a loop allows
        pairs = combinations(range(n), 2)
        yield EdgeColoring.from_dict(n, {(u, v): (u + v) % n for u, v in pairs})
    for n in range(9):
        for _ in range(20):
            pairs = combinations(range(n), 2)
            yield EdgeColoring.from_dict(n, {e: rng.randrange(1, n + 1) for e in pairs})


def test_coloring_to_loop_agrees_with_validation_oracle_on_random_colorings():
    rng = random.Random(2003)
    outcomes = set()
    for col in _random_colorings(rng):
        expected = _outcome(coloring_to_loop_by_validation, col)
        assert _outcome(coloring_to_loop, col) == expected, col
        outcomes.add(expected is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("order", [4, 6])
def test_only_the_default_labeling_gives_a_loop(order):
    # column 0 is the identity map and every other column is fixed-point-free,
    # so 0 is the only candidate identity and row 0 pins the labels
    for L in enumerate_involutory_right_alt(order):
        col = loop_to_coloring(L)
        default = {c: v for (u, v), c in col.color_of if u == 0}
        colors = sorted(default)
        for labels in permutations(range(1, order)):
            labeling = dict(zip(colors, labels))
            if labeling == default:
                assert coloring_to_loop_by_validation(col, labeling) == L
            else:
                with pytest.raises(NoIdentity):
                    coloring_to_loop_by_validation(col, labeling)


def test_edge_coloring_requires_every_edge_once_in_order():
    full = loop_to_coloring(build_ln(5, 2)).color_of
    assert EdgeColoring(6, full).color_of == full
    with pytest.raises(ValueError):
        EdgeColoring(6, full[1:])  # edge (0, 1) missing
    with pytest.raises(ValueError):
        EdgeColoring(6, full + full[-1:])  # edge (4, 5) repeated
    with pytest.raises(ValueError):
        EdgeColoring(6, full[::-1])  # not sorted
    with pytest.raises(ValueError):
        EdgeColoring(6, (((1, 0), full[0][1]),) + full[1:])  # u > v


def test_one_far_vertex_is_rejected_before_any_edge_list_is_built(tmp_path):
    # K_2001 has about 2 * 10^6 edges; the edge count settles the file without listing them
    path = tmp_path / "far.txt"
    path.write_text("0 2000 1\n")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="every edge exactly once"):
            coloring_from_text(path.read_text())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
