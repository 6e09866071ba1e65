"""The three Latin certificates share one first-repeat scan: a Cayley table
(``validate_loop``), an edge coloring of K_2n (``validate_proper``) and Albert's
permutation set (``validate_albert``) each ask that no value repeat in a line.
A seeded fuzz compares each with the entry-by-entry scan it replaced, and every
failing witness is replayed from its definition."""

import random
from collections import Counter
from itertools import combinations

import pytest

from loupe import build_ln, cyclic_group, direct_product, symmetric_group, validate_loop
from loupe.coloring import (
    EdgeColoring,
    enumerate_involutory_right_alt,
    loop_to_coloring,
    validate_proper,
)
from loupe.core import _first_repeat
from loupe.errors import LatinColumnViolation, LatinRowViolation, LoupeError, NoIdentity
from loupe.representation import right_regular_representation, validate_albert

from oracles import (
    random_loop,
    validate_albert_by_scan,
    validate_loop_by_scan,
    validate_proper_by_scan,
)


def _loop_pool(rng):
    """Random loops of orders 1-7, a few of each, and some groups and family members."""
    pool = [random_loop(rng, n) for n in range(1, 8) for _ in range(4)]
    pool += [cyclic_group(4), symmetric_group(3), build_ln(5, 2), build_ln(7, 3)]
    pool.append(direct_product(cyclic_group(2), cyclic_group(2)))
    return pool


def test_first_repeat_is_the_earliest_second_occurrence():
    rng = random.Random(27)
    for _ in range(2000):
        line = [rng.randrange(6) for _ in range(rng.randrange(9))]
        pairs = [(i, j) for j in range(len(line)) for i in range(j) if line[i] == line[j]]
        expected = min(pairs, key=lambda p: p[1]) if pairs else None
        assert _first_repeat(line) == expected, line
        assert _first_repeat(tuple(line)) == expected, line


def _corrupted_tables(rng, count):
    """Loops relabelled so the identity moves, some with rows shuffled (an isotope,
    usually with no identity), then up to 3 entries changed (out-of-range values
    included) or swapped within their row, now and then a ragged row, a non-int
    entry or labels that do not fit."""
    pool = _loop_pool(rng)
    for _ in range(count):
        L = rng.choice(pool)
        n = L.size
        sigma = list(range(n))
        rng.shuffle(sigma)
        rows = [[0] * n for _ in range(n)]
        for x, row in enumerate(L.table):
            for y, v in enumerate(row):
                rows[sigma[x]][sigma[y]] = sigma[v]
        if rng.random() < 0.15:
            rng.shuffle(rows)
        for _ in range(rng.randrange(4)):
            row = rows[rng.randrange(n)]
            a, b = rng.randrange(n), rng.randrange(n)
            if rng.random() < 0.5:
                row[a] = rng.randrange(-1, n + 1)
            else:  # the row stays a permutation, so its columns see the repeat
                row[a], row[b] = row[b], row[a]
        roll = rng.random()
        if roll < 0.04:
            rows[rng.randrange(n)].append(rng.randrange(n))
        elif roll < 0.08:
            rows[rng.randrange(n)].pop()
        elif roll < 0.10:
            rows[rng.randrange(n)][rng.randrange(n)] = rng.choice([0.5, True, "1"])
        elif roll < 0.11:
            rows = []
        labels = None
        roll = rng.random()
        if roll < 0.1:
            labels = [f"x{k}" for k in range(n)]
        elif roll < 0.13:
            labels = ["a"] * n
        elif roll < 0.15:
            labels = [f"x{k}" for k in range(n + 1)]
        yield rows, labels


def _validated(validate, table, labels):
    try:
        L = validate(table, labels)
    except (LoupeError, ValueError) as exc:
        return type(exc), str(exc), exc
    return L.table, L.labels, None


def test_validate_loop_agrees_with_scan_oracle_on_corrupted_tables():
    rng = random.Random(2003)
    outcomes = Counter()
    for rows, labels in _corrupted_tables(rng, 4000):
        *got, exc = _validated(validate_loop, rows, labels)
        *expected, _ = _validated(validate_loop_by_scan, rows, labels)
        assert got == expected, (rows, labels)
        outcomes[type(exc).__name__ if exc else "loop"] += 1
        outcomes["identity moved"] += exc is None and rows[0] != list(range(len(rows)))
        # each repeat witness names a value that stands twice in its line
        if isinstance(exc, LatinRowViolation):
            assert rows[exc.row].count(exc.value) >= 2, (rows, exc)
        elif isinstance(exc, LatinColumnViolation):
            assert [row[exc.column] for row in rows].count(exc.value) >= 2, (rows, exc)
    kinds = {"loop", "identity moved", "LatinRowViolation", "LatinColumnViolation",
             "NoIdentity", "ValueError"}
    assert set(outcomes) == kinds, outcomes
    assert min(outcomes.values()) >= 40, outcomes


@pytest.mark.parametrize(
    "rows, error",
    [
        ([[0, 0, 5], [1, 2, 0], [2, 0, 1]], LatinRowViolation(0, 0)),
        ([[0, 5, 0], [1, 2, 0], [2, 0, 1]], ValueError("entry 5 in row 0 out of range")),
        ([[0, 1, 2], [1, 2, 0], [1, 0, 2]], LatinColumnViolation(0, 1)),
        ([[1, 0, 2], [0, 2, 1], [2, 1, 0]], NoIdentity()),
    ],
    ids=["repeat-before-range", "range-before-repeat", "column", "no-identity"],
)
def test_validate_loop_reports_the_first_fault_a_scan_meets(rows, error):
    with pytest.raises(type(error)) as caught:
        validate_loop(rows)
    assert str(caught.value) == str(error)


def _random_colorings(rng, count):
    """Colorings of K_4, K_6 and K_8: proper ones read off loops with up to two edges
    recolored, and colorings with every color drawn at random."""
    proper = {n: [dict(loop_to_coloring(L).color_of) for L in enumerate_involutory_right_alt(n)]
              for n in (4, 6)}
    proper[8] = [dict(loop_to_coloring(L).color_of)
                 for L in rng.sample(enumerate_involutory_right_alt(8), 60)]
    for _ in range(count):
        n = rng.choice((4, 6, 8))
        if rng.random() < 0.5:
            colors = dict(rng.choice(proper[n]))
            for edge in rng.sample(sorted(colors), rng.randrange(3)):
                colors[edge] = rng.randrange(1, n)
        else:
            colors = {e: rng.randrange(1, n + 1) for e in combinations(range(n), 2)}
        yield EdgeColoring.from_dict(n, colors)


def test_validate_proper_agrees_with_scan_oracle_on_random_colorings():
    rng = random.Random(2003)
    holds = Counter()
    for col in _random_colorings(rng, 2400):
        verdict = validate_proper(col)
        assert verdict == validate_proper_by_scan(col), col
        holds[verdict.holds] += 1
        if not verdict.holds:
            # the witness color stands on two edges at the witness vertex
            vertex, c = verdict.witness
            assert sum(vertex in edge for edge, cc in col.color_of if cc == c) >= 2, col
    assert min(holds[True], holds[False]) >= 200, holds


def _perturbed_permutation_sets(rng, count):
    """Right regular representations, shuffled, then up to two perturbations each:
    a member replaced, two images swapped, an image overwritten, a member dropped,
    duplicated or cut short, or the identity removed."""
    bases = [right_regular_representation(L) for L in _loop_pool(rng)]
    for _ in range(count):
        perms = list(rng.choice(bases))
        rng.shuffle(perms)
        for _ in range(rng.randrange(3)):
            if not perms:
                break
            k = rng.randrange(len(perms))
            member = list(perms[k])
            n = len(member)
            move = rng.randrange(7)
            if move == 0:
                rng.shuffle(member)
            elif move == 1 and n > 1:
                a, b = rng.sample(range(n), 2)
                member[a], member[b] = member[b], member[a]
            elif move == 2 and n:
                member[rng.randrange(n)] = rng.randrange(n)
            elif move == 3:
                del perms[k]
                continue
            elif move == 4:
                perms.append(perms[k])
                continue
            elif move == 5 and n:
                member.pop()
            elif move == 6:
                perms = [p for p in perms if p != tuple(range(len(p)))]
                continue
            perms[k] = tuple(member)
        yield perms


def test_validate_albert_agrees_with_scan_oracle_on_perturbed_sets():
    rng = random.Random(2003)
    details = Counter()
    for perms in _perturbed_permutation_sets(rng, 4500):
        verdict = validate_albert(perms)
        assert verdict == validate_albert_by_scan(perms), perms
        details[verdict.detail] += 1
        if verdict.detail == "not transitive":
            (a,) = verdict.witness
            assert {p[a] for p in perms} != set(range(len(perms[0]))), perms
        elif verdict.detail == "two members agree at a point":
            i, j, x = verdict.witness
            assert i < j and perms[i][x] == perms[j][x], perms
    assert set(details) == {
        "", "empty set", "mixed sizes", "identity missing", "not transitive",
        "two members agree at a point",
    }, details
    assert details[""] >= 200 and details["two members agree at a point"] >= 200, details

