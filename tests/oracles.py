"""Brute-force reference implementations the library's fast paths are checked against.

Each oracle recomputes from the table alone, with no memoised data: cyclic
closures are closed afresh and element orders are found by walking powers.
"""

from __future__ import annotations

from loupe.core import (
    FiniteLoop,
    SubLoop,
    generated_subloop,
    is_subgroup,
    subloop_as_loop,
    validate_loop,
)
from loupe.identities import Verdict


def element_order_by_powers(L: FiniteLoop, x: int) -> int | None:
    """Order of x by walking its right powers inside <x>; None when <x> is no group."""
    gen = generated_subloop(L, (x,))
    sub = subloop_as_loop(L, gen)
    if not is_subgroup(L, gen):
        return None
    pos = gen.elements.index(x)
    k, cur = 1, pos
    while cur != 0:
        cur = sub.table[cur][pos]
        k += 1
    return k


def is_cyclic_group_by_powers(L: FiniteLoop, S: SubLoop) -> bool:
    """True iff S is a group and the powers of one of its elements fill it."""
    if not is_subgroup(L, S):
        return False
    sub = subloop_as_loop(L, S)
    if sub.size == 1:
        return True
    for g in range(1, sub.size):
        seen = {0}
        cur = g
        while cur != 0:
            seen.add(cur)
            cur = sub.table[cur][g]
        if len(seen) == sub.size:
            return True
    return False


def is_s_loop_by_closures(L: FiniteLoop) -> Verdict:
    """Smallest proper cyclic subgroup of size >= 2, closing each element afresh."""
    best: SubLoop | None = None
    for x in range(1, L.size):
        gen = generated_subloop(L, (x,))
        if gen.order >= L.size or gen.order < 2:
            continue
        if is_subgroup(L, gen):
            if best is None or (gen.order, gen.elements) < (best.order, best.elements):
                best = gen
    if best is None:
        return Verdict(False)
    return Verdict(True, best.elements)


def random_loop(rng, n: int) -> FiniteLoop:
    """A random loop of order n: a reduced Latin square filled by randomised backtracking."""
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        table[0][i] = table[i][0] = i
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k: int) -> bool:
        if k == len(cells):
            return True
        i, j = cells[k]
        used = set(table[i][:j]) | {table[r][j] for r in range(i)}
        choices = [v for v in range(n) if v not in used]
        rng.shuffle(choices)
        for v in choices:
            table[i][j] = v
            if fill(k + 1):
                return True
        table[i][j] = None
        return False

    fill(0)
    return validate_loop(table)
