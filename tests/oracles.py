"""Brute-force reference implementations the library's fast paths are checked against.

Each oracle recomputes from the table alone, with no memoised data: closures
are formed afresh, associativity is a triple scan, element orders are found
by walking powers, isomorphisms are searched without invariant pruning,
multiplication groups are closed by composing in Python and inner-mapping
laws are scanned over every inner mapping.
"""

from __future__ import annotations

from loupe.core import (
    FiniteLoop,
    SubLoop,
    compose,
    generated_subloop,
    normality_witness,
    subloop_as_loop,
    two_sided_inverse,
    validate_loop,
)
from loupe.errors import CapExceeded
from loupe.identities import Verdict
from loupe.isotopes import principal_isotope
from loupe.substructures import SubloopCensus


def is_associative_by_triples(L: FiniteLoop, elems) -> bool:
    """(xy)z = x(yz) for every triple drawn from ``elems``."""
    t = L.table
    return all(t[t[x][y]][z] == t[x][t[y][z]] for x in elems for y in elems for z in elems)


def census_by_extension(L: FiniteLoop) -> SubloopCensus:
    """Every subloop with its flags: close each element, then extend each found
    subloop by every outside element, closing each extension from scratch."""
    found: dict[tuple[int, ...], SubLoop] = {}
    stack = []
    for x in range(L.size):
        S = generated_subloop(L, (x,))
        if S.elements not in found:
            found[S.elements] = S
            stack.append(S)
    while stack:
        S = stack.pop()
        for g in range(L.size):
            if g not in S.elements:
                T = generated_subloop(L, S.elements + (g,))
                if T.elements not in found:
                    found[T.elements] = T
                    stack.append(T)
    subs = sorted(found.values(), key=lambda s: (s.order, s.elements))
    return SubloopCensus(
        subloops=tuple(subs),
        subgroup_flags=tuple(is_associative_by_triples(L, s.elements) for s in subs),
        normal_flags=tuple(normality_witness(L, s) is None for s in subs),
    )


def is_diassociative_by_pairs(L: FiniteLoop) -> Verdict:
    """First pair x <= y whose closure is not associative."""
    for x in range(L.size):
        for y in range(x, L.size):
            if not is_associative_by_triples(L, generated_subloop(L, (x, y)).elements):
                return Verdict(False, (x, y))
    return Verdict(True)


def is_isomorphic_by_search(L1: FiniteLoop, L2: FiniteLoop) -> bool:
    """Backtracking over identity-preserving bijections, with no invariant pruning."""
    n = L1.size
    if n != L2.size:
        return False
    t1, t2 = L1.table, L2.table

    def extend(mapping: list[int]) -> bool:
        k = len(mapping)
        if k == n:
            return True
        for u in range(n):
            if u in mapping:
                continue
            m = mapping + [u]
            if all(
                t1[a][b] > k or m[t1[a][b]] == t2[m[a]][m[b]]
                for a in range(k + 1)
                for b in range(k + 1)
            ) and extend(m):
                return True
        return False

    return extend([0])


def is_g_loop_by_isotopes(L: FiniteLoop) -> Verdict:
    """First principal isotope (a, b) not isomorphic to L."""
    for a in range(L.size):
        for b in range(L.size):
            if not is_isomorphic_by_search(L, principal_isotope(L, a, b)):
                return Verdict(False, (a, b))
    return Verdict(True)


def element_order_by_powers(L: FiniteLoop, x: int) -> int | None:
    """Order of x by walking its right powers inside <x>; None when <x> is no group."""
    gen = generated_subloop(L, (x,))
    sub = subloop_as_loop(L, gen)
    if not is_associative_by_triples(L, gen.elements):
        return None
    pos = gen.elements.index(x)
    k, cur = 1, pos
    while cur != 0:
        cur = sub.table[cur][pos]
        k += 1
    return k


def is_cyclic_group_by_powers(L: FiniteLoop, S: SubLoop) -> bool:
    """True iff S is a group and the powers of one of its elements fill it."""
    if not is_associative_by_triples(L, S.elements):
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
        if is_associative_by_triples(L, gen.elements):
            if best is None or (gen.order, gen.elements) < (best.order, best.elements):
                best = gen
    if best is None:
        return Verdict(False)
    return Verdict(True, best.elements)


def multiplication_group_by_closure(L: FiniteLoop, cap: int) -> list[tuple[int, ...]]:
    """Breadth-first closure of every left and right translation, composing in Python."""
    size = L.size
    gens = []
    for x in range(size):
        gens.append(tuple(L.table[x]))
        gens.append(tuple(L.table[y][x] for y in range(size)))
    seen = set(gens)
    seen.add(tuple(range(size)))
    frontier = sorted(seen)
    while frontier:
        fresh = []
        for p in frontier:
            for g in gens:
                q = compose(p, g)
                if q not in seen:
                    seen.add(q)
                    fresh.append(q)
                    if len(seen) > cap:
                        raise CapExceeded("multiplication group", len(seen), cap)
        frontier = sorted(fresh)
    return sorted(seen)


def is_a_loop_by_scan(L: FiniteLoop, inn) -> Verdict:
    """First inner mapping in ``inn`` (in its order) and pair (x, y) it fails to preserve."""
    t = L.table
    for theta in inn:
        for x in range(L.size):
            for y in range(L.size):
                if theta[t[x][y]] != t[theta[x]][theta[y]]:
                    return Verdict(False, (theta, x, y))
    return Verdict(True)


def is_arif_by_scan(L: FiniteLoop, inn) -> Verdict:
    """First inner mapping in ``inn`` that does not commute with inversion (L must be IP)."""
    j = tuple(two_sided_inverse(L, x) for x in range(L.size))
    for theta in inn:
        if compose(j, compose(theta, j)) != theta:
            return Verdict(False, (theta,))
    return Verdict(True)


def normality_witness_by_scan(L: FiniteLoop, H: SubLoop) -> tuple[int, int, int | None] | None:
    """Every normality condition scanned over every x and pair (x, y), for any H."""
    t = L.table
    hs = H.elements
    for x in range(L.size):
        if {t[x][h] for h in hs} != {t[h][x] for h in hs}:
            return (1, x, None)
    for x in range(L.size):
        for y in range(L.size):
            if {t[t[h][x]][y] for h in hs} != {t[h][t[x][y]] for h in hs}:
                return (2, x, y)
    for x in range(L.size):
        for y in range(L.size):
            if {t[y][t[x][h]] for h in hs} != {t[t[y][x]][h] for h in hs}:
                return (3, x, y)
    return None


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
