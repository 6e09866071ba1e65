"""Involutory right-alternative loops of order 2n versus edge colorings of K_2n.

In such a loop each non-identity translation R_a is a perfect matching on
the elements (a product of disjoint transpositions) and no two translations
share an edge, so the 2n-1 of them split the C(2n, 2) edges of the complete
graph into color classes: a proper (2n-1)-edge-coloring.  Conversely any
such coloring rebuilds a loop of this kind, and the two counts agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .config import DEFAULT_CAPS, Caps
from .core import FiniteLoop, default_labels, validate_loop
from .errors import (
    ImproperColoring,
    NotInvolutory,
    NotRightAlternative,
    OddOrder,
    SizeCapExceeded,
)
from .identities import Law, Verdict, check_law
from .representation import cycles, right_regular_representation

Edge = tuple[int, int]


@dataclass(frozen=True)
class EdgeColoring:
    """A total assignment of colors 1..(n_vertices-1) to the edges of K_n."""

    n_vertices: int
    color_of: tuple[tuple[Edge, int], ...]  # ((u, v), color) with u < v, sorted

    def as_dict(self) -> dict[Edge, int]:
        return dict(self.color_of)

    @classmethod
    def from_dict(cls, n_vertices: int, mapping: dict[Edge, int]) -> "EdgeColoring":
        norm = {}
        for (u, v), c in mapping.items():
            if u == v:
                raise ValueError("self-loops are not edges")
            key = (min(u, v), max(u, v))
            norm[key] = c
        expected = {(u, v) for u, v in combinations(range(n_vertices), 2)}
        if set(norm) != expected:
            raise ValueError("coloring must assign every edge exactly once")
        return cls(n_vertices, tuple(sorted(norm.items())))

    def color_classes(self) -> dict[int, list[Edge]]:
        out: dict[int, list[Edge]] = {}
        for edge, c in self.color_of:
            out.setdefault(c, []).append(edge)
        return out


def validate_proper(coloring: EdgeColoring) -> Verdict:
    """No two edges meeting at a vertex share a color; witness = (vertex, color)."""
    seen: set[tuple[int, int]] = set()
    for (u, v), c in coloring.color_of:
        for vertex in (u, v):
            key = (vertex, c)
            if key in seen:
                return Verdict(False, key)
            seen.add(key)
    return Verdict(True)


def loop_to_coloring(L: FiniteLoop) -> EdgeColoring:
    """Color edge {x, y} by the element whose translation swaps x and y."""
    if L.size % 2 != 0:
        raise OddOrder(f"order {L.size} is odd")
    for x in range(L.size):
        if L.table[x][x] != 0:
            raise NotInvolutory(x)
    ralt = check_law(L, Law.RIGHT_ALTERNATIVE)
    if not ralt.holds:
        raise NotRightAlternative(ralt.witness)
    mapping: dict[Edge, int] = {}
    for a, perm in enumerate(right_regular_representation(L)):
        if a == 0:
            continue
        for cyc in cycles(perm):
            if len(cyc) == 1:
                continue
            if len(cyc) != 2:
                raise NotRightAlternative((a,) + cyc)
            u, v = sorted(cyc)
            mapping[(u, v)] = a
    return EdgeColoring.from_dict(L.size, mapping)


def coloring_to_loop(
    coloring: EdgeColoring, color_labels: dict[int, int] | None = None
) -> FiniteLoop:
    """Rebuild the loop whose translations are the color classes.

    ``color_labels`` maps each color to the non-identity element naming its
    translation.  By default the class through vertex 0 on edge {0, v} is
    labeled v, which makes vertex 0 the identity; a labeling inconsistent
    with that star fails loop validation.
    """
    proper = validate_proper(coloring)
    if not proper.holds:
        raise ImproperColoring(*proper.witness)
    n = coloring.n_vertices
    classes = coloring.color_classes()
    if len(classes) != n - 1:
        raise ImproperColoring(-1, len(classes))
    if color_labels is None:
        color_labels = {}
        for (u, v), c in coloring.color_of:
            if u == 0:
                color_labels[c] = v
    if sorted(color_labels.values()) != list(range(1, n)):
        raise ValueError("color labels must biject colors onto non-identity elements")
    table = [[0] * n for _ in range(n)]
    for x in range(n):
        table[x][0] = x
    for c, edges in classes.items():
        a = color_labels[c]
        if len(edges) * 2 != n:
            raise ImproperColoring(-1, c)
        for u, v in edges:
            table[u][a] = v
            table[v][a] = u
    return validate_loop(table)


def _matchings(edges: list[Edge], vertices: tuple[int, ...]):
    """Perfect matchings on ``vertices`` drawn from ``edges``, lexicographically."""
    if not vertices:
        yield ()
        return
    v = vertices[0]
    for e in edges:
        if v in e:
            u = e[0] if e[1] == v else e[1]
            if u in vertices:
                rest_v = tuple(w for w in vertices if w not in e)
                rest_e = [f for f in edges if v not in f and u not in f]
                for tail in _matchings(rest_e, rest_v):
                    yield (e,) + tail


def enumerate_involutory_right_alt(
    order: int, caps: Caps = DEFAULT_CAPS
) -> list[FiniteLoop]:
    """All loops of the given even order that are right alternative with x*x = e.

    Backtracks over translation assignments: R_a must be a perfect matching
    containing {0, a}, disjoint from the edges already used.  Each solution
    is a distinct system of translations; loops come out in canonical table
    order.
    """
    if order % 2 != 0 or order < 2:
        raise OddOrder(f"order {order} is not even and positive")
    if order > 8:
        raise SizeCapExceeded("enumeration order", order, 8)
    all_edges = [tuple(e) for e in combinations(range(order), 2)]
    solutions: list[FiniteLoop] = []
    used: set[Edge] = set()
    chosen: dict[int, tuple[Edge, ...]] = {}
    nodes = 0

    def place(a: int):
        nonlocal nodes
        if a == order:
            table = [[0] * order for _ in range(order)]
            for x in range(order):
                table[x][0] = x
            for elem, matching in chosen.items():
                for u, v in matching:
                    table[u][elem] = v
                    table[v][elem] = u
            # edge-disjoint perfect matchings covering K_n form a Latin square with identity 0
            solutions.append(FiniteLoop(order, tuple(map(tuple, table)), default_labels(order)))
            return
        free = [e for e in all_edges if e not in used and 0 not in e and a not in e]
        rest = tuple(v for v in range(1, order) if v != a)
        for tail in _matchings(free, rest):
            nodes += 1
            if nodes > caps.color_search:
                raise SizeCapExceeded("coloring search nodes", nodes, caps.color_search)
            chosen[a] = matching = ((0, a),) + tail
            used.update(matching)
            place(a + 1)
            used.difference_update(matching)
            del chosen[a]

    place(1)
    return solutions


def count_one_factorizations(n_vertices: int) -> int:
    """Count the partitions of K_n's edges into perfect matchings.

    Shares the matching generator ``_matchings`` with the loop enumeration
    above, but not its search: this backtracker anchors the smallest
    uncovered edge, filters every matching of the remaining edges through
    it and counts edge sets without building loops.  The cross-check
    therefore compares two different partitions of the search space, not
    one search run twice.
    """
    if n_vertices % 2 != 0:
        raise OddOrder(f"{n_vertices} vertices admit no perfect matching")
    edges = [tuple(e) for e in combinations(range(n_vertices), 2)]
    vertices = tuple(range(n_vertices))
    count = 0

    def rec(remaining: frozenset[Edge]):
        nonlocal count
        if not remaining:
            count += 1
            return
        anchor = min(remaining)
        avail = sorted(remaining)
        for matching in _matchings(avail, vertices):
            if anchor in matching:
                rec(remaining - set(matching))

    rec(frozenset(edges))
    return count


def coloring_to_text(coloring: EdgeColoring) -> str:
    """One line per edge: "u v color"."""
    return "\n".join(f"{u} {v} {c}" for (u, v), c in coloring.color_of)


def coloring_from_text(text: str) -> EdgeColoring:
    mapping: dict[Edge, int] = {}
    vertices: set[int] = set()
    for line in text.strip().splitlines():
        if not line.strip():
            continue
        u, v, c = (int(tok) for tok in line.split())
        mapping[(min(u, v), max(u, v))] = c
        vertices.update((u, v))
    return EdgeColoring.from_dict(max(vertices) + 1 if vertices else 0, mapping)
