"""Involutory right-alternative loops of order 2n versus edge colorings of K_2n.

In such a loop each non-identity translation R_a is a perfect matching on
the elements (a product of disjoint transpositions) and no two translations
share an edge, so the 2n-1 of them split the C(2n, 2) edges of the complete
graph into color classes: a proper (2n-1)-edge-coloring.  Conversely any
such coloring rebuilds a loop of this kind, and the two counts agree.

Both directions read the Cayley table directly.  Once x*x = e and the right
alternative law hold, each R_a with a != e is a fixed-point-free involution
((xa)a = x(aa) = x, and xa = x only when a = e), so edge {u, v} takes color
u\\v.  K_n has a proper (n-1)-edge-coloring only when n is even, and then
each class is a perfect matching holding one edge {0, v}; naming that class
v writes a loop with identity 0.  No other naming does: column 0 is the
identity map and every other column is fixed-point-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .config import DEFAULT_CAPS, Caps
from .core import FiniteLoop, default_labels
from .errors import (
    ImproperColoring,
    NotInvolutory,
    NotRightAlternative,
    OddOrder,
    SizeCapExceeded,
)
from .identities import Law, Verdict, check_law

Edge = tuple[int, int]


@dataclass(frozen=True)
class EdgeColoring:
    """Colors on the edges of K_n: each edge (u, v), u < v, once and in sorted order."""

    n_vertices: int
    color_of: tuple[tuple[Edge, int], ...]  # ((u, v), color) with u < v, sorted

    def __post_init__(self):
        edges = [edge for edge, _ in self.color_of]
        if edges != list(combinations(range(self.n_vertices), 2)):
            raise ValueError("coloring must assign every edge exactly once")

    @classmethod
    def from_dict(cls, n_vertices: int, mapping: dict[Edge, int]) -> "EdgeColoring":
        norm = {}
        for (u, v), c in mapping.items():
            if u == v:
                raise ValueError("self-loops are not edges")
            key = (min(u, v), max(u, v))
            norm[key] = c
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


def _loop_from_matchings(n: int, matchings) -> FiniteLoop:
    """The loop whose column a swaps the ends of each edge in a's matching; column 0 is e.

    ``matchings`` pairs each a != 0 with a perfect matching through {0, a};
    partitioning K_n's edges, they make a Latin square with identity 0.
    """
    table = [[x] * n for x in range(n)]
    for a, matching in matchings:
        for u, v in matching:
            table[u][a] = v
            table[v][a] = u
    return FiniteLoop(n, tuple(map(tuple, table)), default_labels(n))


def loop_to_coloring(L: FiniteLoop) -> EdgeColoring:
    """Color edge {u, v} by u\\v: past these checks R_a is an involution, so R_u\\v swaps them."""
    if L.size % 2 != 0:
        raise OddOrder(f"order {L.size} is odd")
    for x in range(L.size):
        if L.table[x][x] != 0:
            raise NotInvolutory(x)
    ralt = check_law(L, Law.RIGHT_ALTERNATIVE)
    if not ralt.holds:
        raise NotRightAlternative(ralt.witness)
    # row u holds v = u*a at column a = u\\v; no division memo is kept on L
    color_of = (((u, v), a) for u, row in enumerate(L.table) for a, v in enumerate(row) if u < v)
    return EdgeColoring(L.size, tuple(sorted(color_of)))


def coloring_to_loop(coloring: EdgeColoring) -> FiniteLoop:
    """Rebuild the loop whose translations are the color classes.

    A proper coloring with n-1 colors makes each class a perfect matching
    through one edge {0, v}; that class becomes R_v, and vertex 0 the identity.
    """
    proper = validate_proper(coloring)
    if not proper.holds:
        raise ImproperColoring(*proper.witness)
    n = coloring.n_vertices
    if n == 0:
        raise ValueError("coloring has no vertices; a loop needs at least one element")
    classes = coloring.color_classes()
    if len(classes) != n - 1:
        raise ValueError(f"K_{n} was given {len(classes)} colors where a loop needs {n - 1}")
    # color_of is sorted, so each class starts with its edge {0, v}
    return _loop_from_matchings(n, ((edges[0][1], edges) for edges in classes.values()))


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
            solutions.append(_loop_from_matchings(order, chosen.items()))
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
    above, but keeps its own bookkeeping: this backtracker anchors the
    smallest uncovered edge, read off the set of remaining edges, matches
    only the remaining edges that avoid both of its ends, and counts edge
    sets without building loops.  That anchor is always an edge {0, k}, so
    the matchings visited are the enumerator's; what the cross-check compares
    is the bookkeeping, not the partition of the search.
    """
    if n_vertices % 2 != 0:
        raise OddOrder(f"{n_vertices} vertices admit no perfect matching")
    vertices = tuple(range(n_vertices))
    count = 0

    def rec(remaining: frozenset[Edge]):
        nonlocal count
        if not remaining:
            count += 1
            return
        anchor = u, v = min(remaining)
        # every matching through the anchor is the anchor plus a matching of the other vertices
        rest_v = tuple(w for w in vertices if w != u and w != v)
        avail = sorted(e for e in remaining if u not in e and v not in e)
        for tail in _matchings(avail, rest_v):
            rec(remaining.difference(tail, (anchor,)))

    rec(frozenset(combinations(vertices, 2)))
    return count


def coloring_to_text(coloring: EdgeColoring) -> str:
    """One line per edge: "u v color"."""
    return "\n".join(f"{u} {v} {c}" for (u, v), c in coloring.color_of)


def coloring_from_text(text: str) -> EdgeColoring:
    """Parse ``coloring_to_text`` lines, skipping blank ones; a line that is not three
    integers, a negative vertex or an edge listed twice raises ``ValueError``
    naming the line."""
    mapping: dict[Edge, int] = {}
    vertices: set[int] = set()
    for number, line in enumerate(text.splitlines(), 1):
        tokens = line.split()
        if not tokens:
            continue
        try:
            u, v, c = map(int, tokens)
        except ValueError:
            raise ValueError(
                f"line {number}: expected 'u v color' (three integers), got {line.strip()!r}"
            ) from None
        edge = (min(u, v), max(u, v))
        if edge[0] < 0:
            raise ValueError(f"line {number}: vertex {edge[0]} is negative")
        if edge in mapping:
            raise ValueError(f"line {number}: edge {{{u}, {v}}} is listed twice")
        mapping[edge] = c
        vertices.update((u, v))
    return EdgeColoring.from_dict(max(vertices) + 1 if vertices else 0, mapping)
