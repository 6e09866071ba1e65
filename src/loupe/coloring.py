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
identity map and every other column is fixed-point-free.  The enumerator and
the counter search one list of K_n's perfect matchings, each an edge bitmask.
Both directions into a loop build the involution column of each matching and
read the rows off the columns; the enumerator builds each column once and
shares it among all the loops that use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .config import DEFAULT_CAPS, Caps
from .core import FiniteLoop, Verdict, _first_repeat, default_labels
from .errors import (
    ImproperColoring,
    NotInvolutory,
    NotRightAlternative,
    OddOrder,
    SizeCapExceeded,
)
from .identities import Law, check_law

Edge = tuple[int, int]


@dataclass(frozen=True)
class EdgeColoring:
    """Colors on the edges of K_n: each edge (u, v), u < v, once and in sorted order."""

    n_vertices: int
    color_of: tuple[tuple[Edge, int], ...]  # ((u, v), color) with u < v, sorted

    def __post_init__(self):
        n = self.n_vertices
        edges = [edge for edge, _ in self.color_of]
        # count first: n comes from the input, and one far vertex would list n(n-1)/2 edges
        if len(edges) != n * (n - 1) // 2 or edges != list(combinations(range(n), 2)):
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
    keys = [(vertex, c) for edge, c in coloring.color_of for vertex in edge]
    repeat = _first_repeat(keys)
    return Verdict(True) if repeat is None else Verdict(False, keys[repeat[1]])


def _column(n: int, matching) -> tuple[int, ...]:
    """The involution of range(n) that swaps the two ends of each edge in ``matching``."""
    column = list(range(n))
    for u, v in matching:
        column[u] = v
        column[v] = u
    return tuple(column)


def _loop_from_columns(n: int, columns, labels: tuple[str, ...]) -> FiniteLoop:
    """The loop whose column 0 is e and whose column a is ``columns[a - 1]``.

    Each column is the involution of a perfect matching through {0, a}; when
    the matchings partition K_n's edges the table is a Latin square with
    identity 0, and row x is read off the columns by ``zip``.
    """
    return FiniteLoop(n, tuple(zip(range(n), *columns)), labels)


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
    by_v = {edges[0][1]: edges for edges in classes.values()}
    columns = [_column(n, by_v[v]) for v in range(1, n)]
    return _loop_from_columns(n, columns, default_labels(n))


def _perfect_matchings(n: int) -> list[tuple[int, tuple[Edge, ...]]]:
    """K_n's perfect matchings in lexicographic order, each as (edge mask, edges).

    Bit i of the mask is the i-th edge of ``combinations(range(n), 2)``.
    """
    bit = {edge: 1 << i for i, edge in enumerate(combinations(range(n), 2))}

    def extend(vertices: tuple[int, ...]):
        if not vertices:
            yield 0, ()
            return
        v, *others = vertices
        for u in others:
            for mask, tail in extend(tuple(w for w in others if w != u)):
                yield bit[v, u] | mask, ((v, u),) + tail

    return list(extend(tuple(range(n))))


def enumerate_involutory_right_alt(
    order: int, caps: Caps = DEFAULT_CAPS
) -> list[FiniteLoop]:
    """All loops of the given even order that are right alternative with x*x = e.

    Backtracks over translation assignments: R_a must be a perfect matching
    containing {0, a} whose edge mask misses the used edges.  Each solution
    is a distinct system of translations; loops come out in canonical table
    order.
    """
    if order % 2 != 0 or order < 2:
        raise OddOrder(f"order {order} is not even and positive")
    if order > 8:
        raise SizeCapExceeded("enumeration order", order, 8)
    # each matching becomes its column once; every solution's rows are read off these
    through: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    for mask, matching in _perfect_matchings(order):
        through.setdefault(matching[0][1], []).append((mask, _column(order, matching)))
    labels = default_labels(order)
    solutions: list[FiniteLoop] = []
    nodes = 0

    def place(a: int, used: int, chosen: tuple[tuple[int, ...], ...]):
        nonlocal nodes
        if a == order:
            solutions.append(_loop_from_columns(order, chosen, labels))
            return
        for mask, column in through[a]:
            if mask & used:
                continue
            nodes += 1
            if nodes > caps.color_search:
                raise SizeCapExceeded("coloring search nodes", nodes, caps.color_search)
            place(a + 1, used | mask, chosen + (column,))

    place(1, 0, ())
    return solutions


def count_one_factorizations(n_vertices: int) -> int:
    """Count the partitions of K_n's edges into perfect matchings.

    Shares the matching table with the loop enumeration above, but keeps its
    own bookkeeping: this backtracker anchors the smallest uncovered edge,
    the lowest unset bit of the used-edge mask, tries only the matchings whose
    lowest edge it is (every edge below it is used), and counts edge sets
    without building loops.  That anchor is always an edge {0, k}, so the
    matchings visited are the enumerator's; what the cross-check compares is
    the bookkeeping, not the partition of the search.
    """
    if n_vertices % 2 != 0:
        raise OddOrder(f"{n_vertices} vertices admit no perfect matching")
    by_lowest: dict[int, list[int]] = {}
    every_edge = 0
    for mask, _ in _perfect_matchings(n_vertices):
        by_lowest.setdefault(mask & -mask, []).append(mask)
        every_edge |= mask

    def rec(used: int) -> int:
        if used == every_edge:
            return 1
        return sum(rec(used | m) for m in by_lowest[~used & (used + 1)] if not m & used)

    return rec(0)


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
