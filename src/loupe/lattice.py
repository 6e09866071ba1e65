"""Inclusion lattices of subloop families.

A family of certified subloops, together with the trivial subloop and the
whole loop, is closed under pairwise intersection; joins are then the least
family member containing the union.  Modularity and distributivity are
decided both by the defining equations and by searching for the two
forbidden five-element sublattices (pentagon and diamond).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .config import DEFAULT_CAPS, Caps
from .core import FiniteLoop, SubLoop, Verdict
from .errors import CapExceeded, ClosureBlowup


@dataclass(frozen=True)
class InclusionLattice:
    """Nodes (element tuples) ordered by inclusion, with meet/join tables.

    Nodes are sorted by size, then by their elements, and ``build_lattice``
    is the only constructor.  ``covers``, the join and ``_shape`` rely on
    that order: a node's proper supersets all come after it.
    """

    labels: tuple[str, ...]
    nodes: tuple[tuple[int, ...], ...]
    meet: tuple[tuple[int, ...], ...]
    join: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.nodes)

    def leq(self, i: int, j: int) -> bool:
        return self.meet[i][j] == i

    def node_name(self, i: int) -> str:
        members = self.nodes[i]
        return "{" + ",".join(self.labels[x] for x in members) + "}"

    def covers(self) -> list[tuple[int, int]]:
        """Hasse edges (i, j) with i covered by j, in node order."""
        out = []
        for i in range(self.size):
            ups = [j for j in range(i + 1, self.size) if self.leq(i, j)]
            for k, j in enumerate(ups):
                if not any(self.leq(m, j) for m in ups[:k]):
                    out.append((i, j))
        return out


def build_lattice(
    L: FiniteLoop, family, caps: Caps = DEFAULT_CAPS
) -> InclusionLattice:
    """Close a family of subloops into a bounded inclusion lattice.

    The node set is the family plus bottom {e} and top L, closed under
    pairwise intersection, so the least upper bound of two nodes is a node.
    In size order, the join is the lowest set bit of the two nodes' up-sets'
    intersection and the meet the highest of their down-sets' (bitmasks of
    node indices; Ait-Kaci, Boyer, Lincoln and Nasr, TOPLAS 1989).
    """
    top = frozenset(range(L.size))
    seeds = (S.as_set() if isinstance(S, SubLoop) else frozenset(S) for S in family)
    grown = list(dict.fromkeys([frozenset({0}), top, *seeds]))
    if len(grown) > caps.lattice_build:
        raise ClosureBlowup("lattice nodes", caps.lattice_build + 1, caps.lattice_build)
    seen = set(grown)
    for k, a in enumerate(grown):  # each node meets every earlier one once
        for b in grown[:k]:
            c = a & b
            if c not in seen:
                seen.add(c)
                grown.append(c)
                if len(grown) > caps.lattice_build:
                    raise ClosureBlowup("lattice nodes", len(grown), caps.lattice_build)
    ordered = sorted(grown, key=lambda s: (len(s), sorted(s)))
    # bit j of up[i] (bit i of down[j]) marks node i inside node j
    up = [0] * len(ordered)
    down = up[:]
    for j, b in enumerate(ordered):
        for i, a in enumerate(ordered[: j + 1]):
            if a <= b:
                up[i] |= 1 << j
                down[j] |= 1 << i
    return InclusionLattice(
        labels=L.labels,
        nodes=tuple(tuple(sorted(s)) for s in ordered),
        meet=tuple(tuple((d & e).bit_length() - 1 for e in down) for d in down),
        join=tuple(tuple(((m := u & v) & -m).bit_length() - 1 for v in up) for u in up),
    )


def check_modular(lat: InclusionLattice) -> Verdict:
    """x <= z implies x v (y ^ z) = (x v y) ^ z; witness = violating triple."""
    n = lat.size
    for x in range(n):
        for z in range(n):
            if not lat.leq(x, z):
                continue
            for y in range(n):
                if lat.join[x][lat.meet[y][z]] != lat.meet[lat.join[x][y]][z]:
                    return Verdict(False, (x, y, z))
    return Verdict(True)


def _is_sublattice(lat: InclusionLattice, subset: tuple[int, ...]) -> bool:
    inside = set(subset)
    return all(
        lat.meet[a][b] in inside and lat.join[a][b] in inside
        for a in subset
        for b in subset
    )


def _shape(lat: InclusionLattice, subset: tuple[int, ...]) -> str | None:
    """Classify a 5-element sublattice as pentagon or diamond, else None."""
    bot, *mids, top = subset  # node order puts the bottom first and the top last
    rel = [
        (a, b)
        for a in mids
        for b in mids
        if a != b and lat.leq(a, b)
    ]
    for a, b in rel:
        c = next(m for m in mids if m not in (a, b))
        if (
            lat.meet[a][c] == bot
            and lat.meet[b][c] == bot
            and lat.join[a][c] == top
            and lat.join[b][c] == top
        ):
            return "pentagon"
        return None
    if all(
        lat.meet[a][b] == bot and lat.join[a][b] == top
        for a in mids
        for b in mids
        if a != b
    ):
        return "diamond"
    return None


def find_forbidden_sublattice(
    lat: InclusionLattice, shape: str, caps: Caps = DEFAULT_CAPS
) -> tuple[int, ...] | None:
    """First induced 5-element sublattice of the given shape, or None."""
    if shape not in ("pentagon", "diamond"):
        raise ValueError("shape must be 'pentagon' or 'diamond'")
    if lat.size > caps.lattice_nodes:
        raise CapExceeded("lattice size", lat.size, caps.lattice_nodes)
    for subset in combinations(range(lat.size), 5):
        if _is_sublattice(lat, subset) and _shape(lat, subset) == shape:
            return subset
    return None


def check_distributive(lat: InclusionLattice, caps: Caps = DEFAULT_CAPS) -> Verdict:
    """Modular with no diamond sublattice; witness = triple or embedded diamond."""
    modular = check_modular(lat)
    if not modular.holds:
        return Verdict(False, modular.witness, "not modular")
    diamond = find_forbidden_sublattice(lat, "diamond", caps)
    if diamond is not None:
        return Verdict(False, diamond, "diamond sublattice")
    return Verdict(True)


def export_dot(lat: InclusionLattice) -> str:
    """Hasse diagram as a DOT digraph, edges pointing up the order."""
    lines = ["digraph lattice {", "  rankdir=BT;"]
    for i in range(lat.size):
        lines.append(f'  n{i} [label="{lat.node_name(i)}"];')
    for i, j in lat.covers():
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines)


def lattice_summary(lat: InclusionLattice, caps: Caps = DEFAULT_CAPS) -> dict:
    """JSON-friendly dump: nodes, covering pairs, modular/distributive verdicts.

    Distributivity reads null when the lattice exceeds the sublattice-search cap.
    """
    modular = check_modular(lat)
    try:
        distributive = check_distributive(lat, caps).holds
    except CapExceeded:
        distributive = None
    return {
        "nodes": [lat.node_name(i) for i in range(lat.size)],
        "covers": lat.covers(),
        "modular": modular.holds,
        "distributive": distributive,
    }
