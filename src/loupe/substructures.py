"""Subloop censuses, nuclei, centres, derived subloops and normalizers.

The census enumerates every subloop by closing single elements and then
extending each found subloop by each outside element until a fixpoint: any
subloop strictly containing a found one contains a one-element extension of
it, so the process is complete.  An extension <S, g> is formed for one g per
left coset gS.  In a group it is found by a coset search over the generators
of S and g (``_coset_search``); in any other loop it is closed from S with
only g queued.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .config import DEFAULT_CAPS, Caps
from .core import (
    FiniteLoop,
    SubLoop,
    Verdict,
    _close,
    _cosets,
    _in_nucleus,
    certify_subloop,
    commutator,
    cyclic_closures,
    division,
    generated_subloop,
    is_associative,
    is_commutative_subset,
    is_subgroup,
    normality_witness,
    quotient_loop,
)
from .errors import CapExceeded, NotClosed


@dataclass(frozen=True)
class SubloopCensus:
    """Every subloop of a loop with subgroup and normality flags, canonically sorted."""

    subloops: tuple[SubLoop, ...]
    subgroup_flags: tuple[bool, ...]
    normal_flags: tuple[bool, ...]

    def subgroups(self) -> list[SubLoop]:
        return [s for s, f in zip(self.subloops, self.subgroup_flags) if f]

    def normal_subloops(self) -> list[SubLoop]:
        return [s for s, f in zip(self.subloops, self.normal_flags) if f]


def _canonical(subs) -> list[SubLoop]:
    return sorted(subs, key=lambda s: (s.order, s.elements))


def all_subloops(L: FiniteLoop, caps: Caps = DEFAULT_CAPS) -> SubloopCensus:
    """Fixpoint enumeration of all subloops of L, memoised on L.

    The associativity of L is decided before anything else, by Light's test,
    so in a group every subgroup flag, and normality conditions 2 and 3,
    follow from that one verdict (see ``is_subgroup`` and
    ``normality_witness``), and each extension is a coset search.  Each
    subloop is carried with the generators it was found from: (x,) for <x>
    and those of S plus g for <S, g>.  The caps apply on every call,
    memoised or not.
    """
    if L.size > caps.census_order:
        raise CapExceeded("census order", L.size, caps.census_order)
    census = L._memo.get("census")
    if census is None:
        # decided first: in a group every flag below then follows without a scan
        group = is_associative(L)
        found: dict[frozenset[int], SubLoop] = {}
        stack: list[tuple[SubLoop, tuple[int, ...]]] = []  # each subloop with its generators
        for x, (S, _) in enumerate(cyclic_closures(L)):
            key = S.as_set()
            if key not in found:
                found[key] = S
                stack.append((S, (x,)))
        while stack:
            S, gens = stack.pop()
            if not S.is_proper():
                continue
            # <S, g*s> = <S, g> for s in S (g = (g*s)/s), so one g per left coset gS
            covered = set(S.elements)
            for g in range(L.size):
                if g in covered:
                    continue
                covered.update(next(_cosets(L, S, "left", g, g + 1)))
                t_gens = gens + (g,)
                T = _coset_search(L, S, t_gens) if group else _close(L, {*S.elements, g}, [g])
                key = T.as_set()
                if key not in found:
                    if len(found) >= caps.census:
                        raise CapExceeded("census size", caps.census + 1, caps.census)
                    found[key] = T
                    stack.append((T, t_gens))
        subs = _canonical(found.values())
        census = L._memo["census"] = SubloopCensus(
            subloops=tuple(subs),
            subgroup_flags=tuple(is_subgroup(L, s) for s in subs),
            normal_flags=tuple(normality_witness(L, s) is None for s in subs),
        )
    if len(census.subloops) > caps.census:
        raise CapExceeded("census size", caps.census + 1, caps.census)
    return census


def _coset_search(L: FiniteLoop, S: SubLoop, gens: tuple[int, ...]) -> SubLoop:
    """The subgroup of a group L generated by ``gens`` (generators of S and one more
    element), as a union of right cosets S*v.

    The subgroup generated by a set X is the orbit of e under right
    multiplication by X.  Starting from S = S*e, each representative is
    multiplied by each generator, and each product w outside the cosets found
    so far adds its whole coset S*w, read off S's rows at column w.  The union
    is then closed under every generator a: for s in S and a representative v,
    (s*v)*a = s*(v*a), and v*a lies in some found coset S*w, so s*(v*a) does
    too.  A subgroup of more than half of L is L (Lagrange).
    """
    size = L.size
    half = size // 2
    table = L.table
    rows = [table[s] for s in S.elements]
    elems = set(S.elements)
    reps = [0]
    for v in reps:
        row = table[v]
        for a in gens:
            w = row[a]
            if w not in elems:
                elems.update([r[w] for r in rows])
                if len(elems) > half:
                    return SubLoop(tuple(range(size)), size)
                reps.append(w)
    return SubLoop(tuple(sorted(elems)), size)


def is_normal_subloop(L: FiniteLoop, H: SubLoop) -> Verdict:
    """Verdict-style check of the three normality set-equalities."""
    witness = normality_witness(L, H)
    if witness is None:
        return Verdict(True)
    return Verdict(False, witness, "condition, x, y")


class NucleusPosition(enum.Enum):
    LEFT = "left"
    MIDDLE = "middle"
    RIGHT = "right"
    FULL = "full"


def nucleus(L: FiniteLoop, position: NucleusPosition = NucleusPosition.FULL) -> SubLoop:
    """Elements whose associator vanishes in the given slot against all pairs.

    e always lies in every nucleus; each other element is decided by the row
    test of ``_in_nucleus``, the one Light's associativity test reads.
    """
    t = L.table
    slots = ("left", "middle", "right") if position is NucleusPosition.FULL else (position.value,)
    members = [0] + [a for a in range(1, L.size) if all(_in_nucleus(t, a, s) for s in slots)]
    return certify_subloop(L, members)


def commutant(L: FiniteLoop) -> frozenset[int]:
    """Elements commuting with everything (row x equals column x); not necessarily product-closed."""
    t = L.table
    return frozenset(x for x, col in enumerate(zip(*t)) if t[x] == col)


def commutant_is_closed(L: FiniteLoop) -> bool:
    try:
        certify_subloop(L, commutant(L))
        return True
    except NotClosed:
        return False


def moufang_centre(L: FiniteLoop) -> SubLoop:
    """The commutant as a certified subloop.

    When the commutant itself fails closure (possible in arbitrary loops) the
    generated subloop is returned instead; ``commutant_is_closed`` tells the
    two cases apart.
    """
    c = commutant(L)
    try:
        return certify_subloop(L, c)
    except NotClosed:
        return generated_subloop(L, c)


def centre(L: FiniteLoop) -> SubLoop:
    """Intersection of the commutant with the full nucleus; always a subgroup."""
    return certify_subloop(L, commutant(L) & nucleus(L).as_set())


class DerivedKind(enum.Enum):
    COMMUTATOR = "commutator"
    ASSOCIATOR = "associator"
    PSEUDO_COMMUTATOR = "pseudo_commutator"
    STRONGLY_PSEUDO_COMMUTATOR = "strongly_pseudo_commutator"
    PSEUDO_ASSOCIATOR = "pseudo_associator"
    STRONGLY_PSEUDO_ASSOCIATOR = "strongly_pseudo_associator"


def _associator_scan(t, ld) -> frozenset[int]:
    """Associators of all triples, read as x(yz) \\ (xy)z along rows of the table."""
    gens = set()
    for row_x in t:
        for y, xy in enumerate(row_x):
            gens.update(ld[p][q] for p, q in zip(map(row_x.__getitem__, t[y]), t[xy]))
    return frozenset(gens)


def _associators(L: FiniteLoop) -> frozenset[int]:
    """Associators of all triples of L, scanned once per loop and memoised on it."""
    gens = L._memo.get("associators")
    if gens is None:
        gens = L._memo["associators"] = _associator_scan(L.table, division(L)[0])
    return gens


def derived_subloop(L: FiniteLoop, kind: DerivedKind) -> SubLoop:
    """Subloop generated by the defining element set of the chosen kind.

    Commutators range over all pairs and associators over all triples.  The
    pseudo-commutator collects the solutions p of a(xb) = p((bx)a) over
    commuting pairs (a, b) and all x; the strong form collects p with
    (ax)b = (pb)(ax) over distinct pairs, which is p = ((ub)/u)/b over all
    u and b.  The pseudo-associator collects t
    with (ab)(tc) = (at)(bc) over associating triples (a, b, c); the strong
    form drops the associativity restriction on the triple.  Both
    pseudo-associator subloops are the whole loop: the triple (e, e, e)
    associates and gives (ee)(te) = t = (et)(ee) for every t.
    """
    t = L.table
    size = L.size
    gens: set[int] = set()
    if kind is DerivedKind.COMMUTATOR:
        for x in range(size):
            for y in range(size):
                gens.add(commutator(L, x, y))
    elif kind is DerivedKind.ASSOCIATOR:
        gens = _associators(L)
    elif kind is DerivedKind.PSEUDO_COMMUTATOR:
        for a in range(size):
            for b in range(size):
                if t[a][b] != t[b][a]:
                    continue
                for x in range(size):
                    u = t[t[b][x]][a]
                    gens.add(L.rdiv(u, t[a][t[x][b]]))
    elif kind is DerivedKind.STRONGLY_PSEUDO_COMMUTATOR:
        # with u = ax, x ranges over L for every a, and some a != b exists once n >= 2
        for u in range(size):
            for b in range(size):
                gens.add(L.rdiv(b, L.rdiv(u, t[u][b])))
    elif kind in (DerivedKind.PSEUDO_ASSOCIATOR, DerivedKind.STRONGLY_PSEUDO_ASSOCIATOR):
        return SubLoop(tuple(range(size)), size)
    else:
        raise ValueError(f"unknown kind {kind}")
    return generated_subloop(L, gens)


def frattini_subloop(L: FiniteLoop, caps: Caps = DEFAULT_CAPS) -> SubLoop:
    """Intersection of all maximal proper subloops (whole loop when none exist)."""
    census = all_subloops(L, caps)
    proper = [s for s in census.subloops if s.is_proper()]
    if not proper:
        return SubLoop(tuple(range(L.size)), L.size)
    maximal = [
        s
        for s in proper
        if not any(o is not s and s.as_set() < o.as_set() for o in proper)
    ]
    members = frozenset(range(L.size))
    for s in maximal:
        members &= s.as_set()
    return certify_subloop(L, members)


class SeriesKind(enum.Enum):
    CENTRALLY_DERIVED = "centrally_derived"
    NUCLEARLY_DERIVED = "nuclearly_derived"


def derived_series_target(
    L: FiniteLoop, kind: SeriesKind, caps: Caps = DEFAULT_CAPS
) -> SubLoop:
    """Smallest normal subloop whose quotient is an abelian group (resp. a group)."""
    census = all_subloops(L, caps)
    for S in census.normal_subloops():
        Q = quotient_loop(L, S)
        if not is_associative(Q):
            continue
        if kind is SeriesKind.CENTRALLY_DERIVED and not is_commutative_subset(
            Q, range(Q.size)
        ):
            continue
        return S
    raise AssertionError("the whole loop always has a trivial quotient")


def first_normalizer(L: FiniteLoop, H: SubLoop) -> frozenset[int]:
    """{a : aH = Ha} as sets."""
    sides = zip(_cosets(L, H, "left"), _cosets(L, H, "right"))
    return frozenset(a for a, (ah, ha) in enumerate(sides) if ah == ha)


def second_normalizer(
    L: FiniteLoop, H: SubLoop, bracketing: str = "left"
) -> frozenset[int]:
    """{x : x(Hx) = H}, bracketed (x*h)*x by default or x*(h*x) with "right".

    On flexible loops the two bracketings agree.
    """
    t = L.table
    hs = H.elements
    target = H.as_set()
    if bracketing == "left":
        conj = lambda x, h: t[t[x][h]][x]
    elif bracketing == "right":
        conj = lambda x, h: t[x][t[h][x]]
    else:
        raise ValueError("bracketing must be 'left' or 'right'")
    return frozenset(
        x for x in range(L.size) if {conj(x, h) for h in hs} == target
    )
