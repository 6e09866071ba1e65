"""Subloop censuses, nuclei, centres, derived subloops and normalizers.

The census enumerates every subloop by closing single elements and then
extending each found subloop by each outside element until a fixpoint: any
subloop strictly containing a found one contains a one-element extension of
it, so the process is complete.  An extension <S, g> is closed from S with
only g queued, and is formed for one g per left coset gS.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .config import DEFAULT_CAPS, Caps
from .core import (
    FiniteLoop,
    SubLoop,
    _close,
    _cosets,
    associator,
    certify_subloop,
    commutator,
    cyclic_closures,
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

    The associativity of L is decided before anything else, so in a group
    every subgroup flag, and normality conditions 2 and 3, follow from that
    one scan (see ``is_subgroup`` and ``normality_witness``).  The caps apply
    on every call, memoised or not.
    """
    if L.size > caps.census_order:
        raise CapExceeded("census order", L.size, caps.census_order)
    census = L._memo.get("census")
    if census is None:
        # decided first: in a group every flag below then follows without a scan
        is_associative(L)
        found: dict[frozenset[int], SubLoop] = {}
        stack: list[SubLoop] = []
        for S, _ in cyclic_closures(L):
            key = S.as_set()
            if key not in found:
                found[key] = S
                stack.append(S)
        while stack:
            S = stack.pop()
            if not S.is_proper():
                continue
            # <S, g*s> = <S, g> for s in S (g = (g*s)/s), so one g per left coset gS
            covered = set(S.elements)
            for g in range(L.size):
                if g in covered:
                    continue
                covered.update(next(_cosets(L, S, "left", g, g + 1)))
                T = _close(L, {*S.elements, g}, [g])
                key = T.as_set()
                if key not in found:
                    if len(found) >= caps.census:
                        raise CapExceeded("census size", caps.census + 1, caps.census)
                    found[key] = T
                    stack.append(T)
        subs = _canonical(found.values())
        census = L._memo["census"] = SubloopCensus(
            subloops=tuple(subs),
            subgroup_flags=tuple(is_subgroup(L, s) for s in subs),
            normal_flags=tuple(normality_witness(L, s) is None for s in subs),
        )
    if len(census.subloops) > caps.census:
        raise CapExceeded("census size", caps.census + 1, caps.census)
    return census


def is_normal_subloop(L: FiniteLoop, H: SubLoop):
    """Verdict-style check of the three normality set-equalities."""
    from .identities import Verdict

    witness = normality_witness(L, H)
    if witness is None:
        return Verdict(True)
    return Verdict(False, witness, "condition, x, y")


class NucleusPosition(enum.Enum):
    LEFT = "left"
    MIDDLE = "middle"
    RIGHT = "right"
    FULL = "full"


def _nucleus(L: FiniteLoop, over, position: NucleusPosition) -> SubLoop:
    """Elements a of ``over`` whose associator with every pair from ``over`` is e in a's slot."""
    t = L.table

    def left_ok(a):
        return all(t[t[a][x]][y] == t[a][t[x][y]] for x in over for y in over)

    def middle_ok(a):
        return all(t[t[x][a]][y] == t[x][t[a][y]] for x in over for y in over)

    def right_ok(a):
        return all(t[t[x][y]][a] == t[x][t[y][a]] for x in over for y in over)

    tests = {
        NucleusPosition.LEFT: (left_ok,),
        NucleusPosition.MIDDLE: (middle_ok,),
        NucleusPosition.RIGHT: (right_ok,),
        NucleusPosition.FULL: (left_ok, middle_ok, right_ok),
    }[position]
    members = [a for a in over if all(ok(a) for ok in tests)]
    return certify_subloop(L, members)


def _commutant(L: FiniteLoop, over) -> frozenset[int]:
    """Elements of ``over`` commuting with every element of ``over``."""
    t = L.table
    return frozenset(x for x in over if all(t[x][y] == t[y][x] for y in over))


def _moufang_centre(L: FiniteLoop, over) -> SubLoop:
    c = _commutant(L, over)
    try:
        return certify_subloop(L, c)
    except NotClosed:
        return generated_subloop(L, c)


def _centre(L: FiniteLoop, over) -> SubLoop:
    members = _commutant(L, over) & _nucleus(L, over, NucleusPosition.FULL).as_set()
    return certify_subloop(L, members)


def nucleus(L: FiniteLoop, position: NucleusPosition = NucleusPosition.FULL) -> SubLoop:
    """Elements whose associator vanishes in the given slot against all pairs."""
    return _nucleus(L, range(L.size), position)


def commutant(L: FiniteLoop) -> frozenset[int]:
    """Elements commuting with everything; not necessarily product-closed."""
    return _commutant(L, range(L.size))


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
    return _moufang_centre(L, range(L.size))


def centre(L: FiniteLoop) -> SubLoop:
    """Intersection of the commutant with the full nucleus; always a subgroup."""
    return _centre(L, range(L.size))


class DerivedKind(enum.Enum):
    COMMUTATOR = "commutator"
    ASSOCIATOR = "associator"
    PSEUDO_COMMUTATOR = "pseudo_commutator"
    STRONGLY_PSEUDO_COMMUTATOR = "strongly_pseudo_commutator"
    PSEUDO_ASSOCIATOR = "pseudo_associator"
    STRONGLY_PSEUDO_ASSOCIATOR = "strongly_pseudo_associator"


def _associators(L: FiniteLoop) -> set[int]:
    """Associators of all triples of L."""
    size = L.size
    gens = set()
    for x in range(size):
        for y in range(size):
            for z in range(size):
                gens.add(associator(L, x, y, z))
    return gens


def derived_subloop(L: FiniteLoop, kind: DerivedKind) -> SubLoop:
    """Subloop generated by the defining element set of the chosen kind.

    Commutators range over all pairs and associators over all triples.  The
    pseudo-commutator collects the solutions p of a(xb) = p((bx)a) over
    commuting pairs (a, b) and all x; the strong form collects p with
    (ax)b = (pb)(ax) over distinct pairs.  The pseudo-associator collects t
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
        for a in range(size):
            for b in range(size):
                if a == b:
                    continue
                for x in range(size):
                    u = t[a][x]
                    pb = L.rdiv(u, t[u][b])
                    gens.add(L.rdiv(b, pb))
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
