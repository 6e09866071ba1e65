"""Smarandache structure analysis: subgroup-bearing loops and their relatives.

An S-loop is a loop containing a proper subset that is a group under the
induced product (subgroups of size one are ignored: the trivial subgroup
would make every loop an S-loop).  An S-subloop is a proper subloop that is
itself an S-loop but not a group.  Most notions here relativize a classical
construction (commutator, nucleus, Lagrange/Sylow counting, representations,
cosets) to such a subset.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import permutations
from operator import eq

from .config import DEFAULT_CAPS, Caps
from .core import (
    FiniteLoop,
    SubLoop,
    Verdict,
    _cosets,
    cyclic_closures,
    element_order,
    factorize,
    generated_subloop,
    is_commutative_subset,
    is_cyclic_group,
    is_subgroup,
    subloop_as_loop,
)
from .errors import (
    BadIndex,
    NotASubgroup,
    NotIPLoop,
    NotNormal,
    NotPrime,
    QNotInSubloop,
    SearchCapExceeded,
)
from .identities import (
    _LAWS,
    _decide,
    _law,
    Law,
    check_law,
    is_arif,
    is_diassociative,
    is_power_associative,
)
from .substructures import (
    DerivedKind,
    NucleusPosition,
    _associators,
    all_subloops,
    centre,
    derived_subloop,
    first_normalizer,
    moufang_centre,
    nucleus,
    second_normalizer,
)


def _smallest_proper_group(L: FiniteLoop, A: SubLoop) -> SubLoop | None:
    """The smallest cyclic group of order >= 2 properly inside A, by (order, elements).

    Any group of order >= 2 holds a cyclic one of order >= 2, so the closures
    of single elements of A decide whether A properly contains a group at all.
    """
    closures = cyclic_closures(L)
    return min(
        (S for S, is_group in map(closures.__getitem__, A.elements)
         if is_group and 2 <= S.order < A.order),
        key=lambda S: (S.order, S.elements),
        default=None,
    )


def is_s_subloop(L: FiniteLoop, A: SubLoop) -> bool:
    """Proper subloop, not itself a group, containing a subgroup of size >= 2.

    Inside a non-group A every cyclic group is a proper subset, and only e
    generates one of order below 2, so the one predicate decides the rest.
    """
    return A.is_proper() and not is_subgroup(L, A) and _smallest_proper_group(L, A) is not None


def is_s_loop(L: FiniteLoop) -> Verdict:
    """Does some proper subset of size >= 2 form a group?  Witness: the smallest
    cyclic one, which is the smallest such group."""
    S = _smallest_proper_group(L, SubLoop(tuple(range(L.size)), L.size))
    return Verdict(False) if S is None else Verdict(True, S.elements)


def is_normal_subgroup(L: FiniteLoop, A: SubLoop) -> bool:
    """mA = Am for every loop element m (the level-II normality condition)."""
    return all(map(eq, _cosets(L, A, "left"), _cosets(L, A, "right")))


@dataclass(frozen=True)
class SSubstructures:
    s_subloops: tuple[SubLoop, ...]
    s_normal_subloops: tuple[SubLoop, ...]
    s_simple: bool
    s_subgroup_loop: bool


def s_substructures(L: FiniteLoop, caps: Caps = DEFAULT_CAPS) -> SSubstructures:
    """S-subloops and S-normal subloops from the census.

    An S-normal subloop is a proper normal subloop containing a subgroup of
    size >= 2 (never the trivial one); S-simple means none exists.  A
    subgroup loop is an S-loop whose proper nontrivial subloops are all groups.
    """
    census = all_subloops(L, caps)
    s_subs = tuple(S for S in census.subloops if is_s_subloop(L, S))
    s_normal = tuple(
        S for S in census.normal_subloops() if S.is_proper() and _smallest_proper_group(L, S)
    )
    subgroup_loop = bool(is_s_loop(L)) and all(
        group
        for S, group in zip(census.subloops, census.subgroup_flags)
        if S.is_proper() and not S.is_trivial()
    )
    return SSubstructures(
        s_subloops=s_subs,
        s_normal_subloops=s_normal,
        s_simple=not s_normal,
        s_subgroup_loop=subgroup_loop,
    )


def satisfies_sylow_criteria(L: FiniteLoop) -> Verdict:
    """For every prime p dividing |L|, a subgroup of p-power order exists.

    A subgroup of order p^k contains an element of order p (Cauchy inside the
    group), and conversely an element of order p spans a subgroup of order p,
    so scanning cyclic closures decides the criterion without a census.
    """
    orders = {}
    for x in range(1, L.size):
        k = element_order(L, x)
        if k is not None:
            orders.setdefault(k, x)
    for p, _ in factorize(L.size):
        if p not in orders:
            return Verdict(False, (p,), "no element of this prime order")
    return Verdict(True, tuple(sorted(orders.items())))


def is_s_cauchy_loop(L: FiniteLoop) -> Verdict:
    """Every element of every proper subgroup has order dividing |L|."""
    if not is_s_loop(L):
        return Verdict(False, None, "not an S-loop")
    for x in range(1, L.size):
        k = element_order(L, x)
        if k is not None and L.size % k != 0:
            return Verdict(False, (x, k))
    return Verdict(True)


@dataclass(frozen=True)
class SReport:
    """All boolean Smarandache criteria of a loop plus their witnesses.

    Universal flags that would otherwise be vacuous (nothing to quantify
    over) additionally require the quantified family to be nonempty, so that
    the strong variants imply the plain ones.
    """

    is_s_loop: bool
    witness_subgroup: tuple[int, ...] | None
    s_subloops: tuple[SubLoop, ...]
    s_normal_subloops: tuple[SubLoop, ...]
    flags: dict[str, bool]
    witnesses: dict[str, object] = field(default_factory=dict)


def _proper_subgroups(L: FiniteLoop, caps: Caps) -> list[SubLoop]:
    """The census's proper subgroups of order >= 2, in census order: the report,
    the strong S-p-Sylow test and pseudo-representations all read this list."""
    return [S for S in all_subloops(L, caps).subgroups() if S.order >= 2 and S.is_proper()]


def s_classical_report(L: FiniteLoop, caps: Caps = DEFAULT_CAPS) -> SReport:
    """Compute the 16 classical-style Smarandache flags, as one table, by exhaustive scan."""
    structures = s_substructures(L, caps)
    sl = is_s_loop(L)
    subgroups = _proper_subgroups(L, caps)
    normal = [S for S in subgroups if is_normal_subgroup(L, S)]
    normal_orders = {S.order for S in normal}
    s_subs = structures.s_subloops
    size = L.size
    cauchy = is_s_cauchy_loop(L)
    sylow = satisfies_sylow_criteria(L)
    bad_lagrange = next((S for S in subgroups if size % S.order), None)
    bad_pseudo = next((S for S in s_subs if size % S.order), None)
    # a proper subgroup of order >= 2 makes L an S-loop, so the criterion is s_lagrange
    lagrange = bool(subgroups) and bad_lagrange is None
    commutative = sum(is_commutative_subset(L, S.elements) for S in subgroups)
    cyclic = sum(is_cyclic_group(L, S) for S in subgroups)
    flags = {
        "s_simple": structures.s_simple,
        "s_subgroup_loop": structures.s_subgroup_loop,
        "s_cauchy": cauchy.holds,
        "s_lagrange": lagrange,
        "s_weakly_lagrange": any(size % S.order == 0 for S in subgroups),
        "s_pseudo_lagrange": bool(s_subs) and bad_pseudo is None,
        "s_weakly_pseudo_lagrange": any(size % S.order == 0 for S in s_subs),
        "s_lagrange_criteria": lagrange,
        "s_sylow_criteria": sylow.holds,
        "s_commutative": commutative > 0,
        "s_strongly_commutative": bool(subgroups) and commutative == len(subgroups),
        "s_cyclic": cyclic > 0,
        "s_strongly_cyclic": bool(subgroups) and cyclic == len(subgroups),
        "s_loop_ii": bool(normal),
        "s_lagrange_criteria_ii": bool(normal) and all(size % S.order == 0 for S in normal),
        "s_sylow_criteria_ii": all(p in normal_orders for p, _ in factorize(size)),
    }
    witnesses = {name: w for name, w in (
        ("s_cauchy", None if cauchy.holds else cauchy.witness or cauchy.detail),
        ("s_lagrange", bad_lagrange and bad_lagrange.elements),
        ("s_pseudo_lagrange", bad_pseudo and bad_pseudo.elements),
        ("s_sylow_criteria", None if sylow.holds else sylow.witness),
        ("s_loop_ii", normal[0].elements if normal else None),
    ) if w is not None}
    return SReport(
        is_s_loop=sl.holds,
        witness_subgroup=sl.witness,
        s_subloops=s_subs,
        s_normal_subloops=structures.s_normal_subloops,
        flags=flags,
        witnesses=witnesses,
    )


@dataclass(frozen=True)
class SylowReport:
    s_p_sylow_subloops: tuple[SubLoop, ...]
    s_p_sylow_subgroup_pairs: tuple[tuple[SubLoop, SubLoop], ...]
    s_strong_p_sylow: bool


def s_p_sylow(L: FiniteLoop, p: int, caps: Caps = DEFAULT_CAPS) -> SylowReport:
    """Sylow-style structure relative to a prime p dividing |L|.

    Returns the S-subloops of order exactly p, the (A, B) pairs where B is an
    order-p subgroup inside an S-subloop A with p dividing |A|, and whether
    the loop is a subgroup loop in which every subgroup has p-power order
    dividing |L|.
    """
    if p < 2 or factorize(p) != [(p, 1)]:
        raise NotPrime(f"{p} is not prime")
    if L.size % p != 0:
        raise NotPrime(f"{p} does not divide the loop order {L.size}")
    structures = s_substructures(L, caps)
    order_p = tuple(S for S in structures.s_subloops if S.order == p)
    subgroups = _proper_subgroups(L, caps)
    # an order-p subgroup inside a proper S-subloop is itself proper
    pairs = [
        (A, B)
        for A in structures.s_subloops if A.order % p == 0
        for B in subgroups if B.order == p and B.as_set() <= A.as_set()
    ]
    strong = structures.s_subgroup_loop and all(
        L.size % S.order == 0 and [q for q, _ in factorize(S.order)] == [p] for S in subgroups
    )
    return SylowReport(order_p, tuple(pairs), strong)


class RelativeKind(enum.Enum):
    COMMUTATOR = "commutator"
    ASSOCIATOR = "associator"
    PSEUDO_ASSOCIATOR = "pseudo_associator"
    STRONGLY_PSEUDO_ASSOCIATOR = "strongly_pseudo_associator"
    NUCLEUS_LEFT = "nucleus_left"
    NUCLEUS_MIDDLE = "nucleus_middle"
    NUCLEUS_RIGHT = "nucleus_right"
    NUCLEUS = "nucleus"
    MOUFANG_CENTRE = "moufang_centre"
    CENTRE = "centre"
    FIRST_NORMALIZER = "first_normalizer"
    SECOND_NORMALIZER = "second_normalizer"


# the kinds that range over A alone, each the classical substructure of A as a loop
_CLASSICAL = {
    RelativeKind.COMMUTATOR: lambda S: derived_subloop(S, DerivedKind.COMMUTATOR),
    RelativeKind.PSEUDO_ASSOCIATOR: lambda S: derived_subloop(S, DerivedKind.PSEUDO_ASSOCIATOR),
    RelativeKind.NUCLEUS_LEFT: lambda S: nucleus(S, NucleusPosition.LEFT),
    RelativeKind.NUCLEUS_MIDDLE: lambda S: nucleus(S, NucleusPosition.MIDDLE),
    RelativeKind.NUCLEUS_RIGHT: lambda S: nucleus(S, NucleusPosition.RIGHT),
    RelativeKind.NUCLEUS: nucleus,
    RelativeKind.MOUFANG_CENTRE: moufang_centre,
    RelativeKind.CENTRE: centre,
}


def relative_substructure(L: FiniteLoop, A: SubLoop, kind: RelativeKind):
    """Classical substructures computed relative to a subloop A.

    Serves both levels of the theory: level I passes an S-subloop, level II
    an S-subloop of the normal flavour, and a loop with no S-subloops passes
    A = L itself.  The commutator, pseudo-associator, nuclei, Moufang centre
    and centre range over A alone; A is a subloop, so every product and
    quotient they read stays in A, and each is the classical substructure of
    ``subloop_as_loop(L, A)`` mapped back through ``A.elements``.  The
    pseudo-associator is then A itself: the triple (e, e, e) associates and
    gives (ee)(te) = t = (et)(ee) for every t, and for the same reason the
    strong form, which takes t anywhere in L, is L.  Associators collect the
    associators of all triples of L that happen to lie in A.  Normalizers
    range over all of L and return element sets; everything else returns a
    certified subloop.
    """
    if kind in _CLASSICAL:
        S = _CLASSICAL[kind](subloop_as_loop(L, A))
        return SubLoop(tuple(A.elements[i] for i in S.elements), L.size)
    if kind is RelativeKind.ASSOCIATOR:
        return generated_subloop(L, _associators(L) & A.as_set())
    if kind is RelativeKind.STRONGLY_PSEUDO_ASSOCIATOR:
        return SubLoop(tuple(range(L.size)), L.size)
    if kind is RelativeKind.FIRST_NORMALIZER:
        return first_normalizer(L, A)
    if kind is RelativeKind.SECOND_NORMALIZER:
        return second_normalizer(L, A)
    raise ValueError(f"unknown kind {kind}")


class SLaw(enum.Enum):
    ASSOCIATIVE_TRIPLE = "associative_triple"
    PAIRWISE_ASSOCIATIVE = "pairwise_associative"
    DIASSOCIATIVE = "diassociative"
    POWER_ASSOCIATIVE = "power_associative"
    ARIF = "arif"
    STEINER = "steiner"


class SMode(enum.Enum):
    EXISTS = "exists"
    FOR_ALL = "for_all"


# some triple of distinct non-identity elements associates: the first failure
# of this negation over the domain range(1, n)
_NO_ASSOCIATIVE_TRIPLE = _law(
    3, lambda t, ld, x, y, z: len({x, y, z}) < 3 or t[t[x][y]][z] != t[x][t[y][z]])


def _s_subloop_satisfies(L: FiniteLoop, A: SubLoop, law, caps: Caps = DEFAULT_CAPS) -> bool:
    sub = subloop_as_loop(L, A)
    # two S-laws are laws of check_law: pairwise associativity (xy)x = x(yx) is flexibility
    law = {SLaw.PAIRWISE_ASSOCIATIVE: Law.FLEXIBLE, SLaw.STEINER: Law.STEINER}.get(law, law)
    if isinstance(law, Law):
        return check_law(sub, law).holds
    if law is SLaw.ASSOCIATIVE_TRIPLE:
        return not _decide(sub.table, None, _NO_ASSOCIATIVE_TRIPLE, range(1, sub.size)).holds
    if law is SLaw.DIASSOCIATIVE:
        return is_diassociative(sub).holds
    if law is SLaw.POWER_ASSOCIATIVE:
        return is_power_associative(sub).holds
    try:  # SLaw.ARIF, the one S-law left
        return is_arif(sub, caps.mlt).holds
    except NotIPLoop:
        return False


def _quantify_over_s_subloops(L: FiniteLoop, holds, mode: SMode, caps: Caps) -> Verdict:
    """Quantify ``holds(A)`` over the S-subloops A of L; the first A that decides is witness."""
    subloops = s_substructures(L, caps).s_subloops
    exists = mode is SMode.EXISTS
    if not subloops:
        return Verdict(not exists, None, "no S-subloops" if exists else "no S-subloops (vacuous)")
    decider = next((A for A in subloops if holds(A) == exists), None)
    return Verdict(not exists) if decider is None else Verdict(exists, decider.elements)


def s_law_check(
    L: FiniteLoop, law, mode: SMode = SMode.EXISTS, caps: Caps = DEFAULT_CAPS
) -> Verdict:
    """Quantify a ``Law`` or an ``SLaw`` over the S-subloops of L.

    With no S-subloops at all, existential checks fail and universal checks
    hold vacuously; the detail string records that situation.  Any other
    ``law`` raises ``ValueError``, whether or not L has S-subloops.
    """
    if not isinstance(law, (Law, SLaw)):
        raise ValueError(f"unknown S-law {law}")
    return _quantify_over_s_subloops(
        L, lambda A: _s_subloop_satisfies(L, A, law, caps), mode, caps)


class TripleLaw(enum.Enum):
    BOL = "bol"
    MOUFANG = "moufang"
    BRUCK = "bruck"


# each formula is the ternary check in the row of the matching law of ``check_law``
_TRIPLE_LAWS = {
    triple: next(checks[0][0] for arity, checks, *_ in _LAWS[law] if arity == 3)
    for triple, law in ((TripleLaw.BOL, Law.BOL), (TripleLaw.MOUFANG, Law.MOUFANG1),
                        (TripleLaw.BRUCK, Law.BRUCK))
}


def special_triple(
    L: FiniteLoop, x: int, y: int, z: int, law: TripleLaw, strong: bool = False
) -> Verdict:
    """Evaluate one identity instance on a specific triple (all 6 orders if strong)."""
    holds = _TRIPLE_LAWS[law]
    for w in permutations((x, y, z)) if strong else ((x, y, z),):
        if not holds(L.table, None, *w):
            return Verdict(False, w)
    return Verdict(True)


def s_homomorphism_check(
    L1: FiniteLoop,
    L2: FiniteLoop,
    A: SubLoop,
    A2: SubLoop,
    mapping: dict[int, int],
    level_ii: bool = False,
) -> Verdict:
    """Is the map a group homomorphism from A onto A2?

    Level II additionally requires both subgroups to be normal in their
    parents: the first m with mA != Am raises ``NotNormal(1, m)``.
    """
    for S, parent, name in ((A, L1, "domain"), (A2, L2, "codomain")):
        if not is_subgroup(parent, S):
            raise NotASubgroup(f"{name} subset is not a subgroup")
        if level_ii and not is_normal_subgroup(parent, S):
            raise NotNormal(1, min(set(range(parent.size)) - first_normalizer(parent, S)))
    if set(mapping) != set(A.elements):
        return Verdict(False, None, "map does not cover the domain subgroup")
    if not set(mapping.values()) <= set(A2.elements):
        return Verdict(False, None, "image escapes the codomain subgroup")
    multiplicative = _decide(L1.table, None, _law(2, lambda t, ld, a, b: (
        mapping[t[a][b]] == L2.table[mapping[a]][mapping[b]]), "not multiplicative"), A.elements)
    if not multiplicative.holds:
        return multiplicative
    if set(mapping.values()) != set(A2.elements):
        return Verdict(False, None, "not surjective onto the codomain subgroup")
    return Verdict(True)


def _subgroup_cosets(L: FiniteLoop, A: SubLoop, side: str, start: int = 0, stop=None):
    """mA (``side`` "left") or Am for each m in range(start, stop), all of L by
    default, read lazily from ``core._cosets``; ``NotASubgroup`` unless A is a subgroup."""
    if not is_subgroup(L, A):
        raise NotASubgroup("cosets are defined relative to subgroups")
    return _cosets(L, A, side, start, stop)


def _coset(L: FiniteLoop, A: SubLoop, side: str, m: int) -> frozenset[int]:
    cosets = _subgroup_cosets(L, A, side, m, m + 1)  # a non-subgroup fails before a bad m
    if not 0 <= m < L.size:
        raise BadIndex(f"m={m} out of range")
    return next(cosets)


def right_coset(L: FiniteLoop, A: SubLoop, m: int) -> frozenset[int]:
    """Am = {a*m : a in A} for a subgroup A."""
    return _coset(L, A, "right", m)


def left_coset(L: FiniteLoop, A: SubLoop, m: int) -> frozenset[int]:
    """mA = {m*a : a in A} for a subgroup A."""
    return _coset(L, A, "left", m)


def coset_cover_search(
    L: FiniteLoop, A: SubLoop, side: str = "right", caps: Caps = DEFAULT_CAPS
) -> list[tuple[int, ...]]:
    """All representative sets whose cosets partition L exactly.

    Each solution is the sorted tuple of chosen representatives (one per
    coset, the smallest element producing that coset), and solutions come out
    in lexicographic order.  Returns [] when no exact cover exists.
    """
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")
    rep_of: dict[frozenset[int], int] = {}
    for m, block in enumerate(_subgroup_cosets(L, A, side)):
        rep_of.setdefault(block, m)
    solutions: list[tuple[int, ...]] = []

    def extend(covered: frozenset[int], reps: tuple[int, ...]):
        if len(covered) == L.size:
            if len(solutions) == caps.search:
                raise SearchCapExceeded("coset covers", caps.search + 1, caps.search)
            solutions.append(tuple(sorted(reps)))
            return
        pivot = min(x for x in range(L.size) if x not in covered)
        for block, m in rep_of.items():
            if pivot in block and not block & covered:
                extend(covered | block, reps + (m,))

    extend(frozenset(), ())
    return sorted(solutions)


def _check_q(L: FiniteLoop, q: int, within: SubLoop | None) -> None:
    if within is not None and q not in within.elements:
        raise QNotInSubloop(f"q={q} lies outside the supplied subloop")
    if not 0 <= q < L.size:
        raise BadIndex(f"q={q} out of range")


def hyperloop(
    L: FiniteLoop, q: int, within: SubLoop | None = None
) -> frozenset[tuple[int, int]]:
    """The pair set {(x*y, (x*y)*q)} over all x, y.

    Every z is e*z, so the set is {(z, z*q)} over all z.  When ``within`` is
    supplied, q must belong to it (the relative variant).
    """
    _check_q(L, q, within)
    return frozenset((z, row[q]) for z, row in enumerate(L.table))


def a_hyperloop(
    L: FiniteLoop, q: int, within: SubLoop | None = None
) -> frozenset[tuple[int, int]]:
    """The pair set {(x*y, x*(y*q))} over all x, y."""
    _check_q(L, q, within)
    t = L.table
    return frozenset(
        (t[x][y], t[x][t[y][q]]) for x in range(L.size) for y in range(L.size)
    )


def hyper_partition_check(L: FiniteLoop, variant: str = "hyperloop") -> Verdict:
    """Do the pair sets over all q tile L x L without overlap?

    The hyperloop sets always do, with no scan: the set for q is {(z, zq)},
    so the pair (z, w) lies in the set of q = z\\w and in no other.  Only the
    A-variant is scanned, and only for overlaps: at x = e its set for q holds
    the n distinct pairs (y, yq), so n pairwise disjoint sets already hold all
    n^2 pairs of L x L.
    """
    if variant == "hyperloop":
        return Verdict(True)
    if variant != "a_hyperloop":
        raise ValueError("variant must be 'hyperloop' or 'a_hyperloop'")
    seen: dict[tuple[int, int], int] = {}
    for q in range(L.size):
        for pair in a_hyperloop(L, q):
            if pair in seen:
                return Verdict(False, (pair, seen[pair], q), "overlapping pair")
            seen[pair] = q
    return Verdict(True)
