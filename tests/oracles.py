"""Brute-force reference implementations the library's fast paths are checked against.

Each oracle recomputes from the table alone, with no memoised data: closures
are formed afresh, a group's census closes every extension by the all-pairs
product fixpoint rather than a coset search, associativity is a triple scan, division scans a row or a
column, element orders are found by walking powers, isomorphisms are searched
without invariant pruning or by backtracking over every element rather than a
generating set, G-loops are decided by searching every isotope with no
shortcut from theory, isotopes are revalidated, multiplication groups
are closed by composing in Python, Bruck's generators are read entry by entry
from their formulas, inner-mapping laws are scanned over every inner mapping,
each S-subloop is formed as a loop for its S-law's oracle, each law, strict form and special property is decided by its
own hand-written branch, lattice joins and covers are found by rescanning
every node, enumerated colorings are filtered through their forced edge and
revalidated, loops are colored by walking the cycles of every translation,
colorings are rebuilt into tables that are revalidated, one-factorizations
are counted by filtering every matching through its anchor edge, hyperloop
partitions are decided by scanning every pair set, L_n(m) is filled entry by
entry from its product formula, each translation is rendered afresh for each
loop, and every coset is formed by its own formula: normalizers compare the
two sides at each element, coset covers are searched over cosets written out
from the table, and quotients check that the cosets are disjoint and multiply
well-definedly, then revalidate the table.  Nuclei, commutants and centres scan every pair of a
subset of the table, and relative substructures scan A inside L's table
rather than forming A as a loop.  The S-layer oracles write each filter out where it is
used: "proper subgroup of order >= 2" in the report, the Sylow test and the
pseudo-representation, and "holds a proper cyclic group" three times over,
with the report's flag names checked against a list.
"""

from __future__ import annotations

import random
from functools import cache
from itertools import combinations, permutations

from loupe import LnParams, build_ln, cyclic_group, direct_product, symmetric_group
from loupe.coloring import Edge, EdgeColoring, validate_proper
from loupe.config import DEFAULT_CAPS, Caps

from loupe.core import (
    FiniteLoop,
    SubLoop,
    _close,
    _cosets,
    certify_subloop,
    compose,
    cyclic_closures,
    default_labels,
    factorize,
    generated_subloop,
    is_commutative_subset,
    is_associative,
    is_cyclic_group,
    is_subgroup,
    normality_witness,
    subloop_as_loop,
    validate_loop,
)
from loupe.errors import (
    BadIndex,
    CapExceeded,
    ClosureBlowup,
    HasSSubloops,
    ImproperColoring,
    NotASubgroup,
    NotClosed,
    NotInvolutory,
    NotNormal,
    NotPrime,
    NotRightAlternative,
    OddOrder,
    SearchCapExceeded,
    SizeCapExceeded,
)
from loupe.identities import (
    PSEUDO_COMMUTATIVE_VARIANTS,
    Law,
    SpecialKind,
    StrictForm,
    Verdict,
    check_law,
)
from loupe.isotopes import principal_isotope
from loupe.lattice import InclusionLattice, _is_sublattice
from loupe.representation import (
    Permutation,
    cycles,
    render_cycles,
    right_regular_representation,
)
from loupe.smarandache import (
    RelativeKind,
    SLaw,
    SMode,
    SReport,
    SSubstructures,
    SylowReport,
    TripleLaw,
    a_hyperloop,
    hyperloop,
    is_normal_subgroup,
    is_s_cauchy_loop,
    satisfies_sylow_criteria,
)
from loupe.substructures import NucleusPosition, SubloopCensus, all_subloops


def is_associative_by_triples(L: FiniteLoop, elems) -> bool:
    """(xy)z = x(yz) for every triple drawn from ``elems``."""
    t = L.table
    return all(t[t[x][y]][z] == t[x][t[y][z]] for x in elems for y in elems for z in elems)


def ldiv_by_scan(L: FiniteLoop, a: int, b: int) -> int:
    """The unique x with a*x = b, by scanning row a."""
    return L.table[a].index(b)


def rdiv_by_scan(L: FiniteLoop, a: int, b: int) -> int:
    """The unique y with y*a = b, by scanning column a."""
    for y in range(L.size):
        if L.table[y][a] == b:
            return y
    raise AssertionError("column invariant violated")


def two_sided_inverse_by_scan(L: FiniteLoop, x: int) -> int | None:
    """The element y with x*y = y*x = e, or None when left and right inverses differ."""
    right = ldiv_by_scan(L, x, 0)
    left = rdiv_by_scan(L, x, 0)
    return right if right == left else None


def associator_by_scan(L: FiniteLoop, x: int, y: int, z: int) -> int:
    """The unique w with (xy)z = (x(yz))w."""
    lhs = L.table[L.table[x][y]][z]
    rhs = L.table[x][L.table[y][z]]
    return ldiv_by_scan(L, rhs, lhs)


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
        normal_flags=tuple(normality_witness_by_scan(L, s) is None for s in subs),
    )


def census_by_full_closure(L: FiniteLoop, caps: Caps = DEFAULT_CAPS) -> SubloopCensus:
    """The census with each extension <S, g> closed by the all-pairs product fixpoint
    of ``core._close``, in a group too; the same traversal, flags and caps as
    ``all_subloops``, with nothing memoised under ``"census"``."""
    if L.size > caps.census_order:
        raise CapExceeded("census order", L.size, caps.census_order)
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
    subs = sorted(found.values(), key=lambda s: (s.order, s.elements))
    if len(subs) > caps.census:
        raise CapExceeded("census size", caps.census + 1, caps.census)
    return SubloopCensus(
        subloops=tuple(subs),
        subgroup_flags=tuple(is_subgroup(L, s) for s in subs),
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


def principal_isotope_by_validation(L: FiniteLoop, a: int, b: int) -> FiniteLoop:
    """The (a, b)-isotope, revalidated with its identity moved to index 0.

    The original element names ride along in the labels, so the label at
    index 0 names the product b.a from the source loop.
    """
    if not (0 <= a < L.size and 0 <= b < L.size):
        raise BadIndex(f"isotope pair ({a}, {b}) out of range")
    size = L.size
    rdiv_by_a = [rdiv_by_scan(L, a, x) for x in range(size)]  # X with X.a = x
    row_b = L.table[b]  # b.Y = y  =>  Y = ldiv(b, y)
    ldiv_by_b = [row_b.index(y) for y in range(size)]
    table = [
        [L.table[rdiv_by_a[x]][ldiv_by_b[y]] for y in range(size)] for x in range(size)
    ]
    return validate_loop(table, L.labels)


def is_g_loop_by_isotopes(L: FiniteLoop) -> Verdict:
    """First principal isotope (a, b) not isomorphic to L."""
    for a in range(L.size):
        for b in range(L.size):
            if not is_isomorphic_by_search(L, principal_isotope_by_validation(L, a, b)):
                return Verdict(False, (a, b))
    return Verdict(True)


def find_isomorphism_by_backtrack(L1: FiniteLoop, L2: FiniteLoop) -> tuple[int, ...] | None:
    """Lexicographically smallest identity-preserving isomorphism: backtracking
    over every element in index order, images pruned by freshly computed
    signatures (|<x>|, x*x == e, centraliser size) and checked against every
    mapped pair."""
    size = L1.size
    if size != L2.size:
        return None

    def signatures(L: FiniteLoop) -> list[tuple]:
        t = L.table
        return [
            (generated_subloop(L, (x,)).order, t[x][x] == 0,
             sum(t[x][y] == t[y][x] for y in range(size)))
            for x in range(size)
        ]

    sig1, sig2 = signatures(L1), signatures(L2)
    if sorted(sig1) != sorted(sig2):
        return None
    t1, t2 = L1.table, L2.table
    mapping = [0] + [-1] * (size - 1)

    def consistent(x: int) -> bool:
        for y in range(size):
            if mapping[y] >= 0:
                for a, b in ((x, y), (y, x)):
                    r = mapping[t1[a][b]]
                    if r >= 0 and r != t2[mapping[a]][mapping[b]]:
                        return False
        return True

    def extend(x: int) -> bool:
        if x == size:
            return all(
                mapping[t1[a][b]] == t2[mapping[a]][mapping[b]]
                for a in range(size)
                for b in range(size)
            )
        for u in range(size):
            if u in mapping or sig2[u] != sig1[x]:
                continue
            mapping[x] = u
            if consistent(x) and extend(x + 1):
                return True
            mapping[x] = -1
        return False

    return tuple(mapping) if extend(1) else None


def is_g_loop_by_backtrack(L: FiniteLoop, cap: int = DEFAULT_CAPS.search) -> Verdict:
    """First principal isotope (a, b) that ``find_isomorphism_by_backtrack`` maps
    nothing onto, with no theory shortcut."""
    if L.size * L.size > cap:
        raise CapExceeded("isotope pairs", L.size * L.size, cap)
    for a in range(L.size):
        for b in range(L.size):
            if find_isomorphism_by_backtrack(L, principal_isotope(L, a, b)) is None:
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


def contains_proper_subgroup_by_filter(L: FiniteLoop, A: SubLoop) -> bool:
    """True when A has a subgroup of size >= 2 that is a proper subset of A.

    Any such subgroup contains a cyclic one of size >= 2, so scanning the
    closures of single elements of A decides the question.
    """
    closures = cyclic_closures(L)
    return any(closures[x][1] and 2 <= closures[x][0].order < A.order for x in A.elements)


def is_s_subloop_by_filter(L: FiniteLoop, A: SubLoop) -> bool:
    """Proper subloop, not itself a group, containing a subgroup of size >= 2."""
    if not A.is_proper() or A.order < 2:
        return False
    if is_subgroup(L, A):
        return False
    closures = cyclic_closures(L)
    return any(closures[x][1] for x in A.elements if x != 0)


def is_s_loop_by_filter(L: FiniteLoop) -> Verdict:
    """Does some proper subset of size >= 2 form a group?

    Scans cyclic closures only: any subgroup of size >= 2 contains a cyclic
    subgroup of size >= 2, so the smallest witness is found this way.
    """
    groups = [S for S, is_group in cyclic_closures(L) if is_group and 2 <= S.order < L.size]
    if not groups:
        return Verdict(False)
    return Verdict(True, min(groups, key=lambda S: (S.order, S.elements)).elements)


def s_substructures_by_filter(L: FiniteLoop, caps: Caps = DEFAULT_CAPS) -> SSubstructures:
    """S-subloops and S-normal subloops from the census.

    An S-normal subloop is a nontrivial proper normal subloop containing a
    subgroup of size >= 2; S-simple means none exists.  A subgroup loop is an
    S-loop whose proper nontrivial subloops are all groups.
    """
    census = all_subloops(L, caps)
    s_subs = tuple(S for S in census.subloops if is_s_subloop_by_filter(L, S))
    s_normal = tuple(
        S
        for S, normal in zip(census.subloops, census.normal_flags)
        if normal
        and S.is_proper()
        and not S.is_trivial()
        and contains_proper_subgroup_by_filter(L, S)
    )
    subgroup_loop = bool(is_s_loop_by_filter(L)) and all(
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


_FLAG_NAMES = (
    "s_simple",
    "s_subgroup_loop",
    "s_cauchy",
    "s_lagrange",
    "s_weakly_lagrange",
    "s_pseudo_lagrange",
    "s_weakly_pseudo_lagrange",
    "s_lagrange_criteria",
    "s_sylow_criteria",
    "s_commutative",
    "s_strongly_commutative",
    "s_cyclic",
    "s_strongly_cyclic",
    "s_loop_ii",
    "s_lagrange_criteria_ii",
    "s_sylow_criteria_ii",
)


def s_classical_report_by_filter(L: FiniteLoop, caps: Caps = DEFAULT_CAPS) -> SReport:
    """Compute every classical-style Smarandache flag by exhaustive scan."""
    census = all_subloops(L, caps)
    structures = s_substructures_by_filter(L, caps)
    sl = is_s_loop_by_filter(L)
    subgroups = [
        S for S in census.subgroups() if S.order >= 2 and S.is_proper()
    ]
    normal_subgroups = [S for S in subgroups if is_normal_subgroup(L, S)]
    size = L.size
    flags: dict[str, bool] = {}
    witnesses: dict[str, object] = {}

    flags["s_simple"] = structures.s_simple
    flags["s_subgroup_loop"] = structures.s_subgroup_loop

    cauchy = is_s_cauchy_loop(L)
    flags["s_cauchy"] = cauchy.holds
    if not cauchy.holds:
        witnesses["s_cauchy"] = cauchy.witness or cauchy.detail

    bad_lagrange = next((S for S in subgroups if size % S.order != 0), None)
    flags["s_lagrange"] = bool(subgroups) and bad_lagrange is None
    if bad_lagrange is not None:
        witnesses["s_lagrange"] = bad_lagrange.elements
    flags["s_weakly_lagrange"] = any(size % S.order == 0 for S in subgroups)

    s_subs = structures.s_subloops
    bad_pseudo = next((S for S in s_subs if size % S.order != 0), None)
    flags["s_pseudo_lagrange"] = bool(s_subs) and bad_pseudo is None
    if bad_pseudo is not None:
        witnesses["s_pseudo_lagrange"] = bad_pseudo.elements
    flags["s_weakly_pseudo_lagrange"] = any(size % S.order == 0 for S in s_subs)

    flags["s_lagrange_criteria"] = sl.holds and flags["s_lagrange"]

    sylow = satisfies_sylow_criteria(L)
    flags["s_sylow_criteria"] = sylow.holds
    if not sylow.holds:
        witnesses["s_sylow_criteria"] = sylow.witness

    commutative = [S for S in subgroups if is_commutative_subset(L, S.elements)]
    flags["s_commutative"] = bool(commutative)
    flags["s_strongly_commutative"] = bool(subgroups) and len(commutative) == len(subgroups)
    cyclic = [S for S in subgroups if is_cyclic_group(L, S)]
    flags["s_cyclic"] = bool(cyclic)
    flags["s_strongly_cyclic"] = bool(subgroups) and len(cyclic) == len(subgroups)

    flags["s_loop_ii"] = bool(normal_subgroups)
    if normal_subgroups:
        witnesses["s_loop_ii"] = normal_subgroups[0].elements
    flags["s_lagrange_criteria_ii"] = bool(normal_subgroups) and all(
        size % S.order == 0 for S in normal_subgroups
    )
    normal_orders = {S.order for S in normal_subgroups}
    flags["s_sylow_criteria_ii"] = all(
        p in normal_orders for p, _ in factorize(size)
    )

    assert set(flags) == set(_FLAG_NAMES)
    return SReport(
        is_s_loop=sl.holds,
        witness_subgroup=sl.witness,
        s_subloops=s_subs,
        s_normal_subloops=structures.s_normal_subloops,
        flags=flags,
        witnesses=witnesses,
    )


def s_p_sylow_by_filter(L: FiniteLoop, p: int, caps: Caps = DEFAULT_CAPS) -> SylowReport:
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
    census = all_subloops(L, caps)
    structures = s_substructures_by_filter(L, caps)
    order_p = tuple(S for S in structures.s_subloops if S.order == p)
    pairs = []
    subgroups = [S for S in census.subgroups() if S.order == p]
    for A in structures.s_subloops:
        if A.order % p != 0:
            continue
        inside = A.as_set()
        for B in subgroups:
            if B.as_set() <= inside:
                pairs.append((A, B))
    strong = structures.s_subgroup_loop
    if strong:
        for S in census.subgroups():
            if S.order < 2 or not S.is_proper():
                continue
            order = S.order
            while order % p == 0:
                order //= p
            if order != 1 or L.size % S.order != 0:
                strong = False
                break
    return SylowReport(order_p, tuple(pairs), strong)


def s_pseudo_representation_by_filter(
    L: FiniteLoop, caps: Caps = DEFAULT_CAPS
) -> list[tuple[SubLoop, list[Permutation]]]:
    """Per-subgroup translation sets for an S-loop with no S-subloops."""
    structures = s_substructures_by_filter(L, caps)
    if structures.s_subloops:
        raise HasSSubloops("loop has S-subloops; use s_representation instead")
    census = all_subloops(L, caps)
    perms = right_regular_representation(L)
    return [
        (B, [perms[b] for b in B.elements])
        for B in census.subgroups()
        if B.order >= 2 and B.is_proper()
    ]


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


def bruck_generators_by_formula(L: FiniteLoop) -> set[tuple[int, ...]]:
    """Bruck's generators z -> zT(x), zR(x,y), zL(x,y) of Inn(L), each entry read
    from T(x) = R_x L_x^-1, R(x,y) = R_x R_y R_xy^-1 and L(x,y) = L_x L_y L_yx^-1
    with quotients found by scanning."""
    t = L.table
    n = L.size
    ld = [[ldiv_by_scan(L, a, b) for b in range(n)] for a in range(n)]
    rd = [[rdiv_by_scan(L, a, b) for b in range(n)] for a in range(n)]
    gens = {tuple(ld[x][t[z][x]] for z in range(n)) for x in range(n)}
    for x in range(n):
        for y in range(n):
            xy, yx = t[x][y], t[y][x]
            gens.add(tuple(rd[xy][t[t[z][x]][y]] for z in range(n)))
            gens.add(tuple(ld[yx][t[y][t[x][z]]] for z in range(n)))
    return gens


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
    j = tuple(two_sided_inverse_by_scan(L, x) for x in range(L.size))
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


def first_normalizer_by_scan(L: FiniteLoop, H: SubLoop) -> frozenset[int]:
    """{a : aH = Ha} as sets."""
    t = L.table
    hs = H.elements
    h_rows = [t[h] for h in hs]
    return frozenset(
        a for a in range(L.size) if {t[a][h] for h in hs} == {row[a] for row in h_rows}
    )


def quotient_loop_by_validation(L: FiniteLoop, N: SubLoop) -> FiniteLoop:
    """The loop on the coset partition {N*x} of a normal subloop N, with every
    coset checked for overlaps and every coset product for being well defined;
    normality is decided by ``normality_witness_by_scan``."""
    witness = normality_witness_by_scan(L, N)
    if witness is not None:
        raise NotNormal(*witness)
    t = L.table
    ns = N.elements
    coset_of: dict[int, int] = {}
    blocks: list[tuple[int, ...]] = []
    for x in range(L.size):
        if x in coset_of:
            continue
        # SubLoop holds 0, so x = e*x lies in its own coset
        block = tuple(sorted({t[h][x] for h in ns}))
        for v in block:
            if v in coset_of:
                raise AssertionError(f"cosets overlap at {v}")
            coset_of[v] = len(blocks)
        blocks.append(block)
    k = len(blocks)
    table = [[0] * k for _ in range(k)]
    for i, bi in enumerate(blocks):
        for j, bj in enumerate(blocks):
            expected = coset_of[t[bi[0]][bj[0]]]
            for x in bi:
                for y in bj:
                    if coset_of[t[x][y]] != expected:
                        raise AssertionError(
                            f"products of coset {i} by coset {j} straddle blocks"
                        )
            table[i][j] = expected
    labels = tuple(L.render_subset(b) for b in blocks)
    return validate_loop(table, labels)


def coset_cover_search_by_formula(
    L: FiniteLoop, A: SubLoop, side: str = "right", caps: Caps = DEFAULT_CAPS
) -> list[tuple[int, ...]]:
    """Every exact cover of L by cosets of the subgroup A, each coset written
    out from the table as {a*m} (right) or {m*a} (left)."""
    if not is_associative_by_triples(L, A.elements):
        raise NotASubgroup("cosets are defined relative to subgroups")
    t = L.table
    if side == "right":
        cosets_by_rep = [frozenset(t[a][m] for a in A.elements) for m in range(L.size)]
    else:
        cosets_by_rep = [frozenset(t[m][a] for a in A.elements) for m in range(L.size)]
    solutions: list[tuple[int, ...]] = []

    def extend(covered: frozenset[int], reps: tuple[int, ...]):
        if len(covered) == L.size:
            if len(solutions) == caps.search:
                raise SearchCapExceeded("coset covers", caps.search + 1, caps.search)
            solutions.append(tuple(sorted(reps)))
            return
        pivot = min(x for x in range(L.size) if x not in covered)
        seen_blocks: set[frozenset[int]] = set()
        for m in range(L.size):
            block = cosets_by_rep[m]
            if pivot not in block or block & covered or block in seen_blocks:
                continue
            seen_blocks.add(block)
            extend(covered | block, reps + (m,))

    extend(frozenset(), ())
    return sorted(solutions)

_BINARY_LAWS = {
    Law.COMMUTATIVE: lambda t, x, y: t[x][y] == t[y][x],
    Law.LEFT_ALTERNATIVE: lambda t, x, y: t[t[x][x]][y] == t[x][t[x][y]],
    Law.RIGHT_ALTERNATIVE: lambda t, x, y: t[t[x][y]][y] == t[x][t[y][y]],
    Law.FLEXIBLE: lambda t, x, y: t[t[x][y]][x] == t[x][t[y][x]],
}

_TERNARY_LAWS = {
    Law.ASSOCIATIVE: lambda t, x, y, z: t[t[x][y]][z] == t[x][t[y][z]],
    Law.MOUFANG1: lambda t, x, y, z: t[t[x][y]][t[z][x]] == t[t[x][t[y][z]]][x],
    Law.MOUFANG2: lambda t, x, y, z: t[t[t[x][y]][z]][y] == t[x][t[y][t[z][y]]],
    Law.MOUFANG3: lambda t, x, y, z: t[x][t[y][t[x][z]]] == t[t[t[x][y]][x]][z],
    Law.BOL: lambda t, x, y, z: t[t[t[x][y]][z]][y] == t[x][t[t[y][z]][y]],
}


def _bruck_triple(t, x, y, z) -> bool:
    """The Bruck loop's left Bol half: (x(yx))z = x(y(xz))."""
    return t[t[x][t[y][x]]][z] == t[x][t[y][t[x][z]]]


def _inverse_table(L: FiniteLoop) -> list[int] | Verdict:
    """Two-sided inverses in element order, or a failing Verdict at the first one missing."""
    inv = []
    for x in range(L.size):
        ix = two_sided_inverse_by_scan(L, x)
        if ix is None:
            return Verdict(False, (x,), "no two-sided inverse")
        inv.append(ix)
    return inv


def check_law_by_branches(L: FiniteLoop, law: Law) -> Verdict:
    """One hand-written branch per law outside the product-only tables."""
    t = L.table
    size = L.size
    if law in _BINARY_LAWS:
        pred = _BINARY_LAWS[law]
        for x in range(size):
            for y in range(size):
                if not pred(t, x, y):
                    return Verdict(False, (x, y))
        return Verdict(True)
    if law in _TERNARY_LAWS:
        pred = _TERNARY_LAWS[law]
        for x in range(size):
            for y in range(size):
                for z in range(size):
                    if not pred(t, x, y, z):
                        return Verdict(False, (x, y, z))
        return Verdict(True)
    if law is Law.WIP:
        # (xy)z = e pins z per (x, y), so scanning pairs visits the first
        # violating triple in the same order as the cubic scan would
        for x in range(size):
            for y in range(size):
                z = ldiv_by_scan(L, t[x][y], 0)
                if t[x][t[y][z]] != 0:
                    return Verdict(False, (x, y, z))
        return Verdict(True)
    if law is Law.SEMI_ALTERNATIVE:
        for x in range(size):
            for y in range(size):
                for z in range(size):
                    if associator_by_scan(L, x, y, z) != associator_by_scan(L, y, z, x):
                        return Verdict(False, (x, y, z))
        return Verdict(True)
    if law is Law.JORDAN:
        # commutativity plus the squared-product law a^2(ba) = (a^2 b)a
        for a in range(size):
            for b in range(size):
                if t[a][b] != t[b][a]:
                    return Verdict(False, (a, b), "commutativity fails")
                aa = t[a][a]
                if t[aa][t[b][a]] != t[t[aa][b]][a]:
                    return Verdict(False, (a, b), "square law fails")
        return Verdict(True)
    if law is Law.STEINER:
        for x in range(size):
            if t[x][x] != 0:
                return Verdict(False, (x,), "not involutory")
        for x in range(size):
            for y in range(size):
                if t[x][y] != t[y][x]:
                    return Verdict(False, (x, y), "commutativity fails")
                if t[x][t[x][y]] != y:
                    return Verdict(False, (x, y), "x(xy) = y fails")
        return Verdict(True)
    if law is Law.IP:
        inv = _inverse_table(L)
        if isinstance(inv, Verdict):
            return inv
        for x in range(size):
            for y in range(size):
                if t[inv[x]][t[x][y]] != y or t[t[y][x]][inv[x]] != y:
                    return Verdict(False, (x, y))
        return Verdict(True)
    if law is Law.BRUCK:
        inv = _inverse_table(L)
        if isinstance(inv, Verdict):
            return inv
        for x in range(size):
            for y in range(size):
                if inv[t[x][y]] != t[inv[x]][inv[y]]:
                    return Verdict(False, (x, y), "(xy)^-1 = x^-1 y^-1 fails")
        for x in range(size):
            for y in range(size):
                for z in range(size):
                    if not _bruck_triple(t, x, y, z):
                        return Verdict(False, (x, y, z), "x(yx)z = x(y(xz)) fails")
        return Verdict(True)
    raise ValueError(f"unknown law {law}")


def check_strict_by_branches(L: FiniteLoop, form: StrictForm) -> Verdict:
    """Strict negative forms, one hand-written scan per form."""
    t = L.table
    pairs = [
        (x, y)
        for x in range(1, L.size)
        for y in range(1, L.size)
        if x != y
    ]
    if form is StrictForm.STRICT_NON_COMMUTATIVE:
        for x, y in pairs:
            if t[x][y] == t[y][x]:
                return Verdict(False, (x, y))
        return Verdict(True)
    if form is StrictForm.STRICT_NON_LEFT_ALT:
        for x, y in pairs:
            if t[t[x][x]][y] == t[x][t[x][y]]:
                return Verdict(False, (x, y))
        return Verdict(True)
    if form is StrictForm.STRICT_NON_RIGHT_ALT:
        for x, y in pairs:
            if t[t[x][y]][y] == t[x][t[y][y]]:
                return Verdict(False, (x, y))
        return Verdict(True)
    if form is StrictForm.STRICT_NON_ALTERNATIVE:
        left = check_strict_by_branches(L, StrictForm.STRICT_NON_LEFT_ALT)
        if not left.holds:
            return Verdict(False, left.witness, "left alternative law holds somewhere")
        right = check_strict_by_branches(L, StrictForm.STRICT_NON_RIGHT_ALT)
        if not right.holds:
            return Verdict(False, right.witness, "right alternative law holds somewhere")
        return Verdict(True)
    raise ValueError(f"unknown strict form {form}")


def special_commutativity_by_branches(
    L: FiniteLoop, kind: SpecialKind, pseudo_variant: str = "ax.b=bx.a"
) -> Verdict:
    """The order-sensitive commutativity/associativity properties, one hand-written
    scan per kind; the census kinds read the census built by extension."""
    t = L.table
    size = L.size
    if kind is SpecialKind.CA_LOOP:
        for x in range(size):
            if all(
                t[t[a][x]][b] == t[t[x][b]][a] and t[a][t[x][b]] == t[b][t[a][x]]
                for a in range(size)
                for b in range(size)
            ):
                return Verdict(True, (x,))
        return Verdict(False)
    if kind is SpecialKind.SEMI_RIGHT_COMMUTATIVE:
        for a in range(size):
            for b in range(size):
                ab = t[a][b]
                ba = t[b][a]
                if not any(
                    ab == t[c][ba] or ab == t[t[c][b]][a] for c in range(size)
                ):
                    return Verdict(False, (a, b))
        return Verdict(True)
    if kind is SpecialKind.STRONGLY_SEMI_RIGHT_COMMUTATIVE:
        # triples range over distinct elements: a repeated entry (x, x, x)
        # with x*x = e makes all three disjuncts unsatisfiable
        def clause(p, q, r):
            pq, qp = t[p][q], t[q][p]
            return pq == t[r][qp] or pq == t[t[r][q]][p]

        for x in range(size):
            for y in range(size):
                for z in range(size):
                    if len({x, y, z}) < 3:
                        continue
                    if not (clause(x, y, z) or clause(y, z, x) or clause(z, x, y)):
                        return Verdict(False, (x, y, z))
        return Verdict(True)
    if kind in (SpecialKind.INNER_COMMUTATIVE, SpecialKind.STRICTLY_INNER_COMMUTATIVE):
        if check_law_by_branches(L, Law.COMMUTATIVE).holds:
            return Verdict(False, None, "loop itself is commutative")
        census = census_by_extension(L)
        for S in census.subloops:
            if not S.is_proper():
                continue
            if not is_commutative_subset(L, S.elements):
                return Verdict(False, S.elements, "non-commutative proper subloop")
            if (
                kind is SpecialKind.STRICTLY_INNER_COMMUTATIVE
                and S.order >= 2
                and is_cyclic_group_by_powers(L, S)
            ):
                return Verdict(False, S.elements, "proper subloop is a cyclic group")
        return Verdict(True)
    if kind is SpecialKind.PSEUDO_COMMUTATIVE:
        if pseudo_variant not in PSEUDO_COMMUTATIVE_VARIANTS:
            raise ValueError(f"unknown pseudo variant {pseudo_variant!r}")
        lhs_first = pseudo_variant.startswith("ax.b")
        rhs_first = pseudo_variant.endswith("bx.a")
        for a in range(size):
            for b in range(size):
                if t[a][b] != t[b][a]:
                    continue
                for x in range(size):
                    lhs = t[t[a][x]][b] if lhs_first else t[a][t[x][b]]
                    rhs = t[t[b][x]][a] if rhs_first else t[b][t[x][a]]
                    if lhs != rhs:
                        return Verdict(False, (a, b, x))
        return Verdict(True)
    if kind is SpecialKind.STRONGLY_PSEUDO_COMMUTATIVE:
        for a in range(size):
            for b in range(size):
                if a == b:
                    continue
                for x in range(size):
                    left = {t[t[a][x]][b], t[a][t[x][b]]}
                    right = {t[t[b][x]][a], t[b][t[x][a]]}
                    if not left & right:
                        return Verdict(False, (a, b, x))
        return Verdict(True)
    if kind in (SpecialKind.PSEUDO_ASSOCIATIVE, SpecialKind.STRONGLY_PSEUDO_ASSOCIATIVE):
        # strong form drops the requirement that the triple associates
        for a in range(size):
            for b in range(size):
                ab = t[a][b]
                for c in range(size):
                    if (
                        kind is SpecialKind.PSEUDO_ASSOCIATIVE
                        and t[ab][c] != t[a][t[b][c]]
                    ):
                        continue
                    bc = t[b][c]
                    for x in range(size):
                        if t[ab][t[x][c]] != t[t[a][x]][bc]:
                            return Verdict(False, (a, b, c, x))
        return Verdict(True)
    if kind is SpecialKind.HAMILTONIAN:
        census = census_by_extension(L)
        for S, normal in zip(census.subloops, census.normal_flags):
            if not normal:
                return Verdict(False, S.elements)
        return Verdict(True)
    if kind is SpecialKind.SIMPLE:
        census = census_by_extension(L)
        for S, normal in zip(census.subloops, census.normal_flags):
            if normal and not S.is_trivial() and S.is_proper():
                return Verdict(False, S.elements, "non-trivial normal subloop")
        return Verdict(True)
    raise ValueError(f"unknown kind {kind}")


def pseudo_associators_by_scan(L: FiniteLoop, domain, candidates, must_associate: bool) -> set[int]:
    """The w in ``candidates`` with (ab)(wc) = (aw)(bc) for some triple over ``domain``
    (only triples with (ab)c = a(bc) when ``must_associate``)."""
    t = L.table
    gens = set()
    for a in domain:
        for b in domain:
            ab = t[a][b]
            for c in domain:
                if must_associate and t[ab][c] != t[a][t[b][c]]:
                    continue
                bc = t[b][c]
                for w in candidates:
                    if t[ab][t[w][c]] == t[t[a][w]][bc]:
                        gens.add(w)
    return gens


def strongly_pseudo_commutator_gens_by_triples(L: FiniteLoop) -> set[int]:
    """The p with (ax)b = (pb)(ax), over every x and every pair a != b."""
    t = L.table
    gens = set()
    for a in range(L.size):
        for b in range(L.size):
            if a == b:
                continue
            for x in range(L.size):
                u = t[a][x]
                pb = rdiv_by_scan(L, u, t[u][b])
                gens.add(rdiv_by_scan(L, b, pb))
    return gens


def nucleus_by_scan(L: FiniteLoop, over, position: NucleusPosition) -> SubLoop:
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
    return certify_subloop(L, [a for a in over if all(ok(a) for ok in tests)])


def commutant_by_scan(L: FiniteLoop, over) -> frozenset[int]:
    """Elements of ``over`` commuting with every element of ``over``."""
    t = L.table
    return frozenset(x for x in over if all(t[x][y] == t[y][x] for y in over))


def moufang_centre_by_scan(L: FiniteLoop, over) -> SubLoop:
    """The commutant over ``over`` if it is closed, else the subloop it generates."""
    c = commutant_by_scan(L, over)
    try:
        return certify_subloop(L, c)
    except NotClosed:
        return generated_subloop(L, c)


def centre_by_scan(L: FiniteLoop, over) -> SubLoop:
    """The commutant over ``over`` met with the full nucleus over ``over``."""
    full = nucleus_by_scan(L, over, NucleusPosition.FULL).as_set()
    return certify_subloop(L, commutant_by_scan(L, over) & full)


@cache
def associators_by_scan(L: FiniteLoop) -> frozenset[int]:
    """The associators of all triples of L, each found by scanning a row; cached per table."""
    size = L.size
    return frozenset(
        associator_by_scan(L, x, y, z) for x in range(size) for y in range(size) for z in range(size)
    )


_RELATIVE_NUCLEI = {
    RelativeKind.NUCLEUS_LEFT: NucleusPosition.LEFT,
    RelativeKind.NUCLEUS_MIDDLE: NucleusPosition.MIDDLE,
    RelativeKind.NUCLEUS_RIGHT: NucleusPosition.RIGHT,
    RelativeKind.NUCLEUS: NucleusPosition.FULL,
}


def relative_substructure_by_scan(L: FiniteLoop, A: SubLoop, kind: RelativeKind):
    """Each relative substructure scanned over the elements of A inside L's table."""
    if kind is RelativeKind.COMMUTATOR:
        t = L.table
        gens = {ldiv_by_scan(L, t[y][x], t[x][y]) for x in A.elements for y in A.elements}
        return generated_subloop(L, gens)
    if kind is RelativeKind.ASSOCIATOR:
        return generated_subloop(L, associators_by_scan(L) & A.as_set())
    if kind is RelativeKind.PSEUDO_ASSOCIATOR:
        return A
    if kind is RelativeKind.STRONGLY_PSEUDO_ASSOCIATOR:
        return SubLoop(tuple(range(L.size)), L.size)
    if kind in _RELATIVE_NUCLEI:
        return nucleus_by_scan(L, A.elements, _RELATIVE_NUCLEI[kind])
    if kind is RelativeKind.MOUFANG_CENTRE:
        return moufang_centre_by_scan(L, A.elements)
    if kind is RelativeKind.CENTRE:
        return centre_by_scan(L, A.elements)
    if kind is RelativeKind.FIRST_NORMALIZER:
        return first_normalizer_by_scan(L, A)
    if kind is RelativeKind.SECOND_NORMALIZER:
        t = L.table
        return frozenset(
            x for x in range(L.size) if {t[t[x][h]][x] for h in A.elements} == A.as_set()
        )
    raise ValueError(f"unknown kind {kind}")


def hyperloop_by_pairs(L: FiniteLoop, q: int) -> frozenset[tuple[int, int]]:
    """The pair set {(x*y, (x*y)*q)} over all n^2 pairs (x, y)."""
    t = L.table
    return frozenset((t[x][y], t[t[x][y]][q]) for x in range(L.size) for y in range(L.size))


def hyper_partition_check_by_scan(L: FiniteLoop, variant: str = "hyperloop") -> Verdict:
    """Do the pair sets over all q tile L x L without overlap?  Every set is scanned."""
    maker = {"hyperloop": hyperloop, "a_hyperloop": a_hyperloop}.get(variant)
    if maker is None:
        raise ValueError("variant must be 'hyperloop' or 'a_hyperloop'")
    seen: dict[tuple[int, int], int] = {}
    for q in range(L.size):
        for pair in maker(L, q):
            if pair in seen:
                return Verdict(False, (pair, seen[pair], q), "overlapping pair")
            seen[pair] = q
    if len(seen) != L.size * L.size:
        return Verdict(False, None, "union does not cover the square")
    return Verdict(True)


def has_associative_triple_by_scan(sub: FiniteLoop) -> bool:
    """Some triple of distinct non-identity elements associates (the associative-triple S-law)."""
    t = sub.table
    for x in range(1, sub.size):
        for y in range(1, sub.size):
            for z in range(1, sub.size):
                if len({x, y, z}) == 3 and t[t[x][y]][z] == t[x][t[y][z]]:
                    return True
    return False


def is_power_associative_by_closures(L: FiniteLoop) -> bool:
    """Every <x>, closed as a product fixpoint from {e, x}, associates triple by triple."""
    t = L.table
    for x in range(L.size):
        closed = {0, x}
        while fresh := {t[a][b] for a in closed for b in closed} - closed:
            closed |= fresh
        if not is_associative_by_triples(L, closed):
            return False
    return True


def is_arif_by_closure(L: FiniteLoop, cap: int = DEFAULT_CAPS.mlt) -> bool:
    """An IP loop whose every inner mapping, from the Python closure of Mlt,
    commutes with inversion.  When every element is its own inverse, inversion
    is the identity map and commutes with all of them, so Mlt is not closed:
    the Steiner loop of order 10 has a multiplication group past any cap."""
    if not check_law_by_branches(L, Law.IP).holds:
        return False
    if all(two_sided_inverse_by_scan(L, x) == x for x in range(L.size)):
        return True
    inn = [p for p in multiplication_group_by_closure(L, cap) if p[0] == 0]
    return is_arif_by_scan(L, inn).holds


_S_LAW_ORACLES = {
    SLaw.ASSOCIATIVE_TRIPLE: has_associative_triple_by_scan,
    SLaw.PAIRWISE_ASSOCIATIVE: lambda sub: check_law_by_branches(sub, Law.FLEXIBLE).holds,
    SLaw.DIASSOCIATIVE: lambda sub: is_diassociative_by_pairs(sub).holds,
    SLaw.POWER_ASSOCIATIVE: is_power_associative_by_closures,
    SLaw.ARIF: is_arif_by_closure,
    SLaw.STEINER: lambda sub: check_law_by_branches(sub, Law.STEINER).holds,
}


def s_law_check_by_subloops(L: FiniteLoop, law, mode: SMode) -> Verdict:
    """Each S-subloop, in census order, formed as a loop and decided by its own
    oracle: ``check_law_by_branches`` for a ``Law``, the table above for an ``SLaw``."""
    subloops = s_substructures_by_filter(L).s_subloops
    if not subloops:
        if mode is SMode.EXISTS:
            return Verdict(False, None, "no S-subloops")
        return Verdict(True, None, "no S-subloops (vacuous)")
    for A in subloops:
        sub = subloop_as_loop(L, A)
        if isinstance(law, Law):
            holds = check_law_by_branches(sub, law).holds
        else:
            holds = _S_LAW_ORACLES[law](sub)
        if holds and mode is SMode.EXISTS:
            return Verdict(True, A.elements)
        if not holds and mode is SMode.FOR_ALL:
            return Verdict(False, A.elements)
    return Verdict(mode is SMode.FOR_ALL)


def is_s_g_loop_by_subloops(L: FiniteLoop) -> Verdict:
    """The first S-subloop, in census order, formed as a loop and found
    isomorphic to each of its principal isotopes by ``is_g_loop_by_isotopes``."""
    subloops = s_substructures_by_filter(L).s_subloops
    if not subloops:
        return Verdict(False, None, "no S-subloops")
    for A in subloops:
        if is_g_loop_by_isotopes(subloop_as_loop(L, A)).holds:
            return Verdict(True, A.elements)
    return Verdict(False)


_TRIPLE_FORMULAS = {
    TripleLaw.BOL: _TERNARY_LAWS[Law.BOL],
    TripleLaw.MOUFANG: _TERNARY_LAWS[Law.MOUFANG1],
    TripleLaw.BRUCK: _bruck_triple,
}


def special_triple_by_formulas(
    L: FiniteLoop, x: int, y: int, z: int, law: TripleLaw, strong: bool = False
) -> Verdict:
    """Evaluate one identity instance on a specific triple (all 6 orders if strong)."""
    t = L.table
    pred = _TRIPLE_FORMULAS[law]
    if not strong:
        holds = pred(t, x, y, z)
        return Verdict(holds, None if holds else (x, y, z))
    for perm in permutations((x, y, z)):
        if not pred(t, *perm):
            return Verdict(False, perm)
    return Verdict(True)


def all_closed_subsets(L: FiniteLoop) -> list[SubLoop]:
    """Brute-force power-set subloop enumeration; exponential, for oracles only."""
    out = []
    rest = range(1, L.size)
    for r in range(0, L.size):
        for combo in combinations(rest, r):
            cand = (0,) + combo
            inside = frozenset(cand)
            if all(L.table[x][y] in inside for x in cand for y in cand):
                out.append(SubLoop(cand, L.size))
    return out


def frattini_literal(L: FiniteLoop) -> SubLoop:
    """Non-generator definition by subset scan; exponential, for cross-checks only."""
    size = L.size
    full = frozenset(range(size))
    everything = list(range(size))
    subsets = [
        frozenset(c) for r in range(size + 1) for c in combinations(everything, r)
    ]
    closures = {s: generated_subloop(L, s or (0,)).as_set() for s in subsets}
    non_gens = []
    for x in range(size):
        if all(
            closures[s] == full
            for s in subsets
            if x not in s and closures[frozenset(s | {x})] == full
        ):
            non_gens.append(x)
    return certify_subloop(L, non_gens)


def build_lattice_by_rescan(
    L: FiniteLoop, family, caps: Caps = DEFAULT_CAPS
) -> InclusionLattice:
    """Close a family of subloops into a bounded inclusion lattice.

    The node set is the family plus bottom {e} and top L, closed under
    pairwise intersection; the join of two nodes is the intersection of all
    their common upper bounds, which the meet closure guarantees is itself a
    node.
    """
    nodes: set[frozenset[int]] = {frozenset({0}), frozenset(range(L.size))}
    for S in family:
        nodes.add(S.as_set() if isinstance(S, SubLoop) else frozenset(S))
    changed = True
    while changed:
        changed = False
        for a, b in combinations(sorted(nodes, key=sorted), 2):
            cap_set = a & b
            if cap_set not in nodes:
                nodes.add(cap_set)
                changed = True
                if len(nodes) > caps.lattice_build:
                    raise ClosureBlowup("lattice nodes", len(nodes), caps.lattice_build)
    ordered = sorted(nodes, key=lambda s: (len(s), sorted(s)))
    index = {s: i for i, s in enumerate(ordered)}
    n = len(ordered)
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for i, a in enumerate(ordered):
        for j, b in enumerate(ordered):
            meet[i][j] = index[a & b]
            union = a | b
            best = frozenset(range(L.size))
            for c in ordered:
                if union <= c and len(c) < len(best):
                    best = c
            join[i][j] = index[best]
    return InclusionLattice(
        labels=L.labels,
        nodes=tuple(tuple(sorted(s)) for s in ordered),
        meet=tuple(tuple(r) for r in meet),
        join=tuple(tuple(r) for r in join),
    )


def covers_by_scan(lat: InclusionLattice) -> list[tuple[int, int]]:
    """Hasse edges (i, j) with i covered by j, in node order."""
    out = []
    for i in range(lat.size):
        for j in range(lat.size):
            if i == j or not lat.leq(i, j):
                continue
            if not any(
                k != i and k != j and lat.leq(i, k) and lat.leq(k, j)
                for k in range(lat.size)
            ):
                out.append((i, j))
    return out


def shape_by_counting(lat: InclusionLattice, subset: tuple[int, ...]) -> str | None:
    """Classify a 5-element sublattice as pentagon or diamond, else None."""
    inside = list(subset)
    bot = min(inside, key=lambda i: sum(lat.leq(j, i) for j in inside))
    top = max(inside, key=lambda i: sum(lat.leq(j, i) for j in inside))
    for i in inside:
        if not (lat.leq(bot, i) and lat.leq(i, top)):
            return None
    mids = [i for i in inside if i != bot and i != top]
    if len(mids) != 3:
        return None
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


def forbidden_sublattice_by_counting(lat: InclusionLattice, shape: str) -> tuple[int, ...] | None:
    """First induced 5-element sublattice that ``shape_by_counting`` names ``shape``."""
    for subset in combinations(range(lat.size), 5):
        if _is_sublattice(lat, subset) and shape_by_counting(lat, subset) == shape:
            return subset
    return None


def build_ln_by_formula(n: int, m: int) -> FiniteLoop:
    """L_n(m) filled entry by entry: i*i = e and i*j = (m*j - (m-1)*i) mod n in 1..n."""
    params = LnParams(n, m)
    size = params.order
    rows = [tuple(range(size))]
    for i in range(1, size):
        row = [i]
        for j in range(1, size):
            if i == j:
                row.append(0)
            else:
                row.append((m * j - (m - 1) * i) % n or n)
        rows.append(tuple(row))
    return FiniteLoop(size=size, table=tuple(rows), labels=default_labels(size))


def render_representation_by_cycles(L: FiniteLoop) -> list[str]:
    """Each of L's translations walked and rendered on its own, with L's labels."""
    return [render_cycles(p, L.labels) for p in right_regular_representation(L)]


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


def enumerate_involutory_right_alt_by_validation(
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
    vertices = tuple(range(order))
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
            solutions.append(validate_loop(table))
            return
        avail = [e for e in all_edges if e not in used]
        for matching in _matchings(avail, vertices):
            nodes += 1
            if nodes > caps.color_search:
                raise SizeCapExceeded("coloring search nodes", nodes, caps.color_search)
            if (0, a) not in matching:
                continue
            chosen[a] = matching
            used.update(matching)
            place(a + 1)
            used.difference_update(matching)
            del chosen[a]

    place(1)
    return solutions


def loop_to_coloring_by_cycles(L: FiniteLoop) -> EdgeColoring:
    """Color edge {x, y} by the element whose translation swaps x and y, found
    by walking the cycles of every right translation."""
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


def coloring_to_loop_by_validation(
    coloring: EdgeColoring, color_labels: dict[int, int] | None = None
) -> FiniteLoop:
    """Rebuild the loop whose translations are the color classes, checking each
    class size and revalidating the table.

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


def count_one_factorizations_by_filter(n_vertices: int) -> int:
    """Partitions of K_n's edges into perfect matchings: anchor the smallest
    uncovered edge, generate every matching of the remaining edges and keep
    those through the anchor."""
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


def random_loop(rng, n: int, commutative: bool = False, involutory: bool = False) -> FiniteLoop:
    """A random loop of order n: a reduced Latin square filled by randomised backtracking.

    ``commutative`` fills a symmetric square; ``involutory`` puts e on the
    diagonal (with ``commutative``, n must then be even).
    """
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        table[0][i] = table[i][0] = i
        if involutory and i:
            table[i][i] = 0
    cells = [
        (i, j)
        for i in range(1, n)
        for j in range(i if commutative else 1, n)
        if table[i][j] is None
    ]

    def fill(k: int) -> bool:
        if k == len(cells):
            return True
        i, j = cells[k]
        used = set(table[i]) | {row[j] for row in table}
        choices = [v for v in range(n) if v not in used]
        rng.shuffle(choices)
        for v in choices:
            table[i][j] = v
            if commutative:
                table[j][i] = v
            if fill(k + 1):
                return True
        table[i][j] = None
        if commutative:
            table[j][i] = None
        return False

    fill(0)
    return validate_loop(table)


def random_products(seed: int = 1) -> list[FiniteLoop]:
    """Seeded random loops of orders 2-6 times C_2, C_3, S_3 and L_5(2)."""
    rng = random.Random(seed)
    factors = (cyclic_group(2), cyclic_group(3), symmetric_group(3), build_ln(5, 2))
    return [direct_product(random_loop(rng, n), F) for n in range(2, 7) for F in factors]
