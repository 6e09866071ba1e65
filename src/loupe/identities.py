"""Decision procedures for quantified loop identities and structural properties.

Every law, strict form and special identity is a row of passes that one
driver, ``_first_failure``, decides by exhaustive scan over tuples of the
pass's arity drawn from a domain; a failing Verdict carries the first
counterexample in lexicographic order, and re-evaluating that witness through
the table must reproduce the violation.  An existential property (a CA-loop
element, an associative triple) is the first failure of its negation.  Only
the four laws that divide (Bruck, WIP, semi-alternative, IP) read division
tables.  Semi-right commutativity needs no scan: it holds in every loop by
right division.  Setting a = e settles the pseudo-associative kinds and most
readings of the pseudo-commutative law (see ``special_commutativity``).
"""

from __future__ import annotations

import enum
from collections import Counter
from functools import partial
from itertools import chain, combinations
from math import comb
from operator import methodcaller

from . import substructures
from .config import DEFAULT_CAPS, Caps
from .core import (
    FiniteLoop,
    Verdict,
    associativity_failure,
    compose,
    cyclic_closures,
    division,
    generated_subloop,
    is_associative,
    is_commutative_subset,
    is_cyclic_group,
    is_subgroup,
    known_associative,
    two_sided_inverse,
)
from .errors import CapExceeded, NotIPLoop, SizeCapExceeded


class Law(enum.Enum):
    COMMUTATIVE = "commutative"
    ASSOCIATIVE = "associative"
    MOUFANG1 = "moufang1"
    MOUFANG2 = "moufang2"
    MOUFANG3 = "moufang3"
    BOL = "bol"
    BRUCK = "bruck"
    WIP = "wip"
    LEFT_ALTERNATIVE = "left_alternative"
    RIGHT_ALTERNATIVE = "right_alternative"
    FLEXIBLE = "flexible"
    SEMI_ALTERNATIVE = "semi_alternative"
    JORDAN = "jordan"
    STEINER = "steiner"
    IP = "ip"


def _commutes(t, ld, x, y) -> bool:
    return t[x][y] == t[y][x]


def _law(arity: int, holds, detail: str = "", *pin) -> tuple:
    """The row of a law decided by one check, with its detail and optional pin."""
    return ((arity, ((holds, detail),), *pin),)


# Each law but associativity, which check_law decides by associativity_failure,
# is a row of passes (arity, checks[, pin]) that one scan decides in order: the
# first tuple, lexicographically, to fail a check fails the law with the
# detail of the first check it fails.  Predicates take the table t, the
# left-division table ld (None unless the law is in _DIVIDING) and the tuple.
# A pin completes a pair witness with the z the law fixes: WIP's (xy)z = e pins
# z per (x, y), so its pair scan meets the first violating triple in cubic-scan
# order.  _INVERSES, the first pass of Bruck and IP, asks every right inverse
# ld[x][0] to be a left inverse too.
_INVERSES = (1, ((lambda t, ld, x: t[ld[x][0]][x] == 0, "no two-sided inverse"),))
_LAWS = {
    Law.COMMUTATIVE: _law(2, _commutes),
    Law.MOUFANG1: _law(3, lambda t, ld, x, y, z: t[t[x][y]][t[z][x]] == t[t[x][t[y][z]]][x]),
    Law.MOUFANG2: _law(3, lambda t, ld, x, y, z: t[t[t[x][y]][z]][y] == t[x][t[y][t[z][y]]]),
    Law.MOUFANG3: _law(3, lambda t, ld, x, y, z: t[x][t[y][t[x][z]]] == t[t[t[x][y]][x]][z]),
    Law.BOL: _law(3, lambda t, ld, x, y, z: t[t[t[x][y]][z]][y] == t[x][t[t[y][z]][y]]),
    Law.BRUCK: (
        _INVERSES,
        (2, ((lambda t, ld, x, y: ld[t[x][y]][0] == t[ld[x][0]][ld[y][0]],
              "(xy)^-1 = x^-1 y^-1 fails"),)),
        (3, ((lambda t, ld, x, y, z: t[t[x][t[y][x]]][z] == t[x][t[y][t[x][z]]],
              "x(yx)z = x(y(xz)) fails"),)),
    ),
    Law.WIP: _law(2, lambda t, ld, x, y: t[x][t[y][ld[t[x][y]][0]]] == 0, "",
                  lambda t, ld, x, y: ld[t[x][y]][0]),
    Law.LEFT_ALTERNATIVE: _law(2, lambda t, ld, x, y: t[t[x][x]][y] == t[x][t[x][y]]),
    Law.RIGHT_ALTERNATIVE: _law(2, lambda t, ld, x, y: t[t[x][y]][y] == t[x][t[y][y]]),
    Law.FLEXIBLE: _law(2, lambda t, ld, x, y: t[t[x][y]][x] == t[x][t[y][x]]),
    # the associators of (x, y, z) and (y, z, x) agree
    Law.SEMI_ALTERNATIVE: _law(3, lambda t, ld, x, y, z: (
        ld[t[x][t[y][z]]][t[t[x][y]][z]] == ld[t[y][t[z][x]]][t[t[y][z]][x]])),
    # commutativity plus the squared-product law a^2(ba) = (a^2 b)a
    Law.JORDAN: (
        (2, ((_commutes, "commutativity fails"),
             (lambda t, ld, a, b: t[t[a][a]][t[b][a]] == t[t[t[a][a]][b]][a], "square law fails"))),
    ),
    Law.STEINER: (
        (1, ((lambda t, ld, x: t[x][x] == 0, "not involutory"),)),
        (2, ((_commutes, "commutativity fails"),
             (lambda t, ld, x, y: t[x][t[x][y]] == y, "x(xy) = y fails"))),
    ),
    Law.IP: (
        _INVERSES,
        (2, ((lambda t, ld, x, y: t[ld[x][0]][t[x][y]] == y and t[t[y][x]][ld[x][0]] == y, ""),)),
    ),
}
_DIVIDING = {Law.BRUCK, Law.WIP, Law.SEMI_ALTERNATIVE, Law.IP}
# the laws every group satisfies: each holds at once when L is known to be associative
_GROUP_LAWS = {
    Law.ASSOCIATIVE, Law.MOUFANG1, Law.MOUFANG2, Law.MOUFANG3, Law.BOL, Law.WIP,
    Law.LEFT_ALTERNATIVE, Law.RIGHT_ALTERNATIVE, Law.FLEXIBLE, Law.SEMI_ALTERNATIVE, Law.IP,
}


def _first_failure(t, ld, domain, arity: int, checks) -> tuple | None:
    """First ``arity``-tuple over ``domain``, in lexicographic order, failing one of ``checks``."""
    holds = checks[0][0]
    if len(checks) > 1:
        holds = lambda *w: all(p(*w) for p, _ in checks)
    if arity == 1:
        for x in domain:
            if not holds(t, ld, x):
                return (x,)
    elif arity == 2:
        for x in domain:
            for y in domain:
                if not holds(t, ld, x, y):
                    return (x, y)
    else:
        for x in domain:
            for y in domain:
                for z in domain:
                    if not holds(t, ld, x, y, z):
                        return (x, y, z)
    return None


def _decide(t, ld, rows, domain, lead: tuple = ()) -> Verdict:
    """Verdict of a row over ``domain``: the first failure of its first failing
    pass, after ``lead``."""
    for arity, checks, *pin in rows:
        w = _first_failure(t, ld, domain, arity, checks)
        if w is not None:
            # a lone check is not run again: its predicate may close a subloop
            detail = checks[0][1] if len(checks) == 1 else next(
                d for p, d in checks if not p(t, ld, *w))
            return Verdict(False, lead + w + tuple(f(t, ld, *w) for f in pin), detail)
    return Verdict(True)


def check_law(L: FiniteLoop, law: Law) -> Verdict:
    """Decide a quantified identity; first counterexample in lexicographic order.

    Once the whole loop is known to be a group (``known_associative``), every
    law a group satisfies holds with no scan.  The associative law is decided
    by ``associativity_failure``, which records that verdict.  A failing law
    is always scanned, so its witness is the first counterexample.
    """
    if law in _GROUP_LAWS and known_associative(L):
        return Verdict(True)
    if law is Law.ASSOCIATIVE:
        w = associativity_failure(L)
        return Verdict(w is None, w)
    if law not in _LAWS:
        raise ValueError(f"unknown law {law}")
    ld = division(L)[0] if law in _DIVIDING else None
    return _decide(L.table, ld, _LAWS[law], range(L.size))


class StrictForm(enum.Enum):
    STRICT_NON_COMMUTATIVE = "strict_non_commutative"
    STRICT_NON_LEFT_ALT = "strict_non_left_alt"
    STRICT_NON_RIGHT_ALT = "strict_non_right_alt"
    STRICT_NON_ALTERNATIVE = "strict_non_alternative"


def _nowhere(law: Law, detail: str = "") -> tuple:
    """The row failing at each distinct pair where the one-check binary ``law`` holds."""
    ((_, ((holds, _),)),) = _LAWS[law]
    return _law(2, lambda t, ld, x, y: x == y or not holds(t, ld, x, y), detail)


_STRICT = {
    StrictForm.STRICT_NON_COMMUTATIVE: _nowhere(Law.COMMUTATIVE),
    StrictForm.STRICT_NON_LEFT_ALT: _nowhere(Law.LEFT_ALTERNATIVE),
    StrictForm.STRICT_NON_RIGHT_ALT: _nowhere(Law.RIGHT_ALTERNATIVE),
    StrictForm.STRICT_NON_ALTERNATIVE: (
        _nowhere(Law.LEFT_ALTERNATIVE, "left alternative law holds somewhere")
        + _nowhere(Law.RIGHT_ALTERNATIVE, "right alternative law holds somewhere")),
}


def check_strict(L: FiniteLoop, form: StrictForm) -> Verdict:
    """Strict negative forms: the named binary laws fail on every distinct non-identity pair."""
    if form not in _STRICT:
        raise ValueError(f"unknown strict form {form}")
    return _decide(L.table, None, _STRICT[form], range(1, L.size))


def is_power_associative(L: FiniteLoop) -> Verdict:
    """Every element generates an associative subloop (necessarily a cyclic group)."""
    for x, (_, is_group) in enumerate(cyclic_closures(L)):
        if not is_group:
            return Verdict(False, (x,))
    return Verdict(True)


def is_diassociative(L: FiniteLoop) -> Verdict:
    """Every pair of elements generates an associative subloop; (y, x) with y > x
    generates what (x, y) does, so it passes unscanned.  A subloop of a group
    is a group, so a group, decided first by Light's test, holds unscanned."""
    if is_associative(L):
        return Verdict(True)
    return _decide(L.table, None, _law(2, lambda t, ld, x, y: (
        y < x or is_subgroup(L, generated_subloop(L, (x, y))))), range(L.size))


class SpecialKind(enum.Enum):
    CA_LOOP = "ca_loop"
    SEMI_RIGHT_COMMUTATIVE = "semi_right_commutative"
    STRONGLY_SEMI_RIGHT_COMMUTATIVE = "strongly_semi_right_commutative"
    INNER_COMMUTATIVE = "inner_commutative"
    STRICTLY_INNER_COMMUTATIVE = "strictly_inner_commutative"
    PSEUDO_COMMUTATIVE = "pseudo_commutative"
    STRONGLY_PSEUDO_COMMUTATIVE = "strongly_pseudo_commutative"
    PSEUDO_ASSOCIATIVE = "pseudo_associative"
    STRONGLY_PSEUDO_ASSOCIATIVE = "strongly_pseudo_associative"
    HAMILTONIAN = "hamiltonian"
    SIMPLE = "simple"


# The universal special properties as rows, each with the lead of its failing
# witness; a tuple the property does not quantify over passes.  A row with
# lead 0 is the law that setting a = e leaves (see special_commutativity).
_PSEUDO_ASSOCIATIVE_AT_E = (_law(3, lambda t, ld, b, c, x: t[b][t[x][c]] == t[x][t[b][c]]), (0,))
_COMMUTATIVE_AT_E = (_LAWS[Law.COMMUTATIVE], (0,))
_SPECIAL = {
    SpecialKind.SEMI_RIGHT_COMMUTATIVE: ((), ()),  # no pass: it holds in every loop
    # pq = r(qp) or pq = (rq)p for some rotation (p, q, r) of three distinct
    # elements: a repeated entry (x, x, x) with x*x = e satisfies no rotation
    SpecialKind.STRONGLY_SEMI_RIGHT_COMMUTATIVE: (_law(3, lambda t, ld, x, y, z: (
        len({x, y, z}) < 3 or any(t[p][q] in (t[r][t[q][p]], t[t[r][q]][p])
                                  for p, q, r in ((x, y, z), (y, z, x), (z, x, y))))), ()),
    SpecialKind.STRONGLY_PSEUDO_COMMUTATIVE: _COMMUTATIVE_AT_E,
    SpecialKind.PSEUDO_ASSOCIATIVE: _PSEUDO_ASSOCIATIVE_AT_E,
    SpecialKind.STRONGLY_PSEUDO_ASSOCIATIVE: _PSEUDO_ASSOCIATIVE_AT_E,
}
# The four bracketings of the loosely stated pseudo-commutative law, over
# commuting pairs (a, b) and every x; the first is the (ax)b = (bx)a reading.
_AX_B_IS_BX_A = (_law(3, lambda t, ld, a, b, x: (
    t[a][b] != t[b][a] or t[t[a][x]][b] == t[t[b][x]][a])), ())
_PSEUDO_COMMUTATIVE = {
    "ax.b=bx.a": _AX_B_IS_BX_A,
    "ax.b=b.xa": _COMMUTATIVE_AT_E,
    "a.xb=bx.a": _COMMUTATIVE_AT_E,
    "a.xb=b.xa": _AX_B_IS_BX_A,
}
PSEUDO_COMMUTATIVE_VARIANTS = tuple(_PSEUDO_COMMUTATIVE)
# a CA-loop has some x with (ax)b = (xb)a and a(xb) = b(ax) for every a, b:
# the first such x is the first failure of this negation
_NOT_CA_ELEMENT = _law(1, lambda t, ld, x: not all(
    t[t[a][x]][b] == t[t[x][b]][a] and t[a][t[x][b]] == t[b][t[a][x]]
    for a in range(len(t)) for b in range(len(t))))


def special_commutativity(
    L: FiniteLoop,
    kind: SpecialKind,
    cap: Caps = DEFAULT_CAPS,
    pseudo_variant: str = "ax.b=bx.a",
) -> Verdict:
    """Decide the order-sensitive commutativity/associativity properties.

    ``pseudo_variant`` selects which bracketing of the pseudo-commutative law
    is enforced; the default is the (ax)b = (bx)a reading and the remaining
    three are alternative interpretations of the same loosely stated law.
    Semi-right commutativity (some c with ab = c(ba) or ab = (cb)a, for every
    a, b) holds in every loop with no scan: c = (ab)/(ba), the right quotient,
    solves ab = c(ba).

    Setting a = e settles most pseudo properties, and their failing
    witnesses start with 0.  Both pseudo-associative kinds read b(xc) = x(bc)
    there, since (e, b, c) associates: c = e gives commutativity, and then
    (bx)c = c(bx) = b(cx) = b(xc) gives associativity, so they hold exactly
    on abelian groups.  Every pseudo-commutative reading reads xb = bx there,
    and a commutative loop has (bx)a = a(xb) and b(xa) = (ax)b: the strong
    form and the readings ax.b=b.xa and a.xb=bx.a are commutativity, and
    a.xb=b.xa reads (bx)a = (ax)b, so it decides as ax.b=bx.a does (a
    non-commutative loop fails both first at the same (0, b, x)).
    """
    if kind is SpecialKind.CA_LOOP:
        negation = _decide(L.table, None, _NOT_CA_ELEMENT, range(L.size))
        return Verdict(not negation.holds, negation.witness)
    if kind is SpecialKind.PSEUDO_COMMUTATIVE:
        if pseudo_variant not in _PSEUDO_COMMUTATIVE:
            raise ValueError(f"unknown pseudo variant {pseudo_variant!r}")
        rows, lead = _PSEUDO_COMMUTATIVE[pseudo_variant]
        return _decide(L.table, None, rows, range(L.size), lead)
    if kind in _SPECIAL:
        rows, lead = _SPECIAL[kind]
        return _decide(L.table, None, rows, range(L.size), lead)
    if kind in (SpecialKind.INNER_COMMUTATIVE, SpecialKind.STRICTLY_INNER_COMMUTATIVE):
        if check_law(L, Law.COMMUTATIVE).holds:
            return Verdict(False, None, "loop itself is commutative")
        census = substructures.all_subloops(L, cap)
        for S in census.subloops:
            if not S.is_proper():
                continue
            if not is_commutative_subset(L, S.elements):
                return Verdict(False, S.elements, "non-commutative proper subloop")
            if (
                kind is SpecialKind.STRICTLY_INNER_COMMUTATIVE
                and S.order >= 2
                and is_cyclic_group(L, S)
            ):
                return Verdict(False, S.elements, "proper subloop is a cyclic group")
        return Verdict(True)
    if kind is SpecialKind.HAMILTONIAN:
        census = substructures.all_subloops(L, cap)
        for S, normal in zip(census.subloops, census.normal_flags):
            if not normal:
                return Verdict(False, S.elements)
        return Verdict(True)
    if kind is SpecialKind.SIMPLE:
        census = substructures.all_subloops(L, cap)
        for S, normal in zip(census.subloops, census.normal_flags):
            if normal and not S.is_trivial() and S.is_proper():
                return Verdict(False, S.elements, "non-trivial normal subloop")
        return Verdict(True)
    raise ValueError(f"unknown kind {kind}")


def _permutation_kernel(n: int) -> tuple:
    """``(perm, then)`` for permutations of ``range(n)``: ``perm`` makes one from
    its images and ``then(q)`` maps p to p followed by q.  Up to order 256
    permutations are ``bytes`` and ``p.translate(q + pad)`` applies p then q at
    C level; above, they are tuples composed by ``compose``."""
    if n <= 256:
        return bytes, lambda q, pad=bytes(256 - n): methodcaller("translate", q + pad)
    return tuple, lambda q: partial(compose, q)


def multiplication_group(L: FiniteLoop, cap: int = DEFAULT_CAPS.mlt) -> list[tuple[int, ...]]:
    """Closure of all left/right translations under composition, sorted.

    Dimino's algorithm (Dimino 1971; Butler, *Fundamental Algorithms for
    Permutation Groups*, LNCS 559, 1991): each translation s outside the group
    H built so far extends it to <H, s>, listed as right cosets Hg.  Starting
    from the representative e, every product rt of a representative r with a
    generator t taken so far that is not yet seen brings in its whole coset Hrt
    and becomes a representative; once all products land in known cosets, their
    union is closed.  Every element is formed once, inside its coset, and
    composed by ``_permutation_kernel``.

    Raises ``CapExceeded`` (reporting ``cap + 1`` permutations) as soon as the
    group is known to exceed ``cap``, before returning anything partial.
    """
    perm, then = _permutation_kernel(L.size)
    identity = perm(range(L.size))
    gens = sorted((set(map(perm, L.table)) | set(map(perm, zip(*L.table)))) - {identity})
    seen, moves = {identity}, []
    if len(seen) > cap:  # the group holds e before any generator is taken
        raise CapExceeded("multiplication group", cap + 1, cap)
    for s in gens:
        if s in seen:
            continue
        moves.append(then(s))
        H, reps = list(seen), [identity]
        for r in reps:  # reps grows while it is walked
            for move in moves:
                g = move(r)
                if g not in seen:
                    seen.update(map(then(g), H))
                    if len(seen) > cap:
                        raise CapExceeded("multiplication group", cap + 1, cap)
                    reps.append(g)
    return list(map(tuple, sorted(seen)))


def inner_mapping_group(L: FiniteLoop, cap: int = DEFAULT_CAPS.mlt) -> list[tuple[int, ...]]:
    """Members of the multiplication group fixing the identity, sorted.

    Memoised on L as Inn alone, so Mlt is closed at most once per loop.  Mlt
    is transitive (R_x sends e to x) and Inn is the stabiliser of e, so
    |Mlt| = n |Inn|: a memo hit checks ``cap`` against that and raises exactly
    what a fresh closure would.
    """
    inn = L._memo.get("inn")
    if inn is None:
        inn = L._memo["inn"] = tuple(p for p in multiplication_group(L, cap) if p[0] == 0)
    elif L.size * len(inn) > cap:
        raise CapExceeded("multiplication group", cap + 1, cap)
    return list(inn)


def _bruck_generators(L: FiniteLoop) -> set[tuple[int, ...]]:
    """Bruck's generators of Inn(L), as permutations z -> zT(x), zR(x,y), zL(x,y).

    T(x) = R_x L_x^-1, R(x,y) = R_x R_y R_xy^-1 and L(x,y) = L_x L_y L_yx^-1
    (Bruck, A Survey of Binary Systems, 1958): at most 2n^2 + n of them, composed
    by Mlt's kernel from the columns R_x, the rows L_x and the division rows
    (row a of ``ld`` is L_a^-1, row a of ``rd`` is R_a^-1).
    """
    t = L.table
    perm, then = _permutation_kernel(L.size)
    rows, cols = list(map(perm, t)), list(map(perm, zip(*t)))
    after_row, after_col = list(map(then, rows)), list(map(then, cols))
    after_ld, after_rd = ([then(perm(r)) for r in d] for d in division(L))
    gens = {after_ld[x](col) for x, col in enumerate(cols)}
    for x, (row, col) in enumerate(zip(rows, cols)):
        for y in range(L.size):
            gens.add(after_rd[t[x][y]](after_col[y](col)))
            gens.add(after_ld[t[y][x]](after_row[y](row)))
    return set(map(tuple, gens))


def _automorphism_failure(t, theta: tuple[int, ...]) -> tuple | None:
    """``(theta, x, y)`` at the first (x, y) with theta(xy) != theta(x)theta(y)."""
    for x, row in enumerate(t):
        image = t[theta[x]]
        for y, xy in enumerate(row):
            if theta[xy] != image[theta[y]]:
                return (theta, x, y)
    return None


def _every_inner_mapping(L: FiniteLoop, failure, cap: int) -> Verdict:
    """Verdict that ``failure`` (a witness at an inner mapping, or None) is None at all.

    The permutations it passes form a group, so the law holds once Bruck's
    generators of Inn(L) pass, and ``cap`` never binds then; otherwise the
    witness is read at the first failing inner mapping in sorted order.
    """
    if all(failure(theta) is None for theta in _bruck_generators(L)):
        return Verdict(True)
    for witness in map(failure, inner_mapping_group(L, cap)):
        if witness is not None:
            return Verdict(False, witness)
    raise AssertionError("a generator of Inn fails, yet every inner mapping passes")


def is_a_loop(L: FiniteLoop, cap: int = DEFAULT_CAPS.mlt) -> Verdict:
    """Every inner mapping is an automorphism of the loop (Aut(L) is a group)."""
    return _every_inner_mapping(L, partial(_automorphism_failure, L.table), cap)


def is_arif(L: FiniteLoop, cap: int = DEFAULT_CAPS.mlt) -> Verdict:
    """Inverse-property loop whose inner mappings commute with inversion (their
    centraliser is a group)."""
    ip = check_law(L, Law.IP)
    if not ip.holds:
        raise NotIPLoop(ip.witness)
    j = tuple(two_sided_inverse(L, x) for x in range(L.size))
    return _every_inner_mapping(
        L, lambda theta: None if compose(j, compose(theta, j)) == theta else (theta,), cap)


def _nonempty_subsets(size: int, max_size: int):
    elems = range(size)
    return chain.from_iterable(combinations(elems, r) for r in range(1, max_size + 1))


def up_tup_check(L: FiniteLoop, mode: str, max_subset_size: int = 3) -> Verdict:
    """Unique-product scans over bounded subset pairs.

    ``mode`` is "up" (at least one uniquely represented product per pair) or
    "tup" (at least two, over pairs with |A| + |B| > 2).
    """
    if mode not in ("up", "tup"):
        raise ValueError("mode must be 'up' or 'tup'")
    max_size = min(max_subset_size, L.size)
    subset_count = sum(comb(L.size, r) for r in range(1, max_size + 1))
    if subset_count * subset_count > 4_000_000:
        raise SizeCapExceeded("subset pairs", subset_count * subset_count, 4_000_000)
    need = 1 if mode == "up" else 2

    def enough_unique(t, ld, A, B) -> bool:
        if mode == "tup" and len(A) + len(B) <= 2:
            return True
        reps = Counter(t[a][b] for a in A for b in B)
        return sum(1 for v in reps.values() if v == 1) >= need

    subsets = list(_nonempty_subsets(L.size, max_size))
    return _decide(L.table, None, _law(2, enough_unique), subsets)
