"""Finite loops as certified Cayley tables.

A loop is a set with a binary product, a two-sided identity and unique left
and right division; associativity is not assumed.  Elements are plain ints
indexing into the table, with the identity pinned at index 0.  Tables and
labels are immutable after construction and every operation is a pure
function of them.  A ``FiniteLoop`` also memoises the derived data that many
kernels share: its cyclic closures (``cyclic_closures``, which the element
signatures and ``power_ambiguity`` read), its subloop census
(``substructures.all_subloops``), the associativity verdict of each subset
``is_subgroup`` has decided (keyed by its element tuple, so each distinct
subloop is checked once per loop; ``is_associative`` is the entry of the whole
loop), the per-element signatures ``find_isomorphism`` prunes with
and the generating set it maps (``"gens"``), under ``"inn"``, the sorted inner
mapping group alone, since |Mlt| = n |Inn| (``identities.inner_mapping_group``;
Bruck's generators of Inn are composed by Mlt's kernel), under ``"associators"``,
the set of associators of all triples (``substructures._associators``) and, under
``"div"``, the left and right division tables (``division``).  Every kernel that divides reads the same
``"div"`` tables, so they are immutable: no caller can corrupt another's
quotients.  The memo lives exactly as long as its loop, and the constructors
return a new loop on each call, so hold the loop to reuse its derived data.
Each memo write stores the one value its key can have, so concurrent use over
shared loops is safe: at worst two callers compute the same entry twice.

Flags are inherited from the whole loop: in a group every subloop is a
subgroup and normality conditions 2 and 3 are identities, so once the memoised
``is_associative`` verdict holds, ``is_subgroup`` records each subloop as a
subgroup with no scan and ``normality_witness`` stops after condition 1.  The
census decides that verdict before any flag.  The verdict of the whole loop
comes from Light's associativity test over a generating set (n^2 table reads
per generator); the ordered n^3 triple scan runs on the whole loop only to find
the first witness of a loop that fails it, and stays hand-written: through the
law driver of ``identities`` the whole-loop scan of S_5 is 2.5 times slower.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, permutations
from math import lcm
from operator import itemgetter

from .errors import (
    BadIndex,
    LatinColumnViolation,
    LatinRowViolation,
    NoIdentity,
    NotClosed,
    NotNormal,
    SizeCapExceeded,
)

SYMMETRIC_GROUP_MAX_DEGREE = 6  # 6! = 720 keeps mixed products at desk scale


@dataclass(frozen=True)
class FiniteLoop:
    """A certified finite loop: ``table[i][j]`` is the product i*j.

    Invariants (enforced by ``validate_loop``): every row and column is a
    permutation of ``range(size)`` and index 0 is a two-sided identity.
    """

    size: int
    table: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    def ldiv(self, a: int, b: int) -> int:
        """The unique x with a*x = b."""
        return division(self)[0][a][b]

    def rdiv(self, a: int, b: int) -> int:
        """The unique y with y*a = b."""
        return division(self)[1][a][b]

    def elements(self) -> range:
        return range(self.size)

    def label_of(self, x: int) -> str:
        return self.labels[x]

    def render_subset(self, elems) -> str:
        return "{" + ",".join(self.labels[x] for x in sorted(elems)) + "}"

    def __repr__(self):
        return f"FiniteLoop(size={self.size})"


@dataclass(frozen=True)
class SubLoop:
    """A subset certified closed under some parent loop's product.

    Only the parent's size is recorded; the certificate is not portable
    across loops of different order.
    """

    elements: tuple[int, ...]
    parent_size: int

    def __post_init__(self):
        if not self.elements:
            raise ValueError("subloop cannot be empty")
        if 0 not in self.elements:
            raise ValueError("subloop must contain the identity")

    @property
    def order(self) -> int:
        return len(self.elements)

    def as_set(self) -> frozenset[int]:
        return frozenset(self.elements)

    def is_proper(self) -> bool:
        return len(self.elements) < self.parent_size

    def is_trivial(self) -> bool:
        return len(self.elements) == 1


@dataclass(frozen=True)
class IsoWitness:
    """An identity-preserving bijection carrying one loop's product to another's."""

    mapping: tuple[int, ...]

    def apply(self, x: int) -> int:
        return self.mapping[x]


@dataclass(frozen=True)
class Verdict:
    """Outcome of a decision: ``holds`` plus an optional witness tuple.

    Universal checks attach a counterexample exactly when they fail;
    existential checks attach the satisfying element(s) when they succeed.
    """

    holds: bool
    witness: tuple | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.holds


def default_labels(size: int) -> tuple[str, ...]:
    return ("e",) + tuple(str(i) for i in range(1, size))


def validate_loop(table, labels=None) -> FiniteLoop:
    """Certify a square table as a loop, relocating the identity to index 0.

    Raises ``LatinRowViolation`` / ``LatinColumnViolation`` on the first
    duplicated value and ``NoIdentity`` when no two-sided identity exists.
    A table that is not a sequence of rows, a non-int entry (floats and bools
    included), labels that are not a sequence (a string included) and
    repeated labels raise ``ValueError``.
    """
    try:
        rows = tuple(map(tuple, table))
    except TypeError:
        raise ValueError("table must be a sequence of rows") from None
    if not set(map(type, chain.from_iterable(rows))) <= {int}:
        i, v = next((i, v) for i, row in enumerate(rows) for v in row if type(v) is not int)
        raise ValueError(f"entry {v!r} in row {i} is not an integer")
    size = len(rows)
    if size == 0:
        raise NoIdentity()
    for i, row in enumerate(rows):
        if len(row) != size:
            raise ValueError(f"row {i} has length {len(row)}, expected {size}")
        # a repeat before the first out-of-range entry is reported first, as a scan meets it
        end = size if min(row) >= 0 and max(row) < size else next(
            k for k, v in enumerate(row) if not 0 <= v < size)
        repeat = _first_repeat(row[:end])
        if repeat is not None:
            raise LatinRowViolation(i, row[repeat[1]])
        if end < size:
            raise ValueError(f"entry {row[end]} in row {i} out of range")
    columns = tuple(zip(*rows))
    for j, column in enumerate(columns):
        repeat = _first_repeat(column)
        if repeat is not None:
            raise LatinColumnViolation(j, column[repeat[1]])
    ident = tuple(range(size))
    identity = next((k for k in range(size) if rows[k] == ident and columns[k] == ident), None)
    if identity is None:
        raise NoIdentity()
    if labels is None:
        labs = default_labels(size)
    else:
        if isinstance(labels, str) or not isinstance(labels, Sequence):
            raise ValueError("labels must be a sequence of names")
        labs = tuple(str(s) for s in labels)
        if len(labs) != size:
            raise ValueError("labels length must match table size")
        if len(set(labs)) != size:
            raise ValueError("labels must be distinct")
    return _identity_first(rows, labs, identity)


def _first_repeat(line) -> tuple[int, int] | None:
    """``(i, j)``, i < j, with ``line[i] == line[j]`` at the smallest such j, or None when
    the values are distinct: one set decides, and only a failing line is scanned."""
    if len(set(line)) == len(line):
        return None
    first: dict = {}
    for j, v in enumerate(line):
        i = first.setdefault(v, j)
        if i != j:
            return (i, j)


def _identity_first(rows, labs, identity: int) -> FiniteLoop:
    """The loop on ``rows`` relabelled by swapping index 0 with the identity's position."""
    size = len(rows)
    if identity != 0:
        perm = list(range(size))
        perm[0], perm[identity] = identity, 0  # a transposition is its own inverse
        relabel = perm.__getitem__
        # row i is row perm[i] with its columns permuted, then its entries relabelled
        rows = tuple(tuple(map(relabel, map(rows[p].__getitem__, perm))) for p in perm)
        labs = tuple(map(labs.__getitem__, perm))
    return FiniteLoop(size=size, table=rows, labels=labs)


mul = FiniteLoop.mul
left_divide = FiniteLoop.ldiv
right_divide = FiniteLoop.rdiv


def division(L: FiniteLoop) -> tuple[tuple[Sequence[int], ...], tuple[Sequence[int], ...]]:
    """``(ld, rd)``: ``ld[a][b]`` is the x with a*x = b, ``rd[a][b]`` the y with y*a = b.

    Built in one pass over the table and memoised on L under ``"div"``; rows are
    ``bytes`` (2n^2 bytes in all, not 16n^2) while every element fits in a byte.
    """
    div = L._memo.get("div")
    if div is None:
        n = L.size
        ld = [[0] * n for _ in range(n)]
        rd = [[0] * n for _ in range(n)]
        for a, row in enumerate(L.table):
            lda = ld[a]
            for x, ax in enumerate(row):
                lda[ax] = x
                rd[x][ax] = a
        line = bytes if n <= 256 else tuple
        div = L._memo["div"] = (tuple(map(line, ld)), tuple(map(line, rd)))
    return div


def two_sided_inverse(L: FiniteLoop, x: int) -> int | None:
    """The element y with x*y = y*x = e, or None when left and right inverses differ."""
    ld, rd = division(L)
    return ld[x][0] if ld[x][0] == rd[x][0] else None


def associator(L: FiniteLoop, x: int, y: int, z: int) -> int:
    """The unique w with (xy)z = (x(yz))w."""
    t = L.table
    return division(L)[0][t[x][t[y][z]]][t[t[x][y]][z]]


def commutator(L: FiniteLoop, x: int, y: int) -> int:
    """The unique w with xy = (yx)w."""
    t = L.table
    return division(L)[0][t[y][x]][t[x][y]]


def generated_subloop(L: FiniteLoop, seed) -> SubLoop:
    """Smallest subset containing ``seed`` and e that is closed under the product.

    In a finite loop a nonempty product-closed subset is automatically a
    subloop: the translations restricted to it are bijections of it, so it
    contains e and is division-closed.  A closed subset on more than half
    the elements must already be the whole loop, which bounds the fixpoint.
    """
    elems = set(seed)
    elems.add(0)
    for x in elems:
        if not 0 <= x < L.size:
            raise BadIndex(f"seed element {x} out of range")
    return _close(L, elems, sorted(elems))


def _close(L: FiniteLoop, elems: set, queue: list) -> SubLoop:
    """Close ``elems`` (updated in place) under the product.

    Products of two elements of ``elems`` that are both off ``queue`` must
    already lie in ``elems``: seeding with a closed subloop S and queueing
    only g closes <S, g> without re-multiplying S by itself.
    """
    size = L.size
    table = L.table
    half = size // 2
    while queue:
        x = queue.pop()
        snapshot = list(elems)
        for y in snapshot:
            for v in (table[x][y], table[y][x]):
                if v not in elems:
                    elems.add(v)
                    queue.append(v)
        if len(elems) > half:
            return SubLoop(tuple(range(size)), size)
    return SubLoop(tuple(sorted(elems)), size)


def certify_subloop(L: FiniteLoop, elems) -> SubLoop:
    """Check closure of an explicit subset and wrap it as a SubLoop."""
    members = sorted(set(elems))
    inside = frozenset(members)
    for x in members:
        if not 0 <= x < L.size:
            raise BadIndex(f"element {x} out of range")
        for y in members:
            v = L.table[x][y]
            if v not in inside:
                raise NotClosed(x, y, v)
    return SubLoop(tuple(members), L.size)


def subloop_as_loop(L: FiniteLoop, S: SubLoop) -> FiniteLoop:
    """The restriction of L to S as a standalone loop (identity stays first)."""
    index = {x: i for i, x in enumerate(S.elements)}
    table = tuple(
        tuple(index[L.table[x][y]] for y in S.elements) for x in S.elements
    )
    labels = tuple(L.labels[x] for x in S.elements)
    return FiniteLoop(size=len(S.elements), table=table, labels=labels)


def is_subgroup(L: FiniteLoop, S: SubLoop) -> bool:
    """True iff the product restricted to S is associative; memoised on L by element tuple.

    A subloop of a group is a group: once the entry of the whole loop holds,
    S is recorded as a subgroup with no scan.
    """
    if len(S.elements) == L.size:
        return is_associative(L)
    flags = L._memo.setdefault("subgroup", {})
    flag = flags.get(S.elements)
    if flag is None:
        flag = flags[S.elements] = (
            known_associative(L) or _associativity_failure(L.table, S.elements) is None
        )
    return flag


def known_associative(L: FiniteLoop) -> bool | None:
    """The recorded associativity verdict of the whole loop; None until it is decided."""
    return L._memo.get("subgroup", {}).get(tuple(range(L.size)))


def associativity_failure(L: FiniteLoop) -> tuple[int, int, int] | None:
    """First triple of L, in lexicographic order, with (xy)z != x(yz), or None in a group.

    The verdict comes from ``is_associative`` (Light's test, recorded once per
    loop); only a failing verdict runs the ordered scan, for its first witness.
    """
    return None if is_associative(L) else _associativity_failure(L.table, range(L.size))


def _light_associative(L: FiniteLoop) -> bool:
    """Light's associativity test (Clifford & Preston, *The Algebraic Theory of
    Semigroups* I, 1961, section 1.2) over ``_greedy_generators(L)``.

    The elements a with (xy)a = x(ya) for all x, y form the right nucleus,
    a product-closed set, and in a finite loop a product-closed set holding a
    generating set is the whole loop; so L is a group iff every generator lies
    in the right nucleus (``_in_nucleus``): n^2 table reads per generator.
    """
    t = L.table
    return all(_in_nucleus(t, a, "right") for a in _greedy_generators(L))


def _in_nucleus(t, a: int, slot: str) -> bool:
    """Whether a != e lies in the "left", "middle" or "right" nucleus of the loop
    with table t: whether its associator with every pair is e in that slot.

    Each x compares two rows of n entries: row ax against row a read at the
    columns of row x ((ax)y = a(xy)), row xa against row x read at the columns
    of row a ((xa)y = x(ay)), and column a read at row x against row x read at
    the rows of column a ((xy)a = x(ya)).  a must not be e: with n = 1 an
    itemgetter of one index returns a scalar, not a tuple.
    """
    row_a = t[a]
    if slot == "left":
        return all(t[row_a[x]] == tuple(map(row_a.__getitem__, row)) for x, row in enumerate(t))
    if slot == "middle":
        at_ay = itemgetter(*row_a)  # picks the entry at column ay, for every y, off a row
        return all(t[row[a]] == at_ay(row) for row in t)
    col = tuple(row[a] for row in t)  # col[z] = za
    at_ya = itemgetter(*col)  # row x: (xy)a is col[row[y]], x(ya) is row[col[y]]
    return all(tuple(map(col.__getitem__, row)) == at_ya(row) for row in t)


def _associativity_failure(t, elems) -> tuple[int, int, int] | None:
    """First triple over ``elems``, in their order, with (xy)z != x(yz); None if none fails.

    For the whole loop this is only the witness path: ``is_associative``
    decides the verdict by Light's test and ``associativity_failure`` scans
    only a loop that fails it.  ``is_subgroup`` (for a proper subset of a
    loop not known to be a group) and ``power_ambiguity`` scan their subsets.
    Hand-written rather than a row of ``identities._first_failure``: the
    whole-loop scan of S_5 takes 0.27 s through that driver against 0.11 s
    here (medians of 5, 2-vCPU Xeon, Python 3.11.7).
    """
    for x in elems:
        for y in elems:
            xy = t[x][y]
            for z in elems:
                if t[xy][z] != t[x][t[y][z]]:
                    return (x, y, z)
    return None


def is_commutative_subset(L: FiniteLoop, elems) -> bool:
    t = L.table
    seq = tuple(elems)
    for i, x in enumerate(seq):
        for y in seq[i + 1:]:
            if t[x][y] != t[y][x]:
                return False
    return True


def _cosets(L: FiniteLoop, H: SubLoop, side: str, start: int = 0, stop: int | None = None):
    """xH (``side`` "left") or Hx ("right") as a frozenset for each x in range(start, stop),
    all of L by default, lazily: the one place loupe forms a coset as a set.  The
    census coset search (``substructures._coset_search``) only merges right cosets
    into a union, so it reads each off H's rows as a list: the S_5 census takes
    0.10 s that way against 0.13 s through this kernel (2-vCPU Xeon, Python 3.11.7)."""
    t = L.table
    if side == "left":
        # x = xe lies in xH, so the extra 0 only keeps each pick a tuple when H = {e}
        return map(frozenset, map(itemgetter(0, *H.elements), t[start:stop]))
    return map(frozenset, zip(*(t[h][start:stop] for h in H.elements)))


def normality_witness(L: FiniteLoop, H: SubLoop) -> tuple[int, int, int | None] | None:
    """First violated normality condition for H, or None when H is normal.

    Conditions, in order: (1) xH = Hx, (2) (Hx)y = H(xy), (3) y(xH) = (yx)H.
    The trivial subloop and L itself are normal without a scan.  In a group
    conditions 2 and 3 are identities, so once condition 1 holds the memoised
    ``is_associative`` verdict settles them.  Otherwise each product is
    compared with a coset from one list built by condition 1: once xH = Hx
    for every x, ``cosets[z]`` is both zH and Hz.
    """
    t = L.table
    if len(H.elements) in (1, L.size):
        return None
    cosets = []
    for x, (xh, hx) in enumerate(zip(_cosets(L, H, "left"), _cosets(L, H, "right"))):
        if xh != hx:
            return (1, x, None)
        cosets.append(xh)
    if is_associative(L):
        return None
    for x in range(L.size):
        hx, row = cosets[x], t[x]
        for y in range(L.size):
            if {t[v][y] for v in hx} != cosets[row[y]]:
                return (2, x, y)
    for x in range(L.size):
        xh = cosets[x]
        for y in range(L.size):
            row = t[y]
            if {row[v] for v in xh} != cosets[row[x]]:
                return (3, x, y)
    return None


def quotient_loop(L: FiniteLoop, N: SubLoop) -> FiniteLoop:
    """The loop on the coset partition {N*x} of a normal subloop N, not revalidated: the
    cosets of a normal subloop partition L and multiply well-definedly (Bruck, *A Survey
    of Binary Systems*, 1958).  Each block is listed, and its products read, at its
    smallest element, so block 0 is N and the identity stays at index 0."""
    witness = normality_witness(L, N)
    if witness is not None:
        raise NotNormal(*witness)
    t = L.table
    blocks = list(dict.fromkeys(_cosets(L, N, "right")))
    block_of = {x: i for i, block in enumerate(blocks) for x in block}
    reps = [min(block) for block in blocks]
    table = tuple(tuple(block_of[t[a][b]] for b in reps) for a in reps)
    labels = tuple(map(L.render_subset, blocks))
    return FiniteLoop(size=len(blocks), table=table, labels=labels)


def direct_product(L1: FiniteLoop, L2: FiniteLoop) -> FiniteLoop:
    """Componentwise product on size1*size2 elements; (e, e) is the identity.

    Rows are assembled from shared value blocks so large products (e.g. a
    loop times S_6) reuse int objects instead of materialising size^2 of them.
    """
    n1, n2 = L1.size, L2.size
    blocks: dict[tuple[int, int], tuple[int, ...]] = {}
    rows = []
    for a in range(n1):
        row1 = L1.table[a]
        for s in range(n2):
            parts = []
            for b in range(n1):
                key = (row1[b], s)
                blk = blocks.get(key)
                if blk is None:
                    base = key[0] * n2
                    blk = tuple(base + w for w in L2.table[s])
                    blocks[key] = blk
                parts.append(blk)
            rows.append(tuple(chain.from_iterable(parts)))
    labels = tuple(
        f"({L1.labels[a]},{L2.labels[s]})" for a in range(n1) for s in range(n2)
    )
    return FiniteLoop(size=n1 * n2, table=tuple(rows), labels=labels)


def cyclic_group(k: int) -> FiniteLoop:
    """The cyclic group of order k as a loop."""
    if k < 1:
        raise ValueError("order must be at least 1")
    table = tuple(tuple((i + j) % k for j in range(k)) for i in range(k))
    return FiniteLoop(size=k, table=table, labels=default_labels(k))


def symmetric_group(k: int) -> FiniteLoop:
    """The symmetric group on k letters; capped at degree 6 (order 720)."""
    if k < 1:
        raise ValueError("degree must be at least 1")
    if k > SYMMETRIC_GROUP_MAX_DEGREE:
        raise SizeCapExceeded("symmetric group degree", k, SYMMETRIC_GROUP_MAX_DEGREE)
    perms = sorted(permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    # product p*q acts as "apply p, then q"
    table = tuple(
        tuple(index[tuple(q[p[i]] for i in range(k))] for q in perms) for p in perms
    )
    labels = tuple("".join(str(v) for v in p) for p in perms)
    return FiniteLoop(size=len(perms), table=table, labels=labels)


def _element_signatures(L: FiniteLoop) -> list[tuple]:
    """Isomorphism invariants of each element (|<x>|, x*x == e, centraliser size), memoised on L."""
    sigs = L._memo.get("signatures")
    if sigs is None:
        t = L.table
        sigs = L._memo["signatures"] = [
            (S.order, t[x][x] == 0, sum(1 for y in range(L.size) if t[x][y] == t[y][x]))
            for x, (S, _) in enumerate(cyclic_closures(L))
        ]
    return sigs


def _greedy_generators(L: FiniteLoop) -> tuple[int, ...]:
    """A generating set of L, memoised: each element, in index order, joins if
    the span so far misses it, so every element below a generator lies in the
    span of the generators before it."""
    gens = L._memo.get("gens")
    if gens is None:
        picked: list[int] = []
        span = {0}
        for x in range(1, L.size):
            if x not in span:
                picked.append(x)
                span = set(_close(L, span, [x]).elements)
        gens = L._memo["gens"] = tuple(picked)
    return gens


def find_isomorphism(L1: FiniteLoop, L2: FiniteLoop) -> IsoWitness | None:
    """Identity-preserving isomorphism search, smallest image lexicographically.

    An isomorphism is fixed by where it sends a generating set, so only the
    images of ``_greedy_generators(L1)`` are chosen: injectively, in ascending
    order, each with the element signature of its generator.  Each choice
    extends the map by products of already-mapped elements and is dropped at
    the first product whose image clashes with a value already mapped, is
    already taken or has another signature.  A complete map is accepted only
    after a bijectivity check and a full-table homomorphism check.  Every
    element below a generator is a product of earlier generators, so two maps
    first differ at a generator and the first map accepted is the
    lexicographically smallest.  Returns that witness or None.
    """
    size = L1.size
    if size != L2.size:
        return None
    sig1 = _element_signatures(L1)
    sig2 = _element_signatures(L2)
    if sorted(sig1) != sorted(sig2):
        return None
    gens = _greedy_generators(L1)
    t1, t2 = L1.table, L2.table
    f = [-1] * size
    used = [False] * size
    f[0] = 0
    used[0] = True
    mapped = [0]  # the subloop generated by the generators mapped so far

    def undo(mark: int) -> None:
        for v in mapped[mark:]:
            used[f[v]] = False
            f[v] = -1
        del mapped[mark:]

    def extend(g: int, u: int) -> bool:
        """Send g to u and close the map under products; undo it on a clash."""
        mark = len(mapped)
        f[g] = u
        used[u] = True
        mapped.append(g)
        k = mark
        while k < len(mapped):
            x = mapped[k]
            k += 1
            fx = f[x]
            row1, row2 = t1[x], t2[fx]
            # pair x with itself and all mapped before it; later elements meet x in their turn
            for y in mapped[:k]:
                fy = f[y]
                for v, w in ((row1[y], row2[fy]), (t1[y][x], t2[fy][fx])):
                    if f[v] < 0 and not used[w] and sig1[v] == sig2[w]:
                        f[v] = w
                        used[w] = True
                        mapped.append(v)
                    elif f[v] != w:
                        undo(mark)
                        return False
        return True

    def search(i: int) -> bool:
        if i == len(gens):
            return sorted(f) == list(range(size)) and all(
                tuple(map(f.__getitem__, t1[x])) == tuple(map(t2[f[x]].__getitem__, f))
                for x in range(size)
            )
        g = gens[i]
        mark = len(mapped)
        for u in range(size):
            if used[u] or sig2[u] != sig1[g] or not extend(g, u):
                continue
            if search(i + 1):
                return True
            undo(mark)
        return False

    if search(0):
        return IsoWitness(tuple(f))
    return None


def cyclic_closures(L: FiniteLoop) -> tuple[tuple[SubLoop, bool], ...]:
    """``(<x>, is_subgroup(<x>))`` for every element x, computed once per loop."""
    closures = L._memo.get("cyclic")
    if closures is None:
        closures = L._memo["cyclic"] = tuple(
            (S, is_subgroup(L, S)) for S in (generated_subloop(L, (x,)) for x in range(L.size))
        )
    return closures


def element_order(L: FiniteLoop, x: int) -> int | None:
    """Order of x when <x> is a cyclic group; None when powers are ambiguous."""
    gen, is_group = cyclic_closures(L)[x]
    return gen.order if is_group else None


def is_cyclic_group(L: FiniteLoop, S: SubLoop) -> bool:
    """True iff S is a group generated by one of its elements.

    For x in a closed S, <x> lies in S, so <x> = S exactly when the orders agree.
    """
    closures = cyclic_closures(L)
    return any(closures[x][1] and closures[x][0].order == S.order for x in S.elements)


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorisation of n >= 1 as ascending (prime, exponent) pairs."""
    out = []
    d, left = 2, n
    while d * d <= left:
        if left % d == 0:
            a = 0
            while left % d == 0:
                left //= d
                a += 1
            out.append((d, a))
        d += 1
    if left > 1:
        out.append((left, 1))
    return out


def power_ambiguity(L: FiniteLoop, x: int) -> tuple[int, int, int] | None:
    """An associativity failure inside <x>, or None when x has a clean order."""
    S, is_group = cyclic_closures(L)[x]
    return None if is_group else _associativity_failure(L.table, S.elements)


def is_associative(L: FiniteLoop) -> bool:
    """Whether L is a group: the recorded verdict, else decided by Light's test and recorded."""
    known = known_associative(L)
    if known is None:
        known = L._memo.setdefault("subgroup", {})[tuple(range(L.size))] = _light_associative(L)
    return known


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Apply q first, then p."""
    return tuple(p[v] for v in q)


def cycles(perm: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Disjoint cycles, each led by its smallest member, sorted by leader."""
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        cur = perm[start]
        while cur != start:
            cyc.append(cur)
            seen[cur] = True
            cur = perm[cur]
        out.append(tuple(cyc))
    return out


def permutation_order(perm: tuple[int, ...]) -> int:
    return lcm(*(len(cyc) for cyc in cycles(perm)))


@dataclass(frozen=True)
class CycleClass:
    """Multiset of cycle lengths of a permutation, as sorted (length, count) pairs."""

    counts: tuple[tuple[int, int], ...]

    @classmethod
    def from_counts(cls, mapping) -> "CycleClass":
        items = tuple(sorted((int(k), int(v)) for k, v in dict(mapping).items() if v))
        return cls(items)

    def as_dict(self) -> dict[int, int]:
        return dict(self.counts)

    @property
    def order(self) -> int:
        """lcm of the cycle lengths: the order of any permutation in this class."""
        return lcm(*(length for length, _ in self.counts)) if self.counts else 1

    def total(self) -> int:
        return sum(length * count for length, count in self.counts)

    def __str__(self):
        inner = ", ".join(f"{k}: {v}" for k, v in self.counts)
        return "{" + inner + "}"
