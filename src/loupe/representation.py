"""Right regular representations and translation cycle structure.

The right translation by a is the permutation R_a : x -> x*a; the list of
all of them (in element order) is the right regular representation.  A set
of permutations arises this way exactly when it contains the identity, acts
transitively, and no two members agree anywhere.  ``loupe color enumerate``
renders its 6,240 loops of order 8 in one ``render_representations`` call:
106 distinct translations (K_8's 105 perfect matchings and e), 49,920 lines.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import DEFAULT_CAPS, Caps
from .core import CycleClass, FiniteLoop, SubLoop, Verdict, compose, cycles, permutation_order
from .core import _first_repeat
from .errors import HasSSubloops, NotAnSSubloop
from . import smarandache

Permutation = tuple[int, ...]


def right_regular_representation(L: FiniteLoop) -> list[Permutation]:
    """[R_a for each element a], with R_e the identity at position 0."""
    return list(zip(*L.table))


def cycle_class(perm: Permutation) -> CycleClass:
    counts: dict[int, int] = {}
    for cyc in cycles(perm):
        counts[len(cyc)] = counts.get(len(cyc), 0) + 1
    return CycleClass.from_counts(counts)


def render_cycles(perm: Permutation, labels) -> str:
    """Cycle notation with fixed points omitted, e.g. "(e 1) (2 5 3) (4 6 7)"."""
    parts = [
        "(" + " ".join(labels[v] for v in cyc) + ")"
        for cyc in cycles(perm)
        if len(cyc) > 1
    ]
    return " ".join(parts) if parts else "I"


def render_representations(loops) -> list[list[str]]:
    """Each loop's translations in cycle notation, R_e first.

    Within one call each distinct (labels, R_a) is rendered once and its
    string reused: the loops of one order share their labels, and many of
    their translations are the same permutation.
    """
    rendered: dict[tuple[str, ...], dict[Permutation, str]] = {}
    out = []
    for L in loops:
        labels = L.labels
        seen = rendered.setdefault(labels, {})
        lines = []
        for perm in right_regular_representation(L):
            line = seen.get(perm)
            if line is None:
                line = seen[perm] = render_cycles(perm, labels)
            lines.append(line)
        out.append(lines)
    return out


def render_representation(L: FiniteLoop) -> list[str]:
    return render_representations([L])[0]


def validate_albert(perms: list[Permutation]) -> Verdict:
    """The three conditions for a permutation set to represent a loop.

    (a) the identity belongs to the set; (b) the set is transitive; (c) if
    the quotient of two members fixes a point they are equal, checked as: no
    two distinct members agree at any point.
    """
    if not perms:
        return Verdict(False, None, "empty set")
    size = len(perms[0])
    if any(len(p) != size for p in perms):
        return Verdict(False, None, "mixed sizes")
    identity = tuple(range(size))
    if identity not in perms:
        return Verdict(False, None, "identity missing")
    columns = list(zip(*perms))  # columns[x] holds every member's image of x
    for a, images in enumerate(columns):
        if set(images) != set(range(size)):
            return Verdict(False, (a,), "not transitive")
    for x, images in enumerate(columns):
        repeat = _first_repeat(images)
        if repeat is not None:
            return Verdict(False, (*repeat, x), "two members agree at a point")
    return Verdict(True)


@dataclass(frozen=True)
class RepresentationReport:
    uniform_class: bool
    cycle_class: CycleClass
    matches_prediction: bool
    transpositions_present: bool


def representation_report(L: FiniteLoop, predicted: CycleClass) -> RepresentationReport:
    """Check L's translation structure against a predicted cycle class.

    Every non-identity R_a must contain the transposition (a, e), all must
    share one cycle class, and that class must equal ``predicted``.  The
    trivial loop has no non-identity R_a and reads all three vacuously: its
    class is the empty one.
    """
    perms = right_regular_representation(L)
    classes = [cycle_class(p) for p in perms[1:]] or [CycleClass(())]
    observed = classes[0]
    uniform = len(set(classes)) == 1
    transpositions = all(
        perms[a][0] == a and perms[a][a] == 0 for a in range(1, L.size)
    )
    return RepresentationReport(
        uniform_class=uniform,
        cycle_class=observed,
        matches_prediction=uniform and observed == predicted,
        transpositions_present=transpositions,
    )


def s_representation(L: FiniteLoop, A: SubLoop) -> list[Permutation]:
    """Translations indexed by an S-subloop, still acting on all of L."""
    if not smarandache.is_s_subloop(L, A):
        raise NotAnSSubloop("the supplied subloop is not an S-subloop")
    perms = right_regular_representation(L)
    return [perms[a] for a in A.elements]


def s_pseudo_representation(
    L: FiniteLoop, caps: Caps = DEFAULT_CAPS
) -> list[tuple[SubLoop, list[Permutation]]]:
    """Per-subgroup translation sets for an S-loop with no S-subloops."""
    if smarandache._s_subloops(L, caps):
        raise HasSSubloops("loop has S-subloops; use s_representation instead")
    perms = right_regular_representation(L)
    return [(B, [perms[b] for b in B.elements]) for B in smarandache._proper_subgroups(L, caps)]


__all__ = [
    "Permutation",
    "CycleClass",
    "right_regular_representation",
    "cycles",
    "cycle_class",
    "render_cycles",
    "render_representation",
    "render_representations",
    "validate_albert",
    "RepresentationReport",
    "representation_report",
    "s_representation",
    "s_pseudo_representation",
    "compose",
    "permutation_order",
]
