"""Principal isotopes and the G-loop property.

The (a, b)-isotope of a loop multiplies by x*y = X.Y where X.a = x and
b.Y = y; its identity element is b.a.  A G-loop is isomorphic to every one
of its principal isotopes.
"""

from __future__ import annotations

from .config import DEFAULT_CAPS, Caps
from .core import (
    FiniteLoop,
    SubLoop,
    find_isomorphism,
    is_subgroup,
    subloop_as_loop,
    validate_loop,
)
from .errors import BadIndex, CapExceeded, NotAnSSubloop
from .identities import Verdict
from . import smarandache


def principal_isotope(L: FiniteLoop, a: int, b: int) -> FiniteLoop:
    """The (a, b)-isotope, revalidated with its identity moved to index 0.

    The original element names ride along in the labels, so the label at
    index 0 names the product b.a from the source loop.
    """
    if not (0 <= a < L.size and 0 <= b < L.size):
        raise BadIndex(f"isotope pair ({a}, {b}) out of range")
    size = L.size
    rdiv_by_a = [L.rdiv(a, x) for x in range(size)]   # X with X.a = x
    row_b = L.table[b]                                 # b.Y = y  =>  Y = ldiv(b, y)
    ldiv_by_b = [row_b.index(y) for y in range(size)]
    table = [
        [L.table[rdiv_by_a[x]][ldiv_by_b[y]] for y in range(size)] for x in range(size)
    ]
    return validate_loop(table, L.labels)


def is_g_loop(L: FiniteLoop, cap: int = DEFAULT_CAPS.search) -> Verdict:
    """Isomorphic to all of its principal isotopes; witness = first failing (a, b)."""
    if L.size * L.size > cap:
        raise CapExceeded("isotope pairs", L.size * L.size, cap)
    for a in range(L.size):
        for b in range(L.size):
            iso = principal_isotope(L, a, b)
            if find_isomorphism(L, iso) is None:
                return Verdict(False, (a, b))
    return Verdict(True)


def s_principal_isotope(L: FiniteLoop, A: SubLoop, a: int, b: int) -> FiniteLoop:
    """Principal isotope of a subloop taken as a loop in its own right.

    A must be an S-subloop, or (the pseudo-isotope case, for loops with only
    subgroups) a subgroup.  ``a`` and ``b`` are parent-loop element indices
    and must lie in A.
    """
    if not smarandache.is_s_subloop(L, A) and not is_subgroup(L, A):
        raise NotAnSSubloop("subloop carries no subgroup of size two or more")
    if a not in A.elements or b not in A.elements:
        raise BadIndex(f"isotope pair ({a}, {b}) must lie inside the subloop")
    sub = subloop_as_loop(L, A)
    return principal_isotope(sub, A.elements.index(a), A.elements.index(b))


def is_s_g_loop(L: FiniteLoop, caps: Caps = DEFAULT_CAPS) -> Verdict:
    """Some S-subloop is isomorphic to all of its own principal isotopes.

    A loop without S-subloops is never an S-G-loop (there is nothing to take
    isotopes of at the subloop level).  Each S-subloop's check is bounded by
    ``caps.search``, as in ``is_g_loop``.
    """
    structures = smarandache.s_substructures(L, caps)
    if not structures.s_subloops:
        return Verdict(False, None, "no S-subloops")
    for A in structures.s_subloops:
        if is_g_loop(subloop_as_loop(L, A), caps.search):
            return Verdict(True, A.elements)
    return Verdict(False)


__all__ = [
    "principal_isotope",
    "is_g_loop",
    "s_principal_isotope",
    "is_s_g_loop",
]
