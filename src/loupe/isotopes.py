"""Principal isotopes and the G-loop property.

The (a, b)-isotope of a loop multiplies by x*y = X.Y where X.a = x and
b.Y = y; its identity element is b.a.  A G-loop is isomorphic to every one
of its principal isotopes.  Groups and Moufang loops are G-loops (Bruck,
*A Survey of Binary Systems*, 1958), so ``is_g_loop`` decides them from
theory with no isotope built; any other loop is compared with its 2n - 1
isotopes (e, b) and (a, e) by ``find_isomorphism``, which maps a generating
set and extends by products.
"""

from __future__ import annotations

from .config import DEFAULT_CAPS, Caps
from .core import (
    FiniteLoop,
    SubLoop,
    Verdict,
    _identity_first,
    division,
    find_isomorphism,
    is_associative,
    is_subgroup,
    subloop_as_loop,
)
from .errors import BadIndex, CapExceeded, NotAnSSubloop
from .identities import Law, check_law
from . import smarandache


def principal_isotope(L: FiniteLoop, a: int, b: int) -> FiniteLoop:
    """The (a, b)-isotope, with its identity moved to index 0.

    The isotope is a loop by construction, so it is not revalidated.  The
    original element names ride along in the labels, so the label at index 0
    names the product b.a from the source loop.
    """
    if not (0 <= a < L.size and 0 <= b < L.size):
        raise BadIndex(f"isotope pair ({a}, {b}) out of range")
    ld, rd = division(L)
    t = L.table
    # row x holds X.Y with X.a = x, for the Y with b.Y = y in column y
    rows = tuple(tuple(map(t[X].__getitem__, ld[b])) for X in rd[a])
    return _identity_first(rows, L.labels, t[b][a])


def is_g_loop(L: FiniteLoop, cap: int = DEFAULT_CAPS.search) -> Verdict:
    """Isomorphic to all of its principal isotopes; witness = first failing (a, b).

    The cap on the n^2 isotope pairs is checked first, whatever the loop.
    Groups and Moufang loops are G-loops (Bruck, 1958): L is one when the
    memoised ``is_subgroup`` verdict of the whole loop holds, or when the
    first Moufang law holds, since in a loop any one Moufang identity implies
    the others.  Otherwise the 2n - 1 isotopes (e, b) and (a, e) go to
    ``find_isomorphism``, which maps one generating set of L.  They suffice:
    the (a, b)-isotope of L is the (a, ba)-isotope of L_1, the (a, e)-isotope,
    whose identity is a.  An isomorphism L_1 -> L sends a to e, so it carries
    that isotope to an (e, c)-isotope of L.  Hence L is a G-loop exactly when
    it is isomorphic to every (e, b)- and (a, e)-isotope, and when it is not,
    the first failing pair in (a, b) order is one of them.
    """
    if L.size * L.size > cap:
        raise CapExceeded("isotope pairs", L.size * L.size, cap)
    if is_associative(L) or check_law(L, Law.MOUFANG1):
        return Verdict(True)
    for a in range(L.size):
        for b in range(L.size) if a == 0 else (0,):
            if find_isomorphism(L, principal_isotope(L, a, b)) is None:
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

    Quantified as ``smarandache.s_law_check`` quantifies in ``SMode.EXISTS``,
    so a loop without S-subloops is never one.  Each S-subloop's check is
    bounded by ``caps.search``, as in ``is_g_loop``.
    """
    return smarandache._quantify_over_s_subloops(
        L, lambda A: is_g_loop(subloop_as_loop(L, A), caps.search).holds,
        smarandache.SMode.EXISTS, caps)


__all__ = [
    "principal_isotope",
    "is_g_loop",
    "s_principal_isotope",
    "is_s_g_loop",
]
