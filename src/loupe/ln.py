"""The modular loop family L_n(m).

For odd n > 3 and 1 < m < n with gcd(m, n) = gcd(m-1, n) = 1, the loop
L_n(m) lives on {e, 1, ..., n} with i*i = e and, for i != j,

    i * j = (m*j - (m-1)*i) mod n        (residues mapped into {1..n})

These loops are power-associative, simple, of even order n+1, and every
element squares to the identity.  This module builds them, enumerates and
counts the family, computes the closed-form predictions (classification
flags, H_i(t) subloops, normalizers, translation cycle classes) that the
library checks against brute force, and makes that check for the flags.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import gcd

from .core import CycleClass, FiniteLoop, SubLoop, default_labels, factorize
from .errors import BadIndex, InvalidN, InvalidParams, NotADivisor
from .identities import Law, check_law


@dataclass(frozen=True)
class LnParams:
    n: int
    m: int

    def __post_init__(self):
        reason = params_violation(self.n, self.m)
        if reason:
            raise InvalidParams(self.n, self.m, reason)

    @property
    def order(self) -> int:
        return self.n + 1


def params_violation(n: int, m: int) -> str | None:
    """The first violated family condition, or None when (n, m) is admissible."""
    if n <= 3:
        return "n must be greater than 3"
    if n % 2 == 0:
        return "n must be odd"
    if not 1 < m < n:
        return "m must satisfy 1 < m < n"
    if gcd(m, n) != 1:
        return "gcd(m, n) must be 1"
    if gcd(m - 1, n) != 1:
        return "gcd(m-1, n) must be 1"
    return None


def _check_n(n: int) -> None:
    if n <= 3 or n % 2 == 0:
        raise InvalidN(n)


def build_ln(n: int, m: int) -> FiniteLoop:
    """The loop L_n(m) of order n+1 with identity e at index 0.

    For i != j, i*j = m*(j + s_i) mod n with s_i = i/m - i, so row i is the
    base sequence m*k mod n (residues in 1..n) rotated by s_i, with e on the
    diagonal.
    """
    params = LnParams(n, m)
    size = params.order
    base = [(m * k) % n or n for k in range(n)] * 2
    inverse = pow(m, -1, n)
    rows = [tuple(range(size))]
    for i in range(1, size):
        start = (i * inverse - i + 1) % n  # column j reads base[j + s_i], from j = 1
        row = base[start:start + n]
        row[i - 1] = 0
        rows.append((i, *row))
    return FiniteLoop(size=size, table=tuple(rows), labels=default_labels(size))


def enumerate_ln_params(n: int) -> list[int]:
    """All m giving a loop on {e, 1..n}, ascending."""
    _check_n(n)
    return [m for m in range(2, n) if params_violation(n, m) is None]


def count_ln(n: int) -> int:
    """Family size: the product of (p-2)*p^(a-1) over prime powers p^a of n."""
    _check_n(n)
    total = 1
    for p, a in factorize(n):
        total *= (p - 2) * p ** (a - 1)
    return total


def count_strictly_noncommutative(n: int) -> int:
    """Number of family members with xy != yx for every distinct non-identity pair."""
    _check_n(n)
    total = 1
    for p, a in factorize(n):
        total *= (p - 3) * p ** (a - 1)
    return total


@dataclass(frozen=True)
class LnFlags:
    """The four laws the family's classification decides; each field names a ``Law``."""

    commutative: bool
    right_alternative: bool
    left_alternative: bool
    wip: bool


def ln_predicted_flags(params: LnParams) -> LnFlags:
    """Closed-form classification of L_n(m).

    Commutative exactly at m = (n+1)/2, right alternative only at m = 2, left
    alternative only at m = n-1, weak-inverse-property exactly when
    m^2 - m + 1 = 0 (mod n).
    """
    n, m = params.n, params.m
    return LnFlags(
        commutative=(2 * m) % n == 1,
        right_alternative=m == 2,
        left_alternative=m == n - 1,
        wip=(m * m - m + 1) % n == 0,
    )


def ln_observed_flags(L: FiniteLoop) -> LnFlags:
    """The classification flags of L, each decided by brute force through ``check_law``."""
    return LnFlags(*(check_law(L, Law(f.name)).holds for f in fields(LnFlags)))


def _check_index(n: int, i: int, t: int) -> None:
    if t < 1 or n % t != 0:
        raise NotADivisor(t, n)
    if not 1 <= i <= t:
        raise BadIndex(f"index {i} must lie in 1..{t}")


def h_subloop(params: LnParams, i: int, t: int) -> SubLoop:
    """The subloop H_i(t) = {e, i, i+t, ..., i+(n/t - 1)t} for t | n, 1 <= i <= t."""
    n = params.n
    _check_index(n, i, t)
    k = n // t
    elems = [0] + [((i + j * t - 1) % n) + 1 for j in range(k)]
    return SubLoop(tuple(sorted(set(elems))), params.order)


def all_h_subloops(params: LnParams) -> dict[int, list[SubLoop]]:
    """For each divisor t of n with 1 < t <= n, the t subloops H_1(t)..H_t(t)."""
    n = params.n
    out: dict[int, list[SubLoop]] = {}
    for t in range(2, n + 1):
        if n % t == 0:
            out[t] = [h_subloop(params, i, t) for i in range(1, t + 1)]
    return out


def predicted_normalizers(params: LnParams, i: int, t: int) -> tuple[SubLoop, SubLoop]:
    """Closed-form first and second normalizers of H_i(t).

    The first normalizer is H_i(t / gcd(2m-1, t)), the second is
    H_i(t / gcd(m^2-m+1, t)); H_i(1) is the whole loop.
    """
    n, m = params.n, params.m
    _check_index(n, i, t)

    def shrink(d: int) -> SubLoop:
        k = t // gcd(d, t)
        return h_subloop(params, ((i - 1) % k) + 1, k)

    return shrink(2 * m - 1), shrink(m * m - m + 1)


def _euler_phi(k: int) -> int:
    res = k
    for p, _ in factorize(k):
        res -= res // p
    return res


def _multiplicative_order(a: int, mod: int) -> int:
    if mod == 1:
        return 1
    cur = a % mod
    k = 1
    while cur != 1:
        cur = cur * a % mod
        k += 1
    return k


def predicted_cycle_class(params: LnParams) -> CycleClass:
    """Cycle class shared by every non-identity right translation R_a.

    Besides the transposition (a, e), iterating R_a from x follows the affine
    recurrence x -> a + (1-m)(x - a) mod n, so x sits in a cycle whose length
    is the multiplicative order of (1-m) modulo n / gcd(x - a, n).  Counting
    x by gcd class gives, for each divisor g < n, phi(n/g)/k cycles of length
    k = ord_{n/g}(1 - m).  The total including the transposition is n + 1.
    """
    n, m = params.n, params.m
    u = (1 - m) % n
    counts: dict[int, int] = {2: 1}
    for g in range(1, n):
        if n % g:
            continue
        residue = n // g
        k = _multiplicative_order(u, residue)
        counts[k] = counts.get(k, 0) + _euler_phi(residue) // k
    return CycleClass.from_counts(counts)
