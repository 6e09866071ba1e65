"""Exception types shared across the library.

Every structured failure carries enough context (indices, witnesses) to
reproduce the violation by hand against the offending table.
"""

from __future__ import annotations


class LoupeError(Exception):
    """Base class for all library errors."""


class ValidationError(LoupeError):
    """A candidate Cayley table violates a loop axiom."""


class LatinRowViolation(ValidationError):
    def __init__(self, row: int, value: int):
        self.row = row
        self.value = value
        super().__init__(f"row {row} repeats value {value}; left translation not bijective")


class LatinColumnViolation(ValidationError):
    def __init__(self, column: int, value: int):
        self.column = column
        self.value = value
        super().__init__(f"column {column} repeats value {value}; right translation not bijective")


class NoIdentity(ValidationError):
    def __init__(self) -> None:
        super().__init__("no two-sided identity element exists")


class NotClosed(LoupeError):
    """A subset offered as a subloop is not closed under the parent product."""

    def __init__(self, x: int, y: int, product: int):
        self.witness = (x, y, product)
        super().__init__(f"{x}*{y} = {product} escapes the subset")


class NotNormal(LoupeError):
    def __init__(self, condition: int, x: int, y: int | None = None):
        self.witness = (condition, x, y)
        super().__init__(f"normality condition {condition} fails at x={x}, y={y}")


class InvalidParams(LoupeError):
    """Family parameters (n, m) violate a gcd or parity condition."""

    def __init__(self, n: int, m: int | None, reason: str):
        self.n = n
        self.m = m
        self.reason = reason
        super().__init__(f"invalid parameters n={n}, m={m}: {reason}")


class InvalidN(InvalidParams):
    def __init__(self, n: int, reason: str = "n must be odd and greater than 3"):
        super().__init__(n, None, reason)


class NotADivisor(LoupeError):
    def __init__(self, t: int, n: int):
        super().__init__(f"{t} does not divide {n}")


class BadIndex(LoupeError):
    pass


class NotPrime(LoupeError):
    pass


class CapExceeded(LoupeError):
    """A bounded enumeration hit its configured cap; no partial result returned."""

    def __init__(self, what: str, size: int, cap: int):
        self.what = what
        self.size = size
        self.cap = cap
        super().__init__(f"{what} exceeded cap ({size} > {cap})")


class SizeCapExceeded(CapExceeded):
    pass


class ClosureBlowup(CapExceeded):
    pass


class SearchCapExceeded(CapExceeded):
    pass


class NotASubgroup(LoupeError):
    pass


class NotAnSSubloop(LoupeError):
    pass


class HasSSubloops(LoupeError):
    pass


class QNotInSubloop(LoupeError):
    pass


class NotIPLoop(LoupeError):
    def __init__(self, witness: tuple):
        self.witness = witness
        super().__init__(f"inverse property fails: witness {witness}")


class ImproperColoring(LoupeError):
    def __init__(self, vertex: int, color: int):
        self.witness = (vertex, color)
        super().__init__(f"color {color} repeated at vertex {vertex}")


class NotInvolutory(LoupeError):
    def __init__(self, x: int):
        self.witness = x
        super().__init__(f"element {x} does not square to the identity")


class NotRightAlternative(LoupeError):
    def __init__(self, witness: tuple):
        self.witness = witness
        super().__init__(f"right alternative law fails at {witness}")


class OddOrder(LoupeError):
    pass
