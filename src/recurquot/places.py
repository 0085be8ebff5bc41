"""Places of Q and exact normalized absolute values.

A place is either the archimedean one or a finite prime p.  With the
normalizations used here the product over all places of |x|_place is 1
for every non-zero rational, which the height machinery relies on.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from ._record import Record
from .errors import BadPrime, ZeroInput
from .factorization import is_probable_prime, remove_power


@functools.total_ordering
class Place(Record):
    """A place of Q: ``prime`` is None for the archimedean place."""

    __slots__ = ("prime",)

    def __init__(self, prime: int | None = None):
        if prime is not None and not is_probable_prime(prime):
            raise BadPrime(f"{prime} is not prime")
        object.__setattr__(self, "prime", prime)

    def _key(self) -> tuple[int, int]:
        # Finite places sort by prime; the archimedean place sorts last.
        return (1, 0) if self.prime is None else (0, self.prime)

    def __lt__(self, other: "Place") -> bool:
        if not isinstance(other, Place):
            return NotImplemented
        return self._key() < other._key()

    @classmethod
    def archimedean(cls) -> "Place":
        return cls(None)

    @classmethod
    def finite(cls, p: int) -> "Place":
        return cls(int(p))

    @property
    def is_archimedean(self) -> bool:
        return self.prime is None

    def __str__(self) -> str:
        return "inf" if self.prime is None else str(self.prime)

    @classmethod
    def parse(cls, text: str) -> "Place":
        text = text.strip()
        if text in ("inf", "oo", "infinity"):
            return cls.archimedean()
        try:
            p = int(text)
        except ValueError:
            raise BadPrime(f"not a place: {text!r}") from None
        return cls.finite(p)


def valuation(x, p: int) -> int:
    """Exact p-adic valuation of a non-zero rational; BadPrime unless p is prime."""
    if not is_probable_prime(p):
        raise BadPrime(f"{p} is not prime")
    x = Fraction(x)
    if x == 0:
        raise ZeroInput("the zero rational has no finite valuation")
    return remove_power(x.numerator, p)[0] - remove_power(x.denominator, p)[0]


def place_abs(x, place: Place) -> Fraction:
    """|x|_place as an exact rational; |0| = 0 at every place."""
    x = Fraction(x)
    if x == 0:
        return Fraction(0)
    if place.is_archimedean:
        return abs(x)
    p = place.prime
    return Fraction(p) ** (remove_power(x.denominator, p)[0] - remove_power(x.numerator, p)[0])
