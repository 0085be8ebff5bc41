"""Dense univariate polynomials over exact rationals."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from ._record import Record
from .errors import InputError, VerificationFailed, ZeroInput
from .factorization import divisors


def _fr(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def _monomial(powers) -> list[str]:
    """The factors of a product of var^d over (var, d) pairs; d = 0 is left out."""
    return [var if d == 1 else f"{var}^{d}" for var, d in powers if d]


def _render_sum(terms) -> str:
    """A signed sum such as "X^2 - 3*X + 1" from (coefficient, factors) pairs.

    A coefficient of absolute value 1 is written only where a term has no
    factors; the empty sum is "0".
    """
    parts = []
    for c, factors in terms:
        if not factors or abs(c) != 1:
            factors = [str(abs(c)), *factors]
        body = "*".join(factors)
        if parts:
            parts.append(f"- {body}" if c < 0 else f"+ {body}")
        else:
            parts.append(f"-{body}" if c < 0 else body)
    return " ".join(parts) or "0"


class UniPoly(Record):
    """Univariate polynomial over Q, dense coefficient tuple, low degree first.

    The zero polynomial is the empty tuple and reports degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_fr(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- constructors -------------------------------------------------

    @classmethod
    def one(cls) -> "UniPoly":
        return cls((1,))

    @classmethod
    def constant(cls, c) -> "UniPoly":
        return cls((c,))

    @classmethod
    def x(cls) -> "UniPoly":
        return cls((0, 1))

    # -- basic queries -------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> Fraction:
        if not self.coeffs:
            raise ZeroInput("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, d: int) -> Fraction:
        if 0 <= d < len(self.coeffs):
            return self.coeffs[d]
        return Fraction(0)

    def __call__(self, n) -> Fraction:
        out = Fraction(0)
        for c in reversed(self.coeffs):
            out = out * n + c
        return out

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        merged = list(a)
        for i, c in enumerate(b):
            merged[i] += c
        return UniPoly(merged)

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def scale(self, c) -> "UniPoly":
        c = _fr(c)
        return UniPoly(tuple(a * c for a in self.coeffs))

    def __pow__(self, k: int) -> "UniPoly":
        if k < 0:
            raise InputError(f"a polynomial power needs an exponent >= 0, got {k}")
        out = UniPoly.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __divmod__(self, other: "UniPoly"):
        if other.is_zero:
            raise ZeroInput("division by the zero polynomial")
        q = [Fraction(0)] * max(len(self.coeffs) - len(other.coeffs) + 1, 1)
        r = list(self.coeffs)
        d = other.degree
        inv = 1 / other.lc
        while len(r) - 1 >= d and any(c != 0 for c in r):
            while r and r[-1] == 0:
                r.pop()
            if len(r) - 1 < d:
                break
            c = r[-1] * inv
            shift = len(r) - 1 - d
            q[shift] = c
            for i, b in enumerate(other.coeffs):
                r[shift + i] -= c * b
            r.pop()
        return UniPoly(q), UniPoly(r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def monic(self) -> "UniPoly":
        if self.is_zero:
            return self
        return self.scale(1 / self.lc)

    # -- number-theoretic helpers ---------------------------------------

    def rational_roots(self) -> list[tuple[Fraction, int]]:
        """All rational roots with multiplicity, sorted by value."""
        if self.is_zero:
            raise ZeroInput("the zero polynomial vanishes everywhere")
        poly = self
        found: dict[Fraction, int] = {}
        low = 0
        while low <= poly.degree and poly.coeffs[low] == 0:
            low += 1
        if low:
            found[Fraction(0)] = low
            poly = UniPoly(poly.coeffs[low:])
        while poly.degree >= 1:
            d = math.lcm(*(c.denominator for c in poly.coeffs))
            ints = [int(c * d) for c in poly.coeffs]
            g = math.gcd(*ints)
            a0, ad = abs(ints[0]) // g, abs(ints[-1]) // g
            hit = None
            for p, q in itertools.product(divisors(a0), divisors(ad)):
                if math.gcd(p, q) != 1:
                    continue
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    if poly(cand) == 0:
                        hit = cand
                        break
                if hit is not None:
                    break
            if hit is None:
                break
            quo, rem = divmod(poly, UniPoly((-hit, 1)))
            if not rem.is_zero:
                raise VerificationFailed(f"the rational root {hit} left a remainder")
            found[hit] = found.get(hit, 0) + 1
            poly = quo
        return sorted(found.items())

    # -- rendering and comparison ---------------------------------------

    def render(self, var: str = "X") -> str:
        return _render_sum(
            (self.coeffs[d], _monomial([(var, d)]))
            for d in range(self.degree, -1, -1)
            if self.coeffs[d]
        )

    def __repr__(self):
        return f"UniPoly({self.render()})"

