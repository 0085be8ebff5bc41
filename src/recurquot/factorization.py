"""Exact integer and rational factorization.

Trial division over a fixed sieve, deterministic Miller-Rabin, an
integer k-th root test for perfect powers, and Brent's cycle variant of
Pollard rho.  One cap governs every factorization: ``factor_int``
reads it from a context variable that ``with factor_limit(cap):`` sets
for a block (``DEFAULT_FACTOR_LIMIT`` outside any block), so every
caller below that block honours it.  A prime factor larger than the cap
(or a cofactor the splitter cannot crack within its effort budget)
raises ``FactorizationLimit`` instead of silently looping.
``coprime_base`` gives integers coordinates without factoring them.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from itertools import compress

from .errors import FactorizationLimit, InputError, VerificationFailed, ZeroInput

DEFAULT_FACTOR_LIMIT = 2**64

_CAP: ContextVar[int] = ContextVar("factor_limit", default=DEFAULT_FACTOR_LIMIT)


@contextmanager
def factor_limit(cap: int):
    """Cap accepted prime factors at ``cap`` inside the block.

    Blocks nest; leaving one, normally or by an exception, restores the
    cap outside it.  A cap below 2 is an InputError.
    """
    if not isinstance(cap, int) or cap < 2:
        raise InputError(f"the factoring cap must be an integer >= 2, got {cap!r}")
    token = _CAP.set(cap)
    try:
        yield
    finally:
        _CAP.reset(token)


_TRIAL_BOUND = 10_000


def primes_below(bound: int) -> list[int]:
    """The primes p < bound, by the sieve of Eratosthenes."""
    if bound < 3:
        return []
    sieve = bytearray([1]) * bound
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(bound - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, bound, p)))
    return list(compress(range(bound), sieve))


_TRIAL_PRIMES = primes_below(_TRIAL_BOUND + 1)

# Sufficient witness set for every n < 3.3 * 10**24 (covers the default limit).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_probable_prime(n: int) -> bool:
    """Deterministic below 3.3e24, Miller-Rabin with fixed bases above."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int, c: int, max_steps: int) -> int | None:
    """One deterministic Brent round; returns a non-trivial factor or None."""
    y, r, q = 2, 1, 1
    g = 1
    x = ys = y
    steps = 0
    while g == 1 and steps < max_steps:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(128, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += 128
            steps += 128
        r *= 2
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
    if 1 < g < n:
        return g
    return None


_RHO_MAX_STEPS = 1 << 21
_RHO_ATTEMPTS = 24


def _split(n: int, limit: int) -> int:
    """Non-trivial factor of an odd composite n, or FactorizationLimit.

    Rho finds a prime factor p in about sqrt(p) iterations, so the effort
    spent per attempt scales with sqrt(limit): factors inside the cap are
    found quickly, and a cofactor whose factors all exceed the cap fails
    fast instead of exhausting the full budget.
    """
    steps = min(_RHO_MAX_STEPS, max(2048, 8 * math.isqrt(limit)))
    for c in range(1, _RHO_ATTEMPTS + 1):
        d = _brent_rho(n, c, steps)
        if d is not None:
            return d
    raise FactorizationLimit(n, limit)


def _perfect_root(n: int) -> tuple[int, int] | None:
    """(r, k) with r**k == n for the least prime k that allows it, else None."""
    for k in _TRIAL_PRIMES:
        if k >= n.bit_length():
            break
        r = 1 << -(-n.bit_length() // k)  # integer Newton from above to floor(n^(1/k))
        while (s := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
            r = s
        if r**k == n:
            return r, k
    return None


def factor_int(n: int) -> dict[int, int]:
    """Factor n >= 1 into {prime: exponent}; 1 maps to {}."""
    limit = _CAP.get()
    if n < 1:
        raise ZeroInput(f"factor_int needs n >= 1, got {n}")
    out: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n == 1:
        return out
    # (cofactor, multiplicity).  Rho needs about sqrt(p) steps for the least
    # prime p of m, and a prime power p^k offers it no smaller prime, so
    # powers are taken apart by their root first.
    stack = [(n, 1)]
    while stack:
        m, e = stack.pop()
        if is_probable_prime(m):
            if m > limit:
                raise FactorizationLimit(m, limit)
            out[m] = out.get(m, 0) + e
            continue
        root = _perfect_root(m)
        if root is not None:
            stack.append((root[0], e * root[1]))
            continue
        d = _split(m, limit)
        stack += [(d, e), (m // d, e)]
    return out


def divide_out(n: int, base) -> tuple[list[int], int]:
    """(how often each b of ``base`` divides n in turn, what is left of n)."""
    row = []
    for b in base:
        e = 0
        while n % b == 0:
            n //= b
            e += 1
        row.append(e)
    return row, n


def coprime_base(numbers) -> tuple[tuple[int, ...], dict[int, tuple[int, ...]]]:
    """A coprime base of the integers ``numbers`` >= 1, and their exponents over it.

    Returns (base, {n: exponents of n over the base}).  Gcd refinement,
    no factoring (D. J. Bernstein, *Factoring into coprimes in
    essentially linear time*, 2005, gives the fast version): a pending x
    is divided by each kept b that divides it, and if it then meets a
    kept b in g = gcd(x, b) > 1, both give way to g, b / g and x / g.
    That lowers the sum of the squared logarithms, so the loop ends.
    Each element is a gcd or an exact quotient of products of the inputs,
    and the only coprime base of such elements is the natural one, so the
    base does not depend on the input order.  It is ordered by each
    element's least trial prime, the elements with none after, by value:
    then rows over it keep the Hermite normal form they have over sorted
    primes, and lattices read over it give the generators primes give,
    unless two elements have no trial prime.  Each number's exponents are
    checked to leave 1: VerificationFailed otherwise.
    """
    numbers = set(numbers)
    if any(n < 1 for n in numbers):
        raise ZeroInput("a coprime base needs integers >= 1")
    base: list[int] = []
    pending = [n for n in numbers if n > 1]
    while pending:
        x = pending.pop()
        for i, b in enumerate(base):
            while x % b == 0:
                x //= b
            g = math.gcd(x, b)
            if g > 1:
                del base[i]
                pending += [n for n in (g, b // g, x // g) if n > 1]
                break
        else:
            if x > 1:
                base.append(x)
    base.sort(key=lambda b: next(((0, p) for p in _TRIAL_PRIMES if b % p == 0), (1, b)))
    rows = {}
    for n in numbers:
        row, rest = divide_out(n, base)
        if rest != 1:
            raise VerificationFailed(f"{n} leaves {rest} over its coprime base")
        rows[n] = tuple(row)
    return tuple(base), rows


class FactoredRational:
    """A non-zero rational as sign * prod(p^e) with e in Z.

    Invariants: sign in {1, -1}; primes distinct; reconstructing the
    product returns the original value exactly.
    """

    __slots__ = ("sign", "exponents")

    def __init__(self, sign: int, exponents: dict[int, int]):
        if sign not in (1, -1):
            raise InputError(f"the sign must be 1 or -1, got {sign!r}")
        self.sign = sign
        self.exponents = {p: e for p, e in sorted(exponents.items()) if e != 0}

    def value(self) -> Fraction:
        out = Fraction(self.sign)
        for p, e in self.exponents.items():
            out *= Fraction(p) ** e
        return out

    def primes(self) -> tuple[int, ...]:
        return tuple(self.exponents)

    def __eq__(self, other):
        if not isinstance(other, FactoredRational):
            return NotImplemented
        return self.sign == other.sign and self.exponents == other.exponents

    def __hash__(self):
        return hash((self.sign, tuple(self.exponents.items())))

    def __repr__(self):
        if not self.exponents:
            return f"FactoredRational({self.sign})"
        body = " * ".join(f"{p}^{e}" for p, e in self.exponents.items())
        lead = "-" if self.sign < 0 else ""
        return f"FactoredRational({lead}{body})"


def factor_rational(x: Fraction | int) -> FactoredRational:
    """Factor a non-zero rational; denominator primes get negative exponents."""
    x = x if isinstance(x, Fraction) else Fraction(x)
    if x == 0:
        raise ZeroInput("cannot factor zero")
    exps = factor_int(abs(x.numerator))
    # Numerator and denominator are coprime, so no prime is in both.
    for p, e in factor_int(x.denominator).items():
        exps[p] = -e
    return FactoredRational(1 if x > 0 else -1, exps)


def euler_phi(n: int) -> int:
    """Euler's totient of n >= 1 via factorization."""
    if n < 1:
        raise ZeroInput(f"euler_phi needs n >= 1, got {n}")
    out = n
    for p in factor_int(n):
        out = out // p * (p - 1)
    return out


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of n >= 1."""
    if n < 1:
        raise ZeroInput(f"divisors needs n >= 1, got {n}")
    out = [1]
    for p, e in factor_int(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)
