"""Plain closed forms for generating inputs and checking outputs.

A closed form is a dict {root: coeffs} standing for
sum(poly(n) * root**n), where ``coeffs`` lists the coefficients of the
polynomial in n from the constant term up.  This module shares no code
with the library: inputs are built and outputs are checked here, and the
library only ever sees the finished inputs.
"""

from __future__ import annotations

from fractions import Fraction


def _trim(coeffs) -> tuple[Fraction, ...]:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def canonical(terms) -> tuple[tuple[Fraction, tuple[Fraction, ...]], ...]:
    """Merge equal roots, drop zero polynomials, sort by root."""
    merged: dict[Fraction, list[Fraction]] = {}
    for root, coeffs in terms:
        acc = merged.setdefault(Fraction(root), [])
        for d, c in enumerate(coeffs):
            if d == len(acc):
                acc.append(Fraction(0))
            acc[d] += c
    out = []
    for root in sorted(merged):
        coeffs = _trim(merged[root])
        if coeffs:
            out.append((root, coeffs))
    return tuple(out)


def poly_mul(a, b) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_eval(coeffs, n) -> Fraction:
    out = Fraction(0)
    for c in reversed(coeffs):
        out = out * n + c
    return out


def multiply(f, g):
    """Pointwise product of two closed forms."""
    return canonical(
        (r1 * r2, poly_mul(c1, c2)) for r1, c1 in f for r2, c2 in g
    )


def add(f, g):
    return canonical(tuple(f) + tuple(g))


def evaluate(f, n: int) -> Fraction:
    return sum((poly_eval(c, n) * root**n for root, c in f), Fraction(0))


def decimate(f, q: int, r: int):
    """The section k -> f(q*k + r) as a closed form in k."""
    out = []
    for root, coeffs in f:
        # poly(q*k + r) expanded by Horner in the polynomial q*k + r.
        shifted: list[Fraction] = [Fraction(0)]
        for c in reversed(coeffs):
            shifted = poly_mul(shifted, [Fraction(r), Fraction(q)])
            shifted[0] += c
        out.append((root**q, [c * root**r for c in shifted]))
    return canonical(out)


def _poly_divide(a, b):
    """a / b in Q[n] when b divides a exactly, else None."""
    a = list(_trim(a))
    b = _trim(b)
    quotient = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for d in range(len(quotient) - 1, -1, -1):
        c = a[d + len(b) - 1] / b[-1]
        quotient[d] = c
        for i, x in enumerate(b):
            a[d + i] -= c * x
    return _trim(quotient) if not any(a) else None


def _valuations(x: Fraction) -> dict[int, int]:
    out: dict[int, int] = {}
    for part, sign in ((x.numerator, 1), (x.denominator, -1)):
        p = 2
        while part > 1:
            if p * p > part:
                p = part
            while part % p == 0:
                part //= p
                out[p] = out.get(p, 0) + sign
            p += 1
    return out


def _exponent_box(f, primes):
    rows = [_valuations(root) for root, _ in f]
    return [(min(r.get(p, 0) for r in rows), max(r.get(p, 0) for r in rows))
            for p in primes]


def divide(f, g):
    """f / g as a closed form when g divides f exactly, else None.

    Every root must be positive, so that ordering roots by size is kept
    by multiplication: the division then runs on leading terms, like
    long division of polynomials.  A quotient's roots have each prime's
    exponent within the range that f's and g's roots allow, which ends
    the loop when g does not divide f.
    """
    f, g = canonical(f), canonical(g)
    if not g or any(root <= 0 for root, _ in f + g):
        raise ValueError("divide needs a non-zero divisor and positive roots")
    primes = sorted({p for root, _ in f + g for p in _valuations(root)})
    box = [(lo_f - lo_g, hi_f - hi_g) for (lo_f, hi_f), (lo_g, hi_g)
           in zip(_exponent_box(f, primes), _exponent_box(g, primes))] if f else []
    quotient, rest = [], f
    while rest:
        root, coeffs = rest[-1]
        beta = root / g[-1][0]
        valuations = _valuations(beta)
        if any(not lo <= valuations.get(p, 0) <= hi for p, (lo, hi) in zip(primes, box)):
            return None
        poly = _poly_divide(coeffs, g[-1][1])
        if poly is None:
            return None
        quotient.append((beta, poly))
        rest = add(rest, multiply(((beta, [-c for c in poly]),), g))
    return canonical(quotient)
