"""Test-only oracle: the multiplicative basis built with a unimodular
transform.

This is how ``recurquot.multiplicative`` built a basis before it moved
to one HNF with the sign as a lattice column: a row HNF that keeps the
k x k transform U with U * rows == H, the left kernel read off U's last
rows and put in HNF by a second pass, a torsion witness scanned from
that kernel, and each generator's sign from the parity of its U row.
U has one row and column per value, so this is slow on large inputs,
but it shares no code with the library (it factors by trial division),
so the tests compare the library against it on small inputs.
"""

import math
from fractions import Fraction


def row_hnf(rows):
    """(H, U): the non-zero HNF rows and a unimodular U with U * rows == H
    padded with zero rows."""
    k = len(rows)
    m = len(rows[0]) if rows else 0
    a = [list(map(int, r)) for r in rows]
    u = [[int(i == j) for j in range(k)] for i in range(k)]
    rank = 0
    for col in range(m):
        pivot_row = None
        while True:
            live = [i for i in range(rank, k) if a[i][col] != 0]
            if not live:
                break
            if len(live) == 1:
                pivot_row = live[0]
                break
            live.sort(key=lambda i: abs(a[i][col]))
            base = live[0]
            for i in live[1:]:
                q = a[i][col] // a[base][col]
                if q:
                    for j in range(m):
                        a[i][j] -= q * a[base][j]
                    for j in range(k):
                        u[i][j] -= q * u[base][j]
        if pivot_row is None:
            continue
        a[rank], a[pivot_row] = a[pivot_row], a[rank]
        u[rank], u[pivot_row] = u[pivot_row], u[rank]
        if a[rank][col] < 0:
            a[rank] = [-x for x in a[rank]]
            u[rank] = [-x for x in u[rank]]
        piv = a[rank][col]
        for i in range(rank):
            q = a[i][col] // piv
            if q:
                for j in range(m):
                    a[i][j] -= q * a[rank][j]
                for j in range(k):
                    u[i][j] -= q * u[rank][j]
        rank += 1
    return [a[i] for i in range(rank)], u


def left_kernel(rows):
    """HNF basis of {z : z * rows == 0}: U's rows past the rank, reduced."""
    h, u = row_hnf(rows)
    if len(h) == len(rows):
        return []
    return row_hnf(u[len(h):])[0]


def _factor(n):
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _express(h, target):
    """x with x * H == target for HNF rows H (target is known to be inside)."""
    residue = list(target)
    coeffs = []
    for row in h:
        j = next(j for j, c in enumerate(row) if c)
        q = residue[j] // row[j]
        coeffs.append(q)
        residue = [r - q * c for r, c in zip(residue, row)]
    if any(residue):
        raise AssertionError(f"{target} is outside the lattice of {h}")
    return tuple(coeffs)


class Torsion(Exception):
    def __init__(self, exponents):
        super().__init__(exponents)
        self.exponents = exponents


def compute_basis(values):
    """(primes, generators, matrix, generator_signs, expressions), or
    Torsion carrying the kernel witness when -1 is in the span."""
    values = [Fraction(v) for v in values]
    facts = []
    for x in values:
        exps = dict(_factor(abs(x.numerator)))
        for p, e in _factor(x.denominator).items():
            exps[p] = exps.get(p, 0) - e
        facts.append(exps)
    primes = tuple(sorted({p for f in facts for p in f}))
    rows = [[f.get(p, 0) for p in primes] for f in facts]
    bits = [int(x < 0) for x in values]
    for z in left_kernel(rows):
        if sum(zi * b for zi, b in zip(z, bits)) % 2:
            raise Torsion(tuple(z))
    h, u = row_hnf(rows)
    signs = tuple(-1 if sum(c * b for c, b in zip(row, bits)) % 2 else 1 for row in u[: len(h)])
    generators = []
    for sign, row in zip(signs, h):
        g = Fraction(sign)
        for p, e in zip(primes, row):
            g *= Fraction(p) ** e
        generators.append(g)
    matrix = tuple(tuple(r) for r in h)
    expressions = tuple(_express(h, r) for r in rows)
    return primes, tuple(generators), matrix, signs, expressions


def check_coordinates(base, generators, matrix, signs):
    """Fail unless ``base`` is pairwise coprime and above 1, and each
    generator is its sign times prod(base^row) for its row of ``matrix``."""
    for i, b in enumerate(base):
        if b <= 1 or any(math.gcd(b, c) != 1 for c in base[i + 1:]):
            raise AssertionError(f"{base} is not a coprime base above 1")
    for g, row, sign in zip(generators, matrix, signs, strict=True):
        value = Fraction(sign)
        for b, e in zip(base, row, strict=True):
            value *= Fraction(b) ** e
        if value != g:
            raise AssertionError(f"the row {row} over {base} gives {value}, not {g}")
