"""Multiplicative structure of finite sets of non-zero rationals.

A non-zero rational is sign * prod(p^e); a finite set of them spans a
subgroup of Q*.  This module decides whether the span contains -1
(torsion) and produces a canonical free basis when it does not,
factoring each input once.  All lattice work happens on exponent
vectors over the union of primes, with the sign tracked as a parity
character.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import RootNotInGroup, TorsionGroup, VerificationFailed, ZeroInput
from .factorization import factor_rational
from .linalg import hnf_express, left_kernel, row_hnf


@dataclass(frozen=True)
class ExponentVector:
    """One rational in coordinates: sign bit (1 means negative) and
    exponents over an agreed prime list."""

    sign_bit: int
    exponents: tuple[int, ...]


def exponent_table(
    values: tuple[Fraction, ...], limit: int | None = None
) -> tuple[tuple[int, ...], list[ExponentVector]]:
    """Factor every value over the union of their primes.

    Returns (sorted prime tuple, one ExponentVector per input value).
    """
    facts = []
    for x in values:
        if x == 0:
            raise ZeroInput("zero has no multiplicative coordinates")
        facts.append(factor_rational(Fraction(x), limit))
    primes = tuple(sorted({p for f in facts for p in f.exponents}))
    index = {p: i for i, p in enumerate(primes)}
    vectors = []
    for f in facts:
        row = [0] * len(primes)
        for p, e in f.exponents.items():
            row[index[p]] = e
        vectors.append(ExponentVector(0 if f.sign > 0 else 1, tuple(row)))
    return primes, vectors


def _torsion_witness(vectors: list[ExponentVector]) -> tuple[int, ...] | None:
    """Kernel vector of the magnitudes with odd sign parity, else None.

    Parity is linear, so it suffices to scan a kernel basis.
    """
    kernel = left_kernel([list(v.exponents) for v in vectors])
    sign_bits = [v.sign_bit for v in vectors]
    for z in kernel:
        if sum(zi * b for zi, b in zip(z, sign_bits)) % 2 == 1:
            return tuple(z)
    return None


def torsion_status(values, limit: int | None = None) -> tuple[int, ...] | None:
    """Witness exponents z with prod(values_i ^ z_i) == -1, else None.

    None means the span is torsion-free: -1 lies in the span iff some
    magnitude relation has odd sign parity.
    """
    _, vectors = exponent_table(tuple(Fraction(v) for v in values), limit)
    return _torsion_witness(vectors)


@dataclass(frozen=True)
class MultiplicativeBasis:
    """Free generators of the group spanned by ``values``.

    ``matrix`` holds the generators' prime-exponent rows in HNF, so the
    basis depends only on the spanned group, not on the input order.
    ``expressions[i]`` writes values[i] in the generators.
    """

    values: tuple[Fraction, ...]
    primes: tuple[int, ...]
    generators: tuple[Fraction, ...]
    matrix: tuple[tuple[int, ...], ...]
    generator_signs: tuple[int, ...]
    expressions: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.generators)

    def reconstruct(self, exponents: tuple[int, ...]) -> Fraction:
        assert len(exponents) == self.rank
        out = Fraction(1)
        for g, e in zip(self.generators, exponents):
            out *= Fraction(g) ** e
        return out

    def express(self, x, limit: int | None = None) -> tuple[int, ...]:
        """Exponents of x over the generators; RootNotInGroup if x is outside.

        One of ``values`` is looked up in ``expressions``; only other
        values are factored.
        """
        x = Fraction(x)
        if x in self.values:
            return self.expressions[self.values.index(x)]
        if x == 0:
            raise ZeroInput("zero is not a group element")
        fact = factor_rational(x, limit)
        index = {p: i for i, p in enumerate(self.primes)}
        row = [0] * len(self.primes)
        for p, e in fact.exponents.items():
            if p not in index:
                raise RootNotInGroup(f"{x} involves the prime {p}, outside the basis")
            row[index[p]] = e
        coeffs = hnf_express([list(r) for r in self.matrix], row)
        if coeffs is None:
            raise RootNotInGroup(f"{x} is not in the lattice of the basis")
        sign = 1
        for c, s in zip(coeffs, self.generator_signs):
            if s < 0 and c % 2 == 1:
                sign = -sign
        if sign != fact.sign:
            raise RootNotInGroup(f"{x} differs from the basis span by a sign")
        out = tuple(coeffs)
        if self.reconstruct(out) != x:
            raise VerificationFailed(f"the exponents found for {x} do not give it back")
        return out

    def same_group(self, other: "MultiplicativeBasis") -> bool:
        return (
            self.primes == other.primes
            and self.matrix == other.matrix
            and self.generator_signs == other.generator_signs
        )


def compute_basis(values, limit: int | None = None) -> MultiplicativeBasis:
    """Canonical free basis of the span; TorsionGroup if -1 is inside.

    Generators come from the HNF of the joint exponent lattice, so any
    input list spanning the same group yields the same generators.
    Each generator's sign is fixed by the parity of the unimodular
    transform row that produced it.
    """
    vals = tuple(Fraction(v) for v in values)
    primes, vectors = exponent_table(vals, limit)
    witness = _torsion_witness(vectors)
    if witness is not None:
        raise TorsionGroup(vals, witness)
    h, u = row_hnf([list(v.exponents) for v in vectors])
    sign_bits = [v.sign_bit for v in vectors]
    gen_signs = []
    for row in u[: len(h)]:
        parity = sum(c * b for c, b in zip(row, sign_bits)) % 2
        gen_signs.append(-1 if parity else 1)
    generators = []
    for sign, exps in zip(gen_signs, h):
        g = Fraction(sign)
        for p, e in zip(primes, exps):
            g *= Fraction(p) ** e
        generators.append(g)
    expressions = []
    for x, vec in zip(vals, vectors):
        coeffs = hnf_express(h, list(vec.exponents))
        if coeffs is None:
            raise VerificationFailed(f"input {x} escaped its own lattice")
        expressions.append(tuple(coeffs))
    basis = MultiplicativeBasis(
        values=vals,
        primes=primes,
        generators=tuple(generators),
        matrix=tuple(tuple(r) for r in h),
        generator_signs=tuple(gen_signs),
        expressions=tuple(expressions),
    )
    for x, e in zip(vals, basis.expressions):
        if basis.reconstruct(e) != x:
            raise VerificationFailed(f"sign bookkeeping broke for {x}")
    return basis
