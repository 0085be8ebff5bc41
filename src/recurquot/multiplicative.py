"""Multiplicative structure of finite sets of non-zero rationals.

A non-zero rational is sign * prod(b^e) over a coprime base; a finite
set of them spans a subgroup of Q*.  This module decides whether the
span contains -1 (torsion) and produces a canonical free basis when it
does not.  Each input enters as an integer pair (R, B) standing for
R/B, and the |R| and B are written over their coprime base, found by
gcds, not by factoring.  All lattice work happens on exponent vectors
over that base, with the sign as one more column taken mod 2.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from fractions import Fraction
from functools import cached_property

from ._record import Record
from .errors import InputError, RootNotInGroup, TorsionGroup, VerificationFailed, ZeroInput
from .factorization import coprime_base, divide_out, factor_rational
from .linalg import hnf_express, left_kernel, row_hnf


class ExponentVector(namedtuple("ExponentVector", ["sign_bit", "exponents"])):
    """One rational in coordinates: sign bit (1 means negative) and
    exponents over an agreed coprime base.

    ``sign_bit`` is an int and ``exponents`` a tuple[int, ...].
    """

    __slots__ = ()


def exponent_table(pairs) -> tuple[tuple[int, ...], list[ExponentVector]]:
    """Coordinates of each R/B, for integer pairs (R, B) with B >= 1.

    The distinct |R| and B are written over their coprime base, found by
    gcds, not by factoring.  The exponents of R/B are e(|R|) - e(B) over
    that base, and its sign bit is R < 0.  Returns (the base, one
    ExponentVector per pair).
    """
    if any(not r for r, _ in pairs):
        raise ZeroInput("zero has no multiplicative coordinates")
    base, coords = coprime_base(n for r, b in pairs for n in (abs(r), b))
    rows = [tuple(map(operator.sub, coords[abs(r)], coords[b])) for r, b in pairs]
    # A base element of R that B cancels in every row is not a coordinate.
    kept = [j for j, column in enumerate(zip(*rows)) if any(column)]
    if len(kept) < len(base):
        base = tuple(base[j] for j in kept)
        rows = [tuple(row[j] for j in kept) for row in rows]
    return base, [ExponentVector(int(r < 0), row) for (r, _), row in zip(pairs, rows)]


def _pairs(values) -> tuple[tuple[int, int], ...]:
    """Each rational x as the pair (numerator, denominator)."""
    return tuple((x.numerator, x.denominator) for x in map(Fraction, values))


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


def torsion_status(values) -> tuple[int, ...] | None:
    """Witness exponents z with prod(values_i ^ z_i) == -1, else None.

    None means the span is torsion-free: -1 lies in the span iff some
    magnitude relation has odd sign parity.
    """
    _, vectors = exponent_table(_pairs(values))
    return _torsion_witness(vectors)


class MultiplicativeBasis(Record):
    """Free generators of a free group that contains ``values``.

    ``pairs`` are the inputs as integer pairs (R, B), one per value
    R/B.  ``base`` is a coprime base of them and ``matrix`` holds the
    generators' exponent rows over it.  ``expressions[i]`` writes
    values[i] in the generators.  ``compute_basis`` gives the canonical
    basis: generators of the spanned group itself, with ``matrix`` in
    HNF, so it does not depend on the input order.  Clearance refusal
    witnesses and the ``basis`` subcommand use it; Hadamard quotients and
    clearance verdicts divide on the roots themselves and build none.
    """

    # ``__dict__`` holds the cached properties.
    __slots__ = (
        "pairs", "base", "generators", "matrix", "generator_signs", "expressions",
        "__dict__",
    )

    def __init__(
        self,
        pairs: tuple[tuple[int, int], ...],
        base: tuple[int, ...],
        generators: tuple[Fraction, ...],
        matrix: tuple[tuple[int, ...], ...],
        generator_signs: tuple[int, ...],
        expressions: tuple[tuple[int, ...], ...],
    ):
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "generator_signs", generator_signs)
        object.__setattr__(self, "expressions", expressions)

    @property
    def rank(self) -> int:
        return len(self.generators)

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(r, b) for r, b in self.pairs)

    @cached_property
    def _stored(self) -> dict[Fraction, tuple[int, ...]]:
        return dict(zip(self.values, self.expressions))

    def reconstruct(self, exponents: tuple[int, ...]) -> Fraction:
        return Fraction(*self.reconstruct_pair(exponents))

    def reconstruct_pair(self, exponents: tuple[int, ...]) -> tuple[int, int]:
        """Integers (N, D), D > 0, with N/D = prod(g_i^e_i), not reduced."""
        if len(exponents) != self.rank:
            raise InputError(f"need {self.rank} exponents, one per generator, got {len(exponents)}")
        num = den = 1
        for g, e in zip(self.generators, exponents):
            if e > 0:
                num *= g.numerator**e
                den *= g.denominator**e
            elif e < 0:
                num *= g.denominator**-e
                den *= g.numerator**-e
        return (-num, -den) if den < 0 else (num, den)

    def express(self, x) -> tuple[int, ...]:
        """Exponents of x over the generators; RootNotInGroup if x is outside.

        One of ``values`` is looked up in ``expressions``.  Another value
        has the base divided out of it, and only a remainder other than 1
        is factored, to name a prime outside the basis.
        """
        stored = self._stored.get(x)
        if stored is not None:
            return stored
        x = Fraction(x)
        if not x:
            raise ZeroInput("zero is not a group element")
        up, num = divide_out(abs(x.numerator), self.base)
        down, den = divide_out(x.denominator, self.base)
        if num != 1 or den != 1:
            stray = [p for p in factor_rational(Fraction(num, den)).exponents
                     if all(b % p for b in self.base)]
            if stray:
                raise RootNotInGroup(f"{x} involves the prime {min(stray)}, outside the basis")
            raise RootNotInGroup(f"{x} is not in the lattice of the basis")
        coeffs = hnf_express([list(r) for r in self.matrix], list(map(operator.sub, up, down)))
        if coeffs is None:
            raise RootNotInGroup(f"{x} is not in the lattice of the basis")
        odd = sum(c for c, s in zip(coeffs, self.generator_signs) if s < 0) % 2
        if odd != (x < 0):
            raise RootNotInGroup(f"{x} differs from the basis span by a sign")
        out = tuple(coeffs)
        if self.reconstruct(out) != x:
            raise VerificationFailed(f"the exponents found for {x} do not give it back")
        return out

    def same_group(self, other: "MultiplicativeBasis") -> bool:
        """Whether both bases have the same generators.

        Generators do not depend on the coordinates: canonical bases of one
        group agree unless two base elements have no trial prime (see
        ``factorization.coprime_base``).
        """
        return self.generators == other.generators


def sign_pivot_hnf(pairs):
    """The HNF of the rows [exponents | sign bit] of the integer pairs
    (R, B), plus [0 ... 0 | 2]; TorsionGroup if the sign column's pivot
    is 1, that is if -1 lies in the span.

    Returns (the coprime base, one ExponentVector per pair, the distinct
    vectors mapped to their pairs, the HNF rows without the last one).
    """
    base, vectors = exponent_table(pairs)
    m = len(base)
    # The HNF depends only on the lattice, so a repeated row adds nothing.
    distinct = dict(zip(vectors, pairs))
    *rows, last = row_hnf([[*v.exponents, v.sign_bit] for v in distinct] + [[0] * m + [2]])
    if last[m] == 1:
        # The kernel HNF costs more than the basis, and callers that retry
        # on sections never read the witness, so TorsionGroup finds it on
        # first read.
        def witness() -> tuple[int, ...]:
            found = _torsion_witness(vectors)
            if found is None:
                raise VerificationFailed("the sign column found -1 in the span but no kernel witness")
            return found

        raise TorsionGroup((Fraction(r, b) for r, b in pairs), witness)
    return base, vectors, distinct, rows


def compute_basis(values=(), *, pairs=()) -> MultiplicativeBasis:
    """Canonical free basis of the span; TorsionGroup if -1 is inside.

    The inputs are the rationals ``values`` and then the integer
    ``pairs`` (R, B), B >= 1, each standing for R/B; a rational x enters
    as (x.numerator, x.denominator).  One HNF of the rows
    [exponents | sign bit] over the inputs' coprime base, plus
    [0 ... 0 | 2]: the span contains -1 exactly when the sign column's
    pivot is 1.  Otherwise the other rows' base parts are the HNF of the
    exponent lattice: the generators do not depend on the input order and
    are those of the prime exponents (but see ``coprime_base``), and each
    row's sign entry (reduced mod 2) is the sign of its generator.  Each
    expression e of an input is checked in integers: sum(e_i * row_i)
    must give back its exponents, and the e_i on negative generators must
    add up to its sign bit mod 2.  Equal inputs share one row.
    """
    pairs = _pairs(values) + tuple(pairs)
    base, vectors, distinct, rows = sign_pivot_hnf(pairs)
    m = len(base)
    h = [r[:m] for r in rows]
    gen_signs = [-1 if r[m] else 1 for r in rows]
    generators = []
    for sign, row in zip(gen_signs, h):
        num = math.prod(b**e for b, e in zip(base, row) if e > 0)
        den = math.prod(b**-e for b, e in zip(base, row) if e < 0)
        generators.append(Fraction(sign * num, den))
    columns = list(zip(*h))
    negative = [i for i, s in enumerate(gen_signs) if s < 0]
    found: dict[ExponentVector, tuple[int, ...]] = {}
    for vec, (r, b) in distinct.items():
        coeffs = hnf_express(h, list(vec.exponents))
        if coeffs is None:
            raise VerificationFailed(f"input {Fraction(r, b)} escaped its own lattice")
        exps = tuple(sum(map(operator.mul, coeffs, column)) for column in columns)
        odd = sum(coeffs[i] for i in negative) % 2
        if exps != vec.exponents or odd != vec.sign_bit:
            raise VerificationFailed(
                f"the expression of {Fraction(r, b)} does not give back its exponents and sign")
        found[vec] = tuple(coeffs)
    return MultiplicativeBasis(
        pairs=pairs,
        base=base,
        generators=tuple(generators),
        matrix=tuple(tuple(r) for r in h),
        generator_signs=tuple(gen_signs),
        expressions=tuple(found[vec] for vec in vectors),
    )
