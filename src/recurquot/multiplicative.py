"""Multiplicative structure of finite sets of non-zero rationals.

A non-zero rational is sign * prod(p^e); a finite set of them spans a
subgroup of Q*.  This module decides whether the span contains -1
(torsion) and produces a canonical free basis when it does not.  Each
input enters as an integer pair (R, B) standing for R/B, and each
distinct |R| and B is factored once.  All lattice work happens on
exponent vectors over the union of primes, with the sign as one more
column taken mod 2.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from functools import cached_property

from . import factorization
from ._record import Record
from .errors import InputError, RootNotInGroup, TorsionGroup, VerificationFailed, ZeroInput
from .factorization import factor_rational
from .linalg import hnf_express, left_kernel, row_hnf


class ExponentVector(namedtuple("ExponentVector", ["sign_bit", "exponents"])):
    """One rational in coordinates: sign bit (1 means negative) and
    exponents over an agreed prime list.

    ``sign_bit`` is an int and ``exponents`` a tuple[int, ...].
    """

    __slots__ = ()


# (factorizations by integer, bases by input pairs) of the innermost
# ``shared_factors()`` block; None outside any block.
_SHARED: ContextVar[tuple[dict, dict] | None] = ContextVar("shared_factors", default=None)


@contextmanager
def shared_factors():
    """Inside the block each integer is factored once and each basis built once.

    Yields ``add_squares()``, which serves n^2 from every factorization
    kept so far (exponents doubled), as clearance sections mod 2 need for
    their witnesses: their roots are R^2 over B^2.  Over Q no other
    modulus is ever needed.
    """
    factors: dict[int, dict[int, int]] = {}

    def add_squares() -> None:
        for n, f in list(factors.items()):
            factors[n * n] = {p: 2 * e for p, e in f.items()}

    token = _SHARED.set((factors, {}))
    try:
        yield add_squares
    finally:
        _SHARED.reset(token)


def exponent_table(pairs) -> tuple[tuple[int, ...], list[ExponentVector]]:
    """Coordinates of each R/B, for integer pairs (R, B) with B >= 1.

    Each distinct |R| and B is factored once (once per ``shared_factors``
    block inside one).  The exponents of R/B are e(|R|) - e(B) over the
    sorted union of the primes that occur, and its sign bit is R < 0.
    Returns (that prime tuple, one ExponentVector per pair).
    """
    shared = _SHARED.get()
    known = {} if shared is None else shared[0]
    if any(not r for r, _ in pairs):
        raise ZeroInput("zero has no multiplicative coordinates")
    integers = dict.fromkeys(n for r, b in pairs for n in (abs(r), b))
    for n in integers:
        if n not in known:
            known[n] = factorization.factor_int(n)
    primes = sorted({p for n in integers for p in known[n]})
    coords = {n: [known[n].get(p, 0) for p in primes] for n in integers}
    rows = [tuple(map(operator.sub, coords[abs(r)], coords[b])) for r, b in pairs]
    # A prime of R that B cancels in every row is not a coordinate.
    kept = [j for j, column in enumerate(zip(*rows)) if any(column)]
    if len(kept) < len(primes):
        primes = [primes[j] for j in kept]
        rows = [tuple(row[j] for j in kept) for row in rows]
    return tuple(primes), [ExponentVector(int(r < 0), row) for (r, _), row in zip(pairs, rows)]


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
    R/B.  ``matrix`` holds the generators' prime-exponent rows.
    ``expressions[i]`` writes values[i] in the generators.
    ``compute_basis`` gives the canonical basis: generators of the
    spanned group itself, with ``matrix`` in HNF, so it depends only on
    that group, not on the input order.  Clearance refusal witnesses
    and the ``basis`` subcommand use it; Hadamard quotients and clearance
    verdicts divide on the roots themselves and build none.
    """

    # ``__dict__`` holds the cached properties.
    __slots__ = (
        "pairs", "primes", "generators", "matrix", "generator_signs", "expressions",
        "__dict__",
    )

    def __init__(
        self,
        pairs: tuple[tuple[int, int], ...],
        primes: tuple[int, ...],
        generators: tuple[Fraction, ...],
        matrix: tuple[tuple[int, ...], ...],
        generator_signs: tuple[int, ...],
        expressions: tuple[tuple[int, ...], ...],
    ):
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "primes", primes)
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

        One of ``values`` is looked up in ``expressions``; only other
        values are factored.
        """
        stored = self._stored.get(x)
        if stored is not None:
            return stored
        x = Fraction(x)
        if not x:
            raise ZeroInput("zero is not a group element")
        fact = factor_rational(x)
        stray = set(fact.exponents).difference(self.primes)
        if stray:
            raise RootNotInGroup(f"{x} involves the prime {min(stray)}, outside the basis")
        row = [fact.exponents.get(p, 0) for p in self.primes]
        coeffs = hnf_express([list(r) for r in self.matrix], row)
        if coeffs is None:
            raise RootNotInGroup(f"{x} is not in the lattice of the basis")
        odd = sum(c for c, s in zip(coeffs, self.generator_signs) if s < 0) % 2
        if (-1) ** odd != fact.sign:
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


def sign_pivot_hnf(pairs):
    """The HNF of the rows [exponents | sign bit] of the integer pairs
    (R, B), plus [0 ... 0 | 2]; TorsionGroup if the sign column's pivot
    is 1, that is if -1 lies in the span.

    Returns (primes, one ExponentVector per pair, the distinct vectors
    mapped to their pairs, the HNF rows without the last one).
    """
    primes, vectors = exponent_table(pairs)
    m = len(primes)
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
    return primes, vectors, distinct, rows


def compute_basis(values=(), *, pairs=()) -> MultiplicativeBasis:
    """Canonical free basis of the span; TorsionGroup if -1 is inside.

    The inputs are the rationals ``values`` and then the integer
    ``pairs`` (R, B), B >= 1, each standing for R/B; a rational x enters
    as (x.numerator, x.denominator).  One HNF of the rows
    [exponents | sign bit] plus [0 ... 0 | 2]: the span contains -1
    exactly when the sign column's pivot is 1.  Otherwise the other rows'
    prime parts are the HNF of the exponent lattice, so any input list
    spanning the same group yields the same generators, and each row's
    sign entry (reduced mod 2) is the sign of its generator.  Each
    expression e of an input is checked in integers: sum(e_i * row_i)
    must give back its exponents, and the e_i on negative generators must
    add up to its sign bit mod 2.  Equal inputs share one row.
    """
    pairs = _pairs(values) + tuple(pairs)
    shared = _SHARED.get()
    if shared is not None and pairs in shared[1]:
        return shared[1][pairs]
    primes, vectors, distinct, rows = sign_pivot_hnf(pairs)
    m = len(primes)
    h = [r[:m] for r in rows]
    gen_signs = [-1 if r[m] else 1 for r in rows]
    generators = []
    for sign, row in zip(gen_signs, h):
        num = math.prod(p**e for p, e in zip(primes, row) if e > 0)
        den = math.prod(p**-e for p, e in zip(primes, row) if e < 0)
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
    basis = MultiplicativeBasis(
        pairs=pairs,
        primes=primes,
        generators=tuple(generators),
        matrix=tuple(tuple(r) for r in h),
        generator_signs=tuple(gen_signs),
        expressions=tuple(found[vec] for vec in vectors),
    )
    if shared is not None:
        shared[1][pairs] = basis
    return basis
