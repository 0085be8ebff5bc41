"""Weil heights, S-integrality, local proximity functions, and decay ratios.

Heights are stored exactly as formal sums of rational multiples of
logarithms of primes (``LogSum``).  Two such sums are equal iff their
coefficient maps agree, because the logs of distinct primes are
linearly independent over Q; ordering is decided by exact big-integer
comparison after clearing denominators.  Floating point appears only
in ``to_float`` for display.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction

from ._record import Record
from .errors import (
    BadPrime,
    FactorizationLimit,
    HypothesisViolated,
    InputError,
    PointOnHyperplane,
    VerificationFailed,
    ZeroInput,
)
from .factorization import _CAP, factor_limit, factor_rational, is_probable_prime
from .places import Place, _int_valuation, place_abs, valuation
from .polys import UniPoly, _render_sum
from .recurrences import LinearRecurrence, _period_mod_p, _word_digits, zero_classes


class LogSum:
    """An exact real number of the form sum(c_p * log p) over primes.

    A key that is not a prime raises BadPrime.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        for p, c in (coeffs or {}).items():
            p, c = int(p), Fraction(c)
            if not is_probable_prime(p):
                raise BadPrime(f"{p} is not prime")
            if c != 0:
                clean[p] = c
        object.__setattr__(self, "coeffs", dict(sorted(clean.items())))

    @classmethod
    def _of(cls, coeffs: dict) -> "LogSum":
        """Trusted: prime keys in increasing order, non-zero Fraction values."""
        out = object.__new__(cls)
        object.__setattr__(out, "coeffs", coeffs)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("LogSum is immutable")

    def __reduce__(self):
        return LogSum, (self.coeffs,)

    @classmethod
    def zero(cls) -> "LogSum":
        return cls._of({})

    @classmethod
    def log_of(cls, x) -> "LogSum":
        """log of a positive rational, exactly."""
        x = Fraction(x)
        if x <= 0:
            raise ZeroInput("log needs a positive rational")
        fact = factor_rational(x)
        return cls._of({p: Fraction(e) for p, e in fact.exponents.items()})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "LogSum") -> "LogSum":
        out = dict(self.coeffs)
        for p, c in other.coeffs.items():
            out[p] = out.get(p, Fraction(0)) + c
        return LogSum._of({p: c for p, c in sorted(out.items()) if c})

    def __neg__(self) -> "LogSum":
        return LogSum._of({p: -c for p, c in self.coeffs.items()})

    def __sub__(self, other: "LogSum") -> "LogSum":
        return self + (-other)

    def scale(self, c) -> "LogSum":
        c = Fraction(c)
        return LogSum._of({p: v * c for p, v in self.coeffs.items()} if c else {})

    def _sign(self) -> int:
        """Exact sign: compare prod(p^(N c_p)) against 1."""
        if not self.coeffs:
            return 0
        lcm = math.lcm(*(c.denominator for c in self.coeffs.values()))
        pos, neg = 1, 1
        for p, c in self.coeffs.items():
            e = int(c * lcm)
            if e > 0:
                pos *= p**e
            else:
                neg *= p**-e
        if pos > neg:
            return 1
        if pos < neg:
            return -1
        return 0

    def __eq__(self, other):
        if not isinstance(other, LogSum):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __lt__(self, other: "LogSum") -> bool:
        return (self - other)._sign() < 0

    def __le__(self, other: "LogSum") -> bool:
        return (self - other)._sign() <= 0

    def __gt__(self, other: "LogSum") -> bool:
        return (self - other)._sign() > 0

    def __ge__(self, other: "LogSum") -> bool:
        return (self - other)._sign() >= 0

    def __hash__(self):
        return hash(tuple(self.coeffs.items()))

    def to_float(self) -> float:
        return sum(float(c) * math.log(p) for p, c in self.coeffs.items())

    def render(self) -> str:
        return _render_sum((c, [f"log {p}"]) for p, c in self.coeffs.items())

    def as_pairs(self) -> list[tuple[int, str]]:
        return [(p, str(c)) for p, c in self.coeffs.items()]

    def __repr__(self):
        return f"LogSum({self.render()})"


# -- heights ---------------------------------------------------------------


def _contributing_primes(values) -> set[int]:
    primes: set[int] = set()
    for x in values:
        if x == 0:
            continue
        primes |= set(factor_rational(x).exponents)
    return primes


def vector_height(xs) -> LogSum:
    """h(x) = sum over places of log of the sup-norm of the vector.

    Projective: scaling the vector by a non-zero rational leaves the
    result unchanged, by the product formula.
    """
    xs = [Fraction(x) for x in xs]
    if all(x == 0 for x in xs):
        raise ZeroInput("the zero vector has no height")
    total = LogSum.zero()
    arch = max(abs(x) for x in xs)
    total = total + LogSum.log_of(arch)
    for p in sorted(_contributing_primes(xs)):
        place = Place.finite(p)
        norm = max(place_abs(x, place) for x in xs)
        if norm != 1:
            total = total + LogSum.log_of(norm)
    return total


def weil_height(x) -> LogSum:
    """Height of a rational, a vector, or a polynomial's coefficients.

    Scalars are the projective point [1 : x], so h(p/q) = log max(|p|, q)
    in lowest terms; that identity is what the tests pin down.
    """
    if isinstance(x, UniPoly):
        if x.is_zero:
            raise ZeroInput("the zero polynomial has no height")
        return vector_height(list(x.coeffs))
    if isinstance(x, (list, tuple)):
        return vector_height(x)
    x = Fraction(x)
    if x == 0:
        raise ZeroInput("zero has no height")
    return vector_height([Fraction(1), x])


def product_formula_check(x) -> Fraction:
    """prod over contributing places of |x|_place; exactly 1 for x != 0."""
    x = Fraction(x)
    if x == 0:
        raise ZeroInput("the product formula needs x != 0")
    out = place_abs(x, Place.archimedean())
    for p in sorted(_contributing_primes([x])):
        out *= place_abs(x, Place.finite(p))
    return out


# -- hyperplanes and proximity ------------------------------------------------


class HyperplaneForm(Record):
    """A linear form a_0 x_0 + ... + a_n x_n with rational coefficients."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        coeffs = tuple(Fraction(c) for c in coefficients)
        if all(c == 0 for c in coeffs):
            raise ZeroInput("a hyperplane needs a non-zero coefficient vector")
        object.__setattr__(self, "coefficients", coeffs)

    def __call__(self, xs) -> Fraction:
        xs = [Fraction(x) for x in xs]
        if len(xs) != len(self.coefficients):
            raise InputError(f"{len(xs)} coordinates for a form in {len(self.coefficients)}")
        return sum((a * x for a, x in zip(self.coefficients, xs)), Fraction(0))


def weil_function(form: HyperplaneForm, xs, place: Place) -> LogSum:
    """log(||x|| * ||L|| / |L(x)|) at one place, exactly.

    At finite places the ultrametric inequality forces the ratio >= 1,
    which is checked.  At the archimedean place the triangle
    inequality only gives ratio >= 1/(dim + 1), so the value may be
    negative there (e.g. L = x0 + x1 at x = (1, 1) gives -log 2); the
    global sum over places is what the height identity constrains.
    """
    xs = [Fraction(x) for x in xs]
    if all(x == 0 for x in xs):
        raise ZeroInput("projective points need a non-zero vector")
    value = form(xs)
    if value == 0:
        raise PointOnHyperplane("the form vanishes at this point")
    x_norm = max(place_abs(x, place) for x in xs)
    l_norm = max(place_abs(a, place) for a in form.coefficients)
    ratio = x_norm * l_norm / place_abs(value, place)
    if not place.is_archimedean and ratio < 1:
        raise VerificationFailed("ultrametric inequality failed")
    return LogSum.log_of(ratio)


# -- S-integers -----------------------------------------------------------------


class SIntegerSpec(Record):
    """The finite set S of primes allowed in denominators (and units).

    A member that is not prime raises BadPrime: dividing out a composite
    would classify against a set that is not a set of places.
    """

    __slots__ = ("primes",)

    def __init__(self, primes):
        primes = frozenset(int(p) for p in primes)
        for p in sorted(primes):
            if not is_probable_prime(p):
                raise BadPrime(f"{p} is not prime")
        object.__setattr__(self, "primes", primes)

    def sorted(self) -> list[int]:
        return sorted(self.primes)


class SMembership(enum.Enum):
    S_UNIT = "s-unit"
    S_INTEGER = "s-integer"
    NEITHER = "neither"


def _outside_part(n: int, primes) -> int:
    """|n| with every factor from the given primes divided out."""
    n = abs(n)
    for p in primes:
        while n % p == 0:
            n //= p
    return n


def s_membership(x, spec: SIntegerSpec) -> SMembership:
    """Classify x: S-integer (no outside-S denominator), S-unit (no
    outside-S prime at all), or neither.  Zero is an S-integer.

    Membership only depends on dividing out the primes of S, so huge
    values classify quickly; nothing is factored.
    """
    x = Fraction(x)
    if x == 0:
        return SMembership.S_INTEGER
    if _outside_part(x.denominator, spec.primes) != 1:
        return SMembership.NEITHER
    if _outside_part(x.numerator, spec.primes) != 1:
        return SMembership.S_INTEGER
    return SMembership.S_UNIT


# -- decay of |V(n)| at one place --------------------------------------------------


class _DeferredLog(LogSum):
    """log(num/den) / n, factored on the first read of ``coeffs`` under
    the factoring cap in force when it was made."""

    __slots__ = ("_args",)

    def __init__(self, num: int, den: int, n: int, cap: int):
        object.__setattr__(self, "_args", (num, den, n, cap))

    @property
    def coeffs(self):
        try:
            return LogSum.coeffs.__get__(self)
        except AttributeError:
            num, den, n, cap = self._args
            with factor_limit(cap):
                fact = factor_rational(Fraction(num, den))
            coeffs = {p: Fraction(e, n) for p, e in fact.exponents.items()}
            LogSum.coeffs.__set__(self, coeffs)
            return coeffs


class DecayReport(Record):
    """Per-index ratios (-log^- |V(n)|_place) / n on a range.

    ``samples`` lists (n, ratio) for indices with a positive ratio;
    zeros of V inside the range are skipped and recorded.  The maximum
    ratio of an eventually-dominated sequence stays below any fixed
    epsilon once n is large; this report makes the claim inspectable.
    """

    __slots__ = ("place", "max_ratio", "argmax_n", "samples", "skipped_zeros")

    def __init__(
        self,
        place: Place,
        max_ratio: LogSum,
        argmax_n: int | None,
        samples: tuple[tuple[int, LogSum], ...],
        skipped_zeros: tuple[int, ...],
    ):
        object.__setattr__(self, "place", place)
        object.__setattr__(self, "max_ratio", max_ratio)
        object.__setattr__(self, "argmax_n", argmax_n)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "skipped_zeros", skipped_zeros)


def _divisible_indices(v: LinearRecurrence, p: int, n_lo: int, n_hi: int):
    """(n, v_p(W(n))) for the n in [n_lo, n_hi] with p | W(n), in order,
    with None for v_p where W(n) = 0.

    When p divides B, W is walked exactly.  Otherwise, when the period t
    of W mod p is at most the range length, only the indices in the zero
    classes of W mod p are walked, and else every index; either walk runs
    modulo a word-sized p^k, and W(n) is evaluated exactly only where
    that residue is 0.  The period is sought only for p up to the range
    length, so the p - 1 it factors stays small.
    """
    walks, modulus = [(n_lo, 1)], None
    if v.base % p:
        modulus = p ** _word_digits(p)
        length = n_hi - n_lo + 1
        try:
            t = _period_mod_p(v, p) if p <= length else length + 1
        except FactorizationLimit:  # p - 1 factored under a low cap
            t = length + 1
        if t <= length:
            walks = [(n_lo + (r - n_lo) % t, t) for r in zero_classes(v, p, t)[1]]
    out = []
    for start, step in walks:
        for n, w in zip(range(start, n_hi + 1, step), v.walk(start, step, modulus)):
            if w == 0 and modulus is not None:
                w = next(v.walk(n))
            if w == 0:
                out.append((n, None))
            elif w % p == 0:
                out.append((n, _int_valuation(w, p)))
    out.sort()
    return out


def decay_check(
    v: LinearRecurrence, place: Place, n_lo: int, n_hi: int
) -> DecayReport:
    """Exact decay ratios of |V(n)| at a place over [n_lo, n_hi].

    Requires some root to satisfy |root|_place >= 1; otherwise the
    whole sequence tends to 0 at that place and the premise of the
    decay bound is violated.

    The maximum is found in integers.  At the archimedean place only it
    is factored here; each other sample is factored when first read,
    under the factoring cap in force at this call.  At a prime p only
    the indices with p | W(n) are visited (``_divisible_indices``).
    """
    if v.is_zero:
        raise ZeroInput("the zero sequence has no decay profile")
    if n_lo < 1 or n_hi < n_lo:
        raise ZeroInput("need 1 <= n_lo <= n_hi")
    if all(place_abs(root, place) < 1 for root in v.roots):
        raise HypothesisViolated(
            f"every root has |root| < 1 at place {place}; the decay "
            "premise needs at least one large root"
        )
    samples = []
    skipped = []
    best: LogSum | None = None
    if place.is_archimedean:
        # V(n) = W(n) / (c * B^n) for the cleared integer sequence W, so the
        # ratio at n is log(x)/n with x = c * B^n / |W(n)|, and
        # log(x)/n > log(y)/m exactly when x^m > y^n.
        clearing, cap = v.scale * v.base**n_lo, _CAP.get()
        for n, w in zip(range(n_lo, n_hi + 1), v.walk(n_lo)):
            num, clearing, den = clearing, clearing * v.base, abs(w)
            if den == 0:
                skipped.append(n)
                continue
            if den >= num:
                continue
            ratio = _DeferredLog(num, den, n, cap)
            samples.append((n, ratio))
            if best is not None:
                g = math.gcd(n, best_n)
                m, k = best_n // g, n // g
                if num**m * best_den**k <= best_num**k * den**m:
                    continue
            best, best_num, best_den, best_n = ratio, num, den, n
        if best is not None:  # a FactorizationLimit on the maximum raises here
            best = LogSum._of(best.coeffs)
    else:
        p = place.prime
        v_scale, v_base = valuation(v.scale, p), valuation(v.base, p)
        for n, val in _divisible_indices(v, p, n_lo, n_hi):
            if val is None:
                skipped.append(n)
                continue
            val -= v_scale + n * v_base
            if val <= 0:
                continue
            ratio = LogSum._of({p: Fraction(val, n)})
            samples.append((n, ratio))
            if best is None or val * best_n > best_val * n:
                best, best_val, best_n = ratio, val, n
    return DecayReport(
        place=place,
        max_ratio=LogSum.zero() if best is None else best,
        argmax_n=None if best is None else best_n,
        samples=tuple(samples),
        skipped_zeros=tuple(skipped),
    )
