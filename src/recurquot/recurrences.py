"""Closed-form linear recurrences over Q.

A sequence is stored as a finite sum of terms coeff(n) * root^n with
non-zero rational roots, pairwise distinct, and non-zero polynomial
coefficients.  This representation is closed under addition, pointwise
product, and decimation, and every operation here is exact.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, IrrationalRoots, VerificationFailed, ZeroRoot
from .linalg import solve_rational
from .polys import BiPoly, UniPoly, _render_sum


def _fr(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _pow_str(base: Fraction, var: str) -> str:
    text = str(base)
    if base < 0 or base.denominator != 1:
        text = f"({text})"
    return f"{text}^{var}"


def _signed(term: str) -> tuple[int, list[str]]:
    """A rendered term as a (sign, [body]) pair for ``_render_sum``."""
    return (-1, [term[1:]]) if term.startswith("-") else (1, [term])


def _term_str(coeff: UniPoly, base: Fraction, var: str) -> str:
    poly = coeff.render(var)
    if base == 1:
        return f"({poly})" if " " in poly else poly
    power = _pow_str(base, var)
    if poly == "1":
        return power
    if poly == "-1":
        return f"-{power}"
    if " " in poly:
        return f"({poly})*{power}"
    return f"{poly}*{power}"


class LinearRecurrence:
    """Exact closed form: sum of coeff_i(n) * root_i^n.

    Terms are kept sorted by root; the zero sequence has no terms.
    Use ``from_closed_form`` to build one from unchecked pairs.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[Fraction, UniPoly], ...]):
        roots = [r for r, _ in terms]
        assert all(r != 0 for r in roots)
        assert len(set(roots)) == len(roots)
        assert all(not c.is_zero for _, c in terms)
        object.__setattr__(self, "terms", tuple(sorted(terms, key=lambda t: t[0])))

    def __setattr__(self, name, value):
        raise AttributeError("LinearRecurrence is immutable")

    # -- queries ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def roots(self) -> tuple[Fraction, ...]:
        return tuple(r for r, _ in self.terms)

    @property
    def order(self) -> int:
        """Order of the minimal linear relation the sequence satisfies."""
        return sum(c.degree + 1 for _, c in self.terms)

    def evaluate(self, n: int) -> Fraction:
        out = Fraction(0)
        for root, coeff in self.terms:
            out += coeff(n) * root**n
        return out

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "LinearRecurrence") -> "LinearRecurrence":
        merged: dict[Fraction, UniPoly] = {r: c for r, c in self.terms}
        for r, c in other.terms:
            merged[r] = merged.get(r, UniPoly.zero()) + c
        return LinearRecurrence(
            tuple((r, c) for r, c in merged.items() if not c.is_zero)
        )

    def __neg__(self) -> "LinearRecurrence":
        return LinearRecurrence(tuple((r, -c) for r, c in self.terms))

    def __sub__(self, other: "LinearRecurrence") -> "LinearRecurrence":
        return self + (-other)

    def __mul__(self, other):
        """Pointwise (Hadamard) product; scalars rescale.

        Runs on the cleared integer forms: integer roots multiply, integer
        coefficients convolve, and each output coefficient is one Fraction.
        """
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        a, b = ClearedRecurrence(self), ClearedRecurrence(other)
        merged: dict[int, list[int]] = {}
        for r1, c1 in a.terms:
            for r2, c2 in b.terms:
                acc = merged.setdefault(r1 * r2, [])
                acc.extend([0] * (len(c1) + len(c2) - 1 - len(acc)))
                for i, x in enumerate(c1):
                    for j, y in enumerate(c2):
                        acc[i + j] += x * y
        base, scale = a.base * b.base, a.scale * b.scale
        return LinearRecurrence(tuple(
            (Fraction(r, base), UniPoly([Fraction(c, scale) for c in acc]))
            for r, acc in merged.items() if any(acc)
        ))

    __rmul__ = __mul__

    def scale(self, c) -> "LinearRecurrence":
        c = _fr(c)
        if c == 0:
            return LinearRecurrence(())
        return LinearRecurrence(tuple((r, coeff.scale(c)) for r, coeff in self.terms))

    def decimate(self, q: int, r: int) -> "LinearRecurrence":
        """The section m -> U(q*m + r); roots may merge (e.g. (-a)^q == a^q).

        A term c(n) * root^n becomes root^r * c(q*m + r) * (root^q)^m.
        With c = p / den for an integer polynomial p, the Taylor shift
        p(X + r) and the scaling X -> q*X run on integers, and each output
        coefficient is one Fraction.
        """
        if q < 1 or not 0 <= r < q:
            raise InputError(f"decimation needs q >= 1 and 0 <= r < q, got q={q}, r={r}")
        merged: dict[Fraction, UniPoly] = {}
        for root, coeff in self.terms:
            den = math.lcm(*(c.denominator for c in coeff.coeffs))
            p = [c.numerator * (den // c.denominator) for c in coeff.coeffs]
            if r:
                for i in range(len(p) - 1):
                    for j in range(len(p) - 2, i - 1, -1):
                        p[j] += r * p[j + 1]
            num = root.numerator**r
            den *= root.denominator**r
            new_coeff = UniPoly([Fraction(c * q**j * num, den) for j, c in enumerate(p)])
            new_root = root**q
            if new_root in merged:
                new_coeff = merged[new_root] + new_coeff
            merged[new_root] = new_coeff
        return LinearRecurrence(
            tuple((r_, c) for r_, c in merged.items() if not c.is_zero)
        )

    # -- rendering ----------------------------------------------------------

    def render(self, var: str = "n") -> str:
        return _render_sum(_signed(_term_str(c, r, var)) for r, c in reversed(self.terms))

    def __eq__(self, other):
        if not isinstance(other, LinearRecurrence):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        return f"LinearRecurrence({self.render()})"


def from_closed_form(pairs) -> LinearRecurrence:
    """Build a recurrence from (root, coeff) pairs.

    Duplicate roots merge by adding coefficients; zero coefficients are
    dropped; a zero root raises ZeroRoot.
    """
    merged: dict[Fraction, UniPoly] = {}
    for root, coeff in pairs:
        root = _fr(root)
        if root == 0:
            raise ZeroRoot("closed forms require non-zero roots")
        if not isinstance(coeff, UniPoly):
            coeff = UniPoly.constant(coeff) if isinstance(coeff, (int, Fraction)) else UniPoly(coeff)
        merged[root] = merged.get(root, UniPoly.zero()) + coeff
    return LinearRecurrence(tuple((r, c) for r, c in merged.items() if not c.is_zero))


def constant(c) -> LinearRecurrence:
    """The constant sequence n -> c."""
    c = _fr(c)
    if c == 0:
        return LinearRecurrence(())
    return from_closed_form([(Fraction(1), UniPoly.constant(c))])


def geometric(base, coeff=1) -> LinearRecurrence:
    """The sequence n -> coeff * base^n."""
    return from_closed_form([(_fr(base), UniPoly.constant(coeff))])


def polynomial(coeffs) -> LinearRecurrence:
    """The sequence n -> p(n) for the given coefficient list."""
    return from_closed_form([(Fraction(1), UniPoly(coeffs))])


def from_relation(coeffs, initial) -> LinearRecurrence:
    """Recover the closed form from U(n+k) = sum(c_i U(n+i)) and U(0..k-1).

    Requires c_0 != 0 (else a root would be zero) and a characteristic
    polynomial that splits over Q; otherwise IrrationalRoots carries the
    non-split factor.  The result is verified against the initial terms
    and the relation before it is returned.
    """
    coeffs = [_fr(c) for c in coeffs]
    initial = [_fr(v) for v in initial]
    k = len(coeffs)
    if k == 0 or len(initial) != k:
        raise InputError("need k >= 1 relation coefficients and k initial values")
    if coeffs[0] == 0:
        raise ZeroRoot("c_0 = 0 forces a zero characteristic root")
    char = UniPoly([-c for c in coeffs] + [Fraction(1)])
    roots = char.rational_roots()
    if sum(m for _, m in roots) != k:
        residual = char
        for root, mult in roots:
            residual = residual // UniPoly((-root, 1)) ** mult
        raise IrrationalRoots(residual.monic())
    columns = [(root, j) for root, mult in roots for j in range(mult)]
    matrix = [
        [Fraction(n) ** j * root**n for root, j in columns] for n in range(k)
    ]
    solution = solve_rational(matrix, initial)
    pairs = []
    for root, mult in roots:
        poly = UniPoly(
            [solution[columns.index((root, j))] for j in range(mult)]
        )
        pairs.append((root, poly))
    rec = from_closed_form(pairs)
    if any(rec.evaluate(n) != initial[n] for n in range(k)):
        raise VerificationFailed("the closed form does not give back the initial values")
    for n in range(k + 1):
        lhs = rec.evaluate(n + k)
        rhs = sum(c * rec.evaluate(n + i) for i, c in enumerate(coeffs))
        if lhs != rhs:
            raise VerificationFailed(f"the closed form breaks the relation at n = {n}")
    return rec


# -- cleared integer sequences --------------------------------------------------


class ClearedRecurrence:
    """V cleared to the integer sequence W(k) = scale * base^k * V(k).

    ``base`` is the lcm of the root denominators and ``scale`` the lcm
    of the coefficient denominators, so W(k) = sum(c_i(k) * R_i^k) with
    integer roots R_i = base * root_i and integer coefficient
    polynomials c_i = scale * coeff_i, stored in ``terms`` as (R_i,
    coefficients of c_i, low degree first).  W vanishes exactly where V
    does and has the same sign, so index scans read V through ``walk``
    and the zero-set cutoff reads ``terms``, instead of evaluating
    Fractions.
    """

    __slots__ = ("scale", "base", "terms")

    def __init__(self, rec: LinearRecurrence):
        base = scale = 1
        for root, coeff in rec.terms:
            base = math.lcm(base, root.denominator)
            for c in coeff.coeffs:
                scale = math.lcm(scale, c.denominator)
        self.scale = scale
        self.base = base
        self.terms = tuple(
            (root.numerator * (base // root.denominator),
             tuple(c.numerator * (scale // c.denominator) for c in coeff.coeffs))
            for root, coeff in rec.terms
        )

    def walk(self, start: int, step: int = 1, modulus: int | None = None) -> Iterator[int]:
        """W(start), W(start + step), W(start + 2*step), ... without end.

        Needs start, step >= 0.  The first value costs one ``pow`` per
        root, every later one a single multiplication per root.  With a
        modulus each value is the residue in [0, modulus).
        """
        if modulus is None:
            powers = [r**start for r, _ in self.terms]
            factors = [r**step for r, _ in self.terms]
        else:
            powers = [pow(r, start, modulus) for r, _ in self.terms]
            factors = [pow(r, step, modulus) for r, _ in self.terms]
        polys = [cs[::-1] for _, cs in self.terms]
        indices = range(len(polys))
        k = start
        while True:
            total = 0
            for i in indices:
                value = 0
                for c in polys[i]:
                    value = value * k + c
                total += value * powers[i]
                if modulus is None:
                    powers[i] *= factors[i]
                else:
                    powers[i] = powers[i] * factors[i] % modulus
            yield total if modulus is None else total % modulus
            k += step


# -- zero sets ---------------------------------------------------------------


@dataclass(frozen=True)
class ZeroSetReport:
    """Zero set as progressions plus sporadic points.

    ``progressions`` are (modulus, residue) pairs: every index in that
    class is a zero.  When ``complete`` is True, ``sporadic`` lists all
    remaining zeros and there are none at or beyond ``dominance_from``
    outside the progressions.  When False, sporadic zeros are exhaustive
    only up to the search bound.
    """

    progressions: tuple[tuple[int, int], ...]
    sporadic: tuple[int, ...]
    complete: bool
    dominance_from: int | None


def _value(coeffs: tuple[int, ...], m: int) -> int:
    """The integer polynomial sum(coeffs[i] * X^i) at X = m."""
    return sum(c * m**i for i, c in enumerate(coeffs))


def _section_cutoff(sec: ClearedRecurrence, cap: int) -> int | None:
    """Smallest verified index m0 <= cap + 1 with no zeros at m >= m0.

    Reads the cleared W in integers only; requires all roots positive.
    For a single term the cutoff clears the rational roots of the
    coefficient.  Otherwise the unique largest root R_beta dominates: with
    majorants P_i (absolute coefficients) of degree at most d and R_rho
    the largest other root, once m is past the critical points of the
    dominant coefficient c_beta (Cauchy: 2 + max|a_i| // |a_d|),
    (m + 1)^d * R_rho <= m^d * R_beta, and sum(P_i(m) R_i^m) <
    |c_beta(m)| R_beta^m, induction keeps the dominant term strictly ahead
    of the rest forever.
    """
    assert sec.terms and all(r > 0 for r, _ in sec.terms)
    if len(sec.terms) == 1:
        _, coeffs = sec.terms[0]
        cutoff = 0
        for root, _ in UniPoly(coeffs).rational_roots():
            if root.denominator == 1 and root >= 0:
                cutoff = max(cutoff, int(root) + 1)
        return cutoff if cutoff <= cap + 1 else None
    beta, c_beta = sec.terms[-1]
    others = sec.terms[:-1]
    rho = others[-1][0]
    majorants = [(root, tuple(abs(c) for c in coeffs)) for root, coeffs in others]
    env_degree = max(len(p) for _, p in majorants) - 1
    m0 = 1
    for poly in (c_beta, [i * c for i, c in enumerate(c_beta)][1:]):
        if len(poly) >= 2:
            m0 = max(m0, 2 + max(abs(c) for c in poly[:-1]) // abs(poly[-1]))
    while m0 <= cap + 1:
        if (m0 + 1) ** env_degree * rho <= m0**env_degree * beta:
            small = sum(_value(p, m0) * root**m0 for root, p in majorants)
            big = abs(_value(c_beta, m0)) * beta**m0
            if small < big:
                return m0
        m0 += 1
    return None


def zero_set(u: LinearRecurrence, search_bound: int) -> ZeroSetReport:
    """Certified zero set of U on [0, search_bound] and, if possible, beyond.

    Splits U into its two sections mod 2; each section has positive
    roots, hence a dominant one, which yields a provable index beyond
    which the section cannot vanish.  Identically-zero sections become
    arithmetic progressions.  If some section's cutoff cannot be
    certified inside the bound, ``complete`` is False and only the
    scanned zeros are reported.  Each section is read as its cleared
    integer sequence, so no index builds a Fraction.
    """
    if search_bound < 0:
        raise InputError("search_bound must be >= 0")
    if u.is_zero:
        return ZeroSetReport(((1, 0),), (), True, 0)
    progressions = []
    sporadic: set[int] = set()
    complete = True
    frontier = 0
    for residue in (0, 1):
        section = u.decimate(2, residue)
        if section.is_zero:
            progressions.append((2, residue))
            continue
        cleared = ClearedRecurrence(section)
        cap = (search_bound - residue) // 2
        cutoff = _section_cutoff(cleared, cap) if cap >= 0 else None
        scan_to = cutoff - 1 if cutoff is not None else cap
        for m, value in zip(range(scan_to + 1), cleared.walk(0)):
            if value == 0:
                sporadic.add(2 * m + residue)
        if cutoff is None:
            complete = False
        else:
            frontier = max(frontier, 2 * cutoff + residue)
    return ZeroSetReport(
        tuple(progressions),
        tuple(sorted(sporadic)),
        complete,
        frontier if complete else None,
    )


# -- two-parameter closed forms ------------------------------------------------


class MultiRecurrence:
    """Exact closed form in two indices: sum of c_i(m, n) a_i^m b_i^n."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[Fraction, Fraction, BiPoly], ...]):
        bases = [(a, b) for a, b, _ in terms]
        assert all(a != 0 and b != 0 for a, b in bases)
        assert len(set(bases)) == len(bases)
        assert all(not c.is_zero for _, _, c in terms)
        object.__setattr__(
            self, "terms", tuple(sorted(terms, key=lambda t: (t[0], t[1])))
        )

    def __setattr__(self, name, value):
        raise AttributeError("MultiRecurrence is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def evaluate(self, m: int, n: int) -> Fraction:
        out = Fraction(0)
        for base_m, base_n, coeff in self.terms:
            out += coeff(m, n) * base_m**m * base_n**n
        return out

    def render(self, vars: tuple[str, str] = ("m", "n")) -> str:
        parts = []
        for base_m, base_n, coeff in self.terms:
            powers = [_pow_str(b, var) for b, var in zip((base_m, base_n), vars) if b != 1]
            if set(coeff.terms) == {(0, 0)}:
                parts.append((coeff.terms[(0, 0)], powers))
                continue
            body = coeff.render(vars)
            parts.append(_signed("*".join([f"({body})" if " " in body else body, *powers])))
        return _render_sum(parts)

    def __eq__(self, other):
        if not isinstance(other, MultiRecurrence):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        return f"MultiRecurrence({self.render()})"


def multi_from_closed_form(triples) -> MultiRecurrence:
    """Build a two-index closed form from (base_m, base_n, coeff) triples."""
    merged: dict[tuple[Fraction, Fraction], BiPoly] = {}
    for base_m, base_n, coeff in triples:
        base_m, base_n = _fr(base_m), _fr(base_n)
        if base_m == 0 or base_n == 0:
            raise ZeroRoot("closed forms require non-zero bases")
        if not isinstance(coeff, BiPoly):
            coeff = BiPoly({(0, 0): _fr(coeff)})
        key = (base_m, base_n)
        merged[key] = merged.get(key, BiPoly()) + coeff
    return MultiRecurrence(
        tuple((a, b, c) for (a, b), c in merged.items() if not c.is_zero)
    )

