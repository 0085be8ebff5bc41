"""Closed-form linear recurrences over Q.

A sequence is a finite sum of terms coeff(n) * root^n with non-zero
rational roots, pairwise distinct, and non-zero polynomial
coefficients, stored cleared to integers (see ``LinearRecurrence``).
This representation is closed under addition, pointwise product, and
decimation, and every operation here is exact.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction
from itertools import chain
from operator import itemgetter

from ._record import Record
from .errors import InputError, IrrationalRoots, VerificationFailed, ZeroRoot
from .factorization import coprime_base, factor_int
from .linalg import solve_rational
from .places import _int_valuation
from .polys import UniPoly, _render_sum


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


def _term_str(coeff: UniPoly, var: str, powers) -> str:
    """coeff(var) times base^v over the (base, v) pairs ``powers``.

    A base of 1 is left out, and a coefficient of 1 or -1 before a power
    is a bare sign.
    """
    factors = [_pow_str(base, v) for base, v in powers if base != 1]
    poly = coeff.render(var)
    if " " in poly:
        poly = f"({poly})"
    if factors and poly in ("1", "-1"):
        return poly[:-1] + "*".join(factors)
    return "*".join([poly, *factors])


def _accumulate(merged: dict[int, list[int]], root: int, coeffs: list[int]) -> None:
    """Add the integer coefficients ``coeffs`` to the entry of ``root``.

    A new root keeps ``coeffs`` itself as its entry, so pass a fresh list.
    """
    acc = merged.get(root)
    if acc is None:
        merged[root] = coeffs
        return
    acc.extend([0] * (len(coeffs) - len(acc)))
    for i, c in enumerate(coeffs):
        acc[i] += c


def _convolve(c1, c2) -> list[int]:
    """The coefficients of the product of two integer polynomials."""
    if len(c1) == 1:
        x = c1[0]
        return [x * y for y in c2]
    out = [0] * (len(c1) + len(c2) - 1)
    for i, x in enumerate(c1):
        for j, y in enumerate(c2):
            out[i + j] += x * y
    return out


def _value(coeffs: tuple[int, ...], m: int) -> int:
    """The integer polynomial sum(coeffs[i] * X^i) at X = m."""
    return sum(c * m**i for i, c in enumerate(coeffs))


class LinearRecurrence:
    """Exact closed form V(n) = sum of coeff_i(n) * root_i^n.

    V is stored cleared to the integer sequence W(n) = scale * base^n *
    V(n) = sum(C_i(n) * R_i^n): ``base`` B is the lcm of the root
    denominators and ``scale`` c the lcm of the coefficient denominators,
    so the roots R_i = B * root_i are distinct non-zero integers and the
    coefficients C_i = c * coeff_i non-zero integer polynomials.
    ``cleared_terms`` holds the pairs (R_i, coefficients of C_i, low degree
    first) sorted by R_i, that is by root; the zero sequence has none.
    The form is unique, so ``==`` and ``hash`` compare integers.  W
    vanishes exactly where V does and has its sign, so index scans read V
    through ``walk``.  ``terms`` and ``roots`` are the rational view; use
    ``from_closed_form`` to build a sequence from rational pairs.
    """

    __slots__ = ("scale", "base", "cleared_terms")

    def __init__(self, cleared_terms=(), scale: int = 1, base: int = 1):
        """The sequence sum(C(n) * R^n) / (scale * base^n) over (R, C) pairs.

        Trailing zero coefficients are trimmed and zero polynomials
        dropped; the two gcds then bring scale and base down to the lcms
        above.  A zero root raises ZeroRoot; a repeated root, or a scale
        or base below 1, raises InputError.
        """
        if scale < 1 or base < 1:
            raise InputError(f"scale and base must be >= 1, got {scale} and {base}")
        kept: dict[int, tuple[int, ...]] = {}
        for root, coeffs in cleared_terms:
            if not root:
                raise ZeroRoot("closed forms require non-zero roots")
            if root in kept:
                raise InputError(f"the root {root} is given twice")
            if coeffs and coeffs[-1]:
                kept[root] = tuple(coeffs)
                continue
            top = len(coeffs)
            while top and not coeffs[top - 1]:
                top -= 1
            if top:
                kept[root] = tuple(coeffs[:top])
        g = math.gcd(base, *kept)
        h = math.gcd(scale, *chain.from_iterable(kept.values()))
        object.__setattr__(self, "scale", scale // h)
        object.__setattr__(self, "base", base // g)
        terms = kept.items()
        if g != 1 or h != 1:
            terms = ((root // g, coeffs if h == 1 else tuple(c // h for c in coeffs))
                     for root, coeffs in terms)
        # The roots are distinct, so sorting never compares coefficients.
        object.__setattr__(self, "cleared_terms", tuple(sorted(terms)))

    def __setattr__(self, name, value):
        raise AttributeError("LinearRecurrence is immutable")

    def __reduce__(self):
        return LinearRecurrence, (self.cleared_terms, self.scale, self.base)

    # -- queries ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.cleared_terms

    @property
    def terms(self) -> tuple[tuple[Fraction, UniPoly], ...]:
        """The (root, coefficient polynomial) pairs over Q, sorted by root."""
        return tuple(
            (Fraction(root, self.base), UniPoly([Fraction(c, self.scale) for c in coeffs]))
            for root, coeffs in self.cleared_terms
        )

    @property
    def roots(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(root, self.base) for root, _ in self.cleared_terms)

    @property
    def order(self) -> int:
        """Order of the minimal linear relation the sequence satisfies."""
        return sum(len(coeffs) for _, coeffs in self.cleared_terms)

    def evaluate(self, n: int) -> Fraction:
        """V(n) = W(n) / (scale * base^n); below 0, root^n = (base / R)^-n."""
        terms = self.cleared_terms
        if n < 0:
            return sum((_value(cs, n) * Fraction(self.base, r) ** -n for r, cs in terms),
                       Fraction(0)) / self.scale
        return Fraction(sum(_value(cs, n) * r**n for r, cs in terms), self.scale * self.base**n)

    def walk(self, start: int, step: int = 1, modulus: int | None = None) -> Iterator[int]:
        """W(start), W(start + step), W(start + 2*step), ... without end.

        Needs start, step >= 0.  The first value costs one ``pow`` per
        root, every later one a single multiplication per root.  With a
        modulus each value is the residue in [0, modulus).
        """
        if modulus is None:
            powers = [r**start for r, _ in self.cleared_terms]
            factors = [r**step for r, _ in self.cleared_terms]
        else:
            powers = [pow(r, start, modulus) for r, _ in self.cleared_terms]
            factors = [pow(r, step, modulus) for r, _ in self.cleared_terms]
        polys = [cs[::-1] for _, cs in self.cleared_terms]
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

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "LinearRecurrence") -> "LinearRecurrence":
        scale = math.lcm(self.scale, other.scale)
        base = math.lcm(self.base, other.base)
        merged: dict[int, list[int]] = {}
        for rec in (self, other):
            lift, widen = base // rec.base, scale // rec.scale
            for root, coeffs in rec.cleared_terms:
                _accumulate(merged, root * lift, [c * widen for c in coeffs])
        return LinearRecurrence(merged.items(), scale, base)

    def __neg__(self) -> "LinearRecurrence":
        return self * -1

    def __sub__(self, other: "LinearRecurrence") -> "LinearRecurrence":
        return self + (-other)

    def __mul__(self, other):
        """Pointwise (Hadamard) product; a rational scalar rescales.

        Integer roots multiply and integer coefficients convolve; the
        scales and the bases multiply.
        """
        if isinstance(other, (int, Fraction)):
            num = other.numerator
            terms = ((root, [c * num for c in coeffs]) for root, coeffs in self.cleared_terms)
            return LinearRecurrence(terms, self.scale * other.denominator, self.base)
        if not isinstance(other, LinearRecurrence):
            return NotImplemented
        merged: dict[int, list[int]] = {}
        for r1, c1 in self.cleared_terms:
            for r2, c2 in other.cleared_terms:
                _accumulate(merged, r1 * r2, _convolve(c1, c2))
        return LinearRecurrence(merged.items(), self.scale * other.scale, self.base * other.base)

    __rmul__ = __mul__

    def _divide(self, other: "LinearRecurrence") -> "LinearRecurrence | None":
        """self / other as a recurrence, or None when the quotient is not one.

        Long division of W_self by W_other on the roots themselves; other
        is non-zero and the group G spanned by the rational roots of both
        must not contain -1.  Then |.| is injective on G and on each of
        its cosets, so ordering terms by (|root|, X-degree) makes Z[X][G]
        an ordered domain: lead(f*g) = lead(f) * lead(g), and the roots of
        the quotient come out largest first.  The divisor is made
        primitive, so by Gauss's lemma every quotient coefficient is an
        integer, found by an exact ``divmod`` by lc(other); one that is not
        exact refuses.  So do a quotient X-degree outside [0, deg_X(self)
        - deg_X(other)] and a quotient root below min|R_self| /
        min|R_other| in size: the least terms multiply as the leads do.
        Those bounds end the loop: every remainder root is a root of self
        times ratios |R / R_lead| < 1 of other's roots, and only finitely
        many such products stay above the refusal bound.  On dense roots
        such as 1000 and 999 that can take very many steps, so once more
        than ``self.order`` quotient terms are out, every quotient root
        must also lie in the exponent box of ``_exponent_box`` (the
        Newton polytopes add), which only finitely many elements of G do.
        Roots are kept as reduced integer pairs (numerator, denominator)
        and compared by cross-multiplication, exactly.
        """
        if not self.cleared_terms:
            return LinearRecurrence(())
        content = math.gcd(*chain.from_iterable(map(itemgetter(1), other.cleared_terms)))
        divisor = other.cleared_terms
        if content > 1:
            divisor = [(root, [c // content for c in coeffs]) for root, coeffs in divisor]
        # The terms are sorted by root, so the largest |root| is at an end;
        # on a tie the first wins, as under ``max``.
        first, last = divisor[0], divisor[-1]
        lead_root, lead = first if abs(first[0]) >= abs(last[0]) else last
        others = [term for term in divisor if term[0] != lead_root]
        lc, width = lead[-1], len(lead)
        span = max(len(cs) for _, cs in self.cleared_terms) - max(len(cs) for _, cs in divisor)
        low_u = min(abs(root) for root, _ in self.cleared_terms)
        low_v = min(abs(root) for root, _ in divisor)
        remainder = {(root, 1): list(coeffs) for root, coeffs in self.cleared_terms}
        quotient: dict[tuple[int, int], list[int]] = {}
        terms, order, box = 0, self.order, None
        while remainder:
            num, den = top = next(iter(remainder))
            for key in remainder:
                if abs(key[0]) * den > abs(num) * key[1]:
                    num, den = top = key
            g = math.gcd(num, lead_root)
            num, den = num // g, den * (lead_root // g)
            if den < 0:
                num, den = -num, -den
            coeffs = remainder.pop(top)
            degree = len(coeffs) - width
            if abs(num) * low_v < low_u * den or not 0 <= degree <= span:
                return None
            q = [0] * (degree + 1)
            for k in range(degree, -1, -1):
                c, inexact = divmod(coeffs[k + width - 1], lc)
                if inexact:
                    return None
                if c:
                    q[k] = c
                    for i, x in enumerate(lead):
                        coeffs[k + i] -= c * x
            if any(coeffs[:width - 1]):
                return None
            quotient[num, den] = q
            terms += sum(map(bool, q))
            if terms > order:
                if box is None:
                    box = _exponent_box(self, other)
                    if not all(map(box, quotient)):
                        return None
                elif not box((num, den)):
                    return None
            for root, cs in others:
                g = math.gcd(root, den)
                key = (num * (root // g), den // g)
                acc = remainder.get(key)
                if acc is None:
                    if len(q) == 1:
                        # Both leads are non-zero, so the entry needs no trimming.
                        c = -q[0]
                        remainder[key] = [c * y for y in cs]
                        continue
                    acc = remainder[key] = []
                acc.extend([0] * (len(q) + len(cs) - 1 - len(acc)))
                for i, x in enumerate(q):
                    for j, y in enumerate(cs):
                        acc[i + j] -= x * y
                while acc and not acc[-1]:
                    acc.pop()
                if not acc:
                    del remainder[key]
        # With W = scale * base^n * V and W_other = content * (the primitive
        # divisor), self / other is the quotient times other.scale /
        # (self.scale * content) and (other.base / self.base)^n.
        lcm = math.lcm(*(den for _, den in quotient))
        return LinearRecurrence(
            ((num * other.base * (lcm // den), [c * other.scale for c in q])
             for (num, den), q in quotient.items()),
            self.scale * content,
            self.base * lcm,
        )

    def decimate(self, q: int, r: int) -> "LinearRecurrence":
        """The section m -> U(q*m + r); roots may merge (e.g. (-a)^q == a^q).

        W(q*m + r) = sum(C_i(q*m + r) * R_i^r * (R_i^q)^m), so the section
        has the roots R_i^q over base^q and the coefficients R_i^r *
        C_i(q*X + r) over scale * base^r: a Taylor shift C(X + r) and the
        scaling X -> q*X, all on integers.
        """
        if q < 1 or not 0 <= r < q:
            raise InputError(f"decimation needs q >= 1 and 0 <= r < q, got q={q}, r={r}")
        merged: dict[int, list[int]] = {}
        q_powers = [q**j for j in range(max((len(cs) for _, cs in self.cleared_terms), default=0))]
        for root, coeffs in self.cleared_terms:
            p = list(coeffs)
            if r:
                for i in range(len(p) - 1):
                    for j in range(len(p) - 2, i - 1, -1):
                        p[j] += r * p[j + 1]
            lift = root**r
            _accumulate(merged, root**q, [c * w * lift for c, w in zip(p, q_powers)])
        return LinearRecurrence(merged.items(), self.scale * self.base**r, self.base**q)

    # -- rendering ----------------------------------------------------------

    def render(self, var: str = "n") -> str:
        return _render_sum(
            _signed(_term_str(c, var, [(r, var)])) for r, c in reversed(self.terms)
        )

    def __eq__(self, other):
        if not isinstance(other, LinearRecurrence):
            return NotImplemented
        return (self.scale, self.base, self.cleared_terms) == (
            other.scale, other.base, other.cleared_terms)

    def __hash__(self):
        return hash((self.scale, self.base, self.cleared_terms))

    def __repr__(self):
        return f"LinearRecurrence({self.render()})"


def _exponent_box(u: LinearRecurrence, v: LinearRecurrence):
    """A test that a reduced root (num, den) of W_u / W_v lies in its exponent box.

    The integer roots, and so the numerator and denominator of every
    reduced element of their group, are products of powers of a coprime
    base b_1, .., b_t.  In a root of an exact quotient the exponent of
    each b_j lies in [min_u - min_v, max_u - max_v] over u's and v's
    roots.  A prime p divides one b_j only, and v_p = v_p(b_j) * (the
    exponent of b_j) on the group: this is the box of the prime exponents.
    """
    k = len(u.cleared_terms)
    roots = [abs(root) for rec in (u, v) for root, _ in rec.cleared_terms]
    base, rows = coprime_base(roots)
    columns = zip(base, zip(*(rows[r] for r in roots)))
    bounds = [(b, min(col[:k]) - min(col[k:]), max(col[:k]) - max(col[k:])) for b, col in columns]

    def inside(root: tuple[int, int]) -> bool:
        num, den = root
        return all(lo <= _int_valuation(num, b) - _int_valuation(den, b) <= hi
                   for b, lo, hi in bounds)

    return inside


# -- residues modulo a prime ---------------------------------------------------


def _word_digits(p: int) -> int:
    """The largest k >= 1 with p^k below 2^63, or 1."""
    return max(1, 63 // p.bit_length())


def _multiplicative_order(a: int, p: int) -> int:
    """Order of a unit a mod the prime p."""
    order = p - 1
    for q in factor_int(order):
        while order % q == 0 and pow(a, order // q, p) == 1:
            order //= q
    return order


def _period_mod_p(rec: LinearRecurrence, p: int) -> int:
    """A period of W(k) mod p over k >= 1 that divides p * (p - 1).

    The lcm of the orders of the roots that are units mod p, times p
    when a coefficient of such a root is non-constant mod p.
    """
    period = 1
    polynomial = False
    for root, coeffs in rec.cleared_terms:
        if root % p == 0:
            continue
        period = math.lcm(period, _multiplicative_order(root % p, p))
        polynomial = polynomial or any(c % p for c in coeffs[1:])
    return period * p if polynomial else period


def zero_classes(rec: LinearRecurrence, q: int, period: int | None = None):
    """(t, classes): the period t of W(k) mod the prime q from
    ``_period_mod_p``, and the residues r in 1..t with W(r) = 0 mod q.

    For k >= 1, q | W(k) exactly when k = r mod t for one of the
    classes.  A caller that already holds the period passes it.
    """
    t = _period_mod_p(rec, q) if period is None else period
    return t, [r for r, w in zip(range(1, t + 1), rec.walk(1, modulus=q)) if w == 0]


def from_closed_form(pairs) -> LinearRecurrence:
    """The sequence sum(coeff(n) * root^n) from (root, coeff) pairs over Q.

    A coeff is a UniPoly, a rational constant or a coefficient list.
    Duplicate roots merge by adding coefficients; zero coefficients are
    dropped; a zero root raises ZeroRoot.
    """
    rational = []
    for root, coeff in pairs:
        root = _fr(root)
        if root == 0:
            raise ZeroRoot("closed forms require non-zero roots")
        if not isinstance(coeff, UniPoly):
            coeff = UniPoly.constant(coeff) if isinstance(coeff, (int, Fraction)) else UniPoly(coeff)
        rational.append((root, coeff.coeffs))
    base = math.lcm(*(root.denominator for root, _ in rational))
    lcm = math.lcm(*(c.denominator for _, coeffs in rational for c in coeffs))
    merged: dict[int, list[int]] = {}
    for root, coeffs in rational:
        _accumulate(
            merged,
            root.numerator * (base // root.denominator),
            [c.numerator * (lcm // c.denominator) for c in coeffs],
        )
    return LinearRecurrence(merged.items(), lcm, base)


def constant(c) -> LinearRecurrence:
    """The constant sequence n -> c."""
    return from_closed_form([(1, _fr(c))])


def geometric(base, coeff=1) -> LinearRecurrence:
    """The sequence n -> coeff * base^n."""
    return from_closed_form([(base, _fr(coeff))])


def polynomial(coeffs) -> LinearRecurrence:
    """The sequence n -> p(n) for the given coefficient list."""
    return from_closed_form([(1, UniPoly(coeffs))])


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


# -- zero sets ---------------------------------------------------------------


class ZeroSetReport(Record):
    """Zero set as progressions plus sporadic points.

    ``progressions`` are (modulus, residue) pairs: every index in that
    class is a zero.  When ``complete`` is True, ``sporadic`` lists all
    remaining zeros and there are none at or beyond ``dominance_from``
    outside the progressions.  When False, sporadic zeros are exhaustive
    only up to the search bound.
    """

    __slots__ = ("progressions", "sporadic", "complete", "dominance_from")

    def __init__(
        self,
        progressions: tuple[tuple[int, int], ...],
        sporadic: tuple[int, ...],
        complete: bool,
        dominance_from: int | None,
    ):
        object.__setattr__(self, "progressions", progressions)
        object.__setattr__(self, "sporadic", sporadic)
        object.__setattr__(self, "complete", complete)
        object.__setattr__(self, "dominance_from", dominance_from)


def _section_cutoff(sec: LinearRecurrence, cap: int) -> int | None:
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
    terms = sec.cleared_terms
    assert terms and all(r > 0 for r, _ in terms)
    if len(terms) == 1:
        _, coeffs = terms[0]
        cutoff = 0
        for root, _ in UniPoly(coeffs).rational_roots():
            if root.denominator == 1 and root >= 0:
                cutoff = max(cutoff, int(root) + 1)
        return cutoff if cutoff <= cap + 1 else None
    beta, c_beta = terms[-1]
    others = terms[:-1]
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
        cap = (search_bound - residue) // 2
        cutoff = _section_cutoff(section, cap) if cap >= 0 else None
        scan_to = cutoff - 1 if cutoff is not None else cap
        for m, value in zip(range(scan_to + 1), section.walk(0)):
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


class MultiCoefficient(namedtuple("MultiCoefficient", ["terms"])):
    """A coefficient of ``MultiRecurrence.terms``: rational values keyed by
    (deg_m, deg_n).

    ``terms`` is a dict[tuple[int, int], Fraction].
    """

    __slots__ = ()


class MultiRecurrence:
    """Exact closed form in two indices: Q(m, n) = m_part(m) * n_root^n.

    ``m_part`` is a LinearRecurrence in m and ``n_root`` a non-zero
    rational; the cross quotient U(m) * beta^(-n) / lc(p) has this form.
    Two forms are equal when both fields are.  ``terms`` is the rational
    view (base_m, base_n, coefficient) sorted by base_m.
    """

    __slots__ = ("m_part", "n_root")

    def __init__(self, m_part: LinearRecurrence, n_root):
        """A zero n_root raises ZeroRoot."""
        n_root = _fr(n_root)
        if not n_root:
            raise ZeroRoot("closed forms require non-zero roots")
        object.__setattr__(self, "m_part", m_part)
        object.__setattr__(self, "n_root", n_root)

    def __setattr__(self, name, value):
        raise AttributeError("MultiRecurrence is immutable")

    def __reduce__(self):
        return MultiRecurrence, (self.m_part, self.n_root)

    @property
    def terms(self) -> tuple[tuple[Fraction, Fraction, MultiCoefficient], ...]:
        return tuple(
            (root, self.n_root,
             MultiCoefficient({(d, 0): c for d, c in enumerate(coeff.coeffs) if c}))
            for root, coeff in self.m_part.terms
        )

    def evaluate(self, m: int, n: int) -> Fraction:
        return self.m_part.evaluate(m) * self.n_root**n

    def render(self, vars: tuple[str, str] = ("m", "n")) -> str:
        var_m, var_n = vars
        return _render_sum(
            _signed(_term_str(coeff, var_m, [(root, var_m), (self.n_root, var_n)]))
            for root, coeff in self.m_part.terms
        )

    def __eq__(self, other):
        if not isinstance(other, MultiRecurrence):
            return NotImplemented
        return (self.m_part, self.n_root) == (other.m_part, other.n_root)

    def __hash__(self):
        return hash((self.m_part, self.n_root))

    def __repr__(self):
        return f"MultiRecurrence({self.render()})"
