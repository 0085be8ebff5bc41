"""Laurent-polynomial form of recurrences over a fixed multiplicative basis.

A recurrence whose roots lie in a torsion-free group with free basis
(g_1, .., g_t) corresponds to an element of Q[X, T_1^+-1, .., T_t^+-1]:
X stands for the index n and T_i for the sequence n -> g_i^n.  The
correspondence turns pointwise sequence product into ring product, so
divisibility questions about sequences become exact polynomial algebra.
Units of the Laurent ring are the monomials q * T^a with q in Q*.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import BasisMismatch, BothZero, VerificationFailed, ZeroInput
from .multiplicative import MultiplicativeBasis
from .polys import UniPoly
from .recurrences import LinearRecurrence, from_closed_form

# -- integer polynomials: dict[exponent tuple, int] -----------------------------
#
# Gcd and division work in Z[v_0..v_{k-1}]: inputs are split into a
# rational constant times a primitive integer polynomial.  The gcd tries
# GCDHEU first, and a primitive PRS over the integers takes over when it
# gives up.  Every answer is exact.


def _zz_content(f: dict) -> int:
    """Integer content of f, signed like its lex-leading coefficient."""
    cont = math.gcd(*f.values())
    return cont if f[max(f)] > 0 else -cont


def _zz_primitive(f: dict) -> dict:
    """f divided by its integer content, signed so the lex-leading term is positive."""
    cont = _zz_content(f)
    if cont == 1:
        return f
    return {e: c // cont for e, c in f.items()}


def _degrees(f: dict) -> list[int]:
    return [max(col) for col in zip(*f)]


def _zz_divide(f: dict, g: dict) -> dict | None:
    """Exact quotient f/g in Z[v_0..v_{k-1}], or None.

    Lex-order division generates the quotient's terms from the top, so
    a term outside the degree box deg(f) - deg(g) or a leading
    coefficient that the divisor's does not divide ends it early.
    """
    ge = max(g)
    gc = g[ge]
    box = [a - b for a, b in zip(_degrees(f), _degrees(g))]
    if any(b < 0 for b in box):
        return None
    q: dict[tuple[int, ...], int] = {}
    r = dict(f)
    while r:
        re = max(r)
        diff = tuple(a - b for a, b in zip(re, ge))
        if any(d < 0 or d > b for d, b in zip(diff, box)):
            return None
        c, rest = divmod(r[re], gc)
        if rest:
            return None
        q[diff] = c
        for e2, c2 in g.items():
            key = tuple(a + b for a, b in zip(diff, e2))
            v = r.get(key, 0) - c * c2
            if v:
                r[key] = v
            else:
                del r[key]
    return q


def _zz_mul(f: dict, g: dict) -> dict:
    out: dict[tuple[int, ...], int] = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


# GCDHEU (Char, Geddes and Gonnet 1989).  Evaluating the main variable
# at an integer xi maps the gcd problem to one variable fewer; the gcd
# of the images, read back from its symmetric xi-adic digits and made
# primitive, is a candidate h.  With xi >= 2 * min(|f|, |g|) + 3 a
# candidate that divides both inputs is their gcd.  Write gcd(f, g) =
# h * q: then q(xi) divides the content of the digits, an integer of size
# at most xi / 2.  By Cauchy's bound every root of a coefficient of f
# (as a polynomial in v_0) lies below xi / 2 in size, so a q of positive
# degree in any variable would be non-constant or larger than xi / 2 at
# xi.  Hence q = +-1, and acceptance by exact trial division is a proof,
# not a guess.
_HEU_TRIES = 6


def _eval_main(f: dict, xi: int) -> dict:
    """Substitute v_0 = xi, leaving a polynomial in the remaining variables."""
    powers = [1]
    for _ in range(max(e[0] for e in f)):
        powers.append(powers[-1] * xi)
    out: dict[tuple[int, ...], int] = {}
    for e, c in f.items():
        out[e[1:]] = out.get(e[1:], 0) + c * powers[e[0]]
    return {e: c for e, c in out.items() if c}


def _interpolate(gamma: dict, xi: int) -> dict:
    """The polynomial in v_0 whose symmetric xi-adic digits spell gamma."""
    half = xi // 2
    out: dict[tuple[int, ...], int] = {}
    for e, n in gamma.items():
        i = 0
        while n:
            d = n % xi
            if d > half:
                d -= xi
            if d:
                out[(i,) + e] = d
            n = (n - d) // xi
            i += 1
    return out


def _heu_gcd(f: dict, g: dict, k: int) -> dict | None:
    """Gcd of non-zero f, g in Z[v_0..v_{k-1}] by GCDHEU, or None when it gives up."""
    cont = math.gcd(*f.values(), *g.values())
    if k == 0:
        return {(): cont}
    if cont != 1:
        f = {e: c // cont for e, c in f.items()}
        g = {e: c // cont for e, c in g.items()}
    norm = min(max(map(abs, f.values())), max(map(abs, g.values())))
    xi = 2 * norm + 29
    for _ in range(_HEU_TRIES):
        ff = _eval_main(f, xi)
        gg = _eval_main(g, xi)
        if ff and gg:
            gamma = _heu_gcd(ff, gg, k - 1)
            if gamma is None:
                return None
            h = _zz_primitive(_interpolate(gamma, xi))
            if _zz_divide(f, h) is not None and _zz_divide(g, h) is not None:
                return {e: c * cont for e, c in h.items()}
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
    return None


# The fallback: a recursive primitive PRS in v_0.  Contents are gcds in
# one variable fewer, down to math.gcd of integers, so every remainder
# is made primitive and coefficient size stays bounded by the gcd's.


def _split_main(f: dict) -> dict[int, dict]:
    """View a k-variable poly as main-variable map deg -> (k-1)-var coeff."""
    out: dict[int, dict] = {}
    for e, c in f.items():
        out.setdefault(e[0], {})[e[1:]] = c
    return out


def _content(parts: dict[int, dict], k: int) -> dict:
    polys = iter(parts.values())
    out = next(polys)
    for p in polys:
        out = _prs_gcd(out, p, k)
    return out


def _primitive(parts: dict[int, dict], cont: dict) -> dict[int, dict]:
    out = {}
    for d, c in parts.items():
        quo = _zz_divide(c, cont)
        if quo is None:
            raise VerificationFailed("content failed to divide its own polynomial")
        out[d] = quo
    return out


def _prem(f_parts: dict[int, dict], g_parts: dict[int, dict]) -> dict[int, dict]:
    """Pseudo-remainder in the main variable (premultipliers dropped;
    callers take primitive parts, which absorbs them)."""
    dg = max(g_parts)
    lg = g_parts[dg]
    r = f_parts
    while r and max(r) >= dg:
        dr = max(r)
        lr = r[dr]
        nxt = {d: _zz_mul(c, lg) for d, c in r.items()}
        for d, c in g_parts.items():
            key = d + dr - dg
            merged = nxt.setdefault(key, {})
            for e, v in _zz_mul(c, lr).items():
                w = merged.get(e, 0) - v
                if w:
                    merged[e] = w
                else:
                    del merged[e]
        r = {d: c for d, c in nxt.items() if c}
    return r


def _prs_gcd(f: dict, g: dict, k: int) -> dict:
    """Gcd of non-zero f, g in Z[v_0..v_{k-1}] by a primitive PRS, up to sign."""
    if k == 0:
        return {(): math.gcd(f[()], g[()])}
    fm = _split_main(f)
    gm = _split_main(g)
    f_cont = _content(fm, k - 1)
    g_cont = _content(gm, k - 1)
    cont = _prs_gcd(f_cont, g_cont, k - 1)
    fp = _primitive(fm, f_cont)
    gp = _primitive(gm, g_cont)
    while gp:
        rem = _prem(fp, gp)
        fp, gp = gp, (_primitive(rem, _content(rem, k - 1)) if rem else {})
    return {(d,) + e: c for d, sub in fp.items() for e, c in _zz_mul(sub, cont).items()}


def _zz_gcd(f: dict, g: dict, k: int) -> dict:
    """Gcd of non-zero f, g in Z[v_0..v_{k-1}], primitive with positive lead."""
    h = _heu_gcd(f, g, k)
    if h is None:
        h = _prs_gcd(f, g, k)
        if _zz_divide(f, h) is None or _zz_divide(g, h) is None:
            raise VerificationFailed("the PRS gcd does not divide its inputs")
    return _zz_primitive(h)


# -- group-ring elements -------------------------------------------------------


class GroupRingElement:
    """Element of Q[X, T_1^+-1, .., T_t^+-1] over a multiplicative basis.

    Terms map (x_degree, t_exponents) to a non-zero rational; x_degree
    is >= 0, t_exponents are arbitrary integers of length basis.rank.
    As a sequence the element evaluates to
    sum(c * n^x * prod(g_i^(e_i * n))).
    """

    __slots__ = ("basis", "terms")

    def __init__(self, basis: MultiplicativeBasis, terms: dict):
        clean = {}
        for (x, te), c in terms.items():
            c = Fraction(c)
            if c == 0:
                continue
            te = tuple(int(v) for v in te)
            assert x >= 0 and len(te) == basis.rank
            clean[(int(x), te)] = c
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("GroupRingElement is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, basis) -> "GroupRingElement":
        return cls(basis, {})

    @classmethod
    def from_rational(cls, basis, c) -> "GroupRingElement":
        return cls(basis, {(0, (0,) * basis.rank): Fraction(c)})

    @classmethod
    def from_poly(cls, basis, poly: UniPoly) -> "GroupRingElement":
        zero_t = (0,) * basis.rank
        return cls(basis, {(d, zero_t): c for d, c in enumerate(poly.coeffs)})

    # -- queries ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_unit(self) -> bool:
        """Units are the single monomials q * T^a with no X part."""
        if len(self.terms) != 1:
            return False
        (x, _), = self.terms.keys()
        return x == 0

    @property
    def is_polynomial(self) -> bool:
        """True when no T variable appears (an element of Q[X])."""
        return all(all(e == 0 for e in te) for _, te in self.terms)

    def x_polynomial(self) -> UniPoly:
        assert self.is_polynomial
        coeffs: dict[int, Fraction] = {}
        for (x, _), c in self.terms.items():
            coeffs[x] = c
        top = max(coeffs, default=-1)
        return UniPoly([coeffs.get(d, Fraction(0)) for d in range(top + 1)])

    def _check(self, other: "GroupRingElement"):
        if self.basis is not other.basis and not self.basis.same_group(other.basis):
            raise BasisMismatch("elements live over different multiplicative bases")

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, Fraction(0)) + c
        return GroupRingElement(self.basis, out)

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement(self.basis, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return GroupRingElement(
                self.basis, {k: c * other for k, c in self.terms.items()}
            )
        self._check(other)
        out: dict[tuple[int, tuple[int, ...]], Fraction] = {}
        for (x1, t1), c1 in self.terms.items():
            for (x2, t2), c2 in other.terms.items():
                key = (x1 + x2, tuple(a + b for a, b in zip(t1, t2)))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return GroupRingElement(self.basis, out)

    __rmul__ = __mul__

    # -- sequence view ----------------------------------------------------------

    def evaluate(self, n: int) -> Fraction:
        out = Fraction(0)
        cache: dict[tuple[int, ...], Fraction] = {}
        for (x, te), c in self.terms.items():
            if te not in cache:
                cache[te] = self.basis.reconstruct(te)
            out += c * Fraction(n) ** x * cache[te] ** n
        return out

    # -- normal forms -------------------------------------------------------------

    def min_t_exponents(self) -> tuple[int, ...]:
        assert self.terms
        rank = self.basis.rank
        return tuple(
            min(te[i] for _, te in self.terms) for i in range(rank)
        )

    def t_shift(self, shift: tuple[int, ...]) -> "GroupRingElement":
        """Multiply by the unit T^shift."""
        return GroupRingElement(
            self.basis,
            {
                (x, tuple(a + s for a, s in zip(te, shift))): c
                for (x, te), c in self.terms.items()
            },
        )

    def unit_normalized(self) -> "GroupRingElement":
        """Canonical associate: min T-exponents 0, lex-leading coefficient 1."""
        if self.is_zero:
            return self
        shift = tuple(-m for m in self.min_t_exponents())
        shifted = self.t_shift(shift)
        lead_key = max(shifted.terms)
        lead = shifted.terms[lead_key]
        return GroupRingElement(
            self.basis, {k: c / lead for k, c in shifted.terms.items()}
        )

    # -- rendering -------------------------------------------------------------------

    def render(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for (x, te), c in sorted(self.terms.items(), reverse=True):
            factors = []
            if x == 1:
                factors.append("X")
            elif x > 1:
                factors.append(f"X^{x}")
            for i, e in enumerate(te, start=1):
                if e == 1:
                    factors.append(f"T{i}")
                elif e != 0:
                    factors.append(f"T{i}^{e}")
            if not factors or abs(c) != 1:
                factors.insert(0, str(abs(c)))
            body = "*".join(factors)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __eq__(self, other):
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return self.basis.same_group(other.basis) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def __repr__(self):
        return f"GroupRingElement({self.render()})"


# -- the correspondence ------------------------------------------------------------


def to_group_ring(u: LinearRecurrence, basis: MultiplicativeBasis) -> GroupRingElement:
    """Laurent form of a recurrence; every root must lie in the basis span.

    The defining property: the result evaluates to u(n) for every n.
    """
    terms: dict[tuple[int, tuple[int, ...]], Fraction] = {}
    for root, coeff in u.terms:
        te = basis.express(root)
        for d, c in enumerate(coeff.coeffs):
            if c != 0:
                terms[(d, te)] = terms.get((d, te), Fraction(0)) + c
    return GroupRingElement(basis, terms)


def from_group_ring(f: GroupRingElement) -> LinearRecurrence:
    """Inverse of to_group_ring: collect X-coefficients per T-monomial."""
    groups: dict[tuple[int, ...], dict[int, Fraction]] = {}
    for (x, te), c in f.terms.items():
        groups.setdefault(te, {})[x] = c
    pairs = []
    for te, coeffs in groups.items():
        root = f.basis.reconstruct(te)
        top = max(coeffs)
        poly = UniPoly([coeffs.get(d, Fraction(0)) for d in range(top + 1)])
        pairs.append((root, poly))
    return from_closed_form(pairs)


# -- Laurent gcd and division --------------------------------------------------------


def _zz_clear(f: GroupRingElement) -> tuple[Fraction, dict, tuple[int, ...]]:
    """Split non-zero f as c * T^low * P with c rational, P in Z[X, T].

    low holds the least T-exponents, so no T_i divides P; P is primitive
    with a positive lex-leading coefficient, keyed by (x, t_1, .., t_t).
    """
    low = f.min_t_exponents()
    den = math.lcm(*(c.denominator for c in f.terms.values()))
    poly = {
        (x, *(a - b for a, b in zip(te, low))): c.numerator * (den // c.denominator)
        for (x, te), c in f.terms.items()
    }
    cont = _zz_content(poly)
    return Fraction(cont, den), {e: c // cont for e, c in poly.items()}, low


def laurent_gcd(f: GroupRingElement, g: GroupRingElement) -> GroupRingElement:
    """Gcd up to units, returned unit-normalized.

    The T variables are units, so gcds are computed in the polynomial
    ring after clearing negative exponents; no T_i divides either
    cleared input, hence none divides the gcd, which is therefore
    already in normal position.  Denominators are cleared too, and the
    gcd is taken over the integers (GCDHEU, then a primitive PRS).
    """
    f._check(g)
    if f.is_zero and g.is_zero:
        raise BothZero("gcd(0, 0) is undefined")
    if f.is_zero:
        return g.unit_normalized()
    if g.is_zero:
        return f.unit_normalized()
    h = _zz_gcd(_zz_clear(f)[1], _zz_clear(g)[1], 1 + f.basis.rank)
    lead = h[max(h)]
    element = GroupRingElement(
        f.basis, {(e[0], e[1:]): Fraction(c, lead) for e, c in h.items()}
    )
    return element.unit_normalized()


def laurent_divide(f: GroupRingElement, g: GroupRingElement) -> GroupRingElement | None:
    """Exact quotient f/g in the Laurent ring, or None if g does not divide f.

    With f = c_f * T^a * P_f and g = c_g * T^b * P_g as in ``_zz_clear``,
    g divides f iff P_g divides P_f over Q, which by Gauss's lemma (P_g
    is primitive) holds iff it does over Z; the quotient is then
    (c_f / c_g) * T^(a - b) * P_f / P_g.
    """
    f._check(g)
    if g.is_zero:
        raise ZeroInput("division by the zero element")
    if f.is_zero:
        return GroupRingElement.zero(f.basis)
    cf, pf, f_low = _zz_clear(f)
    cg, pg, g_low = _zz_clear(g)
    quo = _zz_divide(pf, pg)
    if quo is None:
        return None
    scale = cf / cg
    shift = tuple(a - b for a, b in zip(f_low, g_low))
    return GroupRingElement(
        f.basis,
        {(e[0], tuple(t + s for t, s in zip(e[1:], shift))): scale * c for e, c in quo.items()},
    )
