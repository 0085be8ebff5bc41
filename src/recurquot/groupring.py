"""Laurent-polynomial form of recurrences over a fixed multiplicative basis.

A recurrence whose roots lie in a torsion-free group with free basis
(g_1, .., g_t) corresponds to an element of Q[X, T_1^+-1, .., T_t^+-1]:
X stands for the index n and T_i for the sequence n -> g_i^n.  The
correspondence turns pointwise sequence product into ring product, so
divisibility questions about sequences become exact polynomial algebra.
Units of the Laurent ring are the monomials q * T^a with q in Q*, and
an element *is* its split q * T^a * P into a unit and a primitive
integer polynomial P in X and the T_i: gcd and division work on the
stored P and convert nothing.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, gt, sub

from .errors import BasisMismatch, BothZero, InputError, ZeroInput
from .multiplicative import MultiplicativeBasis
from .polys import _monomial, _render_sum
from .recurrences import LinearRecurrence

# -- integer polynomials: dict[exponent tuple, int] -----------------------------
#
# Gcd and division work exactly in Z[v_0..v_{k-1}], v_0 = X and v_i = T_i,
# on the primitive parts that group-ring elements store.


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
    return list(map(max, zip(*f)))


def _zz_divide(f: dict, g: dict) -> dict | None:
    """Exact quotient f/g in Z[v_0..v_{k-1}], or None.

    Lex-order division generates the quotient's terms from the top, so
    a term outside the degree box deg(f) - deg(g) or a leading
    coefficient that the divisor's does not divide ends it early.  The
    remainder's lead is popped, as the quotient term cancels it exactly,
    and only the divisor's other terms are subtracted.
    """
    ge = max(g)
    gc = g[ge]
    tail = [(e, c) for e, c in g.items() if e != ge]
    box = list(map(sub, _degrees(f), _degrees(g)))
    if min(box) < 0:
        return None
    q: dict[tuple[int, ...], int] = {}
    r = dict(f)
    while r:
        re = max(r)
        diff = tuple(map(sub, re, ge))
        if min(diff) < 0 or any(map(gt, diff, box)):
            return None
        c, rest = divmod(r.pop(re), gc)
        if rest:
            return None
        q[diff] = c
        for e2, c2 in tail:
            key = tuple(map(add, diff, e2))
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
            key = tuple(map(add, e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


# GCDHEU (Char, Geddes and Gonnet 1989) is the only gcd.  Evaluating the
# main variable at an integer xi maps the gcd problem to one variable fewer;
# the gcd of the images, read back from its symmetric xi-adic digits and
# made primitive, is a candidate h.  With xi >= 2 * min(|f|, |g|) + 3 a
# candidate that divides both inputs is their gcd.  Write gcd(f, g) =
# h * q: then q(xi) divides the content of the digits, an integer of size
# at most xi / 2.  By Cauchy's bound every root of a coefficient of f
# (as a polynomial in v_0) lies below xi / 2 in size, so a q of positive
# degree in any variable would be non-constant or larger than xi / 2 at
# xi.  Hence q = +-1, and acceptance by exact trial division is a proof,
# not a guess.  A candidate equal to 1 skips the trial division: 1
# divides both inputs, which is all that acceptance asks of it, so the
# same argument proves that the inputs are coprime.
#
# The loop ends.  Write f = h * f' and g = h * g' with f', g' coprime.
# Outside the roots in v_0 of the resultants Res_{v_j}(f', g') and of the
# leading coefficients, f'(xi, .) and g'(xi, .) share no non-constant
# factor; their gcd is an integer s_xi, which divides a fixed non-zero S
# by Bezout over Q[v_0] on the coprime contents.  By induction on the
# number of variables the recursive call returns +-s_xi * h(xi, .), and
# once xi > 2 * S * |h|_inf its symmetric digits are exactly s_xi * h,
# whose primitive part h passes the trial division.  xi grows strictly on
# every retry, so some retry succeeds.  No budget bounds the loop yet.


def _eval_main(f: dict, xi: int) -> dict:
    """Substitute v_0 = xi, leaving a polynomial in the remaining variables."""
    powers = [1]
    for _ in range(max(f)[0]):
        powers.append(powers[-1] * xi)
    out: dict[tuple[int, ...], int] = {}
    for e, c in f.items():
        rest = e[1:]
        out[rest] = out.get(rest, 0) + c * powers[e[0]]
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


def _heu_gcd(f: dict, g: dict, k: int) -> dict:
    """Gcd of non-zero f, g in Z[v_0..v_{k-1}] by GCDHEU, with positive lead."""
    cont = math.gcd(*f.values(), *g.values())
    if k == 0:
        return {(): cont}
    if cont != 1:
        f = {e: c // cont for e, c in f.items()}
        g = {e: c // cont for e, c in g.items()}
    norm = min(max(map(abs, f.values())), max(map(abs, g.values())))
    xi = 2 * norm + 29
    while True:
        ff, gg = _eval_main(f, xi), _eval_main(g, xi)
        if ff and gg:
            h = _zz_primitive(_interpolate(_heu_gcd(ff, gg, k - 1), xi))
            if h == {(0,) * k: 1}:
                return {(0,) * k: cont}
            if _zz_divide(f, h) is not None and _zz_divide(g, h) is not None:
                return {e: c * cont for e, c in h.items()}
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011


def _zz_gcd(f: dict, g: dict, k: int) -> dict:
    """Gcd of non-zero f, g in Z[v_0..v_{k-1}], primitive with positive lead."""
    return _zz_primitive(_heu_gcd(f, g, k))


# -- group-ring elements -------------------------------------------------------


class GroupRingElement:
    """Element of Q[X, T_1^+-1, .., T_t^+-1] over a multiplicative basis.

    A non-zero element is stored as its split content * T^low * poly:
    content is a non-zero rational, low holds the least T-exponents, and
    poly maps (x_degree, t_1, .., t_t) to an integer.  poly is primitive,
    its lex-leading coefficient is positive and no T_i divides it, so the
    split is unique.  The zero element has content 0, low 0 and no poly.
    As a sequence the element evaluates to sum(c * n^x * prod(g_i^(e_i * n)))
    over its ``terms``.
    """

    __slots__ = ("basis", "content", "low", "poly")

    def __init__(self, basis: MultiplicativeBasis, terms: dict):
        """Split a map (x_degree, t_exponents) -> rational.

        x_degree is >= 0, t_exponents are arbitrary integers, one per
        generator of the basis.
        """
        clean = {}
        for (x, te), c in terms.items():
            key = (int(x), *map(int, te))
            if key[0] < 0 or len(key) != 1 + basis.rank:
                raise InputError(
                    f"group-ring term {(x, te)!r} needs x >= 0 and {basis.rank} T-exponents"
                )
            c = Fraction(c)
            if c:
                clean[key] = c
        if not clean:
            self._set(basis, Fraction(0), (0,) * basis.rank, {})
            return
        low = tuple(map(min, zip(*clean)))[1:]
        shift = (0, *low)
        den = math.lcm(*(c.denominator for c in clean.values()))
        poly = {
            tuple(a - b for a, b in zip(e, shift)): c.numerator * (den // c.denominator)
            for e, c in clean.items()
        }
        cont = _zz_content(poly)
        self._set(basis, Fraction(cont, den), low, {e: c // cont for e, c in poly.items()})

    def _set(self, *fields) -> "GroupRingElement":
        for name, value in zip(GroupRingElement.__slots__, fields):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("GroupRingElement is immutable")

    def __reduce__(self):
        return GroupRingElement._split, (self.basis, self.content, self.low, self.poly)

    # -- constructors ---------------------------------------------------

    @classmethod
    def _split(cls, basis, content, low, poly) -> "GroupRingElement":
        """content * T^low * poly, for a split that is already normal."""
        return cls.__new__(cls)._set(basis, content, low, poly)

    @classmethod
    def zero(cls, basis) -> "GroupRingElement":
        return cls._split(basis, Fraction(0), (0,) * basis.rank, {})

    # -- queries ----------------------------------------------------------

    @property
    def terms(self) -> dict:
        """The element as a map (x_degree, t_exponents) -> non-zero rational."""
        return {
            (e[0], tuple(a + b for a, b in zip(e[1:], self.low))): self.content * c
            for e, c in self.poly.items()
        }

    @property
    def is_zero(self) -> bool:
        return not self.poly

    def _check(self, other: "GroupRingElement"):
        if self.basis is not other.basis and not self.basis.same_group(other.basis):
            raise BasisMismatch("elements live over different multiplicative bases")

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check(other)
        out = self.terms
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return GroupRingElement(self.basis, out)

    def __neg__(self) -> "GroupRingElement":
        return self._split(self.basis, -self.content, self.low, self.poly)

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return GroupRingElement.zero(self.basis)
            return self._split(self.basis, self.content * other, self.low, self.poly)
        self._check(other)
        if self.is_zero or other.is_zero:
            return GroupRingElement.zero(self.basis)
        # By Gauss's lemma the product of primitive polys is primitive, its
        # lead is the product of the leads, and the prime T_i divides it
        # only if it divides a factor: the split stays normal.
        return self._split(
            self.basis,
            self.content * other.content,
            tuple(a + b for a, b in zip(self.low, other.low)),
            _zz_mul(self.poly, other.poly),
        )

    __rmul__ = __mul__

    # -- normal forms -------------------------------------------------------------

    def unit_normalized(self) -> "GroupRingElement":
        """Canonical associate: min T-exponents 0, lex-leading coefficient 1."""
        if self.is_zero:
            return self
        lead = self.poly[max(self.poly)]
        return self._split(self.basis, Fraction(1, lead), (0,) * self.basis.rank, self.poly)

    # -- rendering -------------------------------------------------------------------

    def render(self) -> str:
        return _render_sum(
            (c, _monomial([("X", x), *((f"T{i}", e) for i, e in enumerate(te, start=1))]))
            for (x, te), c in sorted(self.terms.items(), reverse=True)
        )

    def __eq__(self, other):
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return (
            self.content == other.content
            and self.low == other.low
            and self.poly == other.poly
            and self.basis.same_group(other.basis)
        )

    def __hash__(self):
        return hash((self.content, self.low, frozenset(self.poly.items())))

    def __repr__(self):
        return f"GroupRingElement({self.render()})"


# -- the correspondence ------------------------------------------------------------


def to_group_ring(
    u: LinearRecurrence, basis: MultiplicativeBasis, exponents
) -> GroupRingElement:
    """Laurent form of a recurrence whose roots lie in the basis span.

    The defining property: the result evaluates to u(n) for every n.
    ``exponents`` gives each root's exponents over the basis, in the
    order of ``u.cleared_terms`` (``basis.expressions`` by position, or
    ``basis.express``).  Distinct roots have distinct T-exponents, so no
    two terms meet, and the split is read off the stored integer form:
    low is the least T-exponents, the poly the integer coefficients over
    u's scale, divided by their content.
    """
    if u.is_zero:
        return GroupRingElement.zero(basis)
    if len(exponents) != len(u.cleared_terms):
        raise InputError(f"need one exponent tuple per root, {len(u.cleared_terms)}, "
                         f"got {len(exponents)}")
    low = tuple(map(min, zip(*exponents)))
    poly = {}
    for te, (_, coeffs) in zip(exponents, u.cleared_terms):
        shifted = tuple(map(sub, te, low))
        for d, c in enumerate(coeffs):
            if c:
                poly[(d, *shifted)] = c
    cont = _zz_content(poly)
    if cont != 1:
        poly = {e: c // cont for e, c in poly.items()}
    return GroupRingElement._split(basis, Fraction(cont, u.scale), low, poly)


def from_group_ring(f: GroupRingElement) -> LinearRecurrence:
    """Inverse of to_group_ring: collect X-coefficients per T-monomial.

    Each T-monomial T^e is the root prod(g_i^e_i) = N/D in integers
    (``reconstruct_pair``); over the lcm B of the D it is the integer root
    N * (B / D), and its coefficients are integers over the content's
    denominator.
    """
    groups: dict[tuple[int, ...], dict[int, int]] = {}
    for (x, *te), c in f.poly.items():
        groups.setdefault(tuple(a + b for a, b in zip(te, f.low)), {})[x] = c
    roots = [f.basis.reconstruct_pair(te) for te in groups]
    base = math.lcm(*(den for _, den in roots))
    num = f.content.numerator
    return LinearRecurrence(
        ((r * (base // d), [num * coeffs.get(x, 0) for x in range(max(coeffs) + 1)])
         for (r, d), coeffs in zip(roots, groups.values())),
        f.content.denominator,
        base,
    )


# -- Laurent gcd and division --------------------------------------------------------


def laurent_gcd(f: GroupRingElement, g: GroupRingElement) -> GroupRingElement:
    """Gcd up to units, returned unit-normalized.

    Contents and T-powers are units, so the gcd is that of the primitive
    parts, taken over the integers by GCDHEU.  No
    T_i divides either part, hence none divides their gcd, which is
    therefore already in normal position.
    """
    f._check(g)
    if f.is_zero and g.is_zero:
        raise BothZero("gcd(0, 0) is undefined")
    if f.is_zero:
        return g.unit_normalized()
    if g.is_zero:
        return f.unit_normalized()
    h = _zz_gcd(f.poly, g.poly, 1 + f.basis.rank)
    return GroupRingElement._split(f.basis, Fraction(1, h[max(h)]), (0,) * f.basis.rank, h)


def laurent_divide(f: GroupRingElement, g: GroupRingElement) -> GroupRingElement | None:
    """Exact quotient f/g in the Laurent ring, or None if g does not divide f.

    g divides f iff g.poly divides f.poly over Q, which by Gauss's lemma
    (g.poly is primitive) holds iff it does over Z.  The quotient poly is
    then primitive with a positive lead and no T_i factor, and the split
    of f/g is (f.content / g.content) * T^(f.low - g.low) * quotient.
    """
    f._check(g)
    if g.is_zero:
        raise ZeroInput("division by the zero element")
    if f.is_zero:
        return GroupRingElement.zero(f.basis)
    quo = _zz_divide(f.poly, g.poly)
    if quo is None:
        return None
    low = tuple(a - b for a, b in zip(f.low, g.low))
    return GroupRingElement._split(f.basis, f.content / g.content, low, quo)
