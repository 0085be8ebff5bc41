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
from itertools import chain
from operator import add, sub

from .errors import BasisMismatch, BothZero, InputError, ZeroInput
from .multiplicative import MultiplicativeBasis
from .polys import _monomial, _render_sum
from .recurrences import LinearRecurrence

# -- integer polynomials: dict[exponent tuple, int] -----------------------------
#
# Gcd and division work exactly in Z[v_0..v_{k-1}], v_0 = X and v_i = T_i,
# on the primitive parts that group-ring elements store.  Inside they read
# each exponent tuple packed into one integer (as in M. Monagan and
# R. Pearce, *Sparse polynomial division using a heap*, 2011): k fields of
# ``width`` bits, v_0 in the top one.  Every field stays below
# 2^(width - 1), so lex order is integer order and multiplying monomials
# adds their keys.  The top bit of each field is a guard: (a | guard) - b
# keeps every guard bit exactly where a_i >= b_i, so one subtraction
# compares all exponents.  Degree vectors are packed the same way.


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


def _width(*degrees) -> int:
    """A field width that holds every exponent up to the largest of
    ``degrees`` below its guard bit."""
    return max(chain.from_iterable(degrees), default=0).bit_length() + 1


def _guard(k: int, width: int) -> int:
    """The top bit of each of k fields."""
    return ((1 << width * k) - 1) // ((1 << width) - 1) << (width - 1)


def _pack_key(e, width: int) -> int:
    key = 0
    for x in e:
        key = key << width | x
    return key


def _pack(f: dict, width: int) -> dict:
    out = {}
    for e, c in f.items():
        key = 0
        for x in e:
            key = key << width | x
        out[key] = c
    return out


def _unpack(f: dict, k: int, width: int) -> dict:
    mask = (1 << width) - 1
    shifts = range(width * (k - 1), -1, -width)
    return {tuple([key >> s & mask for s in shifts]): c for key, c in f.items()}


def _zz_divide(f: dict, g: dict) -> dict | None:
    """Exact quotient f/g in Z[v_0..v_{k-1}], or None."""
    f_degrees, g_degrees = _degrees(f), _degrees(g)
    k, width = len(f_degrees), _width(f_degrees, g_degrees)
    q = _divide_packed(
        _pack(f, width), _pack_key(f_degrees, width),
        _divisor(_pack(g, width), _pack_key(g_degrees, width)), _guard(k, width),
    )
    return None if q is None else _unpack(q, k, width)


def _divisor(g: dict, degrees: int) -> tuple:
    """What dividing by the packed g reads: its lex-leading key and
    coefficient, its other terms, and its packed degrees."""
    ge = max(g)
    return ge, g[ge], [(e, c) for e, c in g.items() if e != ge], degrees


def _divide_packed(f: dict, f_degrees: int, divisor: tuple, guard: int) -> dict | None:
    """Exact quotient of the packed f by a packed ``_divisor``, or None.

    ``f_degrees`` bounds f's degrees from above, and the divisor's are
    exact; all are below 2^(width - 1).  Lex-order division generates the
    quotient's terms from the top, so a term outside the degree box
    deg(f) - deg(g) or a leading coefficient that the divisor's does not
    divide ends it early.  The remainder's lead is popped, as the
    quotient term cancels it exactly, and only the divisor's other terms
    are subtracted.  Every remainder key stays inside f's degrees, so the
    guard bits stay sound.
    """
    ge, gc, tail, g_degrees = divisor
    # The box with its guard bits set, where deg(f) >= deg(g) in every field.
    box = (f_degrees | guard) - g_degrees
    if box & guard != guard:
        return None
    q: dict[int, int] = {}
    r = dict(f)
    while r:
        re = max(r)
        # The guard bits survive both subtractions exactly where
        # 0 <= re - ge <= box, field by field.
        diff = (re | guard) - ge
        if diff & guard != guard or (box - (diff ^ guard)) & guard != guard:
            return None
        diff ^= guard
        c, rest = divmod(r.pop(re), gc)
        if rest:
            return None
        q[diff] = c
        for e2, c2 in tail:
            key = diff + e2
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
# same argument proves that the inputs are coprime.  A candidate of
# higher degree in v_0 than an input cannot divide it.
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
#
# A v_0 that appears in neither input costs no evaluation: the gcd of
# polynomials free of v_0 is free of it, and their packed keys already
# read as keys in the other k - 1 variables.


def _eval_main(f: dict, xi: int, degree: int, shift: int) -> dict:
    """Substitute v_0 = xi in the packed f, whose v_0 field starts at bit
    ``shift`` and holds at most ``degree``, leaving the other fields."""
    powers = [1]
    for _ in range(degree):
        powers.append(powers[-1] * xi)
    low = (1 << shift) - 1
    out: dict[int, int] = {}
    for e, c in f.items():
        rest = e & low
        out[rest] = out.get(rest, 0) + c * powers[e >> shift]
    return out if all(out.values()) else {e: c for e, c in out.items() if c}


def _interpolate(gamma: dict, xi: int, shift: int) -> tuple[dict, int]:
    """The packed polynomial whose symmetric xi-adic digits, placed in the
    v_0 field at bit ``shift``, spell gamma, and its degree in v_0."""
    half = xi // 2
    out: dict[int, int] = {}
    top = 0
    for e, n in gamma.items():
        i = 0
        while n:
            d = n % xi
            if d > half:
                d -= xi
            if d:
                out[i << shift | e] = d
            n = (n - d) // xi
            i += 1
        top = max(top, i)
    return out, top - 1


def _gcd_packed(f: dict, f_degrees: int, g: dict, g_degrees: int, k: int,
                width: int) -> tuple[dict, int]:
    """GCDHEU on packed non-zero f, g in k fields: their gcd, with positive
    lead, and its packed degrees.

    ``f_degrees`` and ``g_degrees`` bound the inputs' degrees from above;
    the gcd's are exact, as its trial divisions need.
    """
    if k == 0:
        return {0: math.gcd(*f.values(), *g.values())}, 0
    shift = width * (k - 1)
    f_top, g_top = f_degrees >> shift, g_degrees >> shift
    if not f_top and not g_top:
        return _gcd_packed(f, f_degrees, g, g_degrees, k - 1, width)
    cont = math.gcd(*f.values(), *g.values())
    if cont != 1:
        f = {e: c // cont for e, c in f.items()}
        g = {e: c // cont for e, c in g.items()}
    low = (1 << shift) - 1
    norm = min(max(map(abs, f.values())), max(map(abs, g.values())))
    xi = 2 * norm + 29
    while True:
        ff, gg = _eval_main(f, xi, f_top, shift), _eval_main(g, xi, g_top, shift)
        if ff and gg:
            gamma, gamma_degrees = _gcd_packed(
                ff, f_degrees & low, gg, g_degrees & low, k - 1, width)
            h, top = _interpolate(gamma, xi, shift)
            h = _zz_primitive(h)
            if len(h) == 1 and 0 in h:
                return {0: cont}, 0
            if top <= f_top and top <= g_top:
                divisor = _divisor(h, top << shift | gamma_degrees)
                guard = _guard(k, width)
                if (_divide_packed(f, f_degrees, divisor, guard) is not None
                        and _divide_packed(g, g_degrees, divisor, guard) is not None):
                    return (h if cont == 1 else {e: c * cont for e, c in h.items()}), divisor[3]
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011


def _heu_gcd(f: dict, g: dict, k: int) -> dict:
    """Gcd of non-zero f, g in Z[v_0..v_{k-1}] by GCDHEU, with positive lead."""
    f_degrees, g_degrees = _degrees(f), _degrees(g)
    width = _width(f_degrees, g_degrees)
    h, _ = _gcd_packed(_pack(f, width), _pack_key(f_degrees, width),
                       _pack(g, width), _pack_key(g_degrees, width), k, width)
    return _unpack(h, k, width)


def _zz_gcd(f: dict, g: dict, k: int) -> dict:
    """Gcd of non-zero f, g in Z[v_0..v_{k-1}], primitive with positive lead."""
    return _zz_primitive(_heu_gcd(f, g, k))


# In one variable the packed key of v_0^d is d at any width, so a polynomial
# in X keyed by degree is already packed.


def _x_gcd(f: dict, g: dict) -> dict:
    """Gcd of non-zero f, g in Z[X] keyed by degree, primitive with positive lead."""
    f_degree, g_degree = max(f), max(g)
    h, _ = _gcd_packed(f, f_degree, g, g_degree, 1, _width((f_degree, g_degree)))
    return _zz_primitive(h)


def _x_divide(f: dict, g: dict) -> dict | None:
    """Exact quotient f/g in Z[X] keyed by degree, or None."""
    f_degree, g_degree = max(f), max(g)
    guard = _guard(1, _width((f_degree, g_degree)))
    return _divide_packed(f, f_degree, _divisor(g, g_degree), guard)


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

    def _set(self, basis, content, low, poly) -> "GroupRingElement":
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "content", content)
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "poly", poly)
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
        """The terms from the lex-leading one down, as in "X*T1 - 1/2*T2".

        Read off the split: the key e of poly stands for X^e_0 * T^(e' + low)
        with coefficient content * poly[e], reduced here in integers.
        """
        num, den = self.content.numerator, self.content.denominator
        names = ("X", *(f"T{i}" for i in range(1, self.basis.rank + 1)))
        shift = (0, *self.low)
        terms = []
        for e in sorted(self.poly, reverse=True):
            factors = _monomial(zip(names, map(add, e, shift)))
            c = num * self.poly[e]
            g = math.gcd(c, den)
            if g == den:
                terms.append((c // g, factors))
            else:
                terms.append((1 if c > 0 else -1, [f"{abs(c) // g}/{den // g}", *factors]))
        return _render_sum(terms)

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
    if any(low):
        exponents = [tuple(map(sub, te, low)) for te in exponents]
    poly = {}
    for te, (_, coeffs) in zip(exponents, u.cleared_terms):
        for d, c in enumerate(coeffs):
            if c:
                poly[(d, *te)] = c
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
    num = f.content.numerator
    groups: dict[tuple[int, ...], list[int]] = {}
    for e, c in f.poly.items():
        coeffs = groups.setdefault(e[1:], [])
        if len(coeffs) <= e[0]:
            coeffs += [0] * (e[0] + 1 - len(coeffs))
        coeffs[e[0]] = num * c
    roots = [f.basis.reconstruct_pair(tuple(map(add, te, f.low))) for te in groups]
    base = math.lcm(*(den for _, den in roots))
    return LinearRecurrence(
        ((r * (base // d), coeffs) for (r, d), coeffs in zip(roots, groups.values())),
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
