"""Grid searches for quasi-integral quotients and modular obstructions.

``integrality_search`` scans index pairs (m, n) for d * U(m)/V(n)
landing in the (S-)integers under a denominator policy, with an
optional totient mode that also tries m = phi(V(n)).
``obstruction_scan`` certifies the opposite: a prime p and a
progression of n along which p | V(n) always while p never divides
U(m), so no pair in that progression can be integral at all.

Both read U and V through their stored cleared integer sequences
(``LinearRecurrence.walk``) and work with residues: no cell builds the
exact value of U(m).  A search walks U once, modulo the lcm of its rows'
moduli, into a residue table that every row reads, when that saves steps
and the table stays within ``_TABLE_BITS``; otherwise each row walks U
modulo its own modulus.  The re-check of a hit never reads the table.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction
from itertools import chain, islice

from ._record import Record
from .errors import BadPrime, FactorizationLimit, InputError, VerificationFailed, ZeroInput
from .factorization import euler_phi, factor_int, is_probable_prime, primes_below
from .heights import SIntegerSpec, _outside_part
from .places import _int_valuation
from .recurrences import LinearRecurrence, _period_mod_p, _word_digits, zero_classes


class FixedDenominator(Record):
    """Accept a pair iff d * U(m)/V(n) is integral for this fixed d."""

    __slots__ = ("d",)

    def __init__(self, d: int):
        if d < 1:
            raise InputError("the fixed denominator must be >= 1")
        object.__setattr__(self, "d", d)


class PolynomialDenominatorBound(Record):
    """Accept iff the minimal clearing denominator is <= n^exponent.

    A polynomial bound on d keeps log d = O(log n), well inside any
    o(n) growth requirement.
    """

    __slots__ = ("exponent",)

    def __init__(self, exponent: int = 2):
        if exponent < 0:
            raise InputError("the exponent must be >= 0")
        object.__setattr__(self, "exponent", exponent)


DPolicy = FixedDenominator | PolynomialDenominatorBound


class SearchHit(Record):
    """One accepted pair: d * U(m)/V(n) is an (S-)integer, d minimal."""

    __slots__ = ("m", "n", "d")

    def __init__(self, m: int, n: int, d: int):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)

    @classmethod
    def _row(cls, n: int, row) -> list["SearchHit"]:
        """Trusted: the hits (m, n, d) for the pairs (m, d) of one row.

        Each field is set through its slot descriptor, so no hit runs
        ``__init__``.
        """
        new, set_m, set_n, set_d = object.__new__, cls.m.__set__, cls.n.__set__, cls.d.__set__
        hits = []
        for m, d in row:
            hit = new(cls)
            set_m(hit, m)
            set_n(hit, n)
            set_d(hit, d)
            hits.append(hit)
        return hits


def _hit_check(u: LinearRecurrence, primes_b, n: int, value: Fraction, s_primes):
    """A re-check of one row's hits, apart from the search.

    Only the clearing of U, with the factorization ``primes_b`` of its
    B, is shared with the search: ``value`` is V(n) evaluated afresh.
    ``check(row)`` takes the row's hits as pairs (m, d), in order, and
    checks in one loop that each d * U(m)/V(n) is an S-integer.  It
    recomputes W_u(m) = c * B^m * U(m) with one ``pow`` per root, not by
    the stepper, modulo need: the part of the S-free
    M = c * B^m * |num V(n)| that d * den V(n) does not already cover.
    need's part coprime to B depends on d alone, so it is computed once
    per distinct d.  It raises VerificationFailed at the first hit whose
    W_u(m) is not 0 there.
    """
    if value == 0:
        raise VerificationFailed(f"a hit in row n={n}, where V(n) = 0")
    rest = u.scale * abs(value.numerator)
    free = _outside_part(rest, [*s_primes, *primes_b])
    powers = [(p, k, _int_valuation(rest, p)) for p, k in primes_b.items() if p not in s_primes]
    terms = [(root, coeffs[::-1]) for root, coeffs in u.cleared_terms]

    den = value.denominator

    def check(row) -> None:
        free_needs = {}  # d -> the part of need coprime to B
        for m, d in row:
            cover = d * den
            need = free_needs.get(d)
            if need is None:
                need = free_needs[d] = free // math.gcd(cover, free)
            for p, k, e in powers:
                need *= p ** max(0, e + k * m - _int_valuation(cover, p))
            w = 0
            for root, coeffs in terms:
                poly = 0
                for c in coeffs:
                    poly = poly * m + c
                w += poly * pow(root, m, need)
            if w % need:
                raise VerificationFailed(f"hit (m={m}, n={n}, d={d}) failed re-verification")

    return check


def _capped_valuation(u: LinearRecurrence, m: int, p: int, cap: int) -> int:
    """min(v_p(W(m)), cap), or 0 when cap <= 0.

    Reads W(m) mod p^k from about a machine word on, doubling k until
    the residue is non-zero or k reaches cap, so the cost follows the
    valuation rather than the size of W(m).
    """
    k = min(cap, _word_digits(p))
    while k > 0:
        residue = next(u.walk(m, modulus=p**k))
        if residue:
            return _int_valuation(residue, p)
        if k == cap:
            return cap
        k = min(2 * k, cap)
    return 0


def _trial_primes_of(n: int, trial: list[int]) -> list[int]:
    """The primes of n >= 1 among ``trial`` (increasing), and the cofactor
    left by them when it is provably prime: below the square of the
    prime where the division stopped."""
    found, p = [], 1
    for p in trial:
        if p * p > n:
            break
        if n % p == 0:
            found.append(p)
            while n % p == 0:
                n //= p
    if 1 < n < p * p:
        found.append(n)
    return found


# The shared residue table holds W_u(m) mod L for m = 1..m_max, L the lcm
# of the rows' moduli, in at most this many bits of residues (512 KiB).
_TABLE_BITS = 1 << 22


def _row_indices(m_max: int, sieve) -> Iterable[int]:
    """The m <= m_max a row reads, increasing: all of them when ``sieve``
    is None, else m = r, r + t, ... for each class r of ``(t, classes)``."""
    if sieve is None:
        return range(1, m_max + 1)
    t, classes = sieve
    return sorted(chain.from_iterable(range(r, m_max + 1, t) for r in classes))


def _table_modulus(frees: list[int], m_max: int, walked: int) -> int | None:
    """L = lcm(frees) when one walk modulo L pays for the rows, else None.

    It pays when the rows would otherwise walk more than the table's
    m_max cells in all, and its m_max residues mod L fit in
    ``_TABLE_BITS``.
    """
    if walked <= m_max:
        return None
    modulus = 1
    for free in frees:
        modulus = math.lcm(modulus, free)
        if modulus.bit_length() * m_max > _TABLE_BITS:
            return None
    return modulus


def _residue_table(u: LinearRecurrence, m_max: int, modulus: int) -> list[int]:
    """W_u(m) mod ``modulus`` at index m, for m = 1..m_max (index 0 unused)."""
    return [0, *islice(u.walk(1, modulus=modulus), m_max)]


def integrality_search(
    u: LinearRecurrence,
    v: LinearRecurrence,
    m_max: int,
    n_max: int,
    policy: DPolicy,
    s_spec: SIntegerSpec | None = None,
    totient: bool = False,
) -> list[SearchHit]:
    """All hits on the grid [1, m_max] x [1, n_max], sorted by (n, m).

    ``d`` in a hit is the minimal clearing denominator outside S.  With
    a FixedDenominator policy a pair is accepted iff that minimal d
    divides the fixed one; with PolynomialDenominatorBound iff it is at
    most n^exponent.  Totient mode additionally tries the pair
    (phi(V(n)), n) whenever V(n) is a positive integer, even when that
    index exceeds m_max; phi is computed by exact factorization, so a
    huge V(n) can raise FactorizationLimit.  So can a prime factor of B,
    the lcm of U's root denominators, above the factoring cap
    (``factor_limit``).

    With W_u(m) = c * B^m * U(m) cleared to integers and V(n) = num/den
    in lowest terms, U(m)/V(n) = W_u(m) * den / M for M = c * B^m * |num|,
    so the reduced denominator is M / gcd(W_u(m) * den, M).  Outside S,
    M splits into a part coprime to B, which does not depend on m and
    serves as the row's modulus, and the powers of the primes of B,
    whose exponents grow with m and are read from capped valuations of
    W_u(m).

    A prime q of the row modulus that divides neither den nor, under a
    FixedDenominator, d, and under a PolynomialDenominatorBound exceeds
    n^exponent, stays in the denominator unless q | W_u(m).  So when
    W_u mod q has a period t with few zero classes (``zero_classes``),
    the row walks only the indices in those classes.  The primes tried
    are those below m_max (and below 2^20), by trial division, and the
    cofactor they leave when it is provably prime.  The row keeps the q
    with the least t + (number of classes) * ceil(m_max / t), and reads
    every cell when that is not below m_max.

    The rows share one walk of W_u: the table of W_u(m) mod L for
    m = 1..m_max, L the lcm of the rows' moduli, from which a row reads
    W_u(m) mod its modulus at the cells its sieve keeps.  The table is
    built only when the rows would otherwise walk more than m_max cells in
    all and bits(L) * m_max is at most ``_TABLE_BITS``; otherwise each row
    walks its own cells, or classes, modulo its modulus.  A totient
    candidate past m_max takes one ``walk`` of its own.

    Each row then runs as one pass.  A cell costs one remainder under a
    FixedDenominator d (free / gcd(free, d) must divide W_u(m) * den)
    and one gcd, compared with ceil(free / n^exponent), under a
    PolynomialDenominatorBound.  Only the cells accepted pay the division
    that gives d_min and read the B-part.  The row's hits are then
    re-verified together by ``_hit_check``, in one loop with a ``pow``
    per root per hit that never reads the table, before they are built
    as records.
    """
    if m_max < 1 or n_max < 1:
        raise InputError("grid bounds must be >= 1")
    s_primes = s_spec.sorted() if s_spec is not None else []
    fixed = isinstance(policy, FixedDenominator)
    primes_b = factor_int(u.base)
    # (p, v_p(B), v_p(c)) for the primes of B outside S.
    b_part = [(p, k, _int_valuation(u.scale, p)) for p, k in primes_b.items()
              if p not in s_primes]
    outside = [*s_primes, *primes_b]

    rows = []  # (n, num, den) with V(n) = num/den != 0 in lowest terms
    clearing_v = v.scale
    for n, w_v in zip(range(1, n_max + 1), v.walk(1)):
        clearing_v *= v.base
        if w_v:
            g = math.gcd(w_v, clearing_v)
            rows.append((n, w_v // g, clearing_v // g))
    if not rows:
        return []

    def shifts(num, den):
        return [_int_valuation(num, p) - _int_valuation(den, p) for p, _, _ in b_part]

    # Per m, v_p(W_u(m)) capped at the largest exponent of p in any row's
    # M: beyond that cap its exact value changes no d_min.  Read on first
    # use, for the m that pass the row's modulus.
    top = [max(s) for s in zip(*(shifts(num, den) for _, num, den in rows))]
    grid_vals: dict[int, list[int]] = {}

    def vals_at(m):
        vals = grid_vals.get(m)
        if vals is None:
            vals = grid_vals[m] = [_capped_valuation(u, m, p, c_p + m * k + t)
                                   for (p, k, c_p), t in zip(b_part, top)]
        return vals

    # A sieve prime helps only if its period is below m_max; 2^20 bounds
    # the memory the primes take when m_max is huge.
    trial = primes_below(min(m_max, 1 << 20))
    periods: dict[int, int] = {}  # q -> the period of W_u mod q
    classes_of: dict[int, list[int]] = {}  # q -> its zero classes

    def period(q):
        if q not in periods:
            try:
                periods[q] = _period_mod_p(u, q)
            except FactorizationLimit:
                # A root's order needs q - 1 factored; m_max rules q out.
                periods[q] = m_max
        return periods[q]

    def row_sieve(free, den, bound):
        """(t, classes) that hold every m <= m_max that can be a hit, or None."""
        sieve_primes = [q for q in _trial_primes_of(free, trial)
                        if den % q and (bound % q if fixed else q > bound)]
        best, chosen = m_max, None
        for q in sorted(sieve_primes, key=period):
            t = period(q)
            if t >= best:
                break
            if q not in classes_of:
                classes_of[q] = zero_classes(u, q, t)[1]
            cost = t + len(classes_of[q]) * -(-m_max // t)
            if cost < best:
                best, chosen = cost, (t, classes_of[q])
        return chosen

    plans = []  # (n, num, den, bound, free, sieve) per row
    walked = 0  # the cells the rows read
    for n, num, den in rows:
        bound = policy.d if fixed else n**policy.exponent
        free = _outside_part(u.scale * num, outside)
        sieve = row_sieve(free, den, bound)
        if sieve is None:
            walked += m_max
        else:
            t, classes = sieve
            walked += sum(len(range(r, m_max + 1, t)) for r in classes)
        plans.append((n, num, den, bound, free, sieve))
    modulus = _table_modulus([free for *_, free, _ in plans], m_max, walked)
    table = None if modulus is None else _residue_table(u, m_max, modulus)

    def row_cells(free, sieve):
        """(m, r) for every m <= m_max that can be a hit, r = W_u(m) modulo
        free or, read from the table, modulo L."""
        ms = _row_indices(m_max, sieve)
        if table is not None:
            if sieve is None:
                return zip(ms, islice(table, 1, None))
            return ((m, table[m]) for m in ms)
        if sieve is None:
            return zip(ms, u.walk(1, modulus=free))
        # The classes are increasing in 1..t, so m runs through them in
        # turn, one period at a time.
        t, classes = sieve
        walks = zip(*(u.walk(r, t, modulus=free) for r in classes))
        return zip(ms, chain.from_iterable(walks))

    hits: list[SearchHit] = []
    for n, num, den, bound, free, sieve in plans:
        cells = row_cells(free, sieve)
        if totient and den == 1 and num > 0:
            phi = euler_phi(num)
            if phi > m_max:
                cells = chain(cells, [(phi, next(u.walk(phi, modulus=free)))])
        # The part of d_min coprime to B is free / gcd(W_u(m) * den, free).
        if fixed:
            # It divides d exactly when need = free / gcd(free, d) divides
            # W_u(m) * den: prime by prime, v_p(W_u(m) * den) >=
            # v_p(free) - min(v_p(free), v_p(d)).  That is one remainder
            # per cell.
            need = free // math.gcd(free, bound)
            row = [(m, free // math.gcd(r * den, free)) for m, r in cells if not r * den % need]
        else:
            # It is at most n^e exactly when the gcd is at least free / n^e.
            least = -(-free // bound)
            row = [(m, free // g) for m, r in cells if (g := math.gcd(r * den, free)) >= least]
        if b_part and row:
            # Rejected above, d_min stays rejected: the B-part only
            # multiplies it by primes outside free.
            row_shifts = shifts(num, den)
            width = bound.bit_length()
            kept = []
            for m, d_min in row:
                for (p, k, c_p), s, t in zip(b_part, row_shifts, vals_at(m)):
                    e = c_p + m * k + s - t
                    if e > 0:
                        # p^width > bound already rejects, so larger
                        # powers of p are never built.
                        d_min *= p ** min(e, width)
                if not (bound % d_min if fixed else d_min > bound):
                    kept.append((m, d_min))
            row = kept
        if row:
            _hit_check(u, primes_b, n, v.evaluate(n), s_primes)(row)
            hits += SearchHit._row(n, row)
    return hits


# -- modular obstruction certificates -------------------------------------------


class ObstructionReport(Record):
    """Outcome of a mod-p scan along the progression n = q*k + r.

    Certified means: p divides V(n) for every index n >= 1 in the
    progression while p never divides U(m) for m >= 1.  ``period`` is
    the certified window p * (p - 1): coefficients repeat mod p and
    unit roots have order dividing p - 1, so both sequences mod p
    repeat within it.  The scan itself covers each sequence's true
    period, which divides the window, so it finds the same first
    failing index.  Certified implies d * U(m)/V(n) is never an
    integer for indices in the progression when p does not divide d.
    """

    __slots__ = (
        "certified", "prime", "progression", "period", "clearing_constants",
        "failing_side", "failing_index",
    )

    def __init__(
        self,
        certified: bool,
        prime: int,
        progression: tuple[int, int],
        period: int,
        clearing_constants: tuple[int, int],
        failing_side: str | None = None,
        failing_index: int | None = None,
    ):
        object.__setattr__(self, "certified", certified)
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "progression", progression)
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "clearing_constants", clearing_constants)
        object.__setattr__(self, "failing_side", failing_side)
        object.__setattr__(self, "failing_index", failing_index)

    @property
    def verdict(self) -> str:
        return "certified" if self.certified else "not-an-obstruction"


def obstruction_scan(
    u: LinearRecurrence,
    v: LinearRecurrence,
    progression: tuple[int, int],
    p: int,
) -> ObstructionReport:
    """Certify p | V(n) on a progression while p never divides U(m).

    Indices run over m, n >= 1 (matching the search grid).  Each side
    is scanned over one true period of its reduction mod p, which
    suffices because the reduction repeats with that period.
    """
    q, r = progression
    if q < 1 or not 0 <= r < q:
        raise InputError(f"need q >= 1 and 0 <= r < q, got {progression}")
    if not is_probable_prime(p):
        raise BadPrime(f"{p} is not prime")
    if u.is_zero or v.is_zero:
        raise ZeroInput("obstructions need non-zero sequences")
    # With p dividing neither c nor B, W(k) = c * B^k * V(k) vanishes mod p
    # exactly when V(k) does.  Roots divisible by p are allowed: their terms
    # vanish mod p at every index >= 1, and the scan never reads index 0.
    for rec in (u, v):
        if rec.base % p == 0 or rec.scale % p == 0:
            raise BadPrime(f"{p} divides a root or coefficient denominator of {rec.render()}")

    def report(failing_side=None, failing_index=None) -> ObstructionReport:
        return ObstructionReport(
            certified=failing_side is None,
            prime=p,
            progression=(q, r),
            period=p * (p - 1),
            clearing_constants=(u.scale, v.scale),
            failing_side=failing_side,
            failing_index=failing_index,
        )

    first = r if r >= 1 else q
    period_v = _period_mod_p(v, p)
    steps = period_v // math.gcd(q, period_v)
    for j, residue in zip(range(steps), v.walk(first, q, modulus=p)):
        if residue != 0:
            return report("divisor", first + q * j)
    _, classes = zero_classes(u, p)
    return report("numerator", classes[0]) if classes else report()
