"""Test-only oracles: the index scans as they were before the cleared stepper.

``recurquot.integrality`` and ``recurquot.heights.decay_check`` now read
U and V as cleared integer sequences, through residues or one exact
integer per index.  The versions here are the earlier ones: the search
divides exact ``Fraction`` values in every cell, the obstruction scan
evaluates both reductions mod p with a ``pow`` per index over the full
window of p*(p-1) indices, the decay loop evaluates V(n) as a
``Fraction``, and the zero set evaluates each section as a ``Fraction``
and bounds its dominance cutoff with rational majorants.  They are slow
but simple, and share no scanning code with the library, so the tests
compare the library's scans against them on small inputs.
"""

import math
from fractions import Fraction

from recurquot.errors import BadPrime, HypothesisViolated, InputError, ZeroInput
from recurquot.factorization import euler_phi, is_probable_prime
from recurquot.heights import DecayReport, LogSum, SIntegerSpec, SMembership, s_membership
from recurquot.integrality import FixedDenominator, ObstructionReport, SearchHit
from recurquot.places import place_abs, valuation
from recurquot.polys import UniPoly
from recurquot.recurrences import ZeroSetReport


def _stripped_denominator(x: Fraction, s_primes) -> int:
    """Denominator of x after removing all primes of S."""
    den = x.denominator
    for p in s_primes:
        while den % p == 0:
            den //= p
    return den


def fraction_search(u, v, m_max, n_max, policy, s_spec=None, totient=False):
    """``integrality_search`` over exact Fractions, cell by cell."""
    if m_max < 1 or n_max < 1:
        raise InputError("grid bounds must be >= 1")
    s_primes = s_spec.sorted() if s_spec is not None else []
    u_values = {m: u.evaluate(m) for m in range(1, m_max + 1)}
    hits = set()

    def consider(m, n, v_value):
        u_value = u_values.get(m)
        if u_value is None:
            u_value = u.evaluate(m)
        ratio = u_value / v_value
        d_min = _stripped_denominator(ratio, s_primes)
        if isinstance(policy, FixedDenominator):
            accepted = policy.d % d_min == 0
        else:
            accepted = d_min <= n**policy.exponent
        if not accepted:
            return
        if s_membership(ratio * d_min, SIntegerSpec(s_primes)) is SMembership.NEITHER:
            raise AssertionError("hit failed re-verification")
        hits.add(SearchHit(m, n, d_min))

    for n in range(1, n_max + 1):
        v_value = v.evaluate(n)
        if v_value == 0:
            continue
        for m in range(1, m_max + 1):
            consider(m, n, v_value)
        if totient and v_value.denominator == 1 and v_value >= 1:
            consider(euler_phi(int(v_value)), n, v_value)
    return sorted(hits, key=lambda h: (h.n, h.m, h.d))


def _mod_p_terms(rec, p):
    """Reduce a recurrence mod p; returns (clearing constant, terms)."""
    clearing = 1
    reduced = []
    for root, coeff in rec.terms:
        if root.denominator % p == 0:
            raise BadPrime(f"{p} divides the denominator of root {root}")
        for c in coeff.coeffs:
            if c.denominator % p == 0:
                raise BadPrime(f"{p} divides a coefficient denominator ({c})")
            clearing = clearing * c.denominator // math.gcd(clearing, c.denominator)
        root_mod = root.numerator % p * pow(root.denominator % p, -1, p) % p
        coeff_mod = [
            c.numerator % p * pow(c.denominator % p, -1, p) % p for c in coeff.coeffs
        ]
        reduced.append((root_mod, coeff_mod))
    return clearing, reduced


def _evaluate_mod(terms, k, p):
    """Value mod p at index k >= 1."""
    total = 0
    for root_mod, coeff_mod in terms:
        if root_mod == 0:
            continue
        poly = 0
        for j, c in enumerate(coeff_mod):
            poly = (poly + c * pow(k % p, j, p)) % p
        total = (total + poly * pow(root_mod, k, p)) % p
    return total


def window_obstruction_scan(u, v, progression, p):
    """``obstruction_scan`` over the full window of p*(p-1) indices."""
    q, r = progression
    if q < 1 or not 0 <= r < q:
        raise InputError(f"need q >= 1 and 0 <= r < q, got {progression}")
    if not is_probable_prime(p):
        raise BadPrime(f"{p} is not prime")
    if u.is_zero or v.is_zero:
        raise ZeroInput("obstructions need non-zero sequences")
    clear_u, terms_u = _mod_p_terms(u, p)
    clear_v, terms_v = _mod_p_terms(v, p)
    period = p * (p - 1)
    first = r if r >= 1 else q

    def report(side=None, index=None):
        return ObstructionReport(side is None, p, (q, r), period, (clear_u, clear_v),
                                 side, index)

    for j in range(period // math.gcd(q, period)):
        n = first + q * j
        if _evaluate_mod(terms_v, n, p) != 0:
            return report("divisor", n)
    for m in range(1, period + 1):
        if _evaluate_mod(terms_u, m, p) == 0:
            return report("numerator", m)
    return report()


def fraction_decay_check(v, place, n_lo, n_hi):
    """``decay_check`` with V(n) evaluated as a Fraction at every index."""
    if v.is_zero:
        raise ZeroInput("the zero sequence has no decay profile")
    if n_lo < 1 or n_hi < n_lo:
        raise ZeroInput("need 1 <= n_lo <= n_hi")
    if all(place_abs(root, place) < 1 for root in v.roots):
        raise HypothesisViolated("every root is small at this place")
    samples = []
    skipped = []
    best = None
    best_n = None
    for n in range(n_lo, n_hi + 1):
        value = v.evaluate(n)
        if value == 0:
            skipped.append(n)
            continue
        if place.is_archimedean:
            size = abs(value)
            if size >= 1:
                continue
            ratio = LogSum.log_of(1 / size).scale(Fraction(1, n))
        else:
            val = valuation(value, place.prime)
            if val <= 0:
                continue
            ratio = LogSum({place.prime: Fraction(val, n)})
        samples.append((n, ratio))
        if best is None or ratio > best:
            best = ratio
            best_n = n
    return DecayReport(
        place=place,
        max_ratio=best if best is not None else LogSum.zero(),
        argmax_n=best_n,
        samples=tuple(samples),
        skipped_zeros=tuple(skipped),
    )


def _cauchy_root_bound(poly):
    """1 + max |a_i / a_d|: every complex root has absolute value below it."""
    lead = abs(poly.lc)
    return 1 + max(abs(c) / lead for c in poly.coeffs[:-1])


def _fraction_section_cutoff(sec, cap):
    """The dominance cutoff of one positive-root section over Fractions."""
    assert not sec.is_zero and all(r > 0 for r in sec.roots)
    if len(sec.terms) == 1:
        _, coeff = sec.terms[0]
        cutoff = 0
        for root, _ in coeff.rational_roots():
            if root.denominator == 1 and root >= 0:
                cutoff = max(cutoff, int(root) + 1)
        return cutoff if cutoff <= cap + 1 else None
    beta, u_beta = sec.terms[-1]
    others = sec.terms[:-1]
    rho = others[-1][0]
    majorants = [
        (root, UniPoly([abs(c) for c in coeff.coeffs])) for root, coeff in others
    ]
    env_degree = max(p.degree for _, p in majorants)
    m0 = 1
    if u_beta.degree >= 1:
        m0 = max(m0, int(_cauchy_root_bound(u_beta)) + 1)
    if u_beta.degree >= 2:
        derivative = UniPoly([c * i for i, c in enumerate(u_beta.coeffs) if i])
        m0 = max(m0, int(_cauchy_root_bound(derivative)) + 1)
    while m0 <= cap + 1:
        if (1 + Fraction(1, m0)) ** env_degree * rho <= beta:
            small = sum(p(m0) * root**m0 for root, p in majorants)
            big = abs(u_beta(m0)) * beta**m0
            if small < big:
                return m0
        m0 += 1
    return None


def fraction_zero_set(u, search_bound):
    """``zero_set`` with each section evaluated as a Fraction at every index."""
    if search_bound < 0:
        raise InputError("search_bound must be >= 0")
    if u.is_zero:
        return ZeroSetReport(((1, 0),), (), True, 0)
    progressions = []
    sporadic = set()
    complete = True
    frontier = 0
    for residue in (0, 1):
        section = u.decimate(2, residue)
        if section.is_zero:
            progressions.append((2, residue))
            continue
        cap = (search_bound - residue) // 2
        cutoff = _fraction_section_cutoff(section, cap) if cap >= 0 else None
        scan_to = cutoff - 1 if cutoff is not None else cap
        for m in range(0, scan_to + 1):
            if section.evaluate(m) == 0:
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
