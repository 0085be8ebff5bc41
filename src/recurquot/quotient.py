"""Divisibility of recurrences, decided by long division on their roots.

Three entry points, all exact:

* hadamard_quotient: is U/V itself a recurrence?
* polynomial_clearance: find monic P with P(n)U(n)/V(n) and V(n)/P(n)
  both recurrences, or exhibit the factor of V that blocks clearance.
* cross_quotient: the two-index variant U(m)/V(n), where the variable
  blocks are independent, so clearance works iff V has a single root
  (or U is zero).

Only a clearance refusal builds Laurent forms, for its witness.
Hadamard quotients and clearance require the roots of U and V to span a
torsion-free group, the cross quotient only V's roots when V has
several.  Callers hitting TorsionGroup can decimate into sections first
(over Q the sections mod 2 have torsion-free root groups, since squares
are positive).
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .errors import DivisorZero, InputError, TorsionGroup, VerificationFailed
from .groupring import (
    _x_divide,
    _x_gcd,
    _zz_primitive,
    from_group_ring,
    laurent_divide,
    laurent_gcd,
    to_group_ring,
)
from .multiplicative import MultiplicativeBasis, compute_basis, sign_pivot_hnf
from .polys import UniPoly
from .recurrences import LinearRecurrence, MultiRecurrence, from_closed_form, geometric


class QuotientCertificate(Record):
    """Witness that P(n)*U/V and V/P are both recurrences.

    ``quotient`` is one-index when U and V share the index, two-index
    for the cross problem.  ``min_denominator`` is the least d >= 1
    clearing all coefficient denominators of the quotient.
    """

    __slots__ = ("clearing_poly", "quotient", "v_over_p", "min_denominator")


class NoClearance(Record):
    """Refusal with an inspectable reason.

    For the shared-index problem ``witness`` is the unit-normalized
    non-polynomial factor of V that no P in Q[X] can absorb.  For the
    cross problem the refusal is structural (V has several roots) and
    ``detail`` says only what that proves: no P(n) makes both
    P(n)U(m)/V(n) and V(n)/P(n) recurrences.
    """

    __slots__ = ("reason", "witness", "detail")
    _defaults = {"witness": None, "detail": ""}


def combined_basis(u: LinearRecurrence, v: LinearRecurrence) -> MultiplicativeBasis:
    """Canonical basis of the group spanned by all roots of u and v.

    The inputs are the integer roots over their bases, u's and then v's,
    so ``expressions`` lists u's roots first.
    """
    return compute_basis(pairs=_root_pairs(u, v))


def _root_pairs(*recs: LinearRecurrence) -> tuple[tuple[int, int], ...]:
    return tuple((r, rec.base) for rec in recs for r, _ in rec.cleared_terms)


def _laurent_forms(u: LinearRecurrence, v: LinearRecurrence):
    """u and v in the group ring of their combined basis.

    Each root's exponents are read by position from the basis.
    """
    basis = combined_basis(u, v)
    k = len(u.cleared_terms)
    return (to_group_ring(u, basis, basis.expressions[:k]),
            to_group_ring(v, basis, basis.expressions[k:]))


def _require_torsion_free(*recs: LinearRecurrence) -> None:
    """TorsionGroup if -1 lies in the span of ``recs``' roots.

    Terms are sorted by root, so a negative root, if any, comes first;
    positive roots skip the sign pivot, which reads the roots over their
    coprime base and factors nothing.
    """
    if any(rec.cleared_terms and rec.cleared_terms[0][0] < 0 for rec in recs):
        sign_pivot_hnf(_root_pairs(*recs))


def hadamard_quotient(u: LinearRecurrence, v: LinearRecurrence) -> LinearRecurrence | None:
    """The recurrence U/V if V divides U in the group ring, else None.

    None is a genuine negative verdict: no recurrence whose roots lie
    in the span of u's and v's roots can equal U/V pointwise.  The
    division is long division on the roots themselves, ordered by size
    (``LinearRecurrence._divide``): it needs no basis and factors
    nothing, even where it bounds the quotient's exponents over a
    coprime base of the roots.  Signed roots first run the sign pivot,
    over the same kind of base, which raises TorsionGroup if -1 is in
    their span.  The
    quotient is multiplied back before it is returned.
    """
    if v.is_zero:
        raise DivisorZero("cannot divide by the zero sequence")
    if u.is_zero:
        return LinearRecurrence(())
    _require_torsion_free(u, v)
    result = u._divide(v)
    if result is None:
        return None
    if result * v != u:
        raise VerificationFailed("quotient times divisor does not give back the dividend")
    return result


def _x_content(rec: LinearRecurrence, content: dict | None = None) -> dict:
    """The gcd of ``content`` and rec's coefficient polynomials, or ``content``.

    Polynomials in X are integer dicts keyed by degree; the gcd is primitive
    with a positive lead.  It takes the shortest columns first and stops at 1.
    """
    for coeffs in sorted((coeffs for _, coeffs in rec.cleared_terms), key=len):
        if content == {0: 1}:
            break
        column = {d: c for d, c in enumerate(coeffs) if c}
        content = _zz_primitive(column) if content is None else _x_gcd(content, column)
    return content


def _x_coeffs(poly: dict) -> list[int]:
    return [poly.get(d, 0) for d in range(max(poly) + 1)]


def _divide_by_x(rec: LinearRecurrence, poly: dict) -> LinearRecurrence:
    """rec / poly(n) for a divisor poly of rec's X-content."""
    if poly == {0: 1}:
        return rec
    out = rec._divide(LinearRecurrence(((1, _x_coeffs(poly)),)))
    if out is None:
        raise VerificationFailed("an X-content does not divide its own sequence")
    return out


def polynomial_clearance(
    u: LinearRecurrence, v: LinearRecurrence
) -> QuotientCertificate | NoClearance:
    """Monic P in Q[X] making P*U/V and V/P recurrences, if one exists.

    Without -1 among the roots, Q[X][G] over their group G is a Laurent
    ring over Q[X], a UFD in which the primes of Q[X] stay prime.  Write
    V = c_V * V' with c_V the X-content of V.  A valid P divides c_V, and
    V' divides V/P, which divides U; conversely P = c_V works when V'
    divides U.  So the division W = U/V' on the roots decides it, with no
    basis and no gcd.  The least P is c_V/c, c = gcd(cont_X(W), c_V), made
    monic by its lead lc: the quotient is W/(c * lc) and V/P = lc * V/p.
    A refusal's witness is V'/gcd(U, V') in the group ring, unit-normalized:
    no unit, as V' does not divide U, and of X-content 1, so two roots at
    least.
    """
    if v.is_zero:
        raise DivisorZero("cannot divide by the zero sequence")
    _require_torsion_free(u, v)
    c_v = _x_content(v)
    v_bar = _divide_by_x(v, c_v)
    w = u._divide(v_bar)
    if w is None:
        fu, fv = _laurent_forms(u, v_bar)
        witness = laurent_divide(fv, laurent_gcd(fu, fv))
        if witness is None:
            raise VerificationFailed("the gcd does not divide the divisor")
        witness = witness.unit_normalized()
        if len(from_group_ring(witness).cleared_terms) < 2:
            raise VerificationFailed("the refusal witness has fewer than two roots")
        return NoClearance(
            "divisor-not-polynomial",
            witness,
            "after removing the common factor, the divisor keeps the "
            f"non-polynomial part {witness.render()}; no polynomial in "
            "the index can absorb it",
        )
    c = _x_content(w, c_v)
    p = _x_divide(c_v, c)
    lc = p[max(p)]
    clearing = UniPoly(_x_coeffs(p)).monic()
    quotient = _divide_by_x(w, c) * Fraction(1, lc)
    v_over_p = _divide_by_x(v, p) * lc
    p_rec = from_closed_form([(1, clearing)])
    if p_rec * u != quotient * v:
        raise VerificationFailed("P*U differs from the quotient times V")
    if p_rec * v_over_p != v:
        raise VerificationFailed("P times V/P does not give back V")
    return QuotientCertificate(clearing, quotient, v_over_p, quotient.scale)


def cross_quotient(
    u: LinearRecurrence, v: LinearRecurrence
) -> QuotientCertificate | NoClearance:
    """Clearance for U(m)/V(n) with independent indices.

    U(m) and V(n) occupy disjoint variable blocks of the two-index
    group ring, so no cancellation between them is possible: for U != 0
    a clearing P exists iff V(n) = p(n) * beta^n has a single root.  Then
    P is p made monic, the quotient U(m) * beta^(-n) / lc(p) is stored as
    its m-part U / lc(p) times its n-root 1 / beta, and V/P = lc(p) *
    beta^n; all three are multiplied back, whatever the roots are.  So
    only a V with several roots runs the sign pivot, on V's roots alone:
    the refusal reads U at one m0 with U(m0) != 0.  A zero U over such
    a V gets P = 1, the zero quotient and V/P = V.
    """
    if v.is_zero:
        raise DivisorZero("cannot divide by the zero sequence")
    if len(v.cleared_terms) > 1:
        if u.is_zero:
            return QuotientCertificate(UniPoly([1]), MultiRecurrence(u, 1), v, 1)
        _require_torsion_free(v)
        return NoClearance(
            "multiple-roots",
            None,
            "the divisor has several roots in its own index, so no "
            "polynomial P(n) makes both P(n)*U(m)/V(n) a two-index "
            "recurrence and V(n)/P(n) a recurrence",
        )
    beta, p = v.terms[0]
    clearing = p.monic()
    lead = p.lc
    quotient = MultiRecurrence(u * (1 / lead), 1 / beta)
    v_over_p = geometric(beta, lead)
    p_rec = from_closed_form([(1, clearing)])
    # U = lc(p) * m_part and n_root^n * V = lc(p) * P give P*U = Q*V.
    if quotient.m_part * lead != u:
        raise VerificationFailed("lc(p) times the quotient's m-part does not give back U")
    if geometric(quotient.n_root) * v != p_rec * lead:
        raise VerificationFailed("the quotient's n-root times V differs from lc(p) * P")
    if p_rec * v_over_p != v:
        raise VerificationFailed("P times V/P does not give back V")
    return QuotientCertificate(clearing, quotient, v_over_p, quotient.m_part.scale)


# -- torsion fallback: solve on sections ----------------------------------------


class SectionResult(Record):
    """Outcome of one decimated sub-problem.

    ``offsets`` is (r,) for shared-index problems and (r_u, r_v) for
    cross problems; the sub-problem replaces each index k by q*k + r.
    ``outcome`` is whatever the underlying solver returned, or the
    string "divisor-vanishes" when the decimated divisor is zero.
    """

    __slots__ = ("modulus", "offsets", "outcome")


def _solver(mode: str):
    """The solver for a mode name.

    The table is built per call from the module's names, so a wrapper
    set on them after import (as ``bench/tracing.py`` does) is the one
    that runs.
    """
    solvers = {
        "hadamard": hadamard_quotient,
        "clearance": polynomial_clearance,
        "cross": cross_quotient,
    }
    if mode not in solvers:
        raise InputError(f"unknown mode {mode!r}; expected one of: {', '.join(solvers)}")
    return solvers[mode]


def solve_on_sections(u: LinearRecurrence, v: LinearRecurrence, mode: str) -> list[SectionResult]:
    """Split indices into progressions mod 2 and solve each section.

    Over Q the only root of unity besides 1 is -1, so the modulus 2
    always removes torsion: decimated roots are squares, and the section
    root groups are positive.
    """
    solver = _solver(mode)
    if mode == "cross":
        sections = [((ru, rv), ru, rv) for ru in range(2) for rv in range(2)]
    else:
        sections = [((r,), r, r) for r in range(2)]
    results = []
    for offsets, ru, rv in sections:
        u_sec = u.decimate(2, ru)
        v_sec = v.decimate(2, rv)
        if v_sec.is_zero:
            results.append(SectionResult(2, offsets, "divisor-vanishes"))
            continue
        results.append(SectionResult(2, offsets, solver(u_sec, v_sec)))
    return results


def solve_with_torsion_fallback(
    u: LinearRecurrence,
    v: LinearRecurrence,
    mode: str,
    decimate: bool = False,
):
    """Run a solver; on TorsionGroup optionally retry on sections mod 2.

    Returns either the direct outcome or a list of SectionResult.  The
    failing first attempt reads its roots over a coprime base, found by
    gcds, and the sections' roots are positive, so they need no sign
    pivot: nothing is factored, whatever the mode.
    """
    solver = _solver(mode)
    try:
        return solver(u, v)
    except TorsionGroup:
        if not decimate:
            raise
        return solve_on_sections(u, v, mode)
