"""Divisibility of recurrences decided through their Laurent forms.

Three entry points, all exact:

* hadamard_quotient: is U/V itself a recurrence?
* polynomial_clearance: find monic P with P(n)U(n)/V(n) and V(n)/P(n)
  both recurrences, or exhibit the factor of V that blocks clearance.
* cross_quotient: the two-index variant U(m)/V(n), where the variable
  blocks are independent, so clearance works iff V has a single root
  (or U is zero).

Hadamard quotients and clearance require the roots of U and V to span a
torsion-free group, the cross quotient only V's roots when V has
several.  Callers hitting TorsionGroup can decimate into sections first
(over Q the sections mod 2 have torsion-free root groups, since squares
are positive).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DivisorZero, InputError, TorsionGroup, VerificationFailed
from .groupring import (
    GroupRingElement,
    from_group_ring,
    laurent_divide,
    laurent_gcd,
    strip_x_content,
    to_group_ring,
)
from .multiplicative import MultiplicativeBasis, compute_basis, shared_factors, sign_pivot_hnf
from .polys import UniPoly
from .recurrences import LinearRecurrence, MultiRecurrence, from_closed_form, geometric


@dataclass(frozen=True)
class QuotientCertificate:
    """Witness that P(n)*U/V and V/P are both recurrences.

    ``quotient`` is one-index when U and V share the index, two-index
    for the cross problem.  ``min_denominator`` is the least d >= 1
    clearing all coefficient denominators of the quotient.
    """

    clearing_poly: UniPoly
    quotient: LinearRecurrence | MultiRecurrence
    v_over_p: LinearRecurrence
    min_denominator: int


@dataclass(frozen=True)
class NoClearance:
    """Refusal with an inspectable reason.

    For the shared-index problem ``witness`` is the unit-normalized
    non-polynomial factor of V that no P in Q[X] can absorb.  For the
    cross problem the refusal is structural (V has several roots) and
    ``detail`` explains the finiteness verdict.
    """

    reason: str
    witness: GroupRingElement | None = None
    detail: str = ""


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
    """TorsionGroup if -1 lies in the span of ``recs``' roots; positive roots factor nothing."""
    pairs = _root_pairs(*recs)
    if any(r < 0 for r, _ in pairs):
        sign_pivot_hnf(pairs)


def hadamard_quotient(u: LinearRecurrence, v: LinearRecurrence) -> LinearRecurrence | None:
    """The recurrence U/V if V divides U in the group ring, else None.

    None is a genuine negative verdict: no recurrence whose roots lie
    in the span of u's and v's roots can equal U/V pointwise.  The
    division is long division on the roots themselves, ordered by size
    (``LinearRecurrence._divide``): it needs no basis and factors
    nothing, even where it bounds the quotient's exponents over a
    coprime base of the roots.  Signed roots first run the
    sign pivot, which raises TorsionGroup if -1 is in their span.  The
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


def polynomial_clearance(
    u: LinearRecurrence, v: LinearRecurrence
) -> QuotientCertificate | NoClearance:
    """Monic P in Q[X] making P*U/V and V/P recurrences, if one exists.

    With g = gcd(u, v) in the group ring and v' = v/g, such a P exists
    iff v' is (up to a Laurent unit) an element of Q[X]: any valid P is
    a unit multiple of v', and elements of Q[X] only factor as unit
    times Q[X]-element when the unit's T-part is trivial.  The refusal
    witness is v' with its X-content removed, unit-normalized.
    """
    if v.is_zero:
        raise DivisorZero("cannot divide by the zero sequence")
    fu, fv = _laurent_forms(u, v)
    gcd = laurent_gcd(fu, fv)
    v_reduced = laurent_divide(fv, gcd)
    if v_reduced is None:
        raise VerificationFailed("the gcd does not divide the divisor")
    # The unit-normalized v' has lex-leading coefficient 1; when it lies in
    # Q[X] that coefficient is its X-lead, so v' is already the monic P.
    p_element = v_reduced.unit_normalized()
    if not p_element.is_polynomial:
        witness = strip_x_content(p_element)
        return NoClearance(
            reason="divisor-not-polynomial",
            witness=witness,
            detail=(
                "after removing the common factor, the divisor keeps the "
                f"non-polynomial part {witness.render()}; no polynomial in "
                "the index can absorb it"
            ),
        )
    clearing = p_element.x_polynomial()
    quotient_element = laurent_divide(fu * p_element, fv)
    if quotient_element is None:
        raise VerificationFailed("clearance identity failed")
    v_over_p_element = laurent_divide(fv, p_element)
    if v_over_p_element is None:
        raise VerificationFailed("divisor lost its own factor")
    quotient = from_group_ring(quotient_element)
    v_over_p = from_group_ring(v_over_p_element)
    p_rec = from_closed_form([(1, clearing)])
    if p_rec * u != quotient * v:
        raise VerificationFailed("P*U differs from the quotient times V")
    if p_rec * v_over_p != v:
        raise VerificationFailed("P times V/P does not give back V")
    return QuotientCertificate(
        clearing_poly=clearing,
        quotient=quotient,
        v_over_p=v_over_p,
        min_denominator=quotient.scale,
    )


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
            reason="multiple-roots",
            detail=(
                "the divisor has several roots in its own index, so only "
                "finitely many index pairs can make the ratio quasi-integral; "
                "no clearing polynomial exists"
            ),
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
    return QuotientCertificate(
        clearing_poly=clearing,
        quotient=quotient,
        v_over_p=v_over_p,
        min_denominator=quotient.m_part.scale,
    )


# -- torsion fallback: solve on sections ----------------------------------------


@dataclass(frozen=True)
class SectionResult:
    """Outcome of one decimated sub-problem.

    ``offsets`` is (r,) for shared-index problems and (r_u, r_v) for
    cross problems; the sub-problem replaces each index k by q*k + r.
    ``outcome`` is whatever the underlying solver returned, or the
    string "divisor-vanishes" when the decimated divisor is zero.
    """

    modulus: int
    offsets: tuple[int, ...]
    outcome: object


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

    Returns either the direct outcome or a list of SectionResult.  Each
    root is factored once per call: the sections' roots are squares of
    the failing call's.  The sections' roots are positive, so under
    hadamard and cross they need no sign pivot and factor nothing (a
    division's exponent box reads a coprime base, not primes).  Only
    clearance builds a basis there, shared by sections with equal roots.
    """
    solver = _solver(mode)
    with shared_factors() as add_squares:
        try:
            return solver(u, v)
        except TorsionGroup:
            if not decimate:
                raise
            add_squares()
            return solve_on_sections(u, v, mode)
