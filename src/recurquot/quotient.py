"""Divisibility of recurrences decided through their Laurent forms.

Three entry points, all exact:

* hadamard_quotient: is U/V itself a recurrence?
* polynomial_clearance: find monic P with P(n)U(n)/V(n) and V(n)/P(n)
  both recurrences, or exhibit the factor of V that blocks clearance.
* cross_quotient: the two-index variant U(m)/V(n), where the variable
  blocks are independent, so clearance works iff V has a single root.

All three require the combined root group to be torsion-free; callers
hitting TorsionGroup can decimate into sections first (over Q the
sections mod 2 always have torsion-free root groups, since squares are
positive).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DivisorZero, InputError, TorsionGroup, VerificationFailed
from .groupring import (
    GroupRingElement,
    from_group_ring,
    laurent_divide,
    laurent_gcd,
    to_group_ring,
)
from .multiplicative import MultiplicativeBasis, compute_basis
from .polys import BiPoly, UniPoly, poly_gcd
from .recurrences import LinearRecurrence, MultiRecurrence, multi_from_closed_form


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


def combined_basis(
    u: LinearRecurrence, v: LinearRecurrence, limit: int | None = None
) -> MultiplicativeBasis:
    """Canonical basis of the group spanned by all roots of u and v."""
    return compute_basis(tuple(u.roots) + tuple(v.roots), limit)


def _coefficient_lcm(rec) -> int:
    out = 1
    if isinstance(rec, MultiRecurrence):
        coeff_groups = [list(c.terms.values()) for _, _, c in rec.terms]
    else:
        coeff_groups = [list(c.coeffs) for _, c in rec.terms]
    for group in coeff_groups:
        for c in group:
            out = out * c.denominator // math.gcd(out, c.denominator)
    return out


def hadamard_quotient(
    u: LinearRecurrence, v: LinearRecurrence, limit: int | None = None
) -> LinearRecurrence | None:
    """The recurrence U/V if V divides U in the group ring, else None.

    None is a genuine negative verdict: no recurrence whose roots lie
    in the span of u's and v's roots can equal U/V pointwise.
    """
    if v.is_zero:
        raise DivisorZero("cannot divide by the zero sequence")
    if u.is_zero:
        return LinearRecurrence(())
    basis = combined_basis(u, v, limit)
    fu = to_group_ring(u, basis)
    fv = to_group_ring(v, basis)
    quo = laurent_divide(fu, fv)
    if quo is None:
        return None
    result = from_group_ring(quo)
    if result * v != u:
        raise VerificationFailed("quotient times divisor does not give back the dividend")
    return result


def polynomial_clearance(
    u: LinearRecurrence, v: LinearRecurrence, limit: int | None = None
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
    basis = combined_basis(u, v, limit)
    fu = to_group_ring(u, basis)
    fv = to_group_ring(v, basis)
    gcd = laurent_gcd(fu, fv)
    v_reduced = laurent_divide(fv, gcd)
    if v_reduced is None:
        raise VerificationFailed("the gcd does not divide the divisor")
    v_norm = v_reduced.unit_normalized()
    if not v_norm.is_polynomial:
        witness = _strip_x_content(v_norm)
        return NoClearance(
            reason="divisor-not-polynomial",
            witness=witness,
            detail=(
                "after removing the common factor, the divisor keeps the "
                f"non-polynomial part {witness.render()}; no polynomial in "
                "the index can absorb it"
            ),
        )
    clearing = v_norm.x_polynomial().monic()
    p_element = GroupRingElement.from_poly(basis, clearing)
    quotient_element = laurent_divide(fu * p_element, fv)
    if quotient_element is None:
        raise VerificationFailed("clearance identity failed")
    v_over_p_element = laurent_divide(fv, p_element)
    if v_over_p_element is None:
        raise VerificationFailed("divisor lost its own factor")
    quotient = from_group_ring(quotient_element)
    v_over_p = from_group_ring(v_over_p_element)
    p_rec = LinearRecurrence(((Fraction(1), clearing),))
    if p_rec * u != quotient * v:
        raise VerificationFailed("P*U differs from the quotient times V")
    if p_rec * v_over_p != v:
        raise VerificationFailed("P times V/P does not give back V")
    return QuotientCertificate(
        clearing_poly=clearing,
        quotient=quotient,
        v_over_p=v_over_p,
        min_denominator=_coefficient_lcm(quotient),
    )


def _strip_x_content(element: GroupRingElement) -> GroupRingElement:
    """Remove the largest Q[X] factor, keeping the obstruction only."""
    groups: dict[tuple[int, ...], dict[int, Fraction]] = {}
    for (x, te), c in element.terms.items():
        groups.setdefault(te, {})[x] = c
    polys = []
    for coeffs in groups.values():
        top = max(coeffs)
        polys.append(UniPoly([coeffs.get(d, Fraction(0)) for d in range(top + 1)]))
    content = polys[0]
    for p in polys[1:]:
        content = poly_gcd(content, p)
    quo = laurent_divide(
        element, GroupRingElement.from_poly(element.basis, content)
    )
    if quo is None:
        raise VerificationFailed("X-content does not divide its own element")
    return quo.unit_normalized()


def cross_quotient(
    u: LinearRecurrence, v: LinearRecurrence, limit: int | None = None
) -> QuotientCertificate | NoClearance:
    """Clearance for U(m)/V(n) with independent indices.

    U(m) and V(n) occupy disjoint variable blocks of the two-index
    group ring, so no cancellation between them is possible: a clearing
    P exists iff V(n) = p(n) * beta^n has a single root.  Then P is p
    made monic, the quotient is U(m) * beta^(-n) / lc(p), and
    V/P = lc(p) * beta^n.
    """
    if v.is_zero:
        raise DivisorZero("cannot divide by the zero sequence")
    combined_basis(u, v, limit)
    if len(v.terms) > 1:
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
    v_over_p = LinearRecurrence(((beta, UniPoly.constant(lead)),))
    quotient_terms = []
    for root, coeff in u.terms:
        quotient_terms.append(
            (root, 1 / beta, BiPoly.from_unipoly(coeff.scale(1 / lead), 0))
        )
    quotient = multi_from_closed_form(quotient_terms)
    return QuotientCertificate(
        clearing_poly=clearing,
        quotient=quotient,
        v_over_p=v_over_p,
        min_denominator=_coefficient_lcm(quotient),
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


def solve_on_sections(
    u: LinearRecurrence,
    v: LinearRecurrence,
    mode: str,
    q: int = 2,
    limit: int | None = None,
) -> list[SectionResult]:
    """Split indices into progressions mod q and solve each section.

    Over Q the only root of unity available to the root group is -1,
    so q = 2 always removes torsion: decimated roots are squares times
    a fixed sign pattern, and the section root groups are positive.
    """
    solver = _solver(mode)
    if mode == "cross":
        sections = [((ru, rv), ru, rv) for ru in range(q) for rv in range(q)]
    else:
        sections = [((r,), r, r) for r in range(q)]
    results = []
    for offsets, ru, rv in sections:
        u_sec = u.decimate(q, ru)
        v_sec = v.decimate(q, rv)
        if v_sec.is_zero:
            results.append(SectionResult(q, offsets, "divisor-vanishes"))
            continue
        results.append(SectionResult(q, offsets, solver(u_sec, v_sec, limit)))
    return results


def solve_with_torsion_fallback(
    u: LinearRecurrence,
    v: LinearRecurrence,
    mode: str,
    decimate: bool = False,
    limit: int | None = None,
):
    """Run a solver; on TorsionGroup optionally retry on sections mod 2.

    Returns either the direct outcome or a list of SectionResult.
    """
    solver = _solver(mode)
    try:
        return solver(u, v, limit)
    except TorsionGroup:
        if not decimate:
            raise
        return solve_on_sections(u, v, mode, 2, limit)
