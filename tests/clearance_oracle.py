"""Test-only oracle: polynomial clearance through the Laurent gcd.

This is how ``recurquot`` decided clearance before it divided on the
roots: the canonical basis of all roots, both operands in its group
ring, one gcd, and v' = V / gcd(U, V) unit-normalized.  A clearing P
exists iff v' has no T variable, and then v' is the monic P, the
quotient is P*U/V and V/P is V / v'.  Otherwise the witness is v'
without its X-content, which the Fraction oracle removes.  It shares the
library's group ring, but not its division on the roots nor its
X-contents, and its basis is ``basis_oracle``'s, over the primes by
trial division, not the library's over a coprime base.
"""

from fractions import Fraction

import basis_oracle
from fraction_prs import fraction_strip_x_content

from recurquot.errors import TorsionGroup
from recurquot.groupring import (
    GroupRingElement,
    from_group_ring,
    laurent_divide,
    laurent_gcd,
    to_group_ring,
)
from recurquot.multiplicative import MultiplicativeBasis
from recurquot.polys import UniPoly


def prime_basis(pairs):
    """The prime-canonical basis of the integer pairs (R, B), each R/B,
    from ``basis_oracle``; TorsionGroup when -1 is in the span."""
    values = [Fraction(r, b) for r, b in pairs]
    try:
        primes, generators, matrix, signs, expressions = basis_oracle.compute_basis(values)
    except basis_oracle.Torsion as torsion:
        raise TorsionGroup(values, lambda: torsion.exponents) from None
    return MultiplicativeBasis(pairs, primes, generators, matrix, signs, expressions)


def group_ring_clearance(u, v):
    """("certificate", P, quotient, V/P, min_denominator) or ("refusal", witness).

    Raises TorsionGroup when -1 lies in the span of the roots.
    """
    basis = prime_basis(tuple((r, rec.base) for rec in (u, v) for r, _ in rec.cleared_terms))
    k = len(u.cleared_terms)
    fu = to_group_ring(u, basis, basis.expressions[:k])
    fv = to_group_ring(v, basis, basis.expressions[k:])
    p = laurent_divide(fv, laurent_gcd(fu, fv)).unit_normalized()
    terms = p.terms
    if any(any(te) for _, te in terms):
        return ("refusal", GroupRingElement(basis, fraction_strip_x_content(terms)))
    clearing = UniPoly([terms.get((d, (0,) * basis.rank), 0)
                        for d in range(max(x for x, _ in terms) + 1)])
    quotient = from_group_ring(laurent_divide(fu * p, fv))
    v_over_p = from_group_ring(laurent_divide(fv, p))
    return ("certificate", clearing, quotient, v_over_p, quotient.scale)
