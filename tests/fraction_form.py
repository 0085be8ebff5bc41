"""Test-only oracle: a closed form as sorted (Fraction root, UniPoly) pairs.

This is how ``LinearRecurrence`` stored a sequence before it kept its
cleared integer form: (root, coefficient polynomial) pairs over Q, with
the coefficients of a repeated root added, zero coefficients dropped
and the rest sorted by root.  It shares no arithmetic with the
library's integer form, so the tests compare ``LinearRecurrence.terms``
with it.
"""

from fractions import Fraction

from recurquot.errors import ZeroRoot
from recurquot.polys import UniPoly


def canonical_terms(pairs) -> tuple[tuple[Fraction, UniPoly], ...]:
    """The canonical pairs of sum(coeff(n) * root^n) over the given pairs."""
    merged: dict[Fraction, UniPoly] = {}
    for root, coeff in pairs:
        root = Fraction(root)
        if root == 0:
            raise ZeroRoot("closed forms require non-zero roots")
        if not isinstance(coeff, UniPoly):
            coeff = UniPoly.constant(coeff) if isinstance(coeff, (int, Fraction)) else UniPoly(coeff)
        merged[root] = merged.get(root, UniPoly()) + coeff
    return tuple(sorted(((r, c) for r, c in merged.items() if not c.is_zero),
                        key=lambda t: t[0]))
