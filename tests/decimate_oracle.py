"""Test-only oracle: decimation by Horner's rule over Fraction polynomials.

This is how ``LinearRecurrence.decimate`` built a section before it
moved to an integer Taylor shift: each coefficient c(X) became
root^r * c(q*X + r), composed by Horner's rule in Q[X].  It shares no
arithmetic with the library's integer path, so the tests compare the
two on small inputs.
"""

from fraction_form import canonical_terms

from recurquot.polys import UniPoly
from recurquot.recurrences import LinearRecurrence


def shift_compose(p: UniPoly, q, r) -> UniPoly:
    """p(q*X + r) by Horner's rule over the polynomial ring."""
    lin = UniPoly((r, q))
    out = UniPoly()
    for c in reversed(p.coeffs):
        out = out * lin + UniPoly.constant(c)
    return out


def decimate(u: LinearRecurrence, q: int, r: int):
    """The terms of the section m -> U(q*m + r); ``canonical_terms`` merges roots that meet."""
    return canonical_terms(
        (root**q, shift_compose(coeff, q, r).scale(root**r)) for root, coeff in u.terms
    )
