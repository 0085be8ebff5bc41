"""Test-only oracle: the pointwise product over Fraction polynomials.

This is how ``LinearRecurrence.__mul__`` multiplied before it moved to
the operands' cleared integer forms: each pair of terms gave the root
r1*r2 and the Q[X] product c1*c2, summed per root.  It shares no
arithmetic with the library's integer path, so the tests compare the
two on small inputs.
"""

from fraction_form import canonical_terms

from recurquot.recurrences import LinearRecurrence


def multiply(u: LinearRecurrence, v: LinearRecurrence):
    """The terms of U*V; ``canonical_terms`` sums the products that meet at one root."""
    return canonical_terms(
        (r1 * r2, c1 * c2) for r1, c1 in u.terms for r2, c2 in v.terms
    )
