"""Exception hierarchy shared by every module in the package.

Errors split into two families: input errors (the caller handed us
something malformed or out of domain) and resource errors (the input is
fine but exceeds a configured effort bound).  The CLI maps the former to
exit code 2 and the latter to exit code 3.
"""

from __future__ import annotations


class RecurquotError(Exception):
    """Base class for all package-specific errors."""


class InputError(RecurquotError):
    """The input is malformed or outside the documented domain."""


class ResourceError(RecurquotError):
    """A configured effort or size bound was exceeded."""


class VerificationFailed(RecurquotError):
    """An exact result failed its own re-check (multiply-back or trial division).

    This signals a defect in the library, not in the input; the check
    is an explicit test, so it also runs under ``python -O``.
    """


class ZeroInput(InputError):
    """An operation that requires a non-zero value received zero."""


class BothZero(InputError):
    """A gcd of two zero polynomials was requested."""


class DivisorZero(InputError):
    """The divisor sequence is identically zero."""


class ZeroRoot(InputError):
    """A characteristic root is zero; closed forms require non-zero roots."""


class ZeroRecurrence(InputError):
    """An operation that needs a non-zero sequence received the zero sequence."""


class TorsionGroup(InputError):
    """The multiplicative group spanned by the roots contains -1.

    Carries a witness: exponents over the offending roots whose product
    is a negative rational of absolute value 1.
    """

    def __init__(self, roots, exponents):
        self.roots = tuple(roots)
        self.exponents = tuple(exponents)
        pretty = " * ".join(f"({r})^{e}" for r, e in zip(self.roots, self.exponents) if e)
        super().__init__(f"root group contains -1: {pretty} = -1")


class BasisMismatch(InputError):
    """Two group-ring elements over different multiplicative bases were combined."""


class RootNotInGroup(InputError):
    """A rational is not in the span of a multiplicative basis."""


class IrrationalRoots(InputError):
    """A characteristic polynomial does not split over the rationals.

    Carries the residual factor that has no rational root.
    """

    def __init__(self, residual):
        self.residual = residual
        super().__init__(f"characteristic polynomial has an irrational factor: {residual}")


class HypothesisViolated(InputError):
    """A stated hypothesis of a check fails, so the check is not applicable."""


class PointOnHyperplane(InputError):
    """A proximity function was evaluated at a point lying on the hyperplane."""


class BadPrime(InputError):
    """The prime interacts with a denominator, so reduction mod p is undefined."""


class ParseError(InputError):
    """A textual expression failed to parse.

    Carries 1-based line/column and the set of token kinds that would
    have been accepted at that point.
    """

    def __init__(self, message, line=None, column=None, expected=()):
        self.line = line
        self.column = column
        self.expected = frozenset(expected)
        if self.expected:
            message = f"{message} (expected {', '.join(sorted(self.expected))})"
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class SchemaError(InputError):
    """A spec document is structurally invalid (keys, types, or shape)."""


class FactorizationLimit(ResourceError):
    """Factoring hit the configured size/effort cap.

    Carries the cofactor that could not be handled within the cap.
    """

    def __init__(self, cofactor, limit):
        self.cofactor = cofactor
        self.limit = limit
        super().__init__(
            f"factorization exceeded the configured cap "
            f"(cofactor {cofactor}, limit {limit})"
        )
