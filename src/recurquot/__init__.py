"""Exact computer algebra for quotients of linear recurrence sequences.

The package decides, with certificates, when the ratio of two
recurrence sequences is again a recurrence, when a polynomial clearing
factor can repair it, and when modular obstructions rule any such
relation out; supporting machinery covers multiplicative bases of
rational root groups, Laurent group rings, certified zero sets, exact
Weil heights, and S-integrality searches.

Importing the package loads none of its modules.  Each export is
imported from its module the first time it is read (PEP 562), so a
program, or a CLI subcommand, pays only for the layers it uses.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each public submodule, with the exports it defines.
_EXPORTS = {
    "errors": (
        "BadPrime",
        "BasisMismatch",
        "BothZero",
        "DivisorZero",
        "FactorizationLimit",
        "HypothesisViolated",
        "InputError",
        "IrrationalRoots",
        "ParseError",
        "PointOnHyperplane",
        "RecurquotError",
        "ResourceError",
        "RootNotInGroup",
        "SchemaError",
        "TorsionGroup",
        "VerificationFailed",
        "ZeroInput",
        "ZeroRoot",
    ),
    "factorization": (
        "DEFAULT_FACTOR_LIMIT",
        "FactoredRational",
        "euler_phi",
        "factor_int",
        "factor_limit",
        "factor_rational",
    ),
    "groupring": (
        "GroupRingElement",
        "from_group_ring",
        "laurent_divide",
        "laurent_gcd",
        "to_group_ring",
    ),
    "heights": (
        "DecayReport",
        "HyperplaneForm",
        "LogSum",
        "SIntegerSpec",
        "SMembership",
        "decay_check",
        "product_formula_check",
        "s_membership",
        "vector_height",
        "weil_function",
        "weil_height",
    ),
    "integrality": (
        "FixedDenominator",
        "ObstructionReport",
        "PolynomialDenominatorBound",
        "SearchHit",
        "integrality_search",
        "obstruction_scan",
    ),
    "linalg": (),
    "multiplicative": (
        "ExponentVector",
        "MultiplicativeBasis",
        "compute_basis",
        "torsion_status",
    ),
    "parsing": ("RecurrenceSpec", "parse_polynomial", "parse_rational", "parse_spec"),
    "places": ("Place", "place_abs", "valuation"),
    "polys": ("UniPoly",),
    "quotient": (
        "NoClearance",
        "QuotientCertificate",
        "SectionResult",
        "cross_quotient",
        "hadamard_quotient",
        "polynomial_clearance",
        "solve_on_sections",
    ),
    "recurrences": (
        "LinearRecurrence",
        "MultiRecurrence",
        "ZeroSetReport",
        "constant",
        "from_closed_form",
        "from_relation",
        "geometric",
        "polynomial",
        "zero_set",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

# The exported names and the public modules.
__all__ = sorted([*_MODULE_OF, *_EXPORTS])


def __getattr__(name):
    if name in _EXPORTS:
        # Importing a submodule binds it on the package.
        return _import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
