"""Exact computer algebra for quotients of linear recurrence sequences.

The package decides, with certificates, when the ratio of two
recurrence sequences is again a recurrence, when a polynomial clearing
factor can repair it, and when modular obstructions rule any such
relation out; supporting machinery covers multiplicative bases of
rational root groups, Laurent group rings, certified zero sets, exact
Weil heights, and S-integrality searches.
"""

from .errors import (
    BadPrime,
    BasisMismatch,
    BothZero,
    DivisorZero,
    FactorizationLimit,
    HypothesisViolated,
    InputError,
    IrrationalRoots,
    ParseError,
    PointOnHyperplane,
    RecurquotError,
    ResourceError,
    RootNotInGroup,
    SchemaError,
    TorsionGroup,
    VerificationFailed,
    ZeroInput,
    ZeroRoot,
)
from .factorization import (
    DEFAULT_FACTOR_LIMIT,
    FactoredRational,
    euler_phi,
    factor_int,
    factor_limit,
    factor_rational,
)
from .groupring import (
    GroupRingElement,
    from_group_ring,
    laurent_divide,
    laurent_gcd,
    to_group_ring,
)
from .heights import (
    DecayReport,
    HyperplaneForm,
    LogSum,
    SIntegerSpec,
    SMembership,
    decay_check,
    product_formula_check,
    s_membership,
    vector_height,
    weil_function,
    weil_height,
)
from .integrality import (
    FixedDenominator,
    ObstructionReport,
    PolynomialDenominatorBound,
    SearchHit,
    integrality_search,
    obstruction_scan,
)
from .multiplicative import (
    ExponentVector,
    MultiplicativeBasis,
    compute_basis,
    torsion_status,
)
from .parsing import RecurrenceSpec, parse_polynomial, parse_rational, parse_spec
from .places import Place, place_abs, valuation
from .polys import UniPoly
from .quotient import (
    NoClearance,
    QuotientCertificate,
    SectionResult,
    cross_quotient,
    hadamard_quotient,
    polynomial_clearance,
    solve_on_sections,
)
from .recurrences import (
    LinearRecurrence,
    MultiRecurrence,
    ZeroSetReport,
    constant,
    from_closed_form,
    from_relation,
    geometric,
    polynomial,
    zero_set,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
