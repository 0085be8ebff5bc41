"""The library's small result records and value types behave as
immutable value objects.

Each is built from its fields, positionally or by keyword, and then
compares, hashes and pickles by those fields; it refuses assignment and
deletion.  A bad argument list raises TypeError naming the class.  The
``repr`` strings are pinned literally, since users read them in
tracebacks and doctests.
"""

import pickle
from fractions import Fraction as F

import pytest

from recurquot import (
    BadPrime,
    DecayReport,
    FactoredRational,
    FixedDenominator,
    GroupRingElement,
    HyperplaneForm,
    InputError,
    LogSum,
    MultiplicativeBasis,
    MultiRecurrence,
    NoClearance,
    ObstructionReport,
    Place,
    PolynomialDenominatorBound,
    QuotientCertificate,
    RecurrenceSpec,
    SearchHit,
    SectionResult,
    SIntegerSpec,
    UniPoly,
    ZeroInput,
    ZeroSetReport,
    cross_quotient,
    factor_rational,
    from_closed_form,
    geometric,
    parse_spec,
    polynomial,
    polynomial_clearance,
)
from recurquot._record import Record
from recurquot.parsing import Token
from recurquot.recurrences import LinearRecurrence

# (class, keyword arguments, the repr of the record they build)
RECORDS = [
    (
        QuotientCertificate,
        {"clearing_poly": UniPoly((1, 2)), "quotient": geometric(2),
         "v_over_p": geometric(3), "min_denominator": 1},
        "QuotientCertificate(clearing_poly=UniPoly(2*X + 1), quotient=LinearRecurrence(2^n), "
        "v_over_p=LinearRecurrence(3^n), min_denominator=1)",
    ),
    (
        NoClearance,
        {"reason": "r", "witness": None, "detail": ""},
        "NoClearance(reason='r', witness=None, detail='')",
    ),
    (
        SectionResult,
        {"modulus": 2, "offsets": (1,), "outcome": "divisor-vanishes"},
        "SectionResult(modulus=2, offsets=(1,), outcome='divisor-vanishes')",
    ),
    (FixedDenominator, {"d": 3}, "FixedDenominator(d=3)"),
    (PolynomialDenominatorBound, {"exponent": 1}, "PolynomialDenominatorBound(exponent=1)"),
    (SearchHit, {"m": 1, "n": 2, "d": 3}, "SearchHit(m=1, n=2, d=3)"),
    (
        ObstructionReport,
        {"certified": False, "prime": 5, "progression": (2, 1), "period": 20,
         "clearing_constants": (1, 1), "failing_side": "divisor", "failing_index": 3},
        "ObstructionReport(certified=False, prime=5, progression=(2, 1), period=20, "
        "clearing_constants=(1, 1), failing_side='divisor', failing_index=3)",
    ),
    (
        HyperplaneForm,
        {"coefficients": (F(1), F(-1, 2))},
        "HyperplaneForm(coefficients=(Fraction(1, 1), Fraction(-1, 2)))",
    ),
    (SIntegerSpec, {"primes": frozenset({2, 3})}, "SIntegerSpec(primes=frozenset({2, 3}))"),
    (
        DecayReport,
        {"place": Place(2), "max_ratio": LogSum.log_of(F(3, 2)), "argmax_n": 4,
         "samples": ((4, LogSum.log_of(F(3, 2))),), "skipped_zeros": (1,)},
        "DecayReport(place=Place(prime=2), max_ratio=LogSum(-log 2 + log 3), argmax_n=4, "
        "samples=((4, LogSum(-log 2 + log 3)),), skipped_zeros=(1,))",
    ),
    (
        Token,
        {"kind": "int", "text": "12", "line": 1, "column": 3},
        "Token(kind='int', text='12', line=1, column=3)",
    ),
    (
        RecurrenceSpec,
        {"name": None, "var": "N", "closed_form": None, "relation": ((F(2),), (F(1),))},
        "RecurrenceSpec(name=None, var='N', closed_form=None, "
        "relation=((Fraction(2, 1),), (Fraction(1, 1),)))",
    ),
    (Place, {"prime": None}, "Place(prime=None)"),
    (
        ZeroSetReport,
        {"progressions": ((2, 1),), "sporadic": (0,), "complete": True, "dominance_from": 3},
        "ZeroSetReport(progressions=((2, 1),), sporadic=(0,), complete=True, dominance_from=3)",
    ),
    (
        MultiplicativeBasis,
        {"pairs": ((2, 1), (3, 1)), "base": (2, 3), "generators": (F(2), F(3)),
         "matrix": ((1, 0), (0, 1)), "generator_signs": (1, 1),
         "expressions": ((1, 0), (0, 1))},
        "MultiplicativeBasis(pairs=((2, 1), (3, 1)), base=(2, 3), "
        "generators=(Fraction(2, 1), Fraction(3, 1)), matrix=((1, 0), (0, 1)), "
        "generator_signs=(1, 1), expressions=((1, 0), (0, 1)))",
    ),
]

IDS = [cls.__name__ for cls, _, _ in RECORDS]

# The value types normalise their arguments; these are already normal, so
# each field reads back as given.
VALUES = [
    (
        LinearRecurrence,
        {"cleared_terms": ((-1, (10,)), (6, (2, 1))), "scale": 2, "base": 3},
        "LinearRecurrence((1/2*n + 1)*2^n + 5*(-1/3)^n)",
    ),
    (
        MultiRecurrence,
        {"m_part": geometric(2), "n_root": F(1, 3)},
        "MultiRecurrence(2^m*(1/3)^n)",
    ),
    (UniPoly, {"coeffs": (F(1), F(-1, 2))}, "UniPoly(-1/2*X + 1)"),
    (
        FactoredRational,
        {"sign": -1, "exponents": {2: -1, 3: 2}},
        "FactoredRational(-2^-1 * 3^2)",
    ),
]

BOTH = RECORDS + VALUES
BOTH_IDS = IDS + [cls.__name__ for cls, _, _ in VALUES]


@pytest.mark.parametrize("cls, kwargs, text", BOTH, ids=BOTH_IDS)
def test_repr_is_pinned(cls, kwargs, text):
    assert repr(cls(**kwargs)) == text


@pytest.mark.parametrize("cls, kwargs, text", BOTH, ids=BOTH_IDS)
def test_keyword_and_positional_construction_agree(cls, kwargs, text):
    by_keyword, by_position = cls(**kwargs), cls(*kwargs.values())
    assert by_keyword == by_position
    assert hash(by_keyword) == hash(by_position)
    assert [getattr(by_position, name) for name in kwargs] == list(kwargs.values())


@pytest.mark.parametrize("cls, kwargs, text", RECORDS, ids=IDS)
def test_a_changed_field_breaks_equality(cls, kwargs, text):
    record = cls(**kwargs)
    for name, value in kwargs.items():
        other = dict(kwargs)
        other[name] = _another_value(cls, name, value)
        assert record != cls(**other), name
    assert record != tuple(kwargs.values())


def _another_value(cls, name, value):
    """A valid value for the field that differs from ``value``."""
    if cls is HyperplaneForm:
        return (F(2), F(1))
    if cls is SIntegerSpec:
        return frozenset({5})
    if cls is Place:
        return 7
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    if value is None:
        return "other" if name in ("name", "witness", "failing_side") else 9
    if isinstance(value, LogSum):
        return LogSum.log_of(F(5))
    if isinstance(value, Place):
        return Place(3)
    if isinstance(value, UniPoly):
        return UniPoly((1,))
    if isinstance(value, tuple):
        return value + value if value else ((7, 1),)
    return geometric(5)


@pytest.mark.parametrize("cls, kwargs, text", BOTH, ids=BOTH_IDS)
def test_records_are_immutable(cls, kwargs, text):
    record = cls(**kwargs)
    for name in kwargs:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert cls(**kwargs) == record


@pytest.mark.parametrize("cls, kwargs, text", BOTH, ids=BOTH_IDS)
def test_pickle_round_trip(cls, kwargs, text):
    record = cls(**kwargs)
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls
    assert copy == record
    assert hash(copy) == hash(record)
    assert repr(copy) == text


def defaulted_fields(cls) -> set[str]:
    """The fields a constructor may leave out: by ``_defaults``, or by the
    parameter defaults of a validating record's own ``__init__``."""
    own = cls.__init__.__defaults__ or ()
    return set(cls._defaults) | set(cls._fields[len(cls._fields) - len(own):])


@pytest.mark.parametrize("cls, kwargs, text", RECORDS, ids=IDS)
def test_bad_arguments_raise_type_error_naming_the_class(cls, kwargs, text):
    values, first = list(kwargs.values()), next(iter(kwargs))
    # (a bad call, a word its message must hold besides the class name)
    cases = [
        (lambda: cls(*values, 0), cls.__name__),
        (lambda: cls(**kwargs, bogus=0), "bogus"),
        (lambda: cls(values[0], **kwargs), first),
    ]
    cases += [
        (lambda field=field: cls(**{k: v for k, v in kwargs.items() if k != field}), field)
        for field in kwargs.keys() - defaulted_fields(cls)
    ]
    for call, word in cases:
        with pytest.raises(TypeError, match=cls.__name__) as info:
            call()
        assert word in str(info.value)


DEFAULTED = [(cls, kwargs) for cls, kwargs, _ in RECORDS if cls._defaults]


@pytest.mark.parametrize("cls, kwargs", DEFAULTED, ids=[cls.__name__ for cls, _ in DEFAULTED])
def test_a_default_fills_only_its_field(cls, kwargs):
    for field in cls._defaults:
        record = cls(**{k: v for k, v in kwargs.items() if k != field})
        for name, value in kwargs.items():
            assert getattr(record, name) == (cls._defaults[name] if name == field else value)


def test_defaults_must_be_the_trailing_fields():
    with pytest.raises(TypeError, match="Early"):
        type("Early", (Record,), {"__slots__": ("a", "b"), "_defaults": {"a": 0}})
    late = type("Late", (Record,), {"__slots__": ("a", "b"), "_defaults": {"b": 0}})
    assert late(1) == late(1, 0) == late(a=1) and late(1, 2).b == 2


def test_factored_rational_is_immutable_and_stays_hashable():
    f = factor_rational(12)
    seen = {f}
    with pytest.raises(AttributeError):
        f.sign = -1
    with pytest.raises(AttributeError):
        f.exponents = {}
    assert f in seen and f.value() == 12
    copy = round_trip(f)
    assert copy in seen and copy.exponents == {2: 2, 3: 1}


# LinearRecurrence(((-1, (10,)), (6, (2, 1))), 2, 3) pickled with protocol 2
# while its slots were ("scale", "base", "cleared_terms"); the constructor
# then took (cleared_terms, scale, base), as it does now.
OLD_PICKLE = (
    b"\x80\x02crecurquot.recurrences\nLinearRecurrence\nq\x00J\xff\xff\xff\xffK\n"
    b"\x85q\x01\x86q\x02K\x06K\x02K\x01\x86q\x03\x86q\x04\x86q\x05K\x02K\x03"
    b"\x87q\x06Rq\x07."
)


def test_an_older_recurrence_pickle_still_loads():
    rec = pickle.loads(OLD_PICKLE)
    assert rec == from_closed_form([(2, UniPoly((1, F(1, 2)))), (F(-1, 3), UniPoly((5,)))])
    assert (rec.scale, rec.base) == (2, 3)
    assert repr(rec) == VALUES[0][2]


def round_trip(value):
    """The unpickled copy, after checking that it equals and hashes as the value."""
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value)
    assert copy == value and hash(copy) == hash(value)
    assert repr(copy) == repr(value)
    return copy


def test_certificate_record_pickles():
    # 2^n / (n + 1): the clearing polynomial is n + 1 itself.
    record = polynomial_clearance(geometric(2), polynomial((1, 1)))
    assert isinstance(record, QuotientCertificate)
    copy = round_trip(record)
    assert copy.clearing_poly == UniPoly((1, 1)) and copy.quotient == geometric(2)
    # (3^m - 1) / (2n * 2^n): the quotient is a two-index form.
    cross = cross_quotient(
        from_closed_form([(3, UniPoly((1,))), (1, UniPoly((-1,)))]),
        from_closed_form([(2, UniPoly((0, 2)))]),
    )
    assert isinstance(round_trip(cross).quotient, MultiRecurrence)


def test_refusal_with_a_witness_pickles():
    # 2^n + 3^n over 2^n - 3^n: the witness is a group-ring element.
    refusal = polynomial_clearance(
        from_closed_form([(2, UniPoly((1,))), (3, UniPoly((1,)))]),
        from_closed_form([(2, UniPoly((1,))), (3, UniPoly((-1,)))]),
    )
    assert isinstance(refusal, NoClearance) and isinstance(refusal.witness, GroupRingElement)
    copy = round_trip(refusal)
    assert copy.witness.basis == refusal.witness.basis
    assert copy.witness.terms == refusal.witness.terms


def test_spec_with_a_closed_form_pickles():
    spec = parse_spec('{"var": "N", "closed_form": [{"root": "2", "coeff": "N + 1/2"}]}')
    copy = round_trip(spec)
    assert copy.to_recurrence() == spec.to_recurrence()


def test_equality_stays_within_one_class():
    assert FixedDenominator(2) != PolynomialDenominatorBound(2)
    assert PolynomialDenominatorBound(2) != FixedDenominator(2)
    assert len({FixedDenominator(2), FixedDenominator(2), PolynomialDenominatorBound(2)}) == 2


def test_defaults():
    assert PolynomialDenominatorBound().exponent == 2
    assert Place() == Place.archimedean()
    assert Place().prime is None
    refusal = NoClearance("r")
    assert (refusal.witness, refusal.detail) == (None, "")
    report = ObstructionReport(True, 5, (2, 1), 20, (1, 1))
    assert (report.failing_side, report.failing_index) == (None, None)
    assert report.verdict == "certified"


def test_validation_errors_are_unchanged():
    with pytest.raises(InputError):
        FixedDenominator(0)
    with pytest.raises(InputError):
        FixedDenominator(d=-1)
    with pytest.raises(InputError):
        PolynomialDenominatorBound(-1)
    with pytest.raises(BadPrime):
        Place(4)
    with pytest.raises(BadPrime):
        Place(prime=1)
    with pytest.raises(BadPrime):
        SIntegerSpec([2, 6])
    with pytest.raises(ZeroInput):
        HyperplaneForm((0, 0))


def test_normalisation_in_the_constructor():
    form = HyperplaneForm([1, "1/2", 0.5])
    assert form.coefficients == (F(1), F(1, 2), F(1, 2))
    assert all(type(c) is F for c in form.coefficients)
    assert hash(form) == hash(HyperplaneForm((F(1), F(1, 2), F(1, 2))))
    assert SIntegerSpec([3, 2, 3]).primes == frozenset({2, 3})


def test_ordering_of_places():
    assert sorted([Place(), Place(3), Place(2)]) == [Place(2), Place(3), Place()]
    assert Place(2) <= Place(3) < Place() and Place() >= Place(5) > Place(2)


def test_basis_caches_survive_the_record_base():
    basis = MultiplicativeBasis(*RECORDS[-1][1].values())
    assert basis.values == (F(2), F(3))
    assert basis.express(F(2, 3)) == (1, -1)
    copy = pickle.loads(pickle.dumps(basis))
    assert copy.values == (F(2), F(3)) and copy.express(6) == (1, 1)
