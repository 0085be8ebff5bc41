import math
from fractions import Fraction

import basis_oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optimized import assert_caught_under_optimize
from recurquot.errors import RootNotInGroup, TorsionGroup, VerificationFailed, ZeroInput
import recurquot.multiplicative as mult
from recurquot.multiplicative import (
    compute_basis,
    exponent_table,
    require_torsion_free,
    sign_pivot_hnf,
    torsion_status,
)

F = Fraction

rationals = st.builds(
    F,
    st.integers(min_value=-60, max_value=60).filter(lambda n: n != 0),
    st.integers(min_value=1, max_value=60),
)


def test_exponent_table():
    # The pairs (R, B) stand for R/B: 6, -5/4, and 12/8 = 3/2 unreduced.
    primes, vectors = exponent_table(((6, 1), (-5, 4), (12, 8)))
    assert primes == (2, 3, 5)
    assert vectors[0].sign_bit == 0
    assert vectors[0].exponents == (1, 1, 0)
    assert vectors[1].sign_bit == 1
    assert vectors[1].exponents == (-2, 0, 1)
    assert vectors[2].sign_bit == 0
    assert vectors[2].exponents == (-1, 1, 0)
    # 6/6 = 1 and 10/2 = 5: the primes 2 and 3 cancel in every row.
    assert exponent_table(((6, 6), (10, 2))) == ((5,), [(0, (0,)), (0, (1,))])


def test_exponent_table_rejects_zero():
    with pytest.raises(ZeroInput):
        exponent_table(((0, 1),))


def test_torsion_status_witness():
    vals = (F(2), F(-2))
    witness = torsion_status(vals)
    assert witness is not None
    prod = F(1)
    for v, e in zip(vals, witness):
        prod *= v**e
    assert prod == -1


def test_torsion_status_free():
    assert torsion_status((F(2), F(3), F(-5))) is None
    assert torsion_status((F(-1),)) == (1,)


def _raised(decision, pairs) -> TorsionGroup | None:
    """The TorsionGroup ``decision(pairs)`` raises, or None if it returns."""
    try:
        decision(pairs)
    except TorsionGroup as torsion:
        return torsion
    return None


def _assert_witness_gives_minus_one(torsion: TorsionGroup) -> None:
    assert math.prod((r ** e for r, e in zip(torsion.roots, torsion.exponents)), start=F(1)) == -1


# (values, whether -1 is in their span, row_hnf calls the decision makes)
TORSION_DECISIONS = [
    # The coprime base of {4} is {4}: one odd exponent column, full rank mod 2.
    ((F(-4),), False, 0),
    # Over the base (4, 3, 5) the parities have rank 2 < 3: the HNF decides.
    ((F(12), F(405), F(-9), F(-4, 15)), False, 1),
    ((F(-4), F(2)), True, 0),
    ((F(-6), F(2), F(3)), True, 0),
    ((F(2), F(-2)), True, 0),
    # The columns of 4 and 9 are equal mod 2: the HNF decides.
    ((F(4, 9), F(-4, 9)), True, 1),
    # No base at all: -1 is the pure sign row, 1 the zero row.
    ((F(-1),), True, 0),
    ((F(1),), False, 0),
]


@pytest.mark.parametrize("values, torsion, hnf_calls", TORSION_DECISIONS,
                         ids=[" ".join(map(str, values)) for values, _, _ in TORSION_DECISIONS])
def test_torsion_decision_pinned(monkeypatch, values, torsion, hnf_calls):
    calls = []

    def counting_hnf(rows, real=mult.row_hnf):
        calls.append(rows)
        return real(rows)

    monkeypatch.setattr(mult, "row_hnf", counting_hnf)
    pairs = mult._pairs(values)
    raised = _raised(require_torsion_free, pairs)
    assert len(calls) == hnf_calls
    assert (raised is not None) == torsion
    if torsion:
        assert raised.roots == values
        _assert_witness_gives_minus_one(raised)
        assert str(raised) == str(_raised(sign_pivot_hnf, pairs))
        assert torsion_status(values) == raised.exponents
    else:
        assert torsion_status(values) is None


def test_torsion_decision_keeps_zero_input():
    with pytest.raises(ZeroInput):
        require_torsion_free(((3, 1), (0, 1)))


@st.composite
def parity_structured_pairs(draw):
    """Pairs (R, B) for signed products of 2, 3, 5, 7, each over its own
    factor 1..25 in R and B.  Each prime's exponents are free, all even, or
    equal mod 2 to the previous prime's, so the parities often lose rank
    and the HNF fallback runs."""
    k = draw(st.integers(min_value=1, max_value=6))
    rows = draw(st.lists(st.lists(st.integers(min_value=-2, max_value=3), min_size=4, max_size=4),
                         min_size=k, max_size=k))
    modes = draw(st.lists(st.sampled_from(("free", "even", "equal")), min_size=4, max_size=4))
    pairs = []
    for row in rows:
        for j, mode in enumerate(modes):
            if mode == "even":
                row[j] *= 2
            elif mode == "equal" and j:
                row[j] = row[j - 1] + 2 * row[j]
        num = math.prod(p**e for p, e in zip((2, 3, 5, 7), row) if e > 0)
        den = math.prod(p**-e for p, e in zip((2, 3, 5, 7), row) if e < 0)
        sign = draw(st.sampled_from((1, -1)))
        d = draw(st.integers(min_value=1, max_value=25))
        pairs.append((sign * num * d, den * d))
    return tuple(pairs)


@settings(max_examples=300, deadline=None)
@given(parity_structured_pairs())
def test_torsion_decision_agrees_with_the_sign_pivot(pairs):
    decided, pivot = _raised(require_torsion_free, pairs), _raised(sign_pivot_hnf, pairs)
    assert (decided is None) == (pivot is None)
    if decided is not None:
        assert decided.roots == pivot.roots
        assert decided.exponents == pivot.exponents
        _assert_witness_gives_minus_one(decided)


def test_compute_basis_collapses_powers():
    basis = compute_basis((F(4), F(8)))
    assert basis.generators == (F(2),)
    assert basis.expressions == ((2,), (3,))


def test_compute_basis_canonical_under_reordering():
    a = compute_basis((F(2), F(6)))
    b = compute_basis((F(6), F(2)))
    assert a.generators == b.generators
    assert a.same_group(b)


def test_compute_basis_negative_generator():
    basis = compute_basis((F(-2),))
    assert basis.generators == (F(-2),)
    assert basis.generator_signs == (-1,)
    assert basis.reconstruct((3,)) == F(-8)


def test_compute_basis_torsion_raises():
    with pytest.raises(TorsionGroup) as info:
        compute_basis((F(2), F(-2)))
    prod = F(1)
    for v, e in zip(info.value.roots, info.value.exponents):
        prod *= v**e
    assert prod == -1


def test_express_members_and_strangers():
    basis = compute_basis((F(2), F(3)))
    assert basis.reconstruct(basis.express(F(12))) == F(12)
    with pytest.raises(RootNotInGroup):
        basis.express(F(5))
    with pytest.raises(RootNotInGroup):
        basis.express(F(-2))


def test_express_sign_aware():
    basis = compute_basis((F(-2), F(3)))
    exps = basis.express(F(-8))
    assert basis.reconstruct(exps) == F(-8)
    with pytest.raises(RootNotInGroup):
        basis.express(F(8))


@settings(max_examples=60)
@given(st.lists(rationals, min_size=1, max_size=4),
       st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4))
def test_express_round_trip(values, powers):
    try:
        basis = compute_basis(tuple(values))
    except TorsionGroup:
        prod = F(1)
        witness = torsion_status(tuple(values))
        for v, e in zip(values, witness):
            prod *= F(v) ** e
        assert prod == -1
        return
    x = F(1)
    for v, e in zip(values, powers):
        x *= F(v) ** e
    exps = basis.express(x)
    assert basis.reconstruct(exps) == x


# Signed products of 2, 3, 5, 7 with exponents -2..3, and +-1.  Mixed
# signs give torsion and torsion-free sets; positive sets are always
# free; appending -x^2 always puts -1 in the span.
signed_roots = st.one_of(
    st.builds(
        lambda sign, exps: math.prod((F(p) ** e for p, e in zip((2, 3, 5, 7), exps)), start=F(sign)),
        st.sampled_from((1, -1)),
        st.lists(st.integers(min_value=-2, max_value=3), min_size=4, max_size=4),
    ),
    st.sampled_from((F(1), F(-1))),
)
signed_root_sets = st.one_of(
    st.lists(signed_roots, min_size=1, max_size=8),
    st.lists(signed_roots.map(abs), min_size=1, max_size=8),
    st.lists(signed_roots, min_size=1, max_size=6).map(lambda xs: xs + [-xs[0] ** 2]),
)


def _matches_transform_oracle(values):
    try:
        primes, generators, matrix, signs, expressions = basis_oracle.compute_basis(values)
    except basis_oracle.Torsion as torsion:
        with pytest.raises(TorsionGroup) as info:
            compute_basis(values)
        assert info.value.exponents == torsion.exponents
        pretty = " * ".join(f"({v})^{e}" for v, e in zip(values, torsion.exponents) if e)
        assert str(info.value) == f"root group contains -1: {pretty} = -1"
        assert torsion_status(values) == torsion.exponents
        return
    # The base and the matrix are coordinates, which may differ from the
    # oracle's primes; the generators, signs and expressions may not.
    basis = compute_basis(values)
    assert basis.generators == generators
    assert basis.generator_signs == signs
    assert basis.expressions == expressions
    basis_oracle.check_coordinates(basis.base, basis.generators, basis.matrix, signs)
    assert torsion_status(values) is None


@settings(max_examples=300, deadline=None)
@given(signed_root_sets)
def test_basis_matches_transform_oracle(values):
    _matches_transform_oracle(values)


# Signed products of composites: over 6 and 35 alone, or 6, 10 and 15 with
# one exponent fixed at 0, the coprime base has composite elements; the
# set may end with minus a product of two of its roots, such as {-6, 2, 3}
# or {6, -36}, which reaches -1 through a composite.
COMPOSITES = (6, 10, 15, 35, 2, 3)
composite_roots = st.builds(
    lambda sign, atoms, exps: math.prod((F(a) ** e for a, e in zip(atoms, exps)), start=F(sign)),
    st.sampled_from((1, -1)),
    st.lists(st.sampled_from(COMPOSITES), min_size=1, max_size=2, unique=True),
    st.lists(st.integers(min_value=-2, max_value=2), min_size=2, max_size=2),
).filter(lambda x: abs(x) != 1)
composite_root_sets = st.one_of(
    st.lists(composite_roots, min_size=1, max_size=5),
    st.lists(composite_roots, min_size=2, max_size=4).map(lambda xs: xs + [-xs[0] * xs[1]]),
)


@settings(max_examples=200, deadline=None)
@given(composite_root_sets)
def test_composite_bases_match_transform_oracle(values):
    _matches_transform_oracle(values)


def test_sign_reached_through_a_composite():
    # -6 = -(2 * 3): -1 = (-6) / (2 * 3), and the base {2, 3} refines 6.
    with pytest.raises(TorsionGroup) as info:
        compute_basis((F(-6), F(2), F(3)))
    assert info.value.exponents == (1, -1, -1)
    basis = compute_basis((F(-6), F(36)))
    assert basis.base == (6,) and basis.generators == (F(-6),)
    assert basis.expressions == ((1,), (2,))


# Roots over small primes and over primes above the trial bound, where the
# order of the base may differ from the order of the primes.
M = (10007, 10009, 10037)
any_roots = st.builds(
    lambda sign, exps, big: math.prod((F(p) ** e for p, e in zip((2, 3, 5) + M, exps + big)),
                                      start=F(sign)),
    st.sampled_from((1, -1)),
    st.lists(st.integers(min_value=-1, max_value=2), min_size=3, max_size=3),
    st.lists(st.integers(min_value=0, max_value=2), min_size=3, max_size=3),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(any_roots, min_size=1, max_size=5), st.randoms(use_true_random=False))
def test_generators_do_not_depend_on_the_input_order(values, rng):
    shuffled = list(values)
    rng.shuffle(shuffled)
    try:
        basis = compute_basis(values)
    except TorsionGroup:
        with pytest.raises(TorsionGroup):
            compute_basis(shuffled)
        return
    other = compute_basis(shuffled)
    assert (other.base, other.generators, other.matrix, other.generator_signs) \
        == (basis.base, basis.generators, basis.matrix, basis.generator_signs)
    assert other.same_group(basis)
    for x, e in zip(other.values, other.expressions):
        assert basis.reconstruct(basis.express(x)) == x == other.reconstruct(e)


def test_large_prime_bases_may_order_generators_differently():
    # b1 = 10007 * 10037 and b2 = 10009 have no prime below the trial
    # bound, so the base orders them by value, (b2, b1), while the primes
    # put b1's 10007 first.  Over the primes the HNF of b1*b2 and b2^2 has
    # the generators b1*b2 and b2^2; over the base it has b1*b2 and b1^2.
    # Both span the same group, and the base's choice is still canonical.
    b1, b2 = 10007 * 10037, 10009
    values = (F(b1 * b2), F(b2**2))
    basis = compute_basis(values)
    assert basis.base == (b2, b1)
    assert basis.generators == (F(b1 * b2), F(b1**2))
    assert basis.matrix == ((1, 1), (0, 2))
    assert basis.expressions == ((1, 0), (2, -1))
    assert compute_basis(values[::-1]).generators == basis.generators
    assert basis.express(F(b2**2)) == (2, -1)

def test_express_reads_stored_expressions_of_its_values():
    basis = compute_basis((F(12), F(-18)))
    for x, e in zip(basis.values, basis.expressions):
        assert basis.express(x) == e


# Under -O every assert is gone; the basis checks must still run.  "escape"
# loses an input's lattice expression, "shifted" corrupts every expression
# (caught at construction), "express" corrupts one for a value outside the
# basis, "sign" flips a generator's sign behind the bookkeeping,
# "hnf-sign" flips a sign entry of the HNF (caught at construction), and
# "base" leaves a remainder of each integer over its coprime base (caught
# by the row check).
_BROKEN_BASIS = """
import sys
from fractions import Fraction
import recurquot.factorization as fact
import recurquot.multiplicative as mult
from recurquot.errors import VerificationFailed

if not sys.flags.optimize:
    raise SystemExit("not running under -O")
mode = sys.argv[1]
real_express = mult.hnf_express
real_hnf = mult.row_hnf
real_divide = fact.divide_out

def shifted(h, target):
    coeffs = real_express(h, target)
    return [coeffs[0] + 1] + coeffs[1:]

def sign_flipped(rows):
    first, *rest = real_hnf(rows)
    return [first[:-1] + [1 - first[-1]], *rest]

try:
    if mode == "escape":
        mult.hnf_express = lambda h, target: None
        mult.compute_basis((2, 3))
    elif mode == "shifted":
        mult.hnf_express = shifted
        mult.compute_basis((2, 3))
    elif mode == "hnf-sign":
        mult.row_hnf = sign_flipped
        mult.compute_basis((2, 3))
    elif mode == "base":
        fact.divide_out = lambda n, base: (real_divide(n, base)[0], 2)
        mult.compute_basis((2, 3))
    elif mode == "express":
        basis = mult.compute_basis((2, 3))
        mult.hnf_express = shifted
        basis.express(12)
    else:
        basis = mult.compute_basis((2, 3))
        flipped = mult.MultiplicativeBasis(
            pairs=basis.pairs,
            base=basis.base,
            generators=(Fraction(-2), Fraction(3)),
            matrix=basis.matrix,
            generator_signs=basis.generator_signs,
            expressions=basis.expressions,
        )
        flipped.express(6)
except VerificationFailed as exc:
    print("VerificationFailed:", exc)
else:
    print("broken basis went unchecked")
"""


@pytest.mark.parametrize("mode", ["escape", "shifted", "express", "sign", "hnf-sign", "base"])
def test_broken_basis_is_caught_under_optimize(mode):
    assert_caught_under_optimize(_BROKEN_BASIS, mode)


# reconstruct takes one exponent per generator; under -O an assert would
# be gone and a rank-2 basis would turn (1,) into 2 and (1, 1, 5) into 6.
_WRONG_EXPONENT_COUNT = """
import sys
from recurquot.errors import InputError
from recurquot.multiplicative import compute_basis

if not sys.flags.optimize:
    raise SystemExit("not running under -O")
basis = compute_basis((2, 3))
for exponents in ((1,), (1, 1, 5)):
    try:
        print("returned", basis.reconstruct(exponents))
    except InputError as exc:
        print("InputError:", exc)
"""


def test_reconstruct_checks_the_exponent_count_under_optimize():
    assert_caught_under_optimize(_WRONG_EXPONENT_COUNT, count=2, error="InputError")


def test_torsion_witness_is_found_when_read(monkeypatch):
    import recurquot.multiplicative as mult

    calls = []
    real_kernel = mult.left_kernel

    def counting_kernel(rows):
        calls.append(rows)
        return real_kernel(rows)

    def no_fraction(*args):
        raise AssertionError("a caught TorsionGroup built a root")

    monkeypatch.setattr(mult, "left_kernel", counting_kernel)
    with monkeypatch.context() as patch:
        patch.setattr(mult, "Fraction", no_fraction)
        with pytest.raises(TorsionGroup) as info:
            compute_basis(pairs=((-2, 1), (2, 1)))
    assert calls == []
    assert str(info.value) == "root group contains -1: (-2)^1 * (2)^-1 = -1"
    assert info.value.roots == (F(-2), F(2))
    assert info.value.exponents == (1, -1)
    assert len(calls) == 1


def test_missing_torsion_witness_fails_on_every_read(monkeypatch):
    import recurquot.multiplicative as mult

    monkeypatch.setattr(mult, "_torsion_witness", lambda vectors: None)
    with pytest.raises(TorsionGroup) as info:
        compute_basis((F(-2), F(2)))
    for read in (lambda e: e.exponents, str, lambda e: e.exponents):
        with pytest.raises(VerificationFailed, match="no kernel witness"):
            read(info.value)
