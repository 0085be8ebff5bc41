import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from fraction_prs import _mv_divide, fraction_prs_gcd, fraction_strip_x_content, integer_prs_gcd
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recurquot import groupring, quotient
from recurquot.errors import (
    BasisMismatch,
    BothZero,
    InputError,
    VerificationFailed,
    ZeroInput,
)
from recurquot.groupring import (
    GroupRingElement,
    from_group_ring,
    laurent_divide,
    laurent_gcd,
    to_group_ring,
)
from recurquot.multiplicative import compute_basis
from recurquot.polys import UniPoly
from recurquot.quotient import polynomial_clearance
from recurquot.recurrences import LinearRecurrence, from_closed_form

F = Fraction

BASIS = compute_basis((F(2), F(3)))


def elem(terms):
    return GroupRingElement(BASIS, terms)


def geom(root, coeff=1):
    return from_closed_form([(F(root), UniPoly([F(coeff)]))])


def value(f, n):
    """The element's sequence at n, read through its recurrence."""
    return from_group_ring(f).evaluate(n)


def test_constructors_and_queries():
    zero = GroupRingElement.zero(BASIS)
    assert zero.is_zero and zero.terms == {}
    c = elem({(0, (0, 0)): F(5, 2)})
    assert (c.content, c.low, c.poly) == (F(5, 2), (0, 0), {(0, 0, 0): 1})
    p = elem({(0, (0, 0)): F(1), (1, (0, 0)): F(2)})
    assert p.terms == {(0, (0, 0)): F(1), (1, (0, 0)): F(2)}
    t = elem({(0, (1, 0)): F(3)})
    assert (t.content, t.low, t.poly) == (F(3), (1, 0), {(0, 0, 0): 1})


@pytest.mark.parametrize("terms", [
    {(0, (1,)): F(1)},
    {(0, (1, 0, 0)): F(1)},
    {(-1, (0, 0)): F(2)},
    {(0, (1,)): 1, (-1, (0, 0, 0)): 2},
])
def test_constructor_rejects_malformed_terms(terms):
    # A raise, not an assert: under python -O the element must not be built.
    with pytest.raises(InputError):
        elem(terms)


def test_evaluate_matches_sequence_semantics():
    f = elem({(1, (1, 0)): F(1), (0, (0, 1)): F(-2)})
    for n in range(6):
        assert value(f, n) == n * F(2) ** n - 2 * F(3) ** n


def test_negative_exponents_evaluate():
    f = elem({(0, (-1, 0)): F(1)})
    assert value(f, 3) == F(1, 8)


def test_ring_axioms_on_samples():
    a = elem({(1, (1, 0)): F(1), (0, (0, 0)): F(2)})
    b = elem({(0, (0, 1)): F(1), (0, (1, -1)): F(-1)})
    c = elem({(2, (0, 0)): F(1, 3)})
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a - a).is_zero
    for n in range(5):
        assert value(a * b, n) == value(a, n) * value(b, n)
        assert value(a + b, n) == value(a, n) + value(b, n)


def test_scalar_multiplication():
    a = elem({(1, (1, 0)): F(1)})
    assert value(a * 3, 2) == 3 * value(a, 2)
    assert value(a * F(1, 2), 4) == value(a, 4) / 2


def test_basis_mismatch_is_rejected():
    other = compute_basis((F(5),))
    with pytest.raises(BasisMismatch):
        elem({(0, (0, 0)): F(1)}) + GroupRingElement(other, {(0, (0,)): F(1)})


def test_same_group_bases_interoperate():
    alt = compute_basis((F(2), F(3), F(6)))
    a = elem({(0, (1, 0)): F(1)})
    b = GroupRingElement(alt, {(0, (0, 1)): F(1)})
    assert value(a * b, 2) == F(4) * F(9)


def test_low_holds_the_least_t_exponents():
    f = elem({(0, (-1, 2)): F(1), (1, (3, 0)): F(2)})
    assert f.low == (-1, 0)
    g = f * elem({(0, (1, 0)): F(1)})
    assert g.low == (0, 0)
    assert value(g, 2) == value(f, 2) * F(2) ** 2


def test_unit_normalized():
    f = elem({(0, (-1, 1)): F(-2), (1, (2, 1)): F(-6)})
    g = f.unit_normalized()
    assert g.low == (0, 0)
    (x0, t0), = [k for k in g.terms if k[0] == max(x for x, _ in g.terms)]
    assert g.terms[(x0, t0)] > 0


def test_round_trip_with_recurrences():
    u = from_closed_form([
        (F(2), UniPoly([F(0), F(1)])),
        (F(3), UniPoly([F(-2)])),
    ])
    f = to_group_ring(u, BASIS, [BASIS.express(root) for root in u.roots])
    assert from_group_ring(f) == u
    for n in range(5):
        assert value(f, n) == u.evaluate(n)


def test_laurent_gcd_known():
    basis = compute_basis((F(2),))
    # 4^n - 1 and 2^n - 1 share the factor 2^n - 1.
    a = GroupRingElement(basis, {(0, (2,)): F(1), (0, (0,)): F(-1)})
    b = GroupRingElement(basis, {(0, (1,)): F(1), (0, (0,)): F(-1)})
    g = laurent_gcd(a, b)
    assert g == b


def test_laurent_gcd_coprime():
    basis = compute_basis((F(2),))
    a = GroupRingElement(basis, {(0, (1,)): F(1), (0, (0,)): F(-1)})
    b = GroupRingElement(basis, {(0, (1,)): F(1), (0, (0,)): F(1)})
    g = laurent_gcd(a, b)
    assert g == GroupRingElement(basis, {(0, (0,)): F(1)})


def test_laurent_gcd_units_cleared():
    basis = compute_basis((F(2),))
    a = GroupRingElement(basis, {(0, (3,)): F(2), (0, (1,)): F(-2)})
    g = laurent_gcd(a, a)
    assert g.low == (0,)
    assert g == GroupRingElement(basis, {(0, (2,)): F(1), (0, (0,)): F(-1)})


def test_laurent_gcd_zero_cases():
    a = elem({(0, (1, 0)): F(1)})
    zero = GroupRingElement.zero(BASIS)
    assert laurent_gcd(a, zero) == a.unit_normalized()
    with pytest.raises(BothZero):
        laurent_gcd(zero, zero)


def test_laurent_divide_exact():
    basis = compute_basis((F(2),))
    a = GroupRingElement(basis, {(0, (2,)): F(1), (0, (0,)): F(-1)})
    b = GroupRingElement(basis, {(0, (1,)): F(1), (0, (0,)): F(-1)})
    q = laurent_divide(a, b)
    assert q is not None
    assert q * b == a


def test_laurent_divide_failure():
    basis = compute_basis((F(2),))
    a = GroupRingElement(basis, {(0, (1,)): F(1), (0, (0,)): F(1)})
    b = GroupRingElement(basis, {(0, (1,)): F(1), (0, (0,)): F(-1)})
    assert laurent_divide(a, b) is None


def test_laurent_divide_by_zero():
    a = elem({(0, (0, 0)): F(1)})
    with pytest.raises(ZeroInput):
        laurent_divide(a, GroupRingElement.zero(BASIS))


def test_laurent_divide_with_units():
    basis = compute_basis((F(2),))
    a = GroupRingElement(basis, {(1, (5,)): F(3), (0, (4,)): F(3)})
    b = GroupRingElement(basis, {(0, (-2,)): F(6)})
    q = laurent_divide(a, b)
    assert q is not None
    assert q * b == a


small_elems = st.builds(
    lambda terms: elem(dict(terms)),
    st.lists(
        st.tuples(
            st.tuples(
                st.integers(min_value=0, max_value=2),
                st.tuples(st.integers(min_value=-2, max_value=2),
                          st.integers(min_value=-2, max_value=2)),
            ),
            st.fractions(min_value=F(-4), max_value=F(4), max_denominator=3)
            .filter(lambda c: c != 0),
        ),
        min_size=0, max_size=3, unique_by=lambda t: t[0],
    ),
)


@settings(max_examples=50, deadline=None)
@given(small_elems, small_elems)
def test_gcd_divides_both(a, b):
    if a.is_zero and b.is_zero:
        return
    g = laurent_gcd(a, b)
    if not a.is_zero:
        qa = laurent_divide(a, g)
        assert qa is not None and qa * g == a
    if not b.is_zero:
        qb = laurent_divide(b, g)
        assert qb is not None and qb * g == b


@settings(max_examples=50, deadline=None)
@given(small_elems, small_elems)
def test_divide_round_trip(a, b):
    if b.is_zero:
        return
    prod = a * b
    q = laurent_divide(prod, b)
    assert q is not None
    assert q * b == prod
    assert q == a or (q - a).is_zero


def test_render_uses_generator_powers():
    f = elem({(1, (1, 0)): F(1), (0, (0, 0)): F(-1)})
    text = f.render()
    assert "X" in text and "T1" in text


def test_linear_recurrence_alias():
    assert isinstance(geom(2), LinearRecurrence)


# -- the integer gcd and division against the Fraction oracles -----------------


def fraction_poly(a):
    """Non-zero a shifted to T-exponents >= 0 as a Fraction dict, and its least T-exponents."""
    low = a.low
    poly = {(x, *(t - m for t, m in zip(te, low))): c for (x, te), c in a.terms.items()}
    return poly, low


def from_fraction_poly(basis, poly, shift):
    return GroupRingElement(
        basis, {(e[0], tuple(t + s for t, s in zip(e[1:], shift))): c for e, c in poly.items()}
    )


def oracle_gcd(a, b):
    """laurent_gcd computed by the old Fraction PRS (see fraction_prs.py)."""
    if a.is_zero or b.is_zero:
        return laurent_gcd(a, b)
    result = fraction_prs_gcd(fraction_poly(a)[0], fraction_poly(b)[0], 1 + a.basis.rank)
    return from_fraction_poly(a.basis, result, (0,) * a.basis.rank).unit_normalized()


def oracle_divide(a, b):
    """laurent_divide computed by the old Fraction division (see fraction_prs.py)."""
    if a.is_zero:
        return a
    fd, f_low = fraction_poly(a)
    gd, g_low = fraction_poly(b)
    quo = _mv_divide(fd, gd)
    if quo is None:
        return None
    return from_fraction_poly(a.basis, quo, tuple(x - y for x, y in zip(f_low, g_low)))


def integer_inputs(a, b):
    """The primitive integer polynomials laurent_gcd hands to the gcd."""
    return a.poly, b.poly, 1 + a.basis.rank


BASES = {rank: compute_basis(tuple(F(p) for p in (2, 3, 5)[:rank])) for rank in (1, 2, 3)}


def random_element(rng, rank, terms, degree):
    """terms distinct T-monomials with exponents in -1..2, X-degree <= degree."""
    monomials = rng.sample(list(itertools.product(range(-1, 3), repeat=rank)), terms)
    out = {}
    for te in monomials:
        coeffs = [rng.randint(-3, 3) for _ in range(rng.randint(0, degree) + 1)]
        if coeffs[-1] == 0:
            coeffs[-1] = rng.choice((-2, -1, 1, 2))
        for x, c in enumerate(coeffs):
            if c:
                out[(x, te)] = F(c)
    return GroupRingElement(BASES[rank], out)


def common_factor_cases(rung, count, seed):
    """(a*c, b*c, c) for random a, b, c at a (rank, terms, degree) rung."""
    rng = random.Random(seed)
    rank, terms, degree = rung
    for _ in range(count):
        a, b, c = (random_element(rng, rank, terms, degree) for _ in range(3))
        yield a * c, b * c, c


@settings(max_examples=50, deadline=None)
@given(small_elems, small_elems)
def test_gcd_matches_fraction_prs_oracle(a, b):
    if a.is_zero and b.is_zero:
        return
    assert laurent_gcd(a, b) == oracle_gcd(a, b)


@pytest.mark.parametrize("rung", [(1, 3, 1), (1, 3, 2), (2, 2, 1), (3, 2, 1)])
def test_gcd_matches_oracle_on_common_factor_products(rung):
    for u, v, _ in common_factor_cases(rung, 6, seed=1):
        assert laurent_gcd(u, v) == oracle_gcd(u, v)


# Rational, non-primitive coefficients of either sign and negative T-exponents,
# so the integer division sees contents, denominators and shifts to undo.
wide_elems = st.builds(
    lambda terms: elem(dict(terms)),
    st.lists(
        st.tuples(
            st.tuples(
                st.integers(min_value=0, max_value=2),
                st.tuples(st.integers(min_value=-3, max_value=2),
                          st.integers(min_value=-3, max_value=2)),
            ),
            st.fractions(min_value=F(-12), max_value=F(12), max_denominator=6)
            .filter(lambda c: c != 0),
        ),
        min_size=1, max_size=4, unique_by=lambda t: t[0],
    ),
)

def assert_normal_split(x):
    """x is stored as its unique split content * T^low * poly."""
    rebuilt = GroupRingElement(x.basis, x.terms)
    assert rebuilt == x and hash(rebuilt) == hash(x)
    if x.is_zero:
        assert x.content == 0 and x.low == (0,) * x.basis.rank
        return
    assert x.content != 0
    assert all(type(c) is int for c in x.poly.values())
    assert math.gcd(*x.poly.values()) == 1 and x.poly[max(x.poly)] > 0
    assert all(min(column) == 0 for column in list(zip(*x.poly))[1:])


@settings(max_examples=100, deadline=None)
@given(small_elems, wide_elems)
def test_every_operation_keeps_the_split_normal(a, b):
    prod = a * b
    for x in (a, b, prod, -a, a * 3, b * F(-2, 5), a * 0, a.unit_normalized(),
              b.unit_normalized(), laurent_gcd(a, b), laurent_divide(prod, b),
              laurent_divide(a, b), laurent_divide(b, laurent_gcd(a, b))):
        if x is not None:
            assert_normal_split(x)


# Roots 2^a * 3^b with a, b down to -3, so T-exponents go negative, and
# rational coefficients with zeros inside; the empty list is the zero
# recurrence.
basis_recurrences = st.lists(
    st.tuples(
        st.builds(lambda a, b: F(2) ** a * F(3) ** b,
                  st.integers(min_value=-3, max_value=2), st.integers(min_value=-3, max_value=2)),
        st.lists(st.fractions(min_value=F(-12), max_value=F(12), max_denominator=6),
                 min_size=1, max_size=3).map(UniPoly),
    ),
    min_size=0, max_size=4,
).map(from_closed_form)


@settings(max_examples=150, deadline=None)
@example(LinearRecurrence(()))
@given(basis_recurrences)
def test_to_group_ring_matches_fraction_map(u):
    terms = {
        (d, BASIS.express(root)): c
        for root, coeff in u.terms
        for d, c in enumerate(coeff.coeffs)
        if c
    }
    f = to_group_ring(u, BASIS, [BASIS.express(root) for root in u.roots])
    assert f == GroupRingElement(BASIS, terms)
    assert_normal_split(f)


NEGATIVE_LEAD = elem({(2, (1, -2)): F(-4, 3), (0, (-1, 0)): F(6)})
RATIONAL = elem({(1, (0, -1)): F(9, 4), (0, (2, 1)): F(-3, 2), (0, (0, 0)): F(15, 8)})


@settings(max_examples=100, deadline=None)
@example(NEGATIVE_LEAD, RATIONAL)
@example(RATIONAL, NEGATIVE_LEAD)
@given(wide_elems, wide_elems)
def test_divide_matches_fraction_oracle_on_products(a, b):
    prod = a * b
    assert laurent_divide(prod, b) == oracle_divide(prod, b) == a


@settings(max_examples=100, deadline=None)
@example(NEGATIVE_LEAD, RATIONAL)
@example(NEGATIVE_LEAD * RATIONAL + elem({(0, (0, 0)): F(1)}), RATIONAL)
@given(wide_elems, wide_elems)
def test_divide_matches_fraction_oracle_on_pairs(a, b):
    # Random pairs are mostly not divisible: then both must return None.
    assert laurent_divide(a, b) == oracle_divide(a, b)


def test_divide_refusals_agree_with_oracle():
    for a, b in [
        (NEGATIVE_LEAD, RATIONAL),
        (NEGATIVE_LEAD * RATIONAL + elem({(0, (0, 0)): F(1)}), RATIONAL),
        (NEGATIVE_LEAD * RATIONAL, NEGATIVE_LEAD * 2 + elem({(1, (0, 0)): F(1, 5)})),
    ]:
        assert laurent_divide(a, b) is None
        assert oracle_divide(a, b) is None


def _heu_and_prs_agree(a, b):
    f, g, k = integer_inputs(a, b)
    assert groupring._heu_gcd(f, g, k) == groupring._zz_primitive(integer_prs_gcd(f, g, k))


def test_heuristic_rejects_accidental_candidate():
    # At the first evaluation point, 133, the images of these coprime cubics
    # share 741 = 6*133 - 57, whose digits spell 6X - 57, primitive part
    # 2X - 19.  It divides neither input, so a later point must decide.
    f = {(0,): 57, (1,): 52, (2,): 47, (3,): 27}
    g = {(0,): 38, (1,): 8, (2,): -30, (3,): -52}
    assert groupring._interpolate({(): 741}, 133) == {(0,): -57, (1,): 6}
    assert groupring._heu_gcd(f, g, 1) == {(0,): 1}
    basis = compute_basis((F(2),))
    a, b = (GroupRingElement(basis, {(d, (0,)): F(c) for (d,), c in p.items()})
            for p in (f, g))
    assert laurent_gcd(a, b) == oracle_gcd(a, b) == GroupRingElement(basis, {(0, (0,)): F(1)})


@settings(max_examples=50, deadline=None)
@given(small_elems, small_elems)
def test_heuristic_and_prs_gcd_agree(a, b):
    if a.is_zero or b.is_zero:
        return
    _heu_and_prs_agree(a, b)


@pytest.mark.parametrize("rung", [(1, 3, 2), (2, 2, 1), (3, 2, 2), (2, 3, 1)])
def test_heuristic_and_prs_gcd_agree_on_products(rung):
    for u, v, _ in common_factor_cases(rung, 5, seed=17):
        _heu_and_prs_agree(u, v)


def test_heuristic_keeps_growing_the_evaluation_point(monkeypatch):
    # Every candidate is trial-divided, so a wrong one only costs a retry:
    # with the first 10 candidates replaced by X + 5, which divides neither
    # input, the 11th point still finds the gcd X - 1.
    f = {(2,): 1, (1,): 1, (0,): -2}  # (X - 1)(X + 2)
    g = {(2,): 1, (1,): 2, (0,): -3}  # (X - 1)(X + 3)
    points = []
    real = groupring._interpolate

    def interpolate(gamma, xi):
        points.append(xi)
        return {(1,): 1, (0,): 5} if len(points) <= 10 else real(gamma, xi)

    monkeypatch.setattr(groupring, "_interpolate", interpolate)
    assert groupring._heu_gcd(f, g, 1) == {(1,): 1, (0,): -1}
    assert len(points) == 11 and points == sorted(set(points))


# -- the integer kernel on its own ------------------------------------------------


@pytest.mark.parametrize("f, g", [
    # deg_X(g) > deg_X(f): the degree box is empty.
    ({(1,): 1, (0,): 1}, {(2,): 1}),
    # 3X + 1 by 2X + 1: the divisor's lead does not divide 3.
    ({(1,): 3, (0,): 1}, {(1,): 2, (0,): 1}),
    # X + T by T: the first quotient term would be X / T.
    ({(1, 0): 1, (0, 1): 1}, {(0, 1): 1}),
    # X^2 + T by X + T: the second quotient term, -T, has T-degree 1,
    # outside the box deg_T(f) - deg_T(g) = 0.
    ({(2, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): 1}),
    # X^2 + 1 by X + 1 leaves the remainder 2.
    ({(2,): 1, (0,): 1}, {(1,): 1, (0,): 1}),
], ids=["empty-box", "inexact-lead", "negative-exponent", "outside-box", "remainder"])
def test_zz_divide_refusals_leave_their_inputs_alone(f, g):
    f_before, g_before = dict(f), dict(g)
    assert groupring._zz_divide(f, g) is None
    assert f == f_before and g == g_before


def zz_polys(k):
    return st.dictionaries(
        st.tuples(*[st.integers(min_value=0, max_value=3)] * k),
        st.integers(min_value=-9, max_value=9).filter(bool),
        min_size=1, max_size=5,
    )


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=3).flatmap(lambda k: st.tuples(zz_polys(k), zz_polys(k))))
def test_zz_divide_undoes_zz_mul(pair):
    a, b = pair
    b_before = dict(b)
    product = groupring._zz_mul(a, b)
    assert groupring._zz_divide(product, b) == a
    assert b == b_before


@pytest.mark.parametrize("f, g, k, content", [
    # 2 * (2X^2 + 3) and 2 * (3X + 1).
    ({(2,): 4, (0,): 6}, {(1,): 6, (0,): 2}, 1, 2),
    # 3 * (X * T + 1) and 3 * (X + T + 2).
    ({(1, 1): 3, (0, 0): 3}, {(1, 0): 3, (0, 1): 3, (0, 0): 6}, 2, 3),
    # X^2 - T1 * T2 and X + T1 + 5, over three variables.
    ({(2, 0, 0): 1, (0, 1, 1): -1}, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 0): 5}, 3, 1),
])
def test_heuristic_accepts_a_unit_candidate_without_trial_division(monkeypatch, f, g, k, content):
    # The candidate 1 divides both inputs, so no trial division is due.
    def forbidden(f, g):
        raise AssertionError("trial division by the candidate 1")

    monkeypatch.setattr(groupring, "_zz_divide", forbidden)
    assert groupring._heu_gcd(f, g, k) == {(0,) * k: content}


@pytest.mark.parametrize("rung", [(2, 3, 1), (2, 4, 2), (3, 4, 2)])
def test_common_factor_divides_gcd_on_cliff_rungs(rung):
    # These rungs ran for minutes under the Fraction PRS.
    for u, v, c in common_factor_cases(rung, 5, seed=2024):
        g = laurent_gcd(u, v)
        assert laurent_divide(g, c) is not None
        assert laurent_divide(u, g) is not None and laurent_divide(v, g) is not None
        started = time.perf_counter()
        polynomial_clearance(from_group_ring(u), from_group_ring(v))
        assert time.perf_counter() - started < 2.0


# -- the refusal witness against the Euclid-over-Q oracle ----------------------

x_coeffs = st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=3).filter(any)


@settings(max_examples=100, deadline=None)
@example({(1, 0): [-1, 1], (0, 0): [1, 1]}, [F(0), F(-2, 3)], F(-5, 2))
@given(
    st.dictionaries(
        st.tuples(st.integers(min_value=-2, max_value=2), st.integers(min_value=-2, max_value=2)),
        x_coeffs, min_size=2, max_size=4,
    ),
    st.lists(st.fractions(min_value=F(-5), max_value=F(5), max_denominator=4),
             min_size=1, max_size=3).filter(any),
    st.fractions(min_value=F(-6), max_value=F(6), max_denominator=5).filter(bool),
)
def test_clearance_witness_matches_euclid_oracle(columns, shared, scale):
    # V: 2-4 T-columns times a shared rational X factor and a rational unit
    # of either sign, so its X-content is at least that factor.  U = 7^n is
    # a unit, so the witness is V without its X-content, unit-normalized.
    f = elem({(x, te): F(c) for te, cs in columns.items() for x, c in enumerate(cs) if c})
    f = f * elem({(x, (0, 0)): c for x, c in enumerate(shared) if c}) * scale
    v = from_group_ring(f)
    out = polynomial_clearance(geom(7), v)
    witness = out.witness
    basis = witness.basis
    fv = GroupRingElement(basis, {(d, basis.express(root)): c for root, coeff in v.terms
                                  for d, c in enumerate(coeff.coeffs) if c})
    assert witness.terms == fraction_strip_x_content(fv.terms)
    assert witness == witness.unit_normalized() and len({te for _, te in witness.terms}) >= 2
    content = laurent_divide(fv, witness)
    assert content is not None and len({te for _, te in content.terms}) == 1


def test_clearance_refusal_checks_its_witness(monkeypatch):
    # A gcd equal to V' leaves the unit witness 1, which has one root.
    monkeypatch.setattr(quotient, "laurent_gcd", lambda f, g: g)
    with pytest.raises(VerificationFailed, match="fewer than two roots"):
        polynomial_clearance(geom(3), from_closed_form([(F(2), F(1)), (F(1), F(-1))]))
