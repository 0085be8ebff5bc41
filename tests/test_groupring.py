import itertools
import random
import time
from fractions import Fraction

import pytest
from fraction_prs import _mv_divide, fraction_prs_gcd
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recurquot import groupring
from recurquot.errors import BasisMismatch, BothZero, VerificationFailed, ZeroInput
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


def test_constructors_and_queries():
    zero = GroupRingElement.zero(BASIS)
    assert zero.is_zero
    c = GroupRingElement.from_rational(BASIS, F(5, 2))
    assert c.is_unit and c.is_polynomial
    p = GroupRingElement.from_poly(BASIS, UniPoly([F(1), F(2)]))
    assert p.is_polynomial and not p.is_unit
    assert p.x_polynomial() == UniPoly([F(1), F(2)])


def test_unit_requires_single_pure_monomial():
    t = elem({(0, (1, 0)): F(3)})
    assert t.is_unit
    assert not elem({(1, (1, 0)): F(3)}).is_unit
    assert not elem({(0, (1, 0)): F(1), (0, (0, 0)): F(1)}).is_unit


def test_evaluate_matches_sequence_semantics():
    f = elem({(1, (1, 0)): F(1), (0, (0, 1)): F(-2)})
    for n in range(6):
        assert f.evaluate(n) == n * F(2) ** n - 2 * F(3) ** n


def test_negative_exponents_evaluate():
    f = elem({(0, (-1, 0)): F(1)})
    assert f.evaluate(3) == F(1, 8)


def test_ring_axioms_on_samples():
    a = elem({(1, (1, 0)): F(1), (0, (0, 0)): F(2)})
    b = elem({(0, (0, 1)): F(1), (0, (1, -1)): F(-1)})
    c = elem({(2, (0, 0)): F(1, 3)})
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a - a).is_zero
    for n in range(5):
        assert (a * b).evaluate(n) == a.evaluate(n) * b.evaluate(n)
        assert (a + b).evaluate(n) == a.evaluate(n) + b.evaluate(n)


def test_scalar_multiplication():
    a = elem({(1, (1, 0)): F(1)})
    assert (a * 3).evaluate(2) == 3 * a.evaluate(2)
    assert (a * F(1, 2)).evaluate(4) == a.evaluate(4) / 2


def test_basis_mismatch_is_rejected():
    other = compute_basis((F(5),))
    with pytest.raises(BasisMismatch):
        elem({(0, (0, 0)): F(1)}) + GroupRingElement(other, {(0, (0,)): F(1)})


def test_same_group_bases_interoperate():
    alt = compute_basis((F(2), F(3), F(6)))
    a = elem({(0, (1, 0)): F(1)})
    b = GroupRingElement(alt, {(0, (0, 1)): F(1)})
    assert (a * b).evaluate(2) == F(4) * F(9)


def test_t_shift_and_min_exponents():
    f = elem({(0, (-1, 2)): F(1), (1, (3, 0)): F(2)})
    assert f.min_t_exponents() == (-1, 0)
    g = f.t_shift((1, 0))
    assert g.min_t_exponents() == (0, 0)
    assert g.evaluate(2) == f.evaluate(2) * F(2) ** 2


def test_unit_normalized():
    f = elem({(0, (-1, 1)): F(-2), (1, (2, 1)): F(-6)})
    g = f.unit_normalized()
    assert g.min_t_exponents() == (0, 0)
    (x0, t0), = [k for k in g.terms if k[0] == max(x for x, _ in g.terms)]
    assert g.terms[(x0, t0)] > 0


def test_round_trip_with_recurrences():
    u = from_closed_form([
        (F(2), UniPoly([F(0), F(1)])),
        (F(3), UniPoly([F(-2)])),
    ])
    f = to_group_ring(u, BASIS)
    assert from_group_ring(f) == u
    for n in range(5):
        assert f.evaluate(n) == u.evaluate(n)


def test_to_group_ring_rejects_outside_roots():
    from recurquot.errors import RootNotInGroup
    u = geom(5)
    with pytest.raises(RootNotInGroup):
        to_group_ring(u, BASIS)


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
    assert g == GroupRingElement.from_rational(basis, 1)


def test_laurent_gcd_units_cleared():
    basis = compute_basis((F(2),))
    a = GroupRingElement(basis, {(0, (3,)): F(2), (0, (1,)): F(-2)})
    g = laurent_gcd(a, a)
    assert g.min_t_exponents() == (0,)
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
    low = a.min_t_exponents()
    poly = {(x, *(t - m for t, m in zip(te, low))): c for (x, te), c in a.terms.items()}
    return poly, low


def from_fraction_poly(basis, poly, shift):
    return GroupRingElement(basis, {(e[0], e[1:]): c for e, c in poly.items()}).t_shift(shift)


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
    """The cleared integer polynomials laurent_gcd hands to the gcd."""
    return groupring._zz_clear(a)[1], groupring._zz_clear(b)[1], 1 + a.basis.rank


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


def _heu_and_prs_agree(a, b, must_succeed):
    # GCDHEU may give up (the PRS fallback exists for that); only the seeded
    # product cases, which are deterministic, require it to succeed.
    f, g, k = integer_inputs(a, b)
    heu = groupring._heu_gcd(f, g, k)
    if heu is None:
        assert not must_succeed
        return
    assert groupring._zz_primitive(heu) == groupring._zz_primitive(
        groupring._prs_gcd(f, g, k)
    )


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
    assert laurent_gcd(a, b) == oracle_gcd(a, b) == GroupRingElement.from_rational(basis, 1)


@settings(max_examples=50, deadline=None)
@given(small_elems, small_elems)
def test_heuristic_and_prs_gcd_agree(a, b):
    if a.is_zero or b.is_zero:
        return
    _heu_and_prs_agree(a, b, must_succeed=False)


@pytest.mark.parametrize("rung", [(1, 3, 2), (2, 2, 1), (3, 2, 2), (2, 3, 1)])
def test_heuristic_and_prs_gcd_agree_on_products(rung):
    for u, v, _ in common_factor_cases(rung, 5, seed=17):
        _heu_and_prs_agree(u, v, must_succeed=True)


def test_prs_fallback_when_heuristic_gives_up(monkeypatch):
    cases = list(common_factor_cases((2, 2, 1), 5, seed=3))
    expected = [laurent_gcd(u, v) for u, v, _ in cases]
    monkeypatch.setattr(groupring, "_heu_gcd", lambda f, g, k: None)
    assert [laurent_gcd(u, v) for u, v, _ in cases] == expected


def test_fallback_result_is_trial_divided(monkeypatch):
    # A PRS answer that does not divide both inputs must not come back.
    basis = compute_basis((F(2),))
    a = GroupRingElement(basis, {(0, (2,)): F(1), (0, (0,)): F(-1)})
    b = GroupRingElement(basis, {(0, (1,)): F(1), (0, (0,)): F(-1)})
    monkeypatch.setattr(groupring, "_heu_gcd", lambda f, g, k: None)
    monkeypatch.setattr(groupring, "_prs_gcd", lambda f, g, k: {(0, 2): 1, (0, 0): 1})
    with pytest.raises(VerificationFailed):
        laurent_gcd(a, b)


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
