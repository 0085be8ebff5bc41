import io
import itertools
import math
import random
import time
from fractions import Fraction

import basis_oracle
import pytest
from clearance_oracle import group_ring_clearance
from hypothesis import given, settings
from hypothesis import strategies as st

from optimized import assert_caught_under_optimize
from recurquot import factorization, multiplicative, quotient, recurrences
from recurquot.errors import (
    DivisorZero,
    FactorizationLimit,
    InputError,
    RootNotInGroup,
    TorsionGroup,
)
from recurquot.factorization import factor_limit
from recurquot.groupring import GroupRingElement, from_group_ring, laurent_divide, to_group_ring
from recurquot.multiplicative import compute_basis
from recurquot.polys import UniPoly
from recurquot.quotient import (
    NoClearance,
    QuotientCertificate,
    SectionResult,
    cross_quotient,
    hadamard_quotient,
    polynomial_clearance,
    solve_on_sections,
    solve_with_torsion_fallback,
)
from recurquot.recurrences import (
    LinearRecurrence,
    constant,
    from_closed_form,
    geometric,
    polynomial,
)

F = Fraction


def _no_factoring(n):
    raise AssertionError(f"factor_int({n}) ran")


def mersenne(base=2):
    return from_closed_form([(F(base), F(1)), (F(1), F(-1))])


def test_hadamard_exact_division():
    u = mersenne(4)
    v = mersenne(2)
    q = hadamard_quotient(u, v)
    assert q == from_closed_form([(F(2), F(1)), (F(1), F(1))])
    for n in range(1, 8):
        assert q.evaluate(n) == u.evaluate(n) / v.evaluate(n)


def test_hadamard_higher_power():
    u = mersenne(8)
    v = mersenne(2)
    q = hadamard_quotient(u, v)
    assert q == from_closed_form([(F(4), F(1)), (F(2), F(1)), (F(1), F(1))])


def test_hadamard_refuses_coprime():
    u = from_closed_form([(F(2), F(1)), (F(1), F(1))])
    v = mersenne(2)
    assert hadamard_quotient(u, v) is None


def test_hadamard_zero_numerator():
    assert hadamard_quotient(LinearRecurrence(()), mersenne()).is_zero


def test_hadamard_zero_divisor():
    with pytest.raises(DivisorZero):
        hadamard_quotient(mersenne(), LinearRecurrence(()))


def test_hadamard_rational_coefficients():
    v = geometric(3, F(2, 5))
    u = geometric(6, F(4, 5))
    q = hadamard_quotient(u, v)
    assert q == geometric(2, F(2))


def test_hadamard_torsion_raises():
    u = from_closed_form([(F(2), F(1)), (F(-2), F(1))])
    with pytest.raises(TorsionGroup):
        hadamard_quotient(u, geometric(2))


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from([F(2), F(3), F(5, 2)]),
                       st.integers(min_value=-3, max_value=3).filter(bool)),
             min_size=1, max_size=2),
    st.lists(st.tuples(st.sampled_from([F(2), F(3), F(5, 2)]),
                       st.integers(min_value=-3, max_value=3).filter(bool)),
             min_size=1, max_size=2),
)
def test_hadamard_recovers_constructed_factor(q_terms, v_terms):
    q = from_closed_form([(r, F(c)) for r, c in q_terms])
    v = from_closed_form([(r, F(c)) for r, c in v_terms])
    if q.is_zero or v.is_zero:
        return
    u = q * v
    got = hadamard_quotient(u, v)
    assert got == q


def test_clearance_polynomial_divisor():
    u = geometric(5)
    v = polynomial([F(0), F(1), F(1)])
    out = polynomial_clearance(u, v)
    assert isinstance(out, QuotientCertificate)
    assert out.clearing_poly == UniPoly([F(0), F(1), F(1)])
    assert out.quotient == u
    assert out.v_over_p == constant(1)
    assert out.min_denominator == 1


def test_clearance_shared_factor():
    # V = (n + 1) * (2^n - 1), U = 3^n * (2^n - 1): the common factor
    # cancels and the leftover n + 1 is clearable.
    shared = mersenne(2)
    u = geometric(3) * shared
    v = polynomial([F(1), F(1)]) * shared
    out = polynomial_clearance(u, v)
    assert isinstance(out, QuotientCertificate)
    assert out.clearing_poly == UniPoly([F(1), F(1)])
    assert out.quotient == geometric(3)
    for n in range(1, 7):
        p_n = out.clearing_poly(F(n))
        assert p_n * u.evaluate(n) == out.quotient.evaluate(n) * v.evaluate(n)


def test_clearance_refusal_names_witness():
    u = geometric(3)
    v = mersenne(2)
    out = polynomial_clearance(u, v)
    assert isinstance(out, NoClearance)
    assert out.reason == "divisor-not-polynomial"
    assert out.witness is not None
    assert len({te for _, te in out.witness.terms}) == 2
    assert "T1 - 1" in out.witness.render()


def test_clearance_certificate_identity_everywhere():
    u = mersenne(4) * polynomial([F(3)])
    v = mersenne(2) * polynomial([F(0), F(1)])
    out = polynomial_clearance(u, v)
    assert isinstance(out, QuotientCertificate)
    for n in range(1, 9):
        if v.evaluate(n) == 0:
            continue
        lhs = out.clearing_poly(F(n)) * u.evaluate(n) / v.evaluate(n)
        assert lhs == out.quotient.evaluate(n)
        assert v.evaluate(n) / out.clearing_poly(F(n)) == out.v_over_p.evaluate(n)


def test_clearance_min_denominator():
    u = geometric(2, F(1, 3))
    v = geometric(2)
    out = polynomial_clearance(u, v)
    assert isinstance(out, QuotientCertificate)
    assert out.quotient == constant(F(1, 3))
    assert out.min_denominator == 3


def test_cross_single_root_certificate():
    u = mersenne(3)
    v = from_closed_form([(F(2), UniPoly([F(0), F(2)]))])
    out = cross_quotient(u, v)
    assert isinstance(out, QuotientCertificate)
    assert out.clearing_poly == UniPoly([F(0), F(1)])
    assert out.v_over_p == geometric(2, F(2))
    for m in range(1, 5):
        for n in range(1, 5):
            lhs = out.clearing_poly(F(n)) * u.evaluate(m) / v.evaluate(n)
            assert lhs == out.quotient.evaluate(m, n)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from([F(2), F(3), F(1, 2)]),
                       st.lists(st.fractions(min_value=F(-6), max_value=F(6), max_denominator=5),
                                min_size=1, max_size=3)),
             min_size=1, max_size=3),
    st.sampled_from([F(2), F(3), F(5, 3)]),
    st.lists(st.fractions(min_value=F(-6), max_value=F(6), max_denominator=5),
             min_size=1, max_size=3).filter(lambda cs: cs[-1] not in (0, 1)),
)
def test_cross_min_denominator_clears_the_quotient(u_terms, beta, p_coeffs):
    # lc(p) != 1, so the quotient U(m) * beta^(-n) / lc(p) has new denominators.
    u = from_closed_form([(root, UniPoly(cs)) for root, cs in u_terms])
    v = from_closed_form([(beta, UniPoly(p_coeffs))])
    out = cross_quotient(u, v)
    assert isinstance(out, QuotientCertificate)
    denominators = [c.denominator for _, _, coeff in out.quotient.terms
                    for c in coeff.terms.values()]
    assert out.min_denominator == math.lcm(*denominators)


def test_cross_multiple_roots_refused():
    out = cross_quotient(mersenne(3), mersenne(2))
    assert isinstance(out, NoClearance)
    assert out.reason == "multiple-roots"
    assert "no polynomial P(n) makes both" in out.detail
    # No finiteness is claimed: mersenne(2) over itself is refused the same
    # way, yet (2^(kn) - 1)/(2^n - 1) is an integer for every k and n.
    same = cross_quotient(mersenne(2), mersenne(2))
    assert isinstance(same, NoClearance) and same.detail == out.detail
    assert "finitely" not in out.detail


def unit_with_torsion():
    """1 + 2*(-1)^n: 3 at even n, -1 at odd n, so 1/V = (2*(-1)^n - 1)/3."""
    return from_closed_form([(F(1), F(1)), (F(-1), F(2))])


def test_cross_torsion_still_checked():
    # V is a unit, so refusing it as "multiple-roots" would be false; its
    # roots 1 and -1 span -1, and that is what the solver reports.
    with pytest.raises(TorsionGroup):
        cross_quotient(geometric(3), unit_with_torsion())


def _cross_certificate_holds(out, u, v):
    p = from_closed_form([(1, out.clearing_poly)])
    assert p * out.v_over_p == v
    for m, n in itertools.product(range(4), range(4)):
        assert p.evaluate(n) * u.evaluate(m) == out.quotient.evaluate(m, n) * v.evaluate(n)


def test_cross_quotient_checks_torsion_only_on_a_divisor_with_several_roots():
    # 2^m / (-2)^n: the roots 2 and -2 span -1 together, but a one-root V
    # has the certificate P = 1, Q = 2^m * (-1/2)^n whatever the roots are.
    u, v = geometric(2), geometric(-2)
    out = cross_quotient(u, v)
    assert isinstance(out, QuotientCertificate)
    assert out.quotient.m_part == u and out.quotient.n_root == F(-1, 2)
    _cross_certificate_holds(out, u, v)
    # A zero U is cleared by P = 1 over any V, with Q = 0 and V/P = V.
    zero = LinearRecurrence(())
    for v in (mersenne(2), unit_with_torsion()):
        out = cross_quotient(zero, v)
        assert isinstance(out, QuotientCertificate)
        assert out.clearing_poly == UniPoly([1]) and out.v_over_p == v
        assert out.quotient.m_part.is_zero and out.min_denominator == 1
        _cross_certificate_holds(out, zero, v)


def test_cross_quotient_builds_no_basis(monkeypatch):
    # Only the sign pivot of the exponent HNF of V's roots is read: no
    # generator is expressed, and the torsion witness is still found when
    # read.
    calls = []
    real = multiplicative.hnf_express

    def hnf_express(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(multiplicative, "hnf_express", hnf_express)
    v = from_closed_form([(F(2), UniPoly([F(0), F(2)]))])
    assert isinstance(cross_quotient(mersenne(3), v), QuotientCertificate)
    assert isinstance(cross_quotient(mersenne(3), mersenne(2)), NoClearance)
    with pytest.raises(TorsionGroup) as caught:
        cross_quotient(geometric(3), from_closed_form([(F(-2), F(1)), (F(2), F(3))]))
    torsion = caught.value
    assert math.prod(F(r) ** e for r, e in zip(torsion.roots, torsion.exponents)) == -1
    assert calls == []


def test_cross_quotient_on_positive_roots_factors_nothing(monkeypatch):
    # 2^89 - 1 is a prime above the default factoring cap.  A one-root V
    # needs no torsion check, whatever the signs; a V with several roots and
    # a negative one runs the sign pivot, over the coprime base {2^89 - 1}
    # of its roots.  Nothing is factored either way.
    monkeypatch.setattr(factorization, "factor_int", _no_factoring)
    big = 2**89 - 1
    out = cross_quotient(geometric(big), geometric(3))
    assert isinstance(out, QuotientCertificate)
    assert out.quotient.m_part == geometric(big) and out.quotient.n_root == F(1, 3)
    out = cross_quotient(geometric(-big), geometric(3))
    assert isinstance(out, QuotientCertificate) and out.quotient.m_part == geometric(-big)
    with pytest.raises(TorsionGroup) as caught:
        cross_quotient(geometric(3), from_closed_form([(F(-big), F(1)), (F(big), F(1))]))
    assert caught.value.exponents == (1, -1)
    out = cross_quotient(geometric(3), from_closed_form([(F(-big), F(1)), (F(2 * big), F(1))]))
    assert isinstance(out, NoClearance) and out.reason == "multiple-roots"


def test_sections_split_torsion():
    u = from_closed_form([(F(2), F(1)), (F(-2), F(1))])
    v = geometric(2)
    results = solve_on_sections(u, v, "hadamard")
    assert [r.offsets for r in results] == [(0,), (1,)]
    even, odd = results
    assert even.outcome == constant(2)
    assert odd.outcome.is_zero


def test_sections_divisor_vanishes():
    u = geometric(4)
    v = from_closed_form([(F(2), F(1)), (F(-2), F(1))])
    results = solve_on_sections(u, v, "hadamard")
    assert results[1].outcome == "divisor-vanishes"
    assert results[0].outcome == geometric(4, F(1, 2))


def test_sections_cross_offsets():
    results = solve_on_sections(geometric(3), geometric(2), "cross")
    assert [r.offsets for r in results] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert all(isinstance(r.outcome, QuotientCertificate) for r in results)


def test_fallback_passthrough():
    out = solve_with_torsion_fallback(mersenne(4), mersenne(2), "hadamard")
    assert out == from_closed_form([(F(2), F(1)), (F(1), F(1))])


def test_fallback_decimates_on_torsion():
    u = from_closed_form([(F(2), F(1)), (F(-2), F(1))])
    v = geometric(2)
    with pytest.raises(TorsionGroup):
        solve_with_torsion_fallback(u, v, "hadamard")
    results = solve_with_torsion_fallback(u, v, "hadamard", decimate=True)
    assert isinstance(results, list)
    assert all(isinstance(r, SectionResult) for r in results)


@pytest.mark.parametrize("mode", ["hadamard", "clearance", "cross"])
def test_fallback_never_computes_the_torsion_witness(monkeypatch, mode):
    def no_kernel(rows):
        raise AssertionError("the fallback discards the witness; no kernel is due")

    monkeypatch.setattr(multiplicative, "left_kernel", no_kernel)
    # V's own roots span -1, since (-2) * 3 / 6 = -1: cross checks only those.
    u = from_closed_form([(F(2), F(1)), (F(-3), UniPoly([F(1), F(1)])), (F(6), F(-1))])
    v = from_closed_form([(F(-2), F(1)), (F(3), F(2)), (F(6), F(1))])
    results = solve_with_torsion_fallback(u, v, mode, decimate=True)
    assert all(isinstance(r, SectionResult) for r in results)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from([F(2), F(3), F(1, 2)]),
                       st.integers(min_value=-2, max_value=2).filter(bool)),
             min_size=1, max_size=2),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=3)
    .filter(lambda c: any(c)),
)
def test_clearance_identity_property(v_terms, p_coeffs):
    # U = V * polynomial guarantees clearance with P dividing that polynomial.
    v = from_closed_form([(r, F(c)) for r, c in v_terms])
    if v.is_zero:
        return
    p = polynomial([F(c) for c in p_coeffs])
    u = v * p
    out = polynomial_clearance(u, v)
    assert isinstance(out, QuotientCertificate)
    for n in range(1, 6):
        if v.evaluate(n) == 0:
            continue
        assert (
            out.clearing_poly(F(n)) * u.evaluate(n) / v.evaluate(n)
            == out.quotient.evaluate(n)
        )


# Under -O every assert is gone; the multiply-back check must still run.
_WRONG_DIVIDE = """
import sys
from recurquot.errors import VerificationFailed
from recurquot.quotient import hadamard_quotient
from recurquot.recurrences import LinearRecurrence, from_closed_form

if not sys.flags.optimize:
    raise SystemExit("not running under -O")
real_divide = LinearRecurrence._divide
# Doubles the true quotient: 2*2^n + 2 for (4^n - 1)/(2^n - 1).
LinearRecurrence._divide = lambda u, v: real_divide(u, v) * 2
try:
    hadamard_quotient(from_closed_form([(4, 1), (1, -1)]), from_closed_form([(2, 1), (1, -1)]))
except VerificationFailed as exc:
    print("VerificationFailed:", exc)
else:
    print("wrong quotient returned unchecked")
"""


def test_wrong_quotient_is_caught_under_optimize():
    assert_caught_under_optimize(_WRONG_DIVIDE)


# The multiply-back runs on cleared integer forms; a quotient that is off
# by 1/scale in one coefficient, the least step those forms can see, must
# still fail it under -O.
_WRONG_COEFFICIENT = """
import sys
from fractions import Fraction
from recurquot.errors import VerificationFailed
from recurquot.quotient import hadamard_quotient
from recurquot.recurrences import LinearRecurrence, from_closed_form

if not sys.flags.optimize:
    raise SystemExit("not running under -O")
real_divide = LinearRecurrence._divide

def off_by_one_over_scale(u, v):
    # Adds 1/scale to the constant coefficient of the smallest root.
    result = real_divide(u, v)
    (root, (c0, *cs)), *rest = result.cleared_terms
    return LinearRecurrence(((root, (c0 + 1, *cs)), *rest), result.scale, result.base)

LinearRecurrence._divide = off_by_one_over_scale
q = from_closed_form([(2, Fraction(1, 3)), (3, [Fraction(5, 2), Fraction(-1, 4)])])
v = from_closed_form([(2, 1), (1, -1)])
try:
    hadamard_quotient(q * v, v)
except VerificationFailed as exc:
    print("VerificationFailed:", exc)
else:
    print("wrong quotient returned unchecked")
"""


def test_wrong_quotient_coefficient_is_caught_under_optimize():
    assert_caught_under_optimize(_WRONG_COEFFICIENT)


# A quotient root one prime too large: the division's largest root is
# doubled, on (8^n - 1)/(2^n - 1), which ends within u.order terms, and on
# ((2^50)^n - 1)/(2^n - 1), whose 50 terms build the exponent box first.
# Each must fail the multiply-back under -O.
_WRONG_ROOT = """
import sys
from recurquot.errors import VerificationFailed
from recurquot.quotient import hadamard_quotient
from recurquot.recurrences import LinearRecurrence, from_closed_form

if not sys.flags.optimize:
    raise SystemExit("not running under -O")
real_divide = LinearRecurrence._divide

def shifted_root(u, v):
    result = real_divide(u, v)
    *rest, (root, coeffs) = result.cleared_terms
    return LinearRecurrence((*rest, (root * 2, coeffs)), result.scale, result.base)

LinearRecurrence._divide = shifted_root
for a in (8, 2**50):
    try:
        hadamard_quotient(from_closed_form([(a, 1), (1, -1)]), from_closed_form([(2, 1), (1, -1)]))
    except VerificationFailed as exc:
        print("VerificationFailed:", exc)
    else:
        print("a wrong quotient root went unchecked")
"""


def test_wrong_quotient_root_is_caught_under_optimize():
    assert_caught_under_optimize(_WRONG_ROOT, count=2)


# The clearance certificate is re-checked as recurrences: P*U == Q*V and
# V == P*(V/P).  U = 2^n - 1 and V = n*(2^n - 1), so the X-content of V is
# P = X, V' = V/X = 2^n - 1 and Q = U/V' = 1.  "all" doubles every
# division: V' and V/P = V/X come out doubled, and Q = U/V' right, the
# doublings cancelling, so only the second check can fail.  "v_over_p"
# doubles only the divisions by X, so Q is halved as well.
_WRONG_CLEARANCE = """
import sys
import recurquot.quotient as quotient
from recurquot.errors import VerificationFailed
from recurquot.recurrences import LinearRecurrence, from_closed_form

if not sys.flags.optimize:
    raise SystemExit("not running under -O")
mode = sys.argv[1]
real_divide = LinearRecurrence._divide

def wrong_divide(u, v):
    q = real_divide(u, v)
    by_x = v.roots == (1,)
    if q is None or (mode == "v_over_p" and not by_x):
        return q
    return q * 2

LinearRecurrence._divide = wrong_divide
try:
    quotient.polynomial_clearance(
        from_closed_form([(2, 1), (1, -1)]), from_closed_form([(2, [0, 1]), (1, [0, -1])])
    )
except VerificationFailed as exc:
    print("VerificationFailed:", exc)
else:
    print("wrong certificate returned unchecked")
"""


@pytest.mark.parametrize("mode", ["all", "v_over_p"])
def test_wrong_clearance_is_caught_under_optimize(mode):
    assert_caught_under_optimize(_WRONG_CLEARANCE, mode)


# The cross certificate is multiplied back too: U = lc(p) * m_part,
# n_root^n * V = lc(p) * P and V = P * (V/P).  "n_root" doubles the
# quotient's root in n, "m_part" doubles its m-part, and "v_over_p"
# doubles V/P.  U = 3^m - 1, V = 2n * 2^n, P = X.
_WRONG_CROSS = """
import sys
import recurquot.quotient as quotient
from recurquot.errors import VerificationFailed
from recurquot.recurrences import MultiRecurrence, from_closed_form, geometric

if not sys.flags.optimize:
    raise SystemExit("not running under -O")
mode = sys.argv[1]
if mode == "n_root":
    quotient.MultiRecurrence = lambda m_part, n_root: MultiRecurrence(m_part, 2 * n_root)
elif mode == "m_part":
    quotient.MultiRecurrence = lambda m_part, n_root: MultiRecurrence(m_part * 2, n_root)
else:
    # Only V/P = 2 * 2^n is built with a coefficient.
    quotient.geometric = lambda base, coeff=1: geometric(base, coeff * (1 if coeff == 1 else 2))
try:
    quotient.cross_quotient(
        from_closed_form([(3, 1), (1, -1)]), from_closed_form([(2, [0, 2])])
    )
except VerificationFailed as exc:
    print("VerificationFailed:", exc)
else:
    print("wrong certificate returned unchecked")
"""


@pytest.mark.parametrize("mode", ["n_root", "m_part", "v_over_p"])
def test_wrong_cross_certificate_is_caught_under_optimize(mode):
    assert_caught_under_optimize(_WRONG_CROSS, mode)


# U = 10^n + 2*15^n over V = 5^n has the quotient 2^n + 2*3^n.  Swapping
# the coefficients of its two roots gives 3^n + 2*2^n, which the division
# of either solver (clearance's V has X-content 1, so it divides U by V
# itself) may not return unchecked: only the multiply-back can catch the
# swap, and it must under -O.
_SWAPPED_POSITIONS = """
import sys
import recurquot.quotient as quotient
from recurquot.errors import VerificationFailed
from recurquot.recurrences import LinearRecurrence, from_closed_form

if not sys.flags.optimize:
    raise SystemExit("not running under -O")
real_divide = LinearRecurrence._divide

def swapped_divide(u, v):
    result = real_divide(u, v)
    (r1, c1), (r2, c2), *rest = result.cleared_terms
    return LinearRecurrence(((r1, c2), (r2, c1), *rest), result.scale, result.base)

LinearRecurrence._divide = swapped_divide
solve = getattr(quotient, sys.argv[1])
try:
    solve(from_closed_form([(10, 1), (15, 2)]), from_closed_form([(5, 1)]))
except VerificationFailed as exc:
    print("VerificationFailed:", exc)
else:
    print("swapped positions went unchecked")
"""


@pytest.mark.parametrize("solver", ["hadamard_quotient", "polynomial_clearance"])
def test_swapped_root_positions_are_caught_under_optimize(solver):
    assert_caught_under_optimize(_SWAPPED_POSITIONS, solver)


def test_case_of_the_swapped_positions_test():
    u = from_closed_form([(F(10), F(1)), (F(15), F(2))])
    v = geometric(5)
    q = from_closed_form([(F(2), F(1)), (F(3), F(2))])
    assert hadamard_quotient(u, v) == q
    out = polynomial_clearance(u, v)
    assert isinstance(out, QuotientCertificate)
    assert out.clearing_poly == UniPoly([F(1)]) and out.quotient == q


def test_clearance_case_of_the_optimize_test():
    u = mersenne()
    v = from_closed_form([(F(2), UniPoly([F(0), F(1)])), (F(1), UniPoly([F(0), F(-1)]))])
    out = polynomial_clearance(u, v)
    assert isinstance(out, QuotientCertificate)
    assert out.clearing_poly == UniPoly([F(0), F(1)])
    assert out.quotient == constant(1) and out.v_over_p == u


def _integers_of(*recs):
    """Each distinct |R| of the recurrences' integer roots, and their bases."""
    roots = {abs(r) for rec in recs for r, _ in rec.cleared_terms}
    return sorted(roots | {rec.base for rec in recs})


def test_each_root_is_factored_once_per_solve(monkeypatch):
    # Each root is factored at most once: not at all.  The integer roots 40,
    # 24, 5, 12 over the base 4 and 2, 3 over the base 3 are read over their
    # coprime base {2, 3, 5}, for the refusal's basis and its conversion.
    monkeypatch.setattr(factorization, "factor_int", _no_factoring)
    u = from_closed_form([(F(10), F(1)), (F(6), F(-1)), (F(5, 4), F(-3)), (F(3), F(3))])
    v = from_closed_form([(F(2, 3), F(1)), (F(1), F(-1))])
    assert _integers_of(u, v) == [2, 3, 4, 5, 12, 24, 40]
    out = polynomial_clearance(u, v)
    assert isinstance(out, NoClearance)
    assert out.witness.basis.base == (2, 3, 5)
    assert from_group_ring(out.witness) == from_closed_form([(F(2), F(1)), (F(3), F(-1))])


def test_solvers_never_read_the_rational_roots(monkeypatch):
    def roots(self):
        raise AssertionError("a solver read the rational roots")

    monkeypatch.setattr(LinearRecurrence, "roots", property(roots))
    q = from_closed_form([(F(2, 3), F(1)), (F(3), UniPoly([F(1), F(1)]))])
    v = from_closed_form([(F(2), F(1)), (F(3, 5), F(2))])
    assert hadamard_quotient(q * v, v) == q
    assert isinstance(polynomial_clearance(q * v, mersenne()), NoClearance)
    # -1 = (-2)^2 / (-4) is in the root group of the next pair.
    q = from_closed_form([(F(2), F(1)), (F(-3), UniPoly([F(1), F(1)]))])
    v = from_closed_form([(F(-2), F(1)), (F(3), F(2))])
    sections = solve_with_torsion_fallback(q * v, v, "hadamard", decimate=True)
    assert [r.offsets for r in sections] == [(0,), (1,)]
    assert [r.outcome for r in sections] == [q.decimate(2, 0), q.decimate(2, 1)]


# q*v over v with -1 in the root group: (-2)^2 / (-4) = -1.  With "cancel",
# 5^n - (-5)^n vanishes on the even section only, so the odd section is
# refused.  The sections' roots are positive, so both solvers divide on
# the roots and build no basis, except for a clearance refusal's witness.
# Each root is factored at most once: not at all, neither by the failing
# first attempt's sign pivot nor by a section's basis.
@pytest.mark.parametrize("cancel", [False, True])
@pytest.mark.parametrize("mode", ["hadamard", "clearance"])
def test_torsion_fallback_factors_each_root_once(monkeypatch, mode, cancel):
    bases = []
    real_basis = quotient.compute_basis

    def compute_basis(*args, **kwargs):
        bases.append(real_basis(*args, **kwargs))
        return bases[-1]

    monkeypatch.setattr(factorization, "factor_int", _no_factoring)
    monkeypatch.setattr(quotient, "compute_basis", compute_basis)
    q = from_closed_form([(F(2), F(1)), (F(-3, 2), UniPoly([F(1), F(1)]))])
    v = from_closed_form([(F(-2), F(1)), (F(3), F(2))])
    u = q * v
    if cancel:
        u = u + geometric(5) - geometric(-5)
    results = solve_with_torsion_fallback(u, v, mode, decimate=True)
    assert [r.offsets for r in results] == [(0,), (1,)]
    assert len(bases) == (mode == "clearance" and cancel)


# Signed roots +-2^a * 3^b * 5^c with a, b, c in -2..2, so roots share
# denominators and -1 is often in the span; v takes some of u's roots.
signed_roots = st.builds(
    lambda sign, a, b, c: sign * F(2) ** a * F(3) ** b * F(5) ** c,
    st.sampled_from((1, -1)),
    *(st.integers(min_value=-2, max_value=2) for _ in range(3)),
)
coefficients = st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=2).filter(any)


@st.composite
def recurrence_pairs(draw, roots=signed_roots):
    u_roots = draw(st.lists(roots, min_size=1, max_size=5, unique=True))
    shared = draw(st.lists(st.sampled_from(u_roots), max_size=2, unique=True))
    v_roots = draw(st.lists(roots, max_size=4, unique=True).map(lambda xs: list({*xs, *shared})))
    if not v_roots:
        v_roots = [u_roots[0]]
    u, v = (
        from_closed_form([(root, draw(coefficients)) for root in rs]) for rs in (u_roots, v_roots)
    )
    return u, v


@settings(max_examples=200, deadline=None)
@given(recurrence_pairs())
def test_combined_basis_matches_the_fraction_oracle(pair):
    # The integer rows over a coprime base against the oracle that factors
    # every rational root by trial division: the generators, signs,
    # expressions and torsion witnesses agree, and the base coordinates
    # give the generators back.
    u, v = pair
    values = u.roots + v.roots
    try:
        expected = basis_oracle.compute_basis(values)
    except basis_oracle.Torsion as torsion:
        with pytest.raises(TorsionGroup) as info:
            quotient.combined_basis(u, v)
        assert info.value.roots == values
        assert info.value.exponents == torsion.exponents
        return
    primes, generators, matrix, signs, expressions = expected
    for basis in (quotient.combined_basis(u, v), compute_basis(values)):
        assert basis.values == values
        assert (basis.generators, basis.generator_signs, basis.expressions) \
            == (generators, signs, expressions)
        basis_oracle.check_coordinates(basis.base, basis.generators, basis.matrix, signs)


@settings(max_examples=150, deadline=None)
@given(recurrence_pairs(roots=signed_roots.map(abs)))
def test_group_ring_forms_by_position_match_the_express_map(pair):
    u, v = pair
    basis = quotient.combined_basis(u, v)
    fu, fv = quotient._laurent_forms(u, v)
    for rec, f in ((u, fu), (v, fv)):
        terms = {
            (d, basis.express(root)): c
            for root, coeff in rec.terms
            for d, c in enumerate(coeff.coeffs)
            if c
        }
        assert f == GroupRingElement(basis, terms)
        assert f.terms == GroupRingElement(basis, terms).terms
        assert f == to_group_ring(rec, basis, [basis.express(root) for root in rec.roots])
        assert from_group_ring(f) == rec


def _divide_over_combined_basis(u, v):
    """U/V by division in the group ring of the canonical basis, or None.

    This is the division clearance keeps; hadamard_quotient divides on
    the roots themselves and builds no basis.
    """
    fu, fv = quotient._laurent_forms(u, v)
    quo = laurent_divide(fu, fv)
    return None if quo is None else from_group_ring(quo)


# Positive roots in the span of one to three atoms.  The primes often
# outnumber the atoms (6 and 10/3 span rank 2 over 2, 3, 5), and with 4 or
# 9/5 among them the span does not fill the prime lattice.
ATOMS = (F(6), F(4), F(9, 5), F(10, 3), F(7, 2))


@st.composite
def positive_pairs(draw):
    atoms = draw(st.lists(st.sampled_from(ATOMS), min_size=1, max_size=3, unique=True))
    roots = st.tuples(*(st.integers(min_value=-1, max_value=2) for _ in atoms)).map(
        lambda es: math.prod((a**e for a, e in zip(atoms, es)), start=F(1)))
    return draw(recurrence_pairs(roots=roots))


@settings(max_examples=200, deadline=None)
@given(positive_pairs())
def test_hadamard_over_the_primes_matches_the_canonical_basis(pair):
    # Positive roots: the long division on the roots against the group ring
    # of the canonical basis, on exact quotients and on refusals.
    q, v = pair
    assert hadamard_quotient(q * v, v) == q
    for u in (q * v, q, q * v + geometric(q.roots[0])):
        assert repr(hadamard_quotient(u, v)) == repr(_divide_over_combined_basis(u, v))


@settings(max_examples=200, deadline=None)
@given(recurrence_pairs())
def test_hadamard_on_signed_roots_matches_the_canonical_basis(pair):
    # Signed roots: both sides raise TorsionGroup when -1 is in the span,
    # and otherwise agree.  A zero dividend (a pointwise product of two
    # non-zero sequences can vanish when -1 is in the span) has the zero
    # quotient before any torsion check.
    q, v = pair
    for u in (q * v, q, q * v + geometric(q.roots[-1])):
        if u.is_zero:
            assert hadamard_quotient(u, v) == LinearRecurrence(())
            continue
        try:
            expected = _divide_over_combined_basis(u, v)
        except TorsionGroup:
            with pytest.raises(TorsionGroup):
                hadamard_quotient(u, v)
            continue
        assert repr(hadamard_quotient(u, v)) == repr(expected)
        if u == q * v:
            assert hadamard_quotient(u, v) == q


@pytest.mark.parametrize("u, v, expected", [
    (mersenne(8), mersenne(2), from_closed_form([(F(4), F(1)), (F(2), F(1)), (F(1), F(1))])),
    (geometric(36), geometric(6), geometric(6)),
    (mersenne(F(9, 4)), mersenne(F(3, 2)), from_closed_form([(F(3, 2), F(1)), (F(1), F(1))])),
])
def test_hadamard_over_the_primes_pinned(u, v, expected):
    assert hadamard_quotient(u, v) == expected == _divide_over_combined_basis(u, v)


def test_hadamard_refusal_on_dense_roots_is_fast():
    # 1000 and 999 span a dense subgroup of the positive reals, so the
    # size bounds alone let the division run on for minutes; the exponent
    # box (3-exponents in [0, -3], which is empty) ends it at once.
    u = from_closed_form([(F(10**6), F(1)), (F(1), F(1))])
    v = from_closed_form([(F(1000), F(1)), (F(999), F(-1))])
    start = time.perf_counter()
    assert hadamard_quotient(u, v) is None
    assert time.perf_counter() - start < 1
    assert _divide_over_combined_basis(u, v) is None


def test_hadamard_builds_the_exponent_box_past_u_order_terms(monkeypatch):
    # (2^50)^n - 1 over 2^n - 1 has the 50 terms (2^k)^n, k < 50, and u has
    # order 2, so the box is built and every term passes it.
    boxes = []
    real_box = recurrences._exponent_box

    def exponent_box(u, v):
        boxes.append((u, v))
        return real_box(u, v)

    monkeypatch.setattr(recurrences, "_exponent_box", exponent_box)
    expected = from_closed_form([(F(2**k), F(1)) for k in range(50)])
    assert hadamard_quotient(mersenne(2**50), mersenne(2)) == expected
    assert boxes == [(mersenne(2**50), mersenne(2))]
    assert _divide_over_combined_basis(mersenne(2**50), mersenne(2)) == expected
    # (4^n - 1)/(2^n - 1) = 2^n + 1 ends within u.order terms.
    boxes.clear()
    assert hadamard_quotient(mersenne(4), mersenne(2)) == mersenne(2) + constant(2)
    assert boxes == []


def test_hadamard_lead_selection_is_exact():
    # Roots above 2^1100 have no float: float() overflows past 2^1024.
    with pytest.raises(OverflowError):
        float(2**1101)
    # 10^21 and 10^21 + 1 differ in ratio by 1e-21, so their floats are equal.
    assert float(10**21) == float(10**21 + 1)
    v = from_closed_form([(F(3), F(1)), (F(2), F(-1))])
    for a, b in ((F(2**1101), F(3**695)), (F(10**21), F(10**21 + 1))):
        q = from_closed_form([(a, F(1)), (b, F(2))])
        w = from_closed_form([(b, F(1)), (a, F(-1))])
        for divisor in (v, w):
            assert hadamard_quotient(q * divisor, divisor) == q
            assert hadamard_quotient(q * divisor + geometric(2 * a), divisor) is None


@pytest.mark.parametrize("cancel", [False, True])
def test_hadamard_sections_over_the_primes(cancel):
    # -1 = (-2)^2 / (-4) is in the root group, so the division runs on the
    # sections mod 2, whose roots are positive.  With "cancel" the odd
    # section is no longer divisible.
    q = from_closed_form([(F(2), F(1)), (F(-3, 2), UniPoly([F(1), F(1)]))])
    v = from_closed_form([(F(-2), F(1)), (F(3), F(2))])
    u = q * v
    if cancel:
        u = u + geometric(5) - geometric(-5)
    sections = solve_with_torsion_fallback(u, v, "hadamard", decimate=True)
    outcomes = [section.outcome for section in sections]
    assert outcomes == [_divide_over_combined_basis(u.decimate(2, r), v.decimate(2, r))
                        for r in (0, 1)]
    assert outcomes == [q.decimate(2, 0), None if cancel else q.decimate(2, 1)]


def test_hadamard_on_positive_roots_builds_no_hnf(monkeypatch):
    calls = []
    for name in ("row_hnf", "hnf_express"):
        def traced(*args, real=getattr(multiplicative, name), name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(multiplicative, name, traced)
    monkeypatch.setattr(factorization, "factor_int", _no_factoring)
    assert hadamard_quotient(mersenne(4), mersenne(2)) == mersenne(2) + constant(2)
    assert hadamard_quotient(mersenne(3), mersenne(2)) is None
    assert hadamard_quotient(geometric(36), geometric(6)) == geometric(6)
    # (8^n - 1)/(2^n - 1) has 3 terms, more than u.order = 2, so it builds
    # its exponent box, over the coprime base {2} of the roots 8, 2 and 1:
    # nothing is factored.
    assert hadamard_quotient(mersenne(8), mersenne(2)) == from_closed_form(
        [(F(4), F(1)), (F(2), F(1)), (F(1), F(1))])
    assert calls == []
    # A signed root still runs the sign pivot, which reads the roots over
    # their coprime base, factoring nothing, and finds -1 in their span.
    with pytest.raises(TorsionGroup):
        hadamard_quotient(geometric(-2), geometric(2))
    assert calls == ["row_hnf"]


def test_positive_hadamard_factors_nothing_within_u_order_terms(monkeypatch):
    # p = 2^89 - 1 is a prime above the default factoring cap.  The division
    # ends after one term, within u.order, so it builds no exponent box and
    # factors nothing; it used to factor every root and raise
    # FactorizationLimit (CLI exit 3).
    calls = []
    real_factor = factorization.factor_int

    def factor_int(n):
        calls.append(n)
        return real_factor(n)

    monkeypatch.setattr(factorization, "factor_int", factor_int)
    p = 2**89 - 1
    u = from_closed_form([(F(2 * p), F(1)), (F(2), F(-1))])
    assert hadamard_quotient(u, mersenne(p)) == geometric(2)
    assert calls == []
    # ((p^3)^n - 1)/(p^n - 1) = p^(2n) + p^n + 1 runs past u.order = 2
    # terms, so it builds its exponent box: over the coprime base {p}, found
    # by gcds, not by factoring p^3.
    expected = from_closed_form([(F(p**2), F(1)), (F(p), F(1)), (F(1), F(1))])
    assert hadamard_quotient(mersenne(p**3), mersenne(p)) == expected
    assert calls == []


def test_large_clearance_builds_its_basis_quickly():
    # A seeded (rank 4, 16 terms, degree 4) case of a*c over b*c: about
    # 425 distinct roots over the primes 2, 3, 5, 7.  The basis used to keep
    # a unimodular transform with one row and column per root, and this case
    # took 4-7 s; a basis with one column per prime takes it well under 2 s.
    rng = random.Random(0)
    pool = sorted({
        F(2) ** i * F(3) ** j * F(5) ** k * F(7) ** m
        for i, j, k, m in itertools.product(range(-1, 3), repeat=4)
    })

    def form():
        pairs = []
        for root in rng.sample(pool, 16):
            coeffs = [F(rng.randint(-3, 3)) for _ in range(rng.randint(0, 4) + 1)]
            if coeffs[-1] == 0:
                coeffs[-1] = F(rng.choice((-2, -1, 1, 2)))
            pairs.append((root, UniPoly(coeffs)))
        return from_closed_form(pairs)

    a, b, c = form(), form(), form()
    start = time.perf_counter()
    out = polynomial_clearance(a * c, b * c)
    elapsed = time.perf_counter() - start
    assert isinstance(out, NoClearance) and out.reason == "divisor-not-polynomial"
    assert elapsed < 2, f"{elapsed:.2f} s"


def test_caller_limit_reaches_every_factorization(monkeypatch):
    # 2^89 - 1 is a prime above the default cap.  No quotient call factors,
    # the sign pivot of a signed input included, so the cap does not touch
    # them.  ``express`` factors what the base leaves of a value outside
    # the inputs, to name its stray prime, under the caller's cap.
    p = 2**89 - 1
    u = from_closed_form([(F(-2 * p), F(1)), (F(-2), F(-1))])
    v = mersenne(p)
    with monkeypatch.context() as patch:
        patch.setattr(factorization, "factor_int", _no_factoring)
        for cap in (2**90, 2):
            with factor_limit(cap):
                assert hadamard_quotient(u, v) == geometric(-2)
                out = polynomial_clearance(u, v)
                assert isinstance(out, QuotientCertificate) and out.quotient == geometric(-2)
    basis = compute_basis((F(2), F(p)))
    assert basis.express(F(4 * p)) == (2, 1)
    stray = F(3 * (2**127 - 1) * p, 4)
    with pytest.raises(FactorizationLimit):
        basis.express(stray)
    with factor_limit(2**128), pytest.raises(RootNotInGroup, match="the prime 3, outside"):
        basis.express(stray)


# Two primes above the trial bound and, for the second, above the default
# factoring cap: Pollard rho took about 47 s on N and then raised
# FactorizationLimit, when the quotient solvers still factored their roots.
N = (2**61 - 1) * (2**64 + 13)
N_MINUS_THREE = from_closed_form([(F(-N), F(1)), (F(3), F(-1))])
TWO_PLUS_ONE = mersenne(2) + constant(2)


def test_large_prime_roots_answer_without_factoring(monkeypatch):
    monkeypatch.setattr(factorization, "factor_int", _no_factoring)
    start = time.perf_counter()
    assert hadamard_quotient(N_MINUS_THREE * TWO_PLUS_ONE, TWO_PLUS_ONE) == N_MINUS_THREE
    assert time.perf_counter() - start < 1
    start = time.perf_counter()
    u = from_closed_form([(F(N), F(1)), (F(3), F(-1))]) * TWO_PLUS_ONE
    six_five = from_closed_form([(F(6), F(1)), (F(5), F(2))])
    out = polynomial_clearance(u, six_five * TWO_PLUS_ONE)
    assert isinstance(out, NoClearance) and out.reason == "divisor-not-polynomial"
    assert from_group_ring(out.witness) == six_five
    assert out.witness.render() == "T1*T2 + 2*T3"
    assert out.witness.basis.generators == (2, 3, 5, N)
    assert time.perf_counter() - start < 1


def test_no_quotient_call_factors(monkeypatch, tmp_path):
    # Every entry point on signed roots over N, with factor_int raising: the
    # sign pivot, the refusal's basis and witness, the torsion fallback in
    # each mode and the basis subcommand read a coprime base.
    from recurquot.cli import main

    monkeypatch.setattr(factorization, "factor_int", _no_factoring)
    v = TWO_PLUS_ONE
    assert hadamard_quotient(N_MINUS_THREE * v, v) == N_MINUS_THREE
    out = polynomial_clearance(N_MINUS_THREE * v, from_closed_form([(F(-N), F(1)), (F(5), F(1))]))
    assert isinstance(out, NoClearance)
    assert from_group_ring(out.witness) == from_closed_form([(F(-N), F(1)), (F(5), F(1))])
    assert out.witness.render() in out.detail
    assert isinstance(cross_quotient(N_MINUS_THREE, v), NoClearance)
    torsion = from_closed_form([(F(N), F(1)), (F(-N), F(1))])
    for mode in ("hadamard", "clearance", "cross"):
        with pytest.raises(TorsionGroup):
            solve_with_torsion_fallback(N_MINUS_THREE, torsion, mode)
        sections = solve_with_torsion_fallback(N_MINUS_THREE, torsion, mode, decimate=True)
        assert len(sections) == (4 if mode == "cross" else 2)
    spec = tmp_path / "n.json"
    spec.write_text(f'{{"closed_form": [{{"root": "-{N}", "coeff": "1"}}, '
                    f'{{"root": "{2 * N}", "coeff": "1"}}]}}')
    text = io.StringIO()
    assert main(["basis", str(spec)], out=text) == 0
    assert text.getvalue().startswith(f"rank 2 basis: -2, -{N}\n")


def test_positive_clearance_certificate_factors_nothing(monkeypatch):
    # U = (2p)^n - 2^n = 2^n * (p^n - 1) over V = n * (p^n - 1), with the
    # prime p = 2^89 - 1 above the default cap.  The X-content of V is X,
    # and the division on the roots factors nothing; the canonical basis
    # used to factor p and raise FactorizationLimit.
    calls = []
    real_factor = factorization.factor_int

    def factor_int(n):
        calls.append(n)
        return real_factor(n)

    monkeypatch.setattr(factorization, "factor_int", factor_int)
    p = 2**89 - 1
    u = from_closed_form([(F(2 * p), F(1)), (F(2), F(-1))])
    v = from_closed_form([(F(p), UniPoly([F(0), F(1)])), (F(1), UniPoly([F(0), F(-1)]))])
    out = polynomial_clearance(u, v)
    assert isinstance(out, QuotientCertificate)
    assert out.clearing_poly == UniPoly([F(0), F(1)])
    assert out.quotient == geometric(2) and out.v_over_p == mersenne(p)
    assert calls == []


def test_clearance_certificate_builds_no_basis_and_takes_no_gcd(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a certificate needs no basis and no gcd")

    monkeypatch.setattr(quotient, "laurent_gcd", forbidden)
    monkeypatch.setattr(quotient, "compute_basis", forbidden)
    n_mersenne = from_closed_form([(F(2), UniPoly([F(0), F(1)])), (F(1), UniPoly([F(0), F(-1)]))])
    cases = [
        (geometric(5), polynomial([F(0), F(1), F(1)])),
        (geometric(3) * mersenne(2), polynomial([F(1), F(1)]) * mersenne(2)),
        (mersenne(), n_mersenne),
        (polynomial([F(0), F(1)]) * mersenne(4), polynomial([F(0), F(2), F(2)]) * mersenne(2)),
        (LinearRecurrence(()), mersenne(3)),
    ]
    for u, v in cases:
        assert isinstance(polynomial_clearance(u, v), QuotientCertificate)


# Positive roots over 2, 3, 5 with exponents -1..2, as in the bench's
# quotient ladder, and now and then a negative one, so -1 may be in the span.
ladder_roots = st.builds(
    lambda sign, a, b, c: sign * F(2) ** a * F(3) ** b * F(5) ** c,
    st.sampled_from((1,) * 7 + (-1,)),
    *(st.integers(min_value=-1, max_value=2) for _ in range(3)),
)
x_polys = st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=3).filter(any)


@st.composite
def ladder_forms(draw, max_terms=3):
    roots = draw(st.lists(ladder_roots, min_size=1, max_size=max_terms, unique=True))
    return from_closed_form([(root, UniPoly(draw(x_polys))) for root in roots])


@settings(max_examples=150, deadline=None)
@given(ladder_forms(), ladder_forms(), ladder_forms(max_terms=2), x_polys, x_polys,
       st.sampled_from(("a*c*x", "a*c", "c", "zero")))
def test_clearance_matches_the_group_ring_oracle(a, b, c, px, qx, shape):
    # a*c*px over b*c*qx: a common factor c, X-contents px and qx, and
    # sometimes U = c (a certificate when b has one root) or U = 0.  The
    # oracle's basis is over the primes, so each refusal witness must equal
    # the witness over the prime-canonical basis, T_i names included.
    u = {"a*c*x": a * c * polynomial(px), "a*c": a * c, "c": c,
         "zero": LinearRecurrence(())}[shape]
    v = b * c * polynomial(qx)
    if v.is_zero:
        return
    try:
        expected = group_ring_clearance(u, v)
    except TorsionGroup:
        with pytest.raises(TorsionGroup):
            polynomial_clearance(u, v)
        return
    out = polynomial_clearance(u, v)
    if expected[0] == "refusal":
        assert isinstance(out, NoClearance) and out.reason == "divisor-not-polynomial"
        assert out.witness == expected[1] and out.witness.render() == expected[1].render()
    else:
        assert isinstance(out, QuotientCertificate)
        assert (out.clearing_poly, out.quotient, out.v_over_p, out.min_denominator) \
            == expected[1:]


def test_unknown_mode_names_the_valid_ones():
    for call in (solve_with_torsion_fallback, solve_on_sections):
        with pytest.raises(InputError, match="hadamard, clearance, cross"):
            call(mersenne(4), mersenne(), "quotient")


def test_section_solver_is_looked_up_per_call(monkeypatch):
    seen = []
    real = quotient.hadamard_quotient

    def traced(u, v):
        seen.append((u, v))
        return real(u, v)

    monkeypatch.setattr(quotient, "hadamard_quotient", traced)
    # 2^n + (-2)^n over 2^n: torsion, so the direct call fails and two sections run.
    u = from_closed_form([(F(2), F(1)), (F(-2), F(1))])
    results = solve_with_torsion_fallback(u, geometric(2), "hadamard", decimate=True)
    assert [r.outcome for r in results] == [constant(2), LinearRecurrence(())]
    assert len(seen) == 3
