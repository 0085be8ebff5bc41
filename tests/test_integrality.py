import pickle
import time
from fractions import Fraction

import pytest

from optimized import assert_caught_under_optimize
from recurquot.errors import BadPrime, FactorizationLimit, InputError, ZeroInput
from recurquot.factorization import euler_phi, factor_limit
from recurquot.heights import SIntegerSpec
from recurquot.integrality import (
    FixedDenominator,
    PolynomialDenominatorBound,
    SearchHit,
    integrality_search,
    obstruction_scan,
)
from recurquot.places import valuation
from recurquot.recurrences import (
    LinearRecurrence,
    constant,
    from_closed_form,
    geometric,
    polynomial,
)

F = Fraction


def mersenne(base):
    return from_closed_form([(F(base), F(1)), (F(1), F(-1))])


def test_policy_validation():
    with pytest.raises(InputError):
        FixedDenominator(0)
    with pytest.raises(InputError):
        PolynomialDenominatorBound(-1)


def test_search_known_grid():
    hits = integrality_search(mersenne(3), mersenne(2), 10, 4, FixedDenominator(1))
    divisor_one = [SearchHit(m, 1, 1) for m in range(1, 11)]
    assert hits == sorted(divisor_one + [SearchHit(6, 3, 1)], key=lambda h: (h.n, h.m))


def test_search_brute_force_agreement():
    u, v = mersenne(3), mersenne(2)
    hits = integrality_search(u, v, 12, 6, FixedDenominator(1))
    expected = set()
    for n in range(1, 7):
        for m in range(1, 13):
            ratio = u.evaluate(m) / v.evaluate(n)
            if ratio.denominator == 1:
                expected.add((m, n))
    assert {(h.m, h.n) for h in hits} == expected
    assert all(h.d == 1 for h in hits)


def test_search_totient_mode_reaches_past_grid():
    hits = integrality_search(
        mersenne(3), mersenne(2), 3, 5, FixedDenominator(1), totient=True
    )
    assert SearchHit(30, 5, 1) in hits
    assert all(h.m <= 3 or h.n in (1, 3, 5) for h in hits)


def test_totient_search_to_n_60_is_fast():
    # phi(2^59 - 1) is about 5.8e17: the exact value 3^phi - 1 cannot be
    # built, but its residue mod 2^n - 1 is one pow.
    start = time.perf_counter()
    hits = integrality_search(
        mersenne(3), mersenne(2), 1, 60, FixedDenominator(1), totient=True
    )
    assert time.perf_counter() - start < 2
    # Euler: 2^n - 1 divides 3^phi(2^n - 1) - 1 when 3 does not divide
    # 2^n - 1, that is for odd n.  For even n, 3 divides 2^n - 1 but not
    # 3^phi - 1, and U(1) = 2 is only divisible by V(1) = 1.
    assert hits == [SearchHit(euler_phi(2**n - 1), n, 1) for n in range(1, 61, 2)]


def test_totient_search_with_a_root_denominator_is_fast():
    # U(m) = (3/2)^m - 1 = (3^m - 2^m) / 2^m: the 2-part of the
    # denominator is read as a valuation, so 2^phi is never reduced
    # against.  3^phi == 2^phi == 1 mod 2^n - 1 for odd n.
    u = from_closed_form([(F(3, 2), F(1)), (F(1), F(-1))])
    start = time.perf_counter()
    assert integrality_search(u, mersenne(2), 1, 24, FixedDenominator(1), totient=True) == []
    hits = integrality_search(
        u, mersenne(2), 1, 40, FixedDenominator(1), SIntegerSpec([2]), totient=True
    )
    assert time.perf_counter() - start < 2
    assert hits == [SearchHit(euler_phi(2**n - 1), n, 1) for n in range(1, 41, 2)]


def test_search_factors_the_root_denominators_within_the_limit():
    # B = 2^89 - 1 is a prime above the default factoring limit.
    u = from_closed_form([(F(1, 2**89 - 1), F(1)), (F(1), F(-1))])
    with pytest.raises(FactorizationLimit):
        integrality_search(u, mersenne(2), 2, 3, FixedDenominator(1))
    with factor_limit(2**90):
        assert integrality_search(u, mersenne(2), 2, 3, FixedDenominator(1)) == []


def test_search_fixed_denominator_divisibility():
    u = constant(1)
    v = constant(4)
    assert integrality_search(u, v, 1, 1, FixedDenominator(8)) == [SearchHit(1, 1, 4)]
    assert integrality_search(u, v, 1, 1, FixedDenominator(6)) == []


def test_search_polynomial_denominator_bound():
    u = constant(1)
    v = polynomial([F(0), F(1)])
    hits = integrality_search(u, v, 1, 8, PolynomialDenominatorBound(1))
    assert hits == [SearchHit(1, n, n) for n in range(1, 9)]
    assert integrality_search(u, v, 1, 8, PolynomialDenominatorBound(0)) == [
        SearchHit(1, 1, 1)
    ]


def test_search_s_primes_stripped():
    u = constant(1)
    v = geometric(2, F(3))
    spec = SIntegerSpec([2])
    hits = integrality_search(u, v, 1, 3, FixedDenominator(3), s_spec=spec)
    assert hits == [SearchHit(1, n, 3) for n in (1, 2, 3)]
    assert integrality_search(u, v, 1, 3, FixedDenominator(1), s_spec=spec) == []


def test_search_skips_divisor_zeros():
    v = polynomial([F(-3), F(1)])
    hits = integrality_search(constant(6), v, 1, 4, FixedDenominator(2))
    assert {h.n for h in hits} == {1, 2, 4}


def test_search_validates_grid():
    with pytest.raises(InputError):
        integrality_search(constant(1), constant(1), 0, 1, FixedDenominator(1))


def test_obstruction_certified():
    report = obstruction_scan(geometric(3), mersenne(2), (3, 0), 7)
    assert report.certified
    assert report.verdict == "certified"
    assert report.period == 42
    for n in range(3, 100, 3):
        assert valuation(mersenne(2).evaluate(n), 7) >= 1
    for m in range(1, 43):
        assert valuation(geometric(3).evaluate(m), 7) == 0


def test_obstruction_divisor_fails():
    report = obstruction_scan(geometric(3), mersenne(2), (3, 1), 7)
    assert not report.certified
    assert report.failing_side == "divisor"
    assert report.failing_index == 1
    assert mersenne(2).evaluate(1) % 7 != 0


def test_obstruction_numerator_fails():
    report = obstruction_scan(mersenne(2), mersenne(2), (3, 0), 7)
    assert not report.certified
    assert report.failing_side == "numerator"
    assert report.failing_index == 3
    assert mersenne(2).evaluate(3) == 7


def test_obstruction_root_divisible_by_p():
    # The 7^m term vanishes mod 7 for every m >= 1, leaving the constant.
    u = from_closed_form([(F(7), F(3)), (F(1), F(1))])
    report = obstruction_scan(u, mersenne(2), (3, 0), 7)
    assert report.certified
    for m in range(1, 8):
        assert u.evaluate(m) % 7 == 1


def test_obstruction_zero_numerator_mod_p():
    u = geometric(7)
    report = obstruction_scan(u, mersenne(2), (3, 0), 7)
    assert not report.certified
    assert report.failing_side == "numerator"
    assert report.failing_index == 1


def test_obstruction_bad_primes():
    with pytest.raises(BadPrime):
        obstruction_scan(geometric(F(1, 7)), mersenne(2), (3, 0), 7)
    with pytest.raises(BadPrime):
        obstruction_scan(geometric(3, F(1, 7)), mersenne(2), (3, 0), 7)
    with pytest.raises(BadPrime):
        obstruction_scan(geometric(3), mersenne(2), (3, 0), 6)


def test_obstruction_validates_inputs():
    with pytest.raises(InputError):
        obstruction_scan(geometric(3), mersenne(2), (0, 0), 7)
    with pytest.raises(InputError):
        obstruction_scan(geometric(3), mersenne(2), (3, 3), 7)
    with pytest.raises(ZeroInput):
        obstruction_scan(LinearRecurrence(()), mersenne(2), (3, 0), 7)


def test_obstruction_clearing_constants():
    u = geometric(3, F(1, 2))
    report = obstruction_scan(u, mersenne(2), (3, 0), 7)
    assert report.clearing_constants == (2, 1)
    assert report.certified


@pytest.mark.parametrize("p, q, r, certified", [
    (5, 4, 0, True),   # ord(2 mod 5) = 4
    (5, 4, 2, False),
    (31, 5, 0, True),  # ord(2 mod 31) = 5
    (31, 5, 1, False),
])
def test_obstruction_base2_progressions(p, q, r, certified):
    report = obstruction_scan(geometric(3), mersenne(2), (q, r), p)
    assert report.certified == certified


# Under -O every assert is gone; the re-verification of hits must still run.
_WRONG_STEPPER = """
import sys
from fractions import Fraction
from recurquot.errors import VerificationFailed
from recurquot.integrality import FixedDenominator, integrality_search
from recurquot.recurrences import LinearRecurrence, from_closed_form

if not sys.flags.optimize:
    raise SystemExit("not running under -O")
real_walk = LinearRecurrence.walk


def wrong_walk(self, start, step=1, modulus=None):
    # Every residue reads 0, so every cell looks integral.
    for value in real_walk(self, start, step, modulus):
        yield value if modulus is None else 0


LinearRecurrence.walk = wrong_walk
v = from_closed_form([(2, 1), (1, -1)])
# 3^m - 1; and (3/2)^m - 1 over V(1) = 1, where only the powers of 2,
# read as valuations, can be wrong.
for u, n_max in ((from_closed_form([(3, 1), (1, -1)]), 4),
                 (from_closed_form([(Fraction(3, 2), 1), (1, -1)]), 1)):
    try:
        hits = integrality_search(u, v, 8, n_max, FixedDenominator(1))
    except VerificationFailed as exc:
        print("VerificationFailed:", exc)
    else:
        print("wrong hits returned unchecked:", hits)
"""


def test_wrong_residue_is_caught_under_optimize():
    assert_caught_under_optimize(_WRONG_STEPPER, count=2)


# One cell's residue is wrong, mid-row: W(m) = (m - 3) * 3^m is 0 mod 31
# only at m = 3 and m = 34 below 40, and the stepper reads 0 at m = 10 too.
# The period of W mod 31 is 930, so the row reads every cell, and the hit
# at m = 10 sits between two true ones: a re-check of the row's first hit
# alone would pass it.
_ONE_WRONG_CELL = """
import sys
from recurquot.errors import VerificationFailed
from recurquot.integrality import (
    FixedDenominator, PolynomialDenominatorBound, integrality_search,
)
from recurquot.polys import UniPoly
from recurquot.recurrences import LinearRecurrence, constant, from_closed_form

if not sys.flags.optimize:
    raise SystemExit("not running under -O")
real_walk = LinearRecurrence.walk


def wrong_walk(self, start, step=1, modulus=None):
    for k, value in enumerate(real_walk(self, start, step, modulus)):
        yield 0 if modulus == 31 and start + k * step == 10 else value


LinearRecurrence.walk = wrong_walk
u = from_closed_form([(3, UniPoly((-3, 1)))])
for policy in (FixedDenominator(1), PolynomialDenominatorBound(0)):
    try:
        hits = integrality_search(u, constant(31), 40, 1, policy)
    except VerificationFailed as exc:
        if str(exc) == "hit (m=10, n=1, d=1) failed re-verification":
            print("VerificationFailed:", exc)
        else:
            print("another hit was named:", exc)
    else:
        print("wrong hits returned unchecked:", hits)
"""


def test_one_wrong_hit_mid_row_is_caught_under_optimize():
    assert_caught_under_optimize(_ONE_WRONG_CELL, count=2)


def test_search_built_hits_match_the_public_constructor():
    hits = integrality_search(mersenne(5), mersenne(2), 12, 6, FixedDenominator(6))
    assert len({h.d for h in hits}) > 1
    for hit in hits:
        public = SearchHit(hit.m, hit.n, hit.d)
        assert type(hit) is SearchHit
        assert hit == public and hash(hit) == hash(public)
        assert repr(hit) == repr(public) == f"SearchHit(m={hit.m}, n={hit.n}, d={hit.d})"
        assert pickle.loads(pickle.dumps(hit)) == public
        with pytest.raises(AttributeError):
            hit.d = 1
        with pytest.raises(AttributeError):
            del hit.m
