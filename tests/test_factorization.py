from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optimized import assert_caught_under_optimize
from recurquot.errors import FactorizationLimit, InputError, ZeroInput
from recurquot.factorization import (
    FactoredRational,
    divisors,
    euler_phi,
    factor_int,
    factor_limit,
    factor_rational,
    is_probable_prime,
)


@pytest.mark.parametrize("n, expected", [
    (1, {}),
    (2, {2: 1}),
    (12, {2: 2, 3: 1}),
    (97, {97: 1}),
    (360, {2: 3, 3: 2, 5: 1}),
    (2**31 - 1, {2147483647: 1}),
    (2**32 + 1, {641: 1, 6700417: 1}),
])
def test_factor_int_known(n, expected):
    assert factor_int(n) == expected


def test_factor_int_rejects_nonpositive():
    with pytest.raises(ZeroInput):
        factor_int(0)
    with pytest.raises(ZeroInput):
        factor_int(-6)


def test_factor_limit_reports_cofactor():
    p = 2**61 - 1
    with factor_limit(10**6), pytest.raises(FactorizationLimit) as info:
        factor_int(p * p)
    assert info.value.cofactor % p == 0
    assert info.value.limit == 10**6


def test_factor_limit_nests_and_restores_the_outer_cap():
    p = 2**31 - 1
    with factor_limit(10**6):
        with pytest.raises(FactorizationLimit):
            factor_int(p)
        with factor_limit(2**40):
            assert factor_int(p) == {p: 1}
        with pytest.raises(FactorizationLimit):
            factor_int(p)
        with pytest.raises(KeyError), factor_limit(2**40):
            raise KeyError("leaves the block by an exception")
        with pytest.raises(FactorizationLimit) as info:
            factor_int(p)
        assert info.value.limit == 10**6
    assert factor_int(p) == {p: 1}


@pytest.mark.parametrize("cap", [-5, 0, 1])
def test_factor_limit_rejects_caps_below_two(cap):
    # A negative cap used to reach math.isqrt in the rho splitter.
    with pytest.raises(InputError), factor_limit(cap):
        factor_int((2**31 - 1) * (2**61 - 1))


@pytest.mark.parametrize("p", [2, 3, 5, 2**61 - 1, 10**18 + 9])
def test_is_probable_prime_on_primes(p):
    assert is_probable_prime(p)


@pytest.mark.parametrize("n", [1, 4, 561, 2**61, (2**31 - 1) ** 2])
def test_is_probable_prime_on_composites(n):
    assert not is_probable_prime(n)


@given(st.integers(min_value=1, max_value=10**12))
def test_factor_int_reconstructs(n):
    fact = factor_int(n)
    prod = 1
    for p, e in fact.items():
        assert e >= 1
        assert is_probable_prime(p)
        prod *= p**e
    assert prod == n


M61 = 2**61 - 1


@pytest.mark.parametrize("k", [2, 3, 7])
def test_perfect_power_of_a_prime_inside_the_cap(k):
    # Rho needs about sqrt(p) steps for the least prime p, so (2^61 - 1)^2
    # used to run all its attempts and then raise; the root test finds it.
    with factor_limit(2**64):
        assert factor_int(M61**k) == {M61: k}


def test_perfect_power_of_a_composite():
    n = (M61 * (2**31 - 1)) ** 2 * 3**5
    with factor_limit(2**64):
        assert factor_int(n) == {3: 5, 2**31 - 1: 2, M61: 2}
        assert factor_int(n**6) == {3: 30, 2**31 - 1: 12, M61: 12}


def test_perfect_power_of_a_prime_above_the_cap():
    m89 = 2**89 - 1
    with factor_limit(2**64), pytest.raises(FactorizationLimit) as info:
        factor_int(m89**2)
    assert info.value.cofactor == m89


def test_factor_rational_signs_and_exponents():
    fr = factor_rational(Fraction(-45, 8))
    assert fr.sign == -1
    assert fr.exponents == {2: -3, 3: 2, 5: 1}
    assert fr.value() == Fraction(-45, 8)


def test_factor_rational_rejects_zero():
    with pytest.raises(ZeroInput):
        factor_rational(Fraction(0))


@given(st.fractions(min_value=Fraction(-10**6), max_value=Fraction(10**6),
                    max_denominator=10**6).filter(lambda q: q != 0))
def test_factor_rational_round_trip(q):
    fr = factor_rational(q)
    assert fr.value() == q
    assert all(e != 0 for e in fr.exponents.values())


def test_factored_rational_primes_sorted():
    fr = FactoredRational(1, {5: 1, 2: -1, 3: 2})
    assert fr.primes() == (2, 3, 5)


@pytest.mark.parametrize("n, phi", [
    (1, 1), (2, 1), (10, 4), (12, 4), (97, 96), (8191, 8190), (2**10, 2**9),
])
def test_euler_phi(n, phi):
    assert euler_phi(n) == phi


@given(st.integers(min_value=1, max_value=2000))
def test_euler_phi_matches_count(n):
    from math import gcd
    assert euler_phi(n) == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


@pytest.mark.parametrize("n, divs", [
    (1, [1]),
    (12, [1, 2, 3, 4, 6, 12]),
    (49, [1, 7, 49]),
])
def test_divisors(n, divs):
    assert divisors(n) == divs


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=10**6))
def test_divisors_divide(n):
    ds = divisors(n)
    assert ds == sorted(ds)
    assert all(n % d == 0 for d in ds)
    assert len(ds) == len(set(ds))


# Under -O the old assert on the sign was gone, and FactoredRational(2, {})
# stood for 2 with no prime.
_BAD_SIGN = """
import sys
from recurquot.errors import InputError
from recurquot.factorization import FactoredRational

if not sys.flags.optimize:
    raise SystemExit("not running under -O")
for sign in (2, 0):
    try:
        print("built", FactoredRational(sign, {}).value())
    except InputError as exc:
        print("InputError:", exc)
"""


def test_factored_rational_checks_its_sign_under_optimize():
    assert_caught_under_optimize(_BAD_SIGN, count=2, error="InputError")
