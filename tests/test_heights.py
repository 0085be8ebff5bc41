import pickle
import time
from fractions import Fraction
from math import log

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from optimized import assert_caught_under_optimize
from recurquot import factorization
from recurquot.errors import (
    BadPrime,
    FactorizationLimit,
    HypothesisViolated,
    PointOnHyperplane,
    ZeroInput,
)
from recurquot.factorization import factor_limit
from recurquot.heights import (
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
from recurquot.places import Place
from recurquot.polys import UniPoly
from recurquot.recurrences import from_closed_form, geometric

F = Fraction

nonzero_rationals = st.builds(
    F,
    st.integers(min_value=-10**4, max_value=10**4).filter(bool),
    st.integers(min_value=1, max_value=10**4),
)

positive_rationals = st.builds(
    F,
    st.integers(min_value=1, max_value=10**4),
    st.integers(min_value=1, max_value=10**4),
)


def test_logsum_construction():
    a = LogSum.log_of(F(12))
    assert a.coeffs == {2: F(2), 3: F(1)}
    assert LogSum.log_of(F(1)).is_zero


def test_logsum_log_of_needs_positive():
    with pytest.raises(ZeroInput):
        LogSum.log_of(F(0))
    with pytest.raises(ZeroInput):
        LogSum.log_of(F(-12))


def test_logsum_arithmetic():
    a = LogSum.log_of(F(6))
    b = LogSum.log_of(F(2))
    assert a - b == LogSum.log_of(F(3))
    assert (a + b).to_float() == pytest.approx(log(12))
    assert a.scale(F(2)) == LogSum.log_of(F(36))


def test_logsum_exact_comparison():
    # log 8 / log 2 = 3 but log 9 / log 2 is irrational; the comparison
    # 2^19 < 3^12 needs exact integer power arithmetic.
    a = LogSum({2: F(19, 12)})
    b = LogSum({3: F(1)})
    assert a < b
    assert not b < a
    assert LogSum({2: F(3)}) == LogSum.log_of(F(8))


def test_logsum_comparison_agrees_with_floats():
    pairs = [(F(5, 3), F(7, 4)), (F(2), F(2)), (F(100), F(99))]
    for x, y in pairs:
        a, b = LogSum.log_of(x), LogSum.log_of(y)
        assert (a < b) == (log(x) < log(y))


@given(positive_rationals, positive_rationals)
def test_logsum_is_a_homomorphism(x, y):
    assert LogSum.log_of(x) + LogSum.log_of(y) == LogSum.log_of(x * y)


def test_logsum_render():
    assert LogSum.log_of(F(12)).render() == "2*log 2 + log 3"
    assert LogSum.zero().render() == "0"
    assert LogSum({3: F(1, 27)}).render() == "1/27*log 3"


# A key that is not prime breaks the invariants: {4: 1} would compare <= and
# >= with {2: 2} but not ==, {1: 3} would be non-zero with sign 0, and
# {-2: 1} would render "log -2".
@pytest.mark.parametrize("key", [4, 1, 0, -2, 9])
def test_logsum_rejects_keys_that_are_not_prime(key):
    with pytest.raises(BadPrime):
        LogSum({key: F(1)})


def test_logsum_pickles():
    a = LogSum({2: F(-3, 2), 3: 1})
    assert pickle.loads(pickle.dumps(a)) == a
    assert repr(pickle.loads(pickle.dumps(a))) == "LogSum(-3/2*log 2 + log 3)"


def test_weil_height_scalars():
    assert weil_height(F(3, 2)) == LogSum.log_of(F(3))
    assert weil_height(F(2)) == LogSum.log_of(F(2))
    assert weil_height(F(1)).is_zero
    assert weil_height(F(-7, 5)) == LogSum.log_of(F(7))


def test_weil_height_inverse_invariance():
    for x in [F(3, 2), F(10, 7), F(-9, 4)]:
        assert weil_height(x) == weil_height(1 / x)


def test_vector_height():
    assert vector_height([F(2), F(1)]) == LogSum.log_of(F(2))
    assert vector_height([F(1, 2), F(1, 3)]) == LogSum.log_of(F(3))
    assert vector_height([F(0), F(5)]).is_zero


def test_vector_height_projective():
    xs = [F(3, 4), F(7, 2), F(-1)]
    scaled = [F(5, 6) * x for x in xs]
    assert vector_height(xs) == vector_height(scaled)


def test_vector_height_rejects_zero_vector():
    with pytest.raises(ZeroInput):
        vector_height([F(0), F(0)])


def test_polynomial_height():
    p = UniPoly([F(-1), F(0), F(1)])
    assert weil_height(p).is_zero
    assert weil_height(UniPoly([F(6), F(2)])) == LogSum.log_of(F(3))


@given(nonzero_rationals)
def test_height_of_powers(x):
    assert weil_height(x * x) == weil_height(x).scale(F(2))


def test_product_formula():
    for x in [F(3, 2), F(-100, 7), F(1)]:
        assert product_formula_check(x) == 1


@given(nonzero_rationals)
def test_product_formula_property(x):
    assert product_formula_check(x) == 1


def test_weil_function_examples():
    form = HyperplaneForm((F(1), F(1)))
    # L(1, 1) = 2: proximity to the hyperplane is felt 2-adically,
    # while the archimedean place compensates with -log 2.
    assert weil_function(form, [F(1), F(1)], Place.finite(2)) == LogSum.log_of(F(2))
    lam = weil_function(form, [F(1), F(1)], Place.archimedean())
    assert lam == -LogSum.log_of(F(2))
    lam3 = weil_function(form, [F(1), F(2)], Place.finite(3))
    assert lam3 == LogSum.log_of(F(3))


def test_weil_function_nonnegative_at_finite_places():
    form = HyperplaneForm((F(2), F(-3), F(1)))
    for xs in ([F(1), F(1), F(7)], [F(5, 3), F(1, 2), F(9)]):
        for p in (2, 3, 5, 7):
            lam = weil_function(form, xs, Place.finite(p))
            assert lam >= LogSum.zero()


def test_weil_function_point_on_hyperplane():
    form = HyperplaneForm((F(1), F(-1)))
    with pytest.raises(PointOnHyperplane):
        weil_function(form, [F(2), F(2)], Place.archimedean())


def test_weil_function_global_identity():
    # Summing over the archimedean place and every contributing prime
    # (including the primes of L(x) itself) recovers h(x) + h(L).
    from recurquot.factorization import factor_rational

    form = HyperplaneForm((F(3), F(1, 2)))
    xs = [F(5, 4), F(7)]
    primes = set()
    for v in xs + list(form.coefficients) + [form(xs)]:
        primes |= set(factor_rational(v).exponents)
    total = weil_function(form, xs, Place.archimedean())
    for p in sorted(primes):
        total = total + weil_function(form, xs, Place.finite(p))
    assert total == vector_height(xs) + vector_height(form.coefficients)


@settings(max_examples=60, deadline=None)
@given(st.lists(nonzero_rationals, min_size=2, max_size=3),
       st.lists(nonzero_rationals, min_size=2, max_size=3))
# L(x) = 313422168565606686407/33852368723854438485: the numerator has
# the prime factors 11237502803 and 27890731069, and Brent's rho takes
# about 0.2 s to split them, past hypothesis's default 200 ms deadline.
@example(xs=[F(-5021, 4539), F(1927, 5682), F(-1866, 169)],
         coeffs=[F(-71, 8739), F(-8324, 5271), F(-8069, 9105)])
# L(x) = 21837550951789428983/15872459492709820: the numerator is a prime
# above the default 2^64 factoring cap.
@example(xs=[F(21821678492296719163, 15872459492709820), F(1)], coeffs=[F(1), F(1)])
def test_weil_function_global_identity_property(xs, coeffs):
    from recurquot.factorization import factor_rational

    if len(xs) != len(coeffs):
        return
    form = HyperplaneForm(tuple(coeffs))
    if form(xs) == 0:
        return
    try:
        primes = set()
        for v in list(xs) + list(coeffs) + [form(xs)]:
            primes |= set(factor_rational(v).exponents)
        total = weil_function(form, xs, Place.archimedean())
        for p in sorted(primes):
            total = total + weil_function(form, xs, Place.finite(p))
        expected = vector_height(xs) + vector_height(form.coefficients)
    except FactorizationLimit as exc:
        # The documented refusal: a prime factor above the cap.
        assert exc.cofactor > exc.limit
        return
    assert total == expected


def test_s_membership():
    spec = SIntegerSpec([2, 3])
    assert s_membership(F(8, 3), spec) == SMembership.S_UNIT
    assert s_membership(F(35, 6), spec) == SMembership.S_INTEGER
    assert s_membership(F(1, 5), spec) == SMembership.NEITHER
    assert s_membership(F(0), spec) == SMembership.S_INTEGER
    assert s_membership(F(7, 8), spec) is not SMembership.NEITHER
    assert s_membership(F(1, 7), spec) is SMembership.NEITHER


def test_s_membership_empty_s():
    spec = SIntegerSpec([])
    assert s_membership(F(6), spec) == SMembership.S_INTEGER
    assert s_membership(F(1), spec) == SMembership.S_UNIT
    assert s_membership(F(1, 2), spec) == SMembership.NEITHER


@pytest.mark.parametrize("primes", [[4], [2, 9], [1], [0], [-3]])
def test_s_integer_spec_rejects_non_primes(primes):
    with pytest.raises(BadPrime):
        SIntegerSpec(primes)


def test_decay_check_mersenne_3adic():
    v = from_closed_form([(F(2), F(1)), (F(1), F(-1))])
    report = decay_check(v, Place.finite(3), 100, 1000)
    assert report.max_ratio == LogSum({3: F(1, 27)})
    assert report.argmax_n == 108
    assert report.skipped_zeros == ()


def test_decay_check_ratio_definition():
    v = from_closed_form([(F(2), F(1)), (F(1), F(-1))])
    report = decay_check(v, Place.finite(7), 1, 30)
    for n, ratio in report.samples:
        from recurquot.places import valuation
        val = valuation(v.evaluate(n), 7)
        assert val > 0
        assert ratio == LogSum({7: F(val, n)})


def test_decay_check_skips_zeros():
    v = from_closed_form([(F(4), F(1)), (F(1), F(-64))])
    report = decay_check(v, Place.finite(3), 1, 10)
    assert report.skipped_zeros == (3,)


def test_decay_at_infinity_factors_only_the_maximum(monkeypatch):
    calls = []
    real = factorization.factor_int
    monkeypatch.setattr(factorization, "factor_int", lambda n: calls.append(n) or real(n))
    # |V(n)| = |20 - n| / 20 peaks in log(1/|V(n)|)/n at n = 19, where it is log(20)/19.
    v = from_closed_form([(F(1), UniPoly((F(1), F(-1, 20))))])
    report = decay_check(v, Place.archimedean(), 1, 40)
    assert (report.argmax_n, len(report.samples), report.skipped_zeros) == (19, 38, (20,))
    assert report.max_ratio == LogSum({2: F(2, 19), 5: F(1, 19)})
    assert sorted(calls) == [1, 20]
    # Each other sample is factored when it is read, and only once.
    assert dict(report.samples)[10] == LogSum({2: F(1, 10)})
    dict(report.samples)[10].render()
    assert sorted(calls) == [1, 1, 2, 20]


def test_decay_at_infinity_past_the_factoring_cap():
    # 3^n - 1 has prime factors above any fixed cap as n grows; only the
    # maximum, at n = 2, is factored by the call.
    v = from_closed_form([(F(1), F(1)), (F(1, 3), F(-1))])
    with factor_limit(10**6):
        report = decay_check(v, Place.archimedean(), 2, 300)
    assert (report.argmax_n, len(report.samples)) == (2, 299)
    assert report.max_ratio == LogSum.log_of(F(9, 8)).scale(F(1, 2))
    # A sample read later is factored under the cap of the call.
    n, ratio = report.samples[-1]
    assert n == 300
    with pytest.raises(FactorizationLimit):
        ratio.render()
    assert report.samples[2][1] == LogSum.log_of(F(81, 80)).scale(F(1, 4))


def test_decay_report_pickles():
    v = from_closed_form([(F(1), UniPoly((F(1), F(-1, 20))))])
    report = decay_check(v, Place.archimedean(), 1, 30)
    copy = pickle.loads(pickle.dumps(report))
    assert copy == report
    assert repr(copy) == repr(report)


def test_decay_check_rejects_small_roots():
    v = geometric(F(1, 2))
    with pytest.raises(HypothesisViolated):
        decay_check(v, Place.archimedean(), 1, 10)
    decay_check(v, Place.finite(3), 1, 10)


def test_decay_check_rejects_bad_range():
    v = geometric(2)
    with pytest.raises(ZeroInput):
        decay_check(v, Place.finite(3), 0, 10)
    with pytest.raises(ZeroInput):
        decay_check(v, Place.finite(3), 5, 4)


# At a finite place the Weil function's ratio is >= 1 by the ultrametric
# inequality; under -O a ratio below 1 must still be caught.  |L(x)|_3 is
# patched to read 2 for L = x0 + x1 at x = (1, 1), where it is 1.
_BROKEN_ABS = """
import sys
import recurquot.heights as heights
from recurquot.errors import VerificationFailed
from recurquot.places import Place

if not sys.flags.optimize:
    raise SystemExit("not running under -O")
real_abs = heights.place_abs
heights.place_abs = lambda x, place: real_abs(x, place) * (2 if x == 2 else 1)
try:
    heights.weil_function(heights.HyperplaneForm((1, 1)), [1, 1], Place.finite(3))
except VerificationFailed as exc:
    print("VerificationFailed:", exc)
else:
    print("ultrametric failure went unchecked")
"""


def test_broken_ultrametric_inequality_is_caught_under_optimize():
    assert_caught_under_optimize(_BROKEN_ABS)


# A bare assert on the length would vanish under -O: L = x0 + x1 would read
# (1, 2, 3) as 3 and weil_function would return -log 2 + log 5 for (1, 1, 5).
_WRONG_LENGTH = """
import sys
from recurquot.errors import InputError
from recurquot.heights import HyperplaneForm, weil_function
from recurquot.places import Place

if not sys.flags.optimize:
    raise SystemExit("not running under -O")
form = HyperplaneForm((1, 1))
for call in (lambda: form((1, 2, 3)), lambda: weil_function(form, (1, 1, 5), Place.archimedean())):
    try:
        call()
    except InputError as exc:
        print("InputError:", exc)
    else:
        print("a vector of the wrong length went unchecked")
"""


def test_form_length_is_checked_under_optimize():
    assert_caught_under_optimize(_WRONG_LENGTH, count=2, error="InputError")


M61 = 2**61 - 1


def test_vector_height_honours_the_cap_at_every_prime():
    # The primes behind the finite places were factored under the default
    # cap: this ran past a 15 s alarm instead of raising.
    start = time.perf_counter()
    with factor_limit(10), pytest.raises(FactorizationLimit):
        vector_height([10**70, (2**89 - 1) * (2**107 - 1)])
    assert time.perf_counter() - start < 1


def test_weil_function_and_product_formula_honour_the_cap():
    form = HyperplaneForm((F(1), F(-1)))
    with factor_limit(1000):
        with pytest.raises(FactorizationLimit):
            weil_function(form, [F(M61), F(1)], Place.archimedean())
        with pytest.raises(FactorizationLimit):
            product_formula_check(F(1, M61))
    assert product_formula_check(F(1, M61)) == 1
