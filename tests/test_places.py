from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from optimized import assert_caught_under_optimize
from recurquot.errors import BadPrime, ZeroInput
from recurquot.places import Place, place_abs, valuation

F = Fraction


def test_place_constructors():
    assert Place.archimedean().is_archimedean
    assert not Place.finite(7).is_archimedean
    assert str(Place.archimedean()) == "inf"
    assert str(Place.finite(3)) == "3"


@pytest.mark.parametrize("bad", [1, 4, -3, 9])
def test_place_rejects_non_primes(bad):
    with pytest.raises(BadPrime):
        Place.finite(bad)


def test_place_parse():
    assert Place.parse("inf") == Place.archimedean()
    assert Place.parse("5") == Place.finite(5)
    with pytest.raises(BadPrime):
        Place.parse("6")


def test_place_ordering():
    places = sorted([Place.finite(5), Place.archimedean(), Place.finite(2)])
    assert places == [Place.finite(2), Place.finite(5), Place.archimedean()]


@pytest.mark.parametrize("x, p, v", [
    (F(12), 2, 2),
    (F(12), 3, 1),
    (F(12), 5, 0),
    (F(5, 8), 2, -3),
    (F(-9, 2), 3, 2),
])
def test_valuation(x, p, v):
    assert valuation(x, p) == v


def test_valuation_of_zero():
    with pytest.raises(ZeroInput):
        valuation(F(0), 2)


# p = 1 and p = -1 divide every integer, so the division loop never ended;
# a subprocess with a timeout keeps a regression from hanging the suite.
_BAD_P = """
from recurquot.errors import BadPrime
from recurquot.places import valuation
for p in (1, 0, -1, -3):
    try:
        valuation(12, p)
    except BadPrime as exc:
        print(f"BadPrime: {exc}")
"""


def test_valuation_rejects_p_below_2_under_optimize():
    assert_caught_under_optimize(_BAD_P, count=4, error="BadPrime")


@pytest.mark.parametrize("x, p", [(16, 4), (12, 6), (F(1, 9), 9), (2**61 - 1, 2**61 + 1)])
def test_valuation_rejects_a_composite_p(x, p):
    # Counting how often 4 divides 16 gives 2, which is no valuation.
    with pytest.raises(BadPrime):
        valuation(x, p)


def test_place_abs():
    assert place_abs(F(-3, 2), Place.archimedean()) == F(3, 2)
    assert place_abs(F(12), Place.finite(2)) == F(1, 4)
    assert place_abs(F(5, 8), Place.finite(2)) == F(8)
    assert place_abs(F(0), Place.finite(7)) == F(0)
    assert place_abs(F(0), Place.archimedean()) == F(0)


@given(st.fractions(max_denominator=1000).filter(lambda q: q != 0),
       st.sampled_from([2, 3, 5, 7]))
def test_valuation_is_additive(x, p):
    assert valuation(x * x, p) == 2 * valuation(x, p)
    assert place_abs(x, Place.finite(p)) == F(p) ** (-valuation(x, p))
