from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from decimate_oracle import shift_compose
from optimized import assert_caught_under_optimize
from recurquot.errors import ZeroInput
from recurquot.polys import UniPoly

F = Fraction


def upoly(*coeffs):
    return UniPoly([F(c) for c in coeffs])


small_polys = st.lists(
    st.fractions(min_value=F(-9), max_value=F(9), max_denominator=6),
    min_size=0, max_size=5,
).map(UniPoly)


def test_zero_polynomial_degree():
    assert UniPoly([]).degree == -1
    assert UniPoly([F(0), F(0)]).degree == -1
    assert UniPoly([F(0), F(0)]).coeffs == ()


def test_trailing_zeros_trimmed():
    p = upoly(1, 2, 0, 0)
    assert p.coeffs == (F(1), F(2))
    assert p.degree == 1
    assert p.lc == F(2)


def test_evaluate():
    p = upoly(1, -3, 2)
    assert p(F(0)) == F(1)
    assert p(F(2)) == F(3)
    assert p(F(1, 2)) == F(0)


def test_arithmetic():
    p = upoly(1, 1)
    q = upoly(-1, 1)
    assert (p * q).coeffs == (F(-1), F(0), F(1))
    assert (p + q).coeffs == (F(0), F(2))
    assert (p - q).coeffs == (F(2),)
    assert p.scale(F(3)).coeffs == (F(3), F(3))
    assert (p**3).coeffs == (F(1), F(3), F(3), F(1))


def test_divmod_identity():
    a = upoly(1, 0, 0, 2, 1)
    b = upoly(-1, 1)
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


def test_divmod_by_zero():
    with pytest.raises(ZeroInput):
        divmod(upoly(1, 1), UniPoly([]))


@given(small_polys, small_polys.filter(lambda p: not p.is_zero))
def test_divmod_property(a, b):
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


def test_monic():
    p = upoly(2, 0, 4)
    assert p.monic().coeffs == (F(1, 2), F(0), F(1))


def test_shift_compose():
    p = upoly(0, 0, 1)
    assert shift_compose(p, F(1), F(1)).coeffs == (F(1), F(2), F(1))


def test_poly_affine_compose():
    # P(q*n + r) with plain int q and r.
    p = upoly(0, 1)
    assert shift_compose(p, 2, 1).coeffs == (F(1), F(2))
    q = upoly(0, 0, 1)
    assert shift_compose(q, 3, -1)(F(2)) == F(25)


def test_rational_roots():
    p = upoly(1, 1) * upoly(-1, 2) ** 2 * upoly(3)
    roots = p.rational_roots()
    assert roots == [(F(-1), 1), (F(1, 2), 2)]
    # Coefficients with denominators are cleared before the divisor search.
    assert upoly(F(1, 6), F(3, 4)).rational_roots() == [(F(-2, 9), 1)]


def test_rational_roots_with_zero_root():
    p = upoly(0, 0, 1, 1)
    assert p.rational_roots() == [(F(-1), 1), (F(0), 2)]


def test_rational_roots_none():
    assert upoly(1, 0, 1).rational_roots() == []


def test_render():
    assert upoly(-1, 0, 1).render("X") == "X^2 - 1"
    assert upoly(0, F(1, 2)).render("N") == "1/2*N"
    assert UniPoly([]).render("X") == "0"
    assert upoly(5).render("X") == "5"


# rational_roots divides out each root it finds; under -O a division that
# leaves a remainder must still be caught.  Evaluation is patched to read
# 0 everywhere, so the first candidate of X^2 + 1 looks like a root.
_FALSE_ROOT = """
import sys
from fractions import Fraction
from recurquot.errors import VerificationFailed
from recurquot.polys import UniPoly

if not sys.flags.optimize:
    raise SystemExit("not running under -O")
UniPoly.__call__ = lambda self, n: Fraction(0)
try:
    UniPoly([Fraction(1), Fraction(0), Fraction(1)]).rational_roots()
except VerificationFailed as exc:
    print("VerificationFailed:", exc)
else:
    print("false root returned unchecked")
"""


def test_false_rational_root_is_caught_under_optimize():
    assert_caught_under_optimize(_FALSE_ROOT)


# Under -O the old assert on the exponent was gone: a negative power
# looped forever (k >>= 1 stays -1).
_BAD_POWER = """
import sys
from recurquot.errors import InputError
from recurquot.polys import UniPoly

if not sys.flags.optimize:
    raise SystemExit("not running under -O")
try:
    UniPoly((1, 1)) ** -1
except InputError as exc:
    print("InputError:", exc)
else:
    print("a bad argument went unchecked")
"""


def test_bad_power_raises_under_optimize():
    assert_caught_under_optimize(_BAD_POWER, error="InputError")
