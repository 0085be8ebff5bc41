import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import decimate_oracle
import product_oracle
from fraction_form import canonical_terms
from optimized import assert_caught_under_optimize
from recurquot.errors import InputError, IrrationalRoots, ZeroRoot
from recurquot.polys import UniPoly
from recurquot.recurrences import (
    LinearRecurrence,
    MultiRecurrence,
    constant,
    from_closed_form,
    from_relation,
    geometric,
    polynomial,
    zero_set,
)

F = Fraction


def mersenne():
    return from_closed_form([(F(2), F(1)), (F(1), F(-1))])


small_recurrences = st.lists(
    st.tuples(
        st.sampled_from([F(2), F(3), F(1, 2), F(-1), F(5, 3)]),
        st.lists(st.fractions(min_value=F(-4), max_value=F(4), max_denominator=4),
                 min_size=1, max_size=2).map(UniPoly),
    ),
    min_size=0, max_size=3,
).map(from_closed_form)


def test_evaluate_known():
    u = mersenne()
    assert [u.evaluate(n) for n in range(6)] == [0, 1, 3, 7, 15, 31]


def test_terms_are_sorted_and_merged():
    u = from_closed_form([(F(3), F(1)), (F(2), F(5)), (F(3), F(-1))])
    assert u.roots == (F(2),)
    assert dict(u.terms)[F(2)] == UniPoly([F(5)])
    assert F(3) not in dict(u.terms)


def test_zero_root_rejected():
    with pytest.raises(ZeroRoot):
        from_closed_form([(F(0), F(1))])


def test_order_counts_polynomial_degrees():
    u = from_closed_form([(F(2), UniPoly([F(1), F(1)])), (F(3), F(1))])
    assert u.order == 3


def test_helpers():
    assert constant(5).evaluate(12) == 5
    assert geometric(3).evaluate(4) == 81
    assert geometric(2, F(1, 2)).evaluate(3) == 4
    assert polynomial([F(0), F(1)]).evaluate(7) == 7
    assert constant(0).is_zero


def test_addition_cancels():
    u = mersenne()
    assert (u - u).is_zero
    v = u + geometric(1)
    assert v.roots == (F(2),)


def test_hadamard_product_pointwise():
    u = mersenne()
    v = geometric(3) + constant(1)
    w = u * v
    for n in range(8):
        assert w.evaluate(n) == u.evaluate(n) * v.evaluate(n)
    assert w.roots == (F(1), F(2), F(3), F(6))


def test_scalar_scale():
    u = mersenne() * F(1, 3)
    assert u.evaluate(4) == F(5)


# Signed and rational roots whose products collide (2*3 == 6*1,
# (-2)*(-3) == 6, (1/2)*6 == 3*1), rational coefficients, and the zero
# sequence among the operands.
product_inputs = st.lists(
    st.tuples(
        st.sampled_from([F(1), F(-1), F(2), F(-2), F(3), F(-3), F(6), F(1, 2), F(-3, 2)]),
        st.lists(st.fractions(min_value=F(-4), max_value=F(4), max_denominator=6),
                 min_size=1, max_size=3).map(UniPoly),
    ),
    min_size=0, max_size=4,
).map(from_closed_form)


@settings(max_examples=200, deadline=None)
@given(product_inputs, product_inputs)
def test_product_matches_fraction_oracle(u, v):
    assert (u * v).terms == product_oracle.multiply(u, v)
    assert (v * u).terms == product_oracle.multiply(u, v)


def test_product_cancellations_match_fraction_oracle():
    one, sign = constant(1), geometric(-1)
    two, minus_two = geometric(2), geometric(-2)
    n = polynomial([F(0), F(1)])
    cases = [
        # 2^n * 3^n and 6^n * 1 meet at the root 6.
        (two + geometric(6), geometric(3) + one, None),
        # (1 + (-1)^n)(1 - (-1)^n) = 1 - 1: the zero sequence.
        (one + sign, one - sign, LinearRecurrence(())),
        # The n-terms cancel at 4 and -4, leaving constant coefficients.
        ((n + one) * two + n * minus_two, two - minus_two,
         geometric(4) - geometric(-4)),
        # Rational roots and coefficients: (1/2)^n * 6^n meets 3^n * 1.
        (geometric(F(1, 2), F(2, 3)) + geometric(3, F(-1, 3)),
         geometric(6) + geometric(1, F(5, 2)), None),
        (LinearRecurrence(()), mersenne(), LinearRecurrence(())),
    ]
    for u, v, expected in cases:
        assert (u * v).terms == product_oracle.multiply(u, v)
        if expected is not None:
            assert u * v == expected


def test_scalar_product_rescales():
    u = from_closed_form([(F(-3, 2), UniPoly([F(1, 2), F(2)])), (F(2), F(-1))])
    for c in (3, F(-2, 5), 0):
        assert (u * c).terms == (c * u).terms == canonical_terms(
            (root, coeff * c) for root, coeff in u.terms
        )
    assert (u * 0).is_zero


@settings(max_examples=60)
@given(small_recurrences, small_recurrences)
def test_ring_operations_pointwise(u, v):
    w_add = u + v
    w_mul = u * v
    for n in range(5):
        assert w_add.evaluate(n) == u.evaluate(n) + v.evaluate(n)
        assert w_mul.evaluate(n) == u.evaluate(n) * v.evaluate(n)


def test_decimate_known():
    u = mersenne()
    even = u.decimate(2, 0)
    assert even.roots == (F(1), F(4))
    assert [even.evaluate(m) for m in range(4)] == [0, 3, 15, 63]


def test_decimate_merges_opposite_roots():
    u = from_closed_form([(F(2), F(1)), (F(-2), F(1))])
    even = u.decimate(2, 0)
    assert even.roots == (F(4),)
    assert dict(even.terms)[F(4)] == UniPoly([F(2)])
    assert u.decimate(2, 1).is_zero


def test_decimate_validates_arguments():
    with pytest.raises(InputError):
        mersenne().decimate(0, 0)
    with pytest.raises(InputError):
        mersenne().decimate(2, 2)


@settings(max_examples=60)
@given(small_recurrences, st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=3))
def test_decimate_pointwise(u, q, r):
    if r >= q:
        return
    sec = u.decimate(q, r)
    for m in range(5):
        assert sec.evaluate(m) == u.evaluate(q * m + r)


# Signed and rational roots in +-pairs, so that even q merges (-a)^q with
# a^q, and coefficients of degree up to 5.
decimation_inputs = st.lists(
    st.tuples(
        st.sampled_from([F(1), F(-1), F(2), F(-2), F(3, 2), F(-3, 2), F(1, 6), F(-1, 6)]),
        st.lists(st.fractions(min_value=F(-5), max_value=F(5), max_denominator=6),
                 min_size=1, max_size=6).map(UniPoly),
    ),
    min_size=0, max_size=5,
).map(from_closed_form)


@settings(max_examples=150, deadline=None)
@given(decimation_inputs, st.integers(min_value=1, max_value=4))
def test_decimate_matches_fraction_horner(u, q):
    for r in range(q):
        assert u.decimate(q, r).terms == decimate_oracle.decimate(u, q, r)


# Roots in the group spanned by 2, -3 and 5, which does not hold -1 (a
# root's sign is the parity of its exponent of 3), so a divisor's largest
# |root| can be its first term, as -3 in (-3)^n + 2^n.  Integer
# coefficients let a divisor keep an integer content above 1.
kernel_forms = st.lists(
    st.tuples(
        st.builds(lambda a, b, c: F(2) ** a * F(-3) ** b * F(5) ** c,
                  *(st.integers(min_value=-1, max_value=2) for _ in range(3))),
        st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=3),
    ),
    min_size=1, max_size=4,
).map(from_closed_form)


@settings(max_examples=150, deadline=None)
@given(kernel_forms, kernel_forms, st.sampled_from([1, 2, 6]), st.sampled_from([1, 6]))
# The products 2^n * 5^n and -(5^n * 2^n) cancel, and the one-term step
# 25^n / 5^n opens the remainder key 10 = 5 * 2.
@example(from_closed_form([(2, 1), (5, 1)]), from_closed_form([(5, 1), (2, -1)]), 1, 1)
# The divisor's first term -3 has its largest |root|; its content is 2.
@example(from_closed_form([(2, [1, 1]), (1, 1)]), from_closed_form([(-3, 1), (2, 1)]), 2, 6)
def test_kernel_matches_fraction_oracles(q, v, content, common):
    v = v * content
    u = q * v
    assert u.terms == product_oracle.multiply(q, v)
    # The constructor against the rational pairs its integers stand for,
    # once in lowest terms and once over a common factor with trailing zeros.
    scale, base = u.scale * common, u.base * common
    raw = [(r * common, [c * common for c in cs] + [0] * (common > 1))
           for r, cs in u.cleared_terms]
    rec = LinearRecurrence(raw, scale, base)
    assert rec.terms == canonical_terms(
        (F(r, base), UniPoly([F(c, scale) for c in cs])) for r, cs in raw)
    assert rec == u
    # u(n) + (-1)^n u(n): even sections merge each (-a)^q with a^q.
    signed = u + from_closed_form([(-root, coeff) for root, coeff in u.terms])
    for step in (1, 2, 3):
        for r in range(step):
            assert signed.decimate(step, r).terms == decimate_oracle.decimate(signed, step, r)
    if v.is_zero:
        return
    quotient = u._divide(v)
    assert quotient == q
    assert all(quotient.evaluate(n) * v.evaluate(n) == u.evaluate(n) for n in range(-2, 4))
    # v divides u + w exactly when it divides the unit w, which a divisor
    # of two terms or more does not.
    if len(v.cleared_terms) > 1:
        assert (u + geometric(5 * v.roots[0]))._divide(v) is None


def test_render_dominant_first():
    assert mersenne().render() == "2^n - 1"
    u = from_closed_form([(F(2), UniPoly([F(1), F(1)]))])
    assert u.render() == "(n + 1)*2^n"
    assert LinearRecurrence(()).render() == "0"


def test_from_relation_mersenne():
    u = from_relation([F(-2), F(3)], [F(0), F(1)])
    assert u == mersenne()


def test_from_relation_repeated_root():
    u = from_relation([F(-4), F(4)], [F(1), F(4)])
    assert u == from_closed_form([(F(2), UniPoly([F(1), F(1)]))])
    for n in range(6):
        assert u.evaluate(n) == (n + 1) * F(2) ** n


def test_from_relation_irrational_roots():
    with pytest.raises(IrrationalRoots) as info:
        from_relation([F(1), F(1)], [F(0), F(1)])
    assert info.value.residual == UniPoly([F(-1), F(-1), F(1)])
    # X^3 - 3X^2 + X + 2 = (X - 2)(X^2 - X - 1): the rational root 2 is
    # divided out of the characteristic polynomial and the rest reported.
    with pytest.raises(IrrationalRoots) as info:
        from_relation([-2, -1, 3], [0, 1, 2])
    assert info.value.residual == UniPoly([F(-1), F(-1), F(1)])


def test_from_relation_zero_root_companion():
    with pytest.raises(ZeroRoot):
        from_relation([F(0), F(1)], [F(1), F(2)])


@settings(max_examples=40)
@given(small_recurrences)
def test_relation_round_trip(u):
    if u.is_zero:
        return
    k = u.order
    char = UniPoly([F(1)])
    for root, coeff in u.terms:
        char = char * UniPoly([-root, F(1)]) ** (coeff.degree + 1)
    rel = [-char.coeff(i) for i in range(k)]
    initial = [u.evaluate(n) for n in range(k)]
    assert from_relation(rel, initial) == u


def test_zero_set_progression():
    u = from_closed_form([(F(1), F(1)), (F(-1), F(1))])
    report = zero_set(u, 50)
    assert report.progressions == ((2, 1),)
    assert report.sporadic == ()
    assert report.complete


def test_zero_set_sporadic():
    u = from_closed_form([(F(2), UniPoly([F(-3), F(1)]))])
    report = zero_set(u, 50)
    assert report.progressions == ()
    assert report.sporadic == (3,)
    assert report.complete


def test_zero_set_mixed():
    # 2^n - 2^(3 - n)-style cancellation: U(n) = 4^n - 64 vanishes at 3 only.
    u = from_closed_form([(F(4), F(1)), (F(1), F(-64))])
    report = zero_set(u, 40)
    assert report.sporadic == (3,)
    assert report.complete


def test_zero_set_of_zero_sequence():
    report = zero_set(LinearRecurrence(()), 10)
    assert report.progressions == ((1, 0),)
    assert report.complete


def test_zero_set_rejects_negative_bound():
    with pytest.raises(InputError):
        zero_set(mersenne(), -1)


@settings(max_examples=30, deadline=None)
@given(small_recurrences, st.integers(min_value=5, max_value=30))
def test_zero_set_matches_brute_force(u, bound):
    report = zero_set(u, bound)
    in_progression = lambda n: any(n % q == r for q, r in report.progressions)
    for n in range(bound + 1):
        expected = u.evaluate(n) == 0
        got = in_progression(n) or n in report.sporadic
        assert got == expected


@settings(max_examples=20, deadline=None)
@given(small_recurrences)
def test_zero_set_completeness_extends(u):
    report = zero_set(u, 30)
    if not report.complete:
        return
    in_progression = lambda n: any(n % q == r for q, r in report.progressions)
    for n in range(31, 60):
        if u.evaluate(n) == 0:
            assert in_progression(n)


def test_multi_recurrence_evaluate():
    w = MultiRecurrence(mersenne() * 3, F(2, 3))
    for m in range(-2, 4):
        for n in range(-2, 4):
            assert w.evaluate(m, n) == 3 * (F(2) ** m - 1) * F(2, 3) ** n


@settings(max_examples=60, deadline=None)
@given(small_recurrences, st.fractions(min_value=F(-5), max_value=F(5), max_denominator=4)
       .filter(bool), st.integers(-3, 5), st.integers(-3, 5))
def test_multi_recurrence_is_its_m_part_times_the_n_root_power(m_part, n_root, m, n):
    w = MultiRecurrence(m_part, n_root)
    assert w.evaluate(m, n) == m_part.evaluate(m) * n_root**n
    # The rational terms view gives the same value.
    assert w.evaluate(m, n) == sum(
        (sum(c * F(m) ** i * F(n) ** j for (i, j), c in coeff.terms.items()) * a**m * b**n
         for a, b, coeff in w.terms),
        F(0),
    )
    assert w == MultiRecurrence(from_closed_form(m_part.terms), n_root)
    assert hash(w) == hash(MultiRecurrence(from_closed_form(m_part.terms), n_root))


def test_multi_render():
    # Terms run by increasing m-root; a root of 1 leaves its power out, and
    # a coefficient of +-1 before a power is a bare sign.
    for pairs, n_root, text in [
        ([(3, 1), (1, -1)], 1, "-1 + 3^m"),
        ([(2, -1), (3, 1)], 1, "-2^m + 3^m"),
        ([(2, -1)], 3, "-2^m*3^n"),
        ([(1, 1)], F(1, 2), "(1/2)^n"),
        ([(1, -1)], -2, "-(-2)^n"),
        ([(1, F(-1, 2)), (3, 1)], 2, "-1/2*2^n + 3^m*2^n"),
        ([(2, [0, -1])], 1, "-m*2^m"),
        ([(2, [-1, 1])], F(-3, 4), "(m - 1)*2^m*(-3/4)^n"),
        ([(1, [0, 0, 2])], 5, "2*m^2*5^n"),
        ([(1, [1, 1])], 1, "(m + 1)"),
        ([], 2, "0"),
    ]:
        w = MultiRecurrence(from_closed_form(pairs), n_root)
        assert w.render() == text
        assert repr(w) == f"MultiRecurrence({text})"
    w = MultiRecurrence(from_closed_form([(2, [0, 1])]), 3)
    assert w.render(("a", "b")) == "a*2^a*3^b"


def test_cleared_recurrence_of():
    rec = from_closed_form([(F(3, 2), UniPoly((F(1, 3), F(1, 2)))), (F(-1, 4), F(5))])
    assert (rec.scale, rec.base) == (6, 4)
    assert rec.cleared_terms == ((-1, (30,)), (6, (2, 3)))


@settings(max_examples=80, deadline=None)
@given(small_recurrences, st.integers(0, 6), st.integers(0, 4), st.integers(1, 60))
def test_cleared_walk_matches_evaluate(rec, start, step, modulus):
    exact = rec.walk(start, step)
    residues = rec.walk(start, step, modulus)
    for j in range(8):
        k = start + step * j
        w = next(exact)
        assert w == rec.scale * rec.base**k * rec.evaluate(k)
        assert next(residues) == w % modulus


def test_evaluate_at_negative_indices():
    # 2^n - 1 at n = -1, -2, -3.
    u = mersenne()
    assert [u.evaluate(n) for n in (-1, -2, -3)] == [F(-1, 2), F(-3, 4), F(-7, 8)]
    # (n + 1/3) * (-3/2)^n + 5 * (1/4)^n at n = -1 and -2.
    v = from_closed_form([(F(-3, 2), UniPoly((F(1, 3), F(1)))), (F(1, 4), F(5))])
    assert v.evaluate(-1) == F(-2, 3) * F(-2, 3) + 20
    assert v.evaluate(-2) == F(-5, 3) * F(4, 9) + 80
    assert LinearRecurrence(()).evaluate(-4) == 0


# Repeated roots, zero coefficients and cancelling pairs, over signed
# rational roots and coefficients.
closed_form_pairs = st.lists(
    st.tuples(
        st.sampled_from([F(1), F(-1), F(2), F(-3), F(1, 2), F(-3, 2), F(5, 4), F(2, 9)]),
        st.lists(st.fractions(min_value=F(-4), max_value=F(4), max_denominator=6),
                 min_size=0, max_size=3),
    ),
    min_size=0, max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(closed_form_pairs)
def test_closed_form_matches_fraction_oracle(pairs):
    rec = from_closed_form(pairs)
    assert rec.terms == canonical_terms(pairs)
    assert rec.roots == tuple(root for root, _ in rec.terms)
    assert from_closed_form(rec.terms) == rec
    assert rec.base == math.lcm(*(root.denominator for root in rec.roots))
    assert rec.scale == math.lcm(
        *(c.denominator for _, coeff in rec.terms for c in coeff.coeffs)
    )
    assert rec.cleared_terms == tuple(
        (root * rec.base, tuple(c * rec.scale for c in coeff.coeffs))
        for root, coeff in rec.terms
    )


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(
        st.integers(-12, 12).filter(bool),
        st.lists(st.integers(-20, 20), max_size=3),
        max_size=4,
    ),
    st.integers(1, 36),
    st.integers(1, 36),
)
def test_constructor_normalizes_to_the_closed_form(terms, scale, base):
    rec = LinearRecurrence(terms.items(), scale, base)
    assert rec == from_closed_form(
        (F(root, base), [F(c, scale) for c in coeffs]) for root, coeffs in terms.items()
    )
    assert hash(rec) == hash(from_closed_form(rec.terms))


def test_constructor_rejects_bad_forms():
    with pytest.raises(ZeroRoot):
        LinearRecurrence([(0, (1,))])
    with pytest.raises(InputError):
        LinearRecurrence([(2, (1,)), (2, (3,))])
    for scale, base in ((0, 1), (1, 0), (-2, 1), (1, -3)):
        with pytest.raises(InputError):
            LinearRecurrence([(2, (1,))], scale, base)


def test_constructor_drops_zero_terms_and_divides_out_gcds():
    rec = LinearRecurrence([(4, (6, 0)), (6, (0, 0)), (-2, (3, 9, 0))], 12, 8)
    assert (rec.scale, rec.base) == (4, 4)
    assert rec.cleared_terms == ((-1, (1, 3)), (2, (2,)))
    assert rec == from_closed_form([(F(1, 2), F(1, 2)), (F(-1, 4), [F(1, 4), F(3, 4)])])
    zero = LinearRecurrence([(3, (0,))], 5, 7)
    assert zero.is_zero and (zero.scale, zero.base) == (1, 1)


# from_relation re-derives the initial values and the relation from the
# closed form it found; under -O those checks must still run.  "initial"
# shifts the solved coefficients, "relation" swaps the root 2 of
# U(n + 1) = 2 U(n) for 3 (which still fits U(0)), and "singular" repeats
# the simple root 2 of U(n + 2) = 5 U(n + 1) - 6 U(n), so the system for
# the coefficients is singular.
_BROKEN_RELATION = """
import sys
from fractions import Fraction
import recurquot.recurrences as rec
from recurquot.errors import VerificationFailed
from recurquot.polys import UniPoly

if not sys.flags.optimize:
    raise SystemExit("not running under -O")
mode = sys.argv[1]
real_solve = rec.solve_rational
coeffs, initial = [2], [1]
if mode == "initial":
    rec.solve_rational = lambda matrix, rhs: [x + 1 for x in real_solve(matrix, rhs)]
elif mode == "relation":
    UniPoly.rational_roots = lambda self: [(Fraction(3), 1)]
else:
    UniPoly.rational_roots = lambda self: [(Fraction(2), 1)] * 2
    coeffs, initial = [-6, 5], [1, 1]
try:
    rec.from_relation(coeffs, initial)
except VerificationFailed as exc:
    print("VerificationFailed:", exc)
else:
    print("broken closed form returned unchecked")
"""


@pytest.mark.parametrize("mode", ["initial", "relation", "singular"])
def test_broken_relation_form_is_caught_under_optimize(mode):
    assert_caught_under_optimize(_BROKEN_RELATION, mode)


# A zero n-root is refused by an explicit check, so -O keeps it out too
# (an assert would let it through, to render as 0^n).
_ZERO_N_ROOT = """
import sys
from recurquot.errors import ZeroRoot
from recurquot.recurrences import MultiRecurrence, geometric

if not sys.flags.optimize:
    raise SystemExit("not running under -O")
try:
    print("built", MultiRecurrence(geometric(2), 0).render())
except ZeroRoot as exc:
    print("ZeroRoot:", exc)
"""


def test_bad_multi_terms_raise_under_optimize():
    assert_caught_under_optimize(_ZERO_N_ROOT, error="ZeroRoot")


def test_bad_multi_terms_raise():
    for n_root in (0, F(0)):
        with pytest.raises(ZeroRoot):
            MultiRecurrence(geometric(2), n_root)


def _prime_exponents(n: int) -> dict[int, int]:
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


root_sets = st.lists(st.integers(min_value=1, max_value=2000), min_size=1, max_size=4, unique=True)


@settings(max_examples=150, deadline=None)
@given(root_sets, root_sets, st.lists(st.integers(min_value=-3, max_value=3), min_size=8,
                                      max_size=8))
def test_exponent_box_over_a_coprime_base_is_the_prime_box(u_roots, v_roots, exponents):
    # The box reads a coprime base found by gcds; trial division gives the
    # prime exponents, and both boxes must agree on elements of the group.
    from recurquot.factorization import coprime_base
    from recurquot.recurrences import _exponent_box
    roots = u_roots + v_roots
    base, exponents_of = coprime_base(roots)
    assert all(b > 1 for b in base)
    assert all(math.gcd(a, b) == 1 for i, a in enumerate(base) for b in base[i + 1:])
    for r in roots:
        assert math.prod(b**e for b, e in zip(base, exponents_of[r])) == r
    u, v = (LinearRecurrence([(r, (1,)) for r in rs]) for rs in (u_roots, v_roots))
    k = len(u_roots)
    rows = [_prime_exponents(r) for r in roots]
    primes = {p for row in rows for p in row}
    bounds = {p: (min(row.get(p, 0) for row in rows[:k]) - min(row.get(p, 0) for row in rows[k:]),
                  max(row.get(p, 0) for row in rows[:k]) - max(row.get(p, 0) for row in rows[k:]))
              for p in primes}
    box = _exponent_box(u, v)
    probes = [F(a, b) for a in u_roots for b in v_roots] + [
        math.prod((F(r) ** e for r, e in zip(roots, exponents[shift:] + exponents[:shift])),
                  start=F(1))
        for shift in range(len(roots))]
    for x in probes:
        num, den = _prime_exponents(x.numerator), _prime_exponents(x.denominator)
        in_prime_box = all(lo <= num.get(p, 0) - den.get(p, 0) <= hi
                           for p, (lo, hi) in bounds.items())
        assert box((x.numerator, x.denominator)) == in_prime_box
