from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurquot.errors import InputError, IrrationalRoots, ZeroRecurrence, ZeroRoot
from recurquot.places import Place
from recurquot.polys import UniPoly
from recurquot.recurrences import (
    ClearedRecurrence,
    LinearRecurrence,
    constant,
    dominant_split,
    from_closed_form,
    from_relation,
    geometric,
    multi_from_closed_form,
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
    u = mersenne().scale(F(1, 3))
    assert u.evaluate(4) == F(5)


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


def test_dominant_split_archimedean():
    v = geometric(3) + geometric(2) + constant(1)
    split = dominant_split(v, Place.archimedean())
    assert split.dominant.roots == (F(3),)
    assert split.rest.roots == (F(1), F(2))
    assert split.ratio_delta == F(2, 3)


def test_dominant_split_finite_place():
    v = geometric(2) + geometric(3)
    split = dominant_split(v, Place.finite(2))
    assert split.dominant.roots == (F(3),)
    assert split.ratio_delta == F(1, 2)


def test_dominant_split_tie():
    v = geometric(2) + geometric(-2)
    split = dominant_split(v, Place.archimedean())
    assert set(split.dominant.roots) == {F(2), F(-2)}
    assert split.rest.is_zero


def test_dominant_split_rejects_zero():
    with pytest.raises(ZeroRecurrence):
        dominant_split(LinearRecurrence(()), Place.archimedean())


def test_multi_recurrence_evaluate():
    w = multi_from_closed_form([(F(3), F(1), F(1)), (F(1), F(2), F(-1))])
    for m in range(4):
        for n in range(4):
            assert w.evaluate(m, n) == F(3) ** m - F(2) ** n


def test_multi_render():
    w = multi_from_closed_form([(F(3), F(1), F(1)), (F(1), F(1), F(-1))])
    text = w.render()
    assert "3^m" in text


def test_cleared_recurrence_of():
    rec = from_closed_form([(F(3, 2), UniPoly((F(1, 3), F(1, 2)))), (F(-1, 4), F(5))])
    cleared = ClearedRecurrence(rec)
    assert (cleared.scale, cleared.base) == (6, 4)
    assert cleared.terms == ((-1, (30,)), (6, (2, 3)))


@settings(max_examples=80, deadline=None)
@given(small_recurrences, st.integers(0, 6), st.integers(0, 4), st.integers(1, 60))
def test_cleared_walk_matches_evaluate(rec, start, step, modulus):
    cleared = ClearedRecurrence(rec)
    exact = cleared.walk(start, step)
    residues = cleared.walk(start, step, modulus)
    for j in range(8):
        k = start + step * j
        w = next(exact)
        assert w == cleared.scale * cleared.base**k * rec.evaluate(k)
        assert next(residues) == w % modulus
