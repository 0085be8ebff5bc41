"""The index scans against the Fraction oracles in ``scan_oracles``."""

import math
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scan_oracles import (
    fraction_decay_check,
    fraction_search,
    fraction_zero_set,
    window_obstruction_scan,
)

from recurquot import integrality
from recurquot.errors import RecurquotError
from recurquot.factorization import factor_limit
from recurquot.heights import SIntegerSpec, decay_check
from recurquot.integrality import (
    FixedDenominator,
    PolynomialDenominatorBound,
    integrality_search,
    obstruction_scan,
)
from recurquot.places import Place
from recurquot.polys import UniPoly
from recurquot.recurrences import constant, from_closed_form, geometric, zero_set

F = Fraction


def outcome(f, *args):
    """The result, or the type of the library error raised."""
    try:
        return ("ok", f(*args))
    except RecurquotError as exc:
        return ("raises", type(exc))


def recurrences(roots, coeff_bound=3, max_degree=1, max_terms=3):
    polys = st.lists(
        st.fractions(min_value=-coeff_bound, max_value=coeff_bound, max_denominator=3),
        min_size=1, max_size=max_degree + 1,
    ).map(UniPoly)
    return st.lists(
        st.tuples(st.sampled_from(roots), polys), min_size=1, max_size=max_terms
    ).map(from_closed_form)


# Negative roots, roots with denominators, and roots divisible by small primes.
ROOTS = [F(1), F(-1), F(2), F(-2), F(3), F(-3), F(5), F(6), F(7), F(10),
         F(1, 2), F(-3, 2), F(2, 3), F(5, 4)]
SMALL_ROOTS = [F(1), F(-1), F(2), F(-2), F(3), F(1, 2), F(2, 3), F(-3, 2)]

policies = st.one_of(
    st.sampled_from([1, 2, 6, 12]).map(FixedDenominator),
    st.integers(0, 2).map(PolynomialDenominatorBound),
)
s_specs = st.one_of(st.none(), st.sets(st.sampled_from([2, 3, 5]), max_size=2).map(SIntegerSpec))


def mersenne(base):
    return from_closed_form([(F(base), F(1)), (F(1), F(-1))])


# -- integrality_search ------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(recurrences(ROOTS), recurrences(ROOTS), st.integers(1, 8), st.integers(1, 8),
       policies, s_specs)
# V(n) = n - 3 vanishes at n = 3; S strips the 2 of the denominator.
@example(from_closed_form([(F(1), F(6))]),
         from_closed_form([(F(1), UniPoly((F(-3), F(1))))]), 2, 5,
         FixedDenominator(2), SIntegerSpec([2]))
# fixed:3 over V = 9/2 with U = (5^m + 2)/2: the row's modulus is 18, and
# gcd(18, 3) = 3 leaves 6 to divide W(m) * den = (5^m + 2) * 2.  W(m) is
# odd, so an even m passes only through den's 2.
@example(from_closed_form([(F(5), F(1, 2)), (F(1), F(1))]), constant(F(9, 2)), 8, 1,
         FixedDenominator(3), None)
# poly:2 over V = 15, row n = 2: at m = 2, gcd(W, 15) = 3 is below
# ceil(15 / 4) = 4, and d_min = 5 just misses the bound 4.
@example(mersenne(2), constant(15), 4, 2, PolynomialDenominatorBound(2), None)
# U(m) = (3^m - 2^m) / 2^m over V = 5: d_min = 2^m, times 5 for odd m.  Row
# n = 4 accepts m = 4 with d_min = 16 = 4^2 exactly, though 5 / 16 is not an
# integer; in row 2 the first test accepts m = 4 and its B-part 16 > 4 then
# rejects it.  Under fixed:20, m = 3 and m = 4 pass the first test (need 1)
# and fail on the B-part.
@example(from_closed_form([(F(3, 2), F(1)), (F(1), F(-1))]), constant(5), 6, 4,
         PolynomialDenominatorBound(2), None)
@example(from_closed_form([(F(3, 2), F(1)), (F(1), F(-1))]), constant(5), 4, 1,
         FixedDenominator(20), None)
def test_search_matches_fraction_oracle(u, v, m_max, n_max, policy, s_spec):
    assert outcome(integrality_search, u, v, m_max, n_max, policy, s_spec) == outcome(
        fraction_search, u, v, m_max, n_max, policy, s_spec
    )


@settings(max_examples=80, deadline=None)
@given(recurrences(SMALL_ROOTS), recurrences(SMALL_ROOTS), st.integers(1, 4),
       st.integers(1, 5), policies, s_specs)
@example(mersenne(3), mersenne(2), 3, 5, FixedDenominator(1), None)
@example(geometric(F(3, 2)), mersenne(2), 2, 4, PolynomialDenominatorBound(2),
         SIntegerSpec([2]))
# W(m) = m - 126 + 2^100 for U(m) = W(m) / 2^m: at phi(127) = 126 the
# residue mod a word-sized power of 2 is 0 and v_2 = 100 is found by
# doubling; at m = 64, W(64) = 2^100 - 62 is not divisible by 2^64.
@example(from_closed_form([(F(1, 2), UniPoly((F(2**100 - 126), F(1))))]),
         from_closed_form([(F(1), F(127))]), 70, 2, FixedDenominator(2**26),
         SIntegerSpec([127]))
# W(m) = m - 64 + 2^70: v_2(W(64)) = 70 exceeds the cap 64, so U(64) = 64.
@example(from_closed_form([(F(1, 2), UniPoly((F(2**70 - 64), F(1))))]),
         from_closed_form([(F(1), F(1))]), 70, 1, FixedDenominator(1), None)
# U(m) = (3^m - 1) / 2^m over V = 4, a power of U's root denominator:
# phi(4) = 2 lies past the grid, and the 2 in V adds to the cap.
@example(from_closed_form([(F(3, 2), F(1)), (F(1, 2), F(-1))]),
         from_closed_form([(F(1), F(4))]), 1, 1, FixedDenominator(2), None)
@example(from_closed_form([(F(3, 2), F(1)), (F(1, 2), F(-1))]),
         from_closed_form([(F(1), F(4))]), 6, 1, FixedDenominator(64), None)
def test_totient_search_matches_fraction_oracle(u, v, m_max, n_max, policy, s_spec):
    args = (u, v, m_max, n_max, policy, s_spec, True)
    assert outcome(integrality_search, *args) == outcome(fraction_search, *args)


# Divisors whose values have small prime factors, so that rows of m_max up
# to 40 find a sieve prime below m_max; U's roots include denominators.
SIEVE_ROOTS = [F(1), F(-1), F(2), F(-2), F(3), F(4), F(5), F(7), F(10), F(1, 2), F(3, 2)]


@settings(max_examples=120, deadline=None)
@given(recurrences(SIEVE_ROOTS, max_terms=2), recurrences([F(1), F(2), F(3), F(4), F(-2)]),
       st.integers(10, 40), st.integers(1, 6), policies, s_specs, st.booleans())
# V(n) = 7: phi(7) = 6 is a grid cell, so the totient cell must not add a
# second hit at m = 6; 7 sieves with period 6 and the one class r = 6.
@example(mersenne(3), constant(7), 40, 2, FixedDenominator(1), None, True)
# 5^n - 1 has the prime 3 for even n and 2 is in S; (3/2)^m - 1 has B = 2.
@example(from_closed_form([(F(3, 2), F(1)), (F(1), F(-1))]), mersenne(5), 40, 6,
         FixedDenominator(2), SIntegerSpec([2]), False)
# Under poly:1 only primes above n sieve: 13 | 3^3 - 1 = 26 at n = 3.
@example(mersenne(3), mersenne(3), 40, 6, PolynomialDenominatorBound(1), None, True)
def test_sieved_search_matches_fraction_oracle(u, v, m_max, n_max, policy, s_spec, totient):
    args = (u, v, m_max, n_max, policy, s_spec, totient)
    assert outcome(integrality_search, *args) == outcome(fraction_search, *args)


# Each path of the search: a cap of 0 bits sends every row to its own walk,
# and 2^40 bits lets the rows share one residue table whenever they would
# walk more than m_max cells in all.
TABLE_CAPS = {"walk": 0, "table": 1 << 40}


@contextmanager
def counted_search(monkeypatch, path):
    """Force ``path``; yield the m values the rows read and the tables built."""
    real_indices, real_table = integrality._row_indices, integrality._residue_table
    read, tables = [], []

    def counting_indices(m_max, sieve):
        for m in real_indices(m_max, sieve):
            read.append(m)
            yield m

    def counting_table(u, m_max, modulus):
        tables.append(modulus)
        return real_table(u, m_max, modulus)

    with monkeypatch.context() as patch:
        patch.setattr(integrality, "_TABLE_BITS", TABLE_CAPS[path])
        patch.setattr(integrality, "_row_indices", counting_indices)
        patch.setattr(integrality, "_residue_table", counting_table)
        yield read, tables


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(list(TABLE_CAPS)), recurrences(SIEVE_ROOTS, max_terms=2),
       recurrences(ROOTS), st.integers(1, 40), st.integers(1, 6), policies, s_specs,
       st.booleans())
# V(n) = n - 3 vanishes at n = 3, and S strips the 2 of U's denominator.
@example("table", from_closed_form([(F(3, 2), F(1)), (F(1), F(-1))]),
         from_closed_form([(F(1), UniPoly((F(-3), F(1))))]), 30, 5, FixedDenominator(2),
         SIntegerSpec([2]), False)
# V(n) = 2^n is a power of U's root denominator: every row's modulus is 1,
# and only the B-part decides.
@example("table", from_closed_form([(F(3, 2), F(1)), (F(1), F(-1))]), geometric(F(2)),
         20, 6, PolynomialDenominatorBound(1), None, False)
# V(n) = 6^n has only the primes of S: modulus 1 again.
@example("table", mersenne(5), geometric(F(6)), 20, 4, FixedDenominator(1),
         SIntegerSpec([2, 3]), True)
# Totient cells past m_max: phi(2^n - 1) > 30 from n = 6 on.
@example("table", mersenne(3), mersenne(2), 30, 6, FixedDenominator(1), None, True)
@example("table", mersenne(3), mersenne(2), 300, 24, FixedDenominator(1), None, False)
@example("walk", mersenne(3), mersenne(2), 300, 24, FixedDenominator(1), None, False)
@example("table", mersenne(3), mersenne(2), 300, 24, PolynomialDenominatorBound(3), None, False)
@example("walk", mersenne(3), mersenne(2), 300, 24, PolynomialDenominatorBound(3), None, False)
def test_search_paths_match_fraction_oracle(path, u, v, m_max, n_max, policy, s_spec, totient):
    args = (u, v, m_max, n_max, policy, s_spec, totient)
    with mock.patch.object(integrality, "_TABLE_BITS", TABLE_CAPS[path]):
        got = outcome(integrality_search, *args)
    assert got == outcome(fraction_search, *args)


def test_sieved_search_walks_few_cells(monkeypatch):
    # (3^m - 1)/(2^n - 1): rows with n even are empty at q = 3, and most odd
    # rows read one class of ord_q(3).  Row 1 (V = 1) and rows 17 and 19,
    # whose primes lie above m_max, read every cell.  The count is of the
    # cells the rows read, from the shared table or from their own walks.
    m_max, n_max = 300, 24
    args = (mersenne(3), mersenne(2), m_max, n_max, FixedDenominator(1))
    expected = fraction_search(*args)
    for path in TABLE_CAPS:
        with counted_search(monkeypatch, path) as (read, tables):
            hits = integrality_search(*args)
        assert len(tables) == (path == "table")
        assert len(read) < m_max * n_max // 4
        assert hits == expected


def test_no_table_past_the_size_cap(monkeypatch):
    # To n = 60 the rows' moduli 2^n - 1 have an lcm of 1,106 bits, and
    # 2 * 10^4 residues of that size pass the cap: each row walks.
    assert math.lcm(*(2**n - 1 for n in range(1, 61))).bit_length() == 1106
    monkeypatch.setattr(integrality, "_residue_table",
                        lambda *args: pytest.fail("the search built a residue table"))
    hits = integrality_search(mersenne(3), mersenne(2), 20_000, 60, FixedDenominator(1))
    assert len(hits) == 26_288


@pytest.mark.parametrize("v, n_max, cells", [
    # V = 7: each row reads only the class m = 0 mod 6 of 3^m - 1 mod 7,
    # 12 cells in all against a table of 40.
    (constant(7), 2, [6, 12, 18, 24, 30, 36] * 2),
    # V = 2^31 - 1 is a prime past the trial primes: one row reads every
    # cell, as many as the table would hold.
    (constant(2**31 - 1), 1, list(range(1, 41))),
])
def test_no_table_unless_the_rows_walk_more_cells(monkeypatch, v, n_max, cells):
    args = (mersenne(3), v, 40, n_max, FixedDenominator(1))
    with counted_search(monkeypatch, "table") as (read, tables):
        hits = integrality_search(*args)
    assert tables == [] and read == cells
    assert hits == fraction_search(*args)


def test_sieve_prime_past_the_factoring_cap_falls_back():
    # The period of 3^m - 1 mod 23 needs 22 = 2 * 11 factored, and 11 is
    # above the cap, so row V = 23 walks every cell instead of raising.
    args = (mersenne(3), constant(23), 40, 1, FixedDenominator(1))
    with factor_limit(10):
        hits = integrality_search(*args)
    assert hits == fraction_search(*args)
    assert [h.m for h in hits] == list(range(11, 41, 11))


# -- obstruction_scan ------------------------------------------------------------------

progressions = st.integers(1, 6).flatmap(lambda q: st.tuples(st.just(q), st.integers(0, q - 1)))


@settings(max_examples=200, deadline=None)
@given(recurrences(ROOTS, max_degree=2), recurrences(ROOTS, max_degree=2), progressions,
       st.sampled_from([2, 3, 5, 7, 11, 13, 4]))
@example(geometric(3), mersenne(2), (3, 0), 7)
# The 7^m term vanishes mod 7 at every m >= 1.
@example(from_closed_form([(F(7), F(3)), (F(1), F(1))]), mersenne(2), (3, 0), 7)
# A coefficient that is non-constant mod 5: the period is 4 * 5.
@example(from_closed_form([(F(2), UniPoly((F(1), F(1))))]),
         from_closed_form([(F(2), UniPoly((F(0), F(5))))]), (2, 1), 5)
def test_obstruction_matches_window_oracle(u, v, progression, p):
    assert outcome(obstruction_scan, u, v, progression, p) == outcome(
        window_obstruction_scan, u, v, progression, p
    )


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 31])
def test_obstruction_certificates_match_window_oracle(p):
    # U(m) = (k p)^m - 1 is -1 mod p; V(n) = b^n - 1 vanishes mod p exactly
    # on multiples of ord_p(b).
    for b in (2, 3, 5):
        if b % p == 0:
            continue
        order = next(k for k in range(1, p) if pow(b, k, p) == 1)
        for a in (p, 2 * p, 3):
            for progression in ((order, 0), (order, 1 % order), (2 * order, order)):
                got = obstruction_scan(mersenne(a), mersenne(b), progression, p)
                assert got == window_obstruction_scan(mersenne(a), mersenne(b),
                                                      progression, p)
                assert got.period == p * (p - 1)


# -- decay_check -----------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(recurrences(ROOTS, max_degree=2), st.sampled_from([2, 3, 5, 7]),
       st.integers(1, 10), st.integers(0, 30))
# 2^n - 8 vanishes at n = 3 and is divisible by 7 when 3 | n.
@example(from_closed_form([(F(2), F(1)), (F(1), F(-8))]), 7, 1, 20)
# (n - 4) * 3^n vanishes at n = 4.
@example(from_closed_form([(F(3), UniPoly((F(-4), F(1))))]), 3, 1, 12)
# v_2(n)/n is 1/2 at n = 2 and at n = 4: the first index must win the tie.
@example(from_closed_form([(F(1), UniPoly((F(0), F(1))))]), 2, 1, 4)
def test_decay_at_p_matches_fraction_oracle(v, p, lo, length):
    place = Place.finite(p)
    assert outcome(decay_check, v, place, lo, lo + length) == outcome(
        fraction_decay_check, v, place, lo, lo + length
    )


# Ranges longer than the period of W mod p, so that only the zero classes
# are walked; p = 2 or 3 against the denominators 2 and 3 takes the exact
# walk, and p = 131 above the range walks every index modulo p^k.
@settings(max_examples=120, deadline=None)
@given(recurrences([F(1), F(-1), F(2), F(3), F(-3), F(5), F(7), F(1, 2), F(2, 3), F(5, 4)],
                   max_degree=2),
       st.sampled_from([2, 3, 5, 7, 11, 13, 131]), st.integers(1, 40), st.integers(20, 120))
# 2^n - 8 vanishes at n = 3, inside the zero class 0 mod 3 of W mod 7.
@example(from_closed_form([(F(2), F(1)), (F(1), F(-8))]), 7, 1, 90)
# (3/2)^n - 1 at p = 2, which divides B = 2: the exact walk.
@example(from_closed_form([(F(3, 2), F(1)), (F(1), F(-1))]), 2, 1, 60)
def test_decay_on_zero_classes_matches_fraction_oracle(v, p, lo, length):
    place = Place.finite(p)
    assert outcome(decay_check, v, place, lo, lo + length) == outcome(
        fraction_decay_check, v, place, lo, lo + length
    )


@pytest.mark.parametrize("v", [
    # v_3 = 40 at every n reaches the word modulus 3^31: each index is
    # evaluated exactly.
    constant(3**40),
    # v_3 = 30 at odd n is read off the residue; at even n it is at least
    # 31, and the exact value decides.
    from_closed_form([(F(2), F(3**30)), (F(1), F(-3**30))]),
])
def test_decay_at_p_past_the_word_modulus(v):
    report = decay_check(v, Place.finite(3), 1, 80)
    assert report == fraction_decay_check(v, Place.finite(3), 1, 80)
    assert report.argmax_n == 1 and len(report.samples) == 80


def test_decay_at_p_past_the_factoring_cap_walks_every_index():
    # The period of 2^n - 1 mod 23 needs 22 = 2 * 11 factored.
    with factor_limit(10):
        report = decay_check(mersenne(2), Place.finite(23), 1, 60)
    assert report == fraction_decay_check(mersenne(2), Place.finite(23), 1, 60)
    assert [n for n, _ in report.samples] == [11, 22, 33, 44, 55]


def test_decay_at_p_skips_a_zero_inside_a_zero_class():
    v = from_closed_form([(F(2), F(1)), (F(1), F(-8))])
    report = decay_check(v, Place.finite(7), 1, 60)
    assert report.skipped_zeros == (3,)
    assert [n for n, _ in report.samples] == list(range(6, 61, 3))
    assert report == fraction_decay_check(v, Place.finite(7), 1, 60)


# Small roots and short ranges keep the values that log_of factors small.
@settings(max_examples=100, deadline=None)
@given(recurrences([F(1), F(-1), F(1, 2), F(-1, 2), F(2, 3), F(3, 2), F(2)],
                   coeff_bound=2),
       st.integers(1, 6), st.integers(0, 8))
# 1 - 8 * (1/2)^n vanishes at n = 3 and has |V(n)| < 1 from n = 4 on.
@example(from_closed_form([(F(1), F(1)), (F(1, 2), F(-8))]), 1, 11)
# |V(n)| = |3 - n| / 4 is 1/2 at n = 1 and 1/4 at n = 2: the ratios tie at
# log 2, and the first index must win.
@example(from_closed_form([(F(1), UniPoly((F(3, 4), F(-1, 4))))]), 1, 5)
def test_decay_at_infinity_matches_fraction_oracle(v, lo, length):
    place = Place.archimedean()
    assert outcome(decay_check, v, place, lo, lo + length) == outcome(
        fraction_decay_check, v, place, lo, lo + length
    )


def test_decay_skipped_zeros():
    v = from_closed_form([(F(1), F(1)), (F(1, 2), F(-8))])
    report = decay_check(v, Place.archimedean(), 1, 12)
    assert report.skipped_zeros == (3,)
    assert [n for n, _ in report.samples] == list(range(4, 13))
    assert report == fraction_decay_check(v, Place.archimedean(), 1, 12)


# -- zero_set --------------------------------------------------------------------------------

# Signed roots with denominators, so that the cleared base B and scale c
# exceed 1, and opposite roots, whose sections mod 2 merge or cancel.
ZERO_ROOTS = [F(1), F(-1), F(2), F(-2), F(3), F(4), F(1, 2), F(3, 2), F(-3, 2),
              F(-5, 3), F(5, 3), F(2, 3), F(5, 4)]


def mirrored(u, sign):
    """(1 + sign * (-1)^n) * U(n): one section mod 2 is identically zero."""
    return u + from_closed_form([(-root, coeff.scale(sign)) for root, coeff in u.terms])


zero_set_inputs = st.one_of(
    recurrences(ZERO_ROOTS, max_degree=2),
    st.builds(mirrored, recurrences(ZERO_ROOTS, max_degree=2, max_terms=2),
              st.sampled_from([1, -1])),
)


@settings(max_examples=300, deadline=None)
@given(zero_set_inputs, st.integers(0, 150))
# (3/2)^n = 27/8 at n = 3 only; the odd section has the single zero.
@example(from_closed_form([(F(3, 2), F(1)), (F(1), F(-27, 8))]), 40)
# (n - 7) * (-3/2)^n: each section has one term; the even one's 2m - 7 has
# no integer root, the odd one's 2m - 6 vanishes at m = 3, that is n = 7.
@example(from_closed_form([(F(-3, 2), UniPoly((F(-7), F(1))))]), 20)
# (5/3)^n + (-5/3)^n vanishes on every odd n.
@example(from_closed_form([(F(-5, 3), F(1)), (F(5, 3), F(1))]), 50)
# 10^6 against (9/4)^m: the cutoff lies past a bound of 30, not of 150.
@example(from_closed_form([(F(3, 2), F(1)), (F(1), F(-10**6))]), 30)
@example(from_closed_form([(F(3, 2), F(1)), (F(1), F(-10**6))]), 150)
def test_zero_set_matches_fraction_oracle(u, bound):
    assert outcome(zero_set, u, bound) == outcome(fraction_zero_set, u, bound)
